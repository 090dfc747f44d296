"""Before/after benchmark record: alternating runs of a parent and a change tree.

    python3 bench/trajectory.py --parent PARENT_TREE --change CHANGE_TREE \
        --pairs 10 --out BENCH_<n>.json

Each tree is a checkout of this repository, for instance a ``git clone``
of the parent commit beside the working tree.  For every workload of
``BENCHMARK.json`` the script runs ``perfbench/run.py`` of each tree in
a subprocess, for the benchmark's ``run_seconds`` at ``--seed`` (the
benchmark's documented seed 1 by default), in ``--pairs`` pairs,
alternating which side runs first, and keeps each run's own JSON.  The
record it writes holds, per workload, whether every run of each side
was correct and how many items each side failed in all, and per metric
each side's median and quartiles, the number of pairs the change won
(ties count for neither side), the claim: every run of both sides
correct, and the change winning at least nine tenths of the pairs with
medians apart by more than the parent's quartile spread, and the
verdict against the metric's ``bound`` in ``BENCHMARK.json``.  It also
holds the machine (platform, Python, cores) and every run.
``perfbench/run.py`` stays the benchmark's gate: this adds a record and
replaces no check.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def quartiles(values):
    """(q1, median, q3) of ``values``, inclusive method; one value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def verdict(parent, change, lower, bound):
    """Whether the change's runs are ``"worse"`` than the parent's, ``"unresolved"`` or ``"within"`` ``bound``.

    ``bound`` is a share of the parent's median.  ``worse``: the change's
    median is worse than the parent's by more than the bound.
    ``unresolved``: otherwise, the parent's q3 - q1 is wider than the
    bound, so the runs cannot tell a loss of that size, unless every
    change run beats every parent run.  ``within``: otherwise.
    """
    q1, base, q3 = quartiles(parent)
    now = quartiles(change)[1]
    if ((now - base) if lower else (base - now)) > bound * abs(base):
        return "worse"
    beats_all = max(change) < min(parent) if lower else min(change) > max(parent)
    if q3 - q1 > bound * abs(base) and not beats_all:
        return "unresolved"
    return "within"


def summarize(runs, better, bounds=None):
    """Per workload: ``correct`` and ``failed`` per side and, per metric, each side's spread and the change's wins.

    ``runs`` holds dicts ``{"workload", "side", "pair", "result"}``, with
    ``result`` the JSON object ``perfbench/run.py`` printed; ``better``
    maps a metric name to ``"lower"`` or ``"higher"`` (default lower),
    and ``bounds`` a metric name to its ``bound``.
    A pair counts for the change when its run beats the parent's run of
    the same pair.  ``claim`` is a gain by the rule: every run of both
    sides correct (a correct run failed no item, so the change fails no
    more than the parent), at least nine tenths of the pairs won, and
    medians apart by more than the parent's q3 - q1.  ``verdict`` is
    ``verdict``'s, or None for a metric without a bound.
    """
    bounds = bounds or {}
    out = {}
    for workload in sorted({run["workload"] for run in runs}):
        mine = [run for run in runs if run["workload"] == workload]
        by_side = {side: {run["pair"]: run["result"] for run in mine if run["side"] == side} for side in SIDES}
        correct = {side: all(result["correct"] for result in by_side[side].values()) for side in SIDES}
        failed = {side: sum(result["failed"] for result in by_side[side].values()) for side in SIDES}
        pairs = sorted(set(by_side["parent"]) & set(by_side["change"]))
        names = list(by_side["parent"][pairs[0]]["metrics"]) if pairs else []
        metrics = {}
        for name in names:
            lower = better.get(name, "lower") == "lower"
            value = {
                side: [by_side[side][pair]["metrics"][name]["value"] for pair in pairs] for side in SIDES
            }
            wins = sum((c < p) if lower else (c > p) for p, c in zip(value["parent"], value["change"]))
            ties = sum(c == p for p, c in zip(value["parent"], value["change"]))
            spread = {side: dict(zip(("q1", "median", "q3"), quartiles(value[side]))) for side in SIDES}
            base, now = spread["parent"]["median"], spread["change"]["median"]
            gain = (base - now) if lower else (now - base)
            metrics[name] = {
                "unit": by_side["parent"][pairs[0]]["metrics"][name]["unit"],
                "better": "lower" if lower else "higher",
                **{side: {**spread[side], "runs": value[side]} for side in SIDES},
                "change_vs_parent": now / base - 1 if base else None,
                "pairs": len(pairs),
                "change_wins": wins,
                "ties": ties,
                "claim": all(correct.values())
                and 10 * wins >= 9 * len(pairs)
                and gain > spread["parent"]["q3"] - spread["parent"]["q1"],
                "verdict": verdict(value["parent"], value["change"], lower, bounds[name]) if name in bounds else None,
            }
        out[workload] = {"correct": correct, "failed": failed, "metrics": metrics}
    return out


def machine():
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "cores": os.cpu_count(),
    }


def label(tree: Path) -> str:
    """The tree's commit, ``git describe --always --dirty``, or else its directory name."""
    try:
        described = subprocess.run(
            ["git", "-C", str(tree), "describe", "--always", "--dirty"], capture_output=True, text=True, check=True
        )
    except (OSError, subprocess.CalledProcessError):
        return tree.name
    return described.stdout.strip()


def run_one(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` run in ``tree``: its JSON line plus the host speed it reported."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)],
        cwd=tree,
        capture_output=True,
        text=True,
        check=True,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    speed = re.search(r"host speed ([0-9.]+)", done.stdout)
    result["host_speed"] = float(speed.group(1)) if speed else None
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    benchmark = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    better = {metric["name"]: metric["better"] for metric in benchmark["end_to_end"]}
    bounds = {metric["name"]: metric["bound"] for metric in benchmark["end_to_end"]}
    record = {
        "machine": machine(),
        "settings": {
            "pairs": args.pairs,
            "seed": args.seed,
            "seconds": benchmark["run_seconds"],
            "parent": label(trees["parent"]),
            "change": label(trees["change"]),
        },
    }
    runs = []
    for workload in (entry["name"] for entry in benchmark["workloads"]):
        for pair in range(args.pairs):
            for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
                result = run_one(trees[side], workload, args.seed, benchmark["run_seconds"])
                runs.append({"workload": workload, "side": side, "pair": pair, "result": result})
                print(f"{workload} pair {pair} {side}: {json.dumps(result['metrics'].get('wall_s'))}", file=sys.stderr)
                # Rewritten after every run, so a run that fails leaves the earlier ones recorded.
                record.update(workloads=summarize(runs, better, bounds), runs=runs)
                args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
