"""Benchmark runner for ringgb.

    python3 perfbench/run.py --workload corpus|structured|query \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout: the program is imported from ``src/``.
One process, one thread, closed loop.  With ``--trace 0`` the runner
sets up the workload several times (``setup_s`` is the median), then
runs whole passes over the items until ``--seconds`` have elapsed, then
checks every output against ``references.json`` or by exact
certificate expansion.  With ``--trace 1`` it runs one untraced and one
traced pass and reports the per-layer metrics; the spans go to
``.bench_build/perfbench/``.  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import bisect
import json
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 7
#: A shared host's speed drifts by up to 1.7x within minutes, so times
#: are reported at a reference speed: a raw time is multiplied by
#: CAL_REFERENCE_S / m, where m is the median time of the three
#: calibration-kernel samples taken nearest to it and CAL_REFERENCE_S is
#: the kernel's median time on a quiet 2-core x86-64 host with Python 3.11.
CAL_REFERENCE_S = 0.006
CAL_INTERVAL_S = 0.2
#: Wall-clock guard for set-up and the timed passes, counted from the
#: start of set-up; items cut off by it count as failed.
GUARD_S = 150


class RunTimeout(Exception):
    """The run's wall-clock guard fired."""


def _alarm(signum, frame):
    raise RunTimeout(f"run exceeded its {GUARD_S} s guard")


def calibration_kernel():
    """Fixed pure-Python work in the style of the program's inner loops."""
    acc = {}
    for _ in range(5):
        for i in range(2500):
            t = (i % 7, i % 11, i % 5)
            acc[t] = (acc.get(t, 0) + i * 7919) % 32003
    return sorted(acc.items(), key=lambda m: (sum(m[0]), m[0]))


class Speedometer:
    """Times the calibration kernel at most every CAL_INTERVAL_S seconds."""

    def __init__(self):
        self.times = []  # when each sample started
        self.durations = []
        self.due = 0.0

    def tick(self, force=False):
        now = time.perf_counter()
        if force or now >= self.due:
            calibration_kernel()
            self.times.append(now)
            self.durations.append(time.perf_counter() - now)
            self.due = time.perf_counter() + CAL_INTERVAL_S

    def scale(self, since=0):
        """Host speed relative to the reference, from the samples since ``since``.

        Multiplying a raw time by it gives the time at reference speed.
        """
        return CAL_REFERENCE_S / statistics.median(self.durations[since:])

    def scale_at(self, when, k=3):
        """Like ``scale``, from the k samples nearest in time to ``when``."""
        i = bisect.bisect_left(self.times, when)
        window = range(max(0, i - k), min(len(self.times), i + k))
        nearest = sorted(window, key=lambda j: abs(self.times[j] - when))[:k]
        return CAL_REFERENCE_S / statistics.median(self.durations[j] for j in nearest)


def run_pass(items, meter, tracer=None):
    """One closed-loop pass: (per-item latencies at reference speed, outputs).

    Each latency is scaled by the host speed measured nearest to it.  An
    item that raises gets its exception as output.  If the guard fires,
    the interrupted item and the rest of the pass get the RunTimeout.
    """
    starts, latencies, outputs = [], [], []
    clock = time.perf_counter
    meter.tick(force=True)
    for index, item in enumerate(items):
        if tracer is not None:
            tracer.item = index
        try:
            meter.tick()
            t0 = clock()
            out = item.run()
        except RunTimeout as exc:
            outputs.extend([exc] * (len(items) - index))
            break
        except Exception as exc:  # an item failure is counted, never fatal
            out = exc
        latencies.append(clock() - t0)
        starts.append(t0)
        outputs.append(out)
    for _ in range(2):
        meter.tick(force=True)
    return [t * meter.scale_at(when) for t, when in zip(latencies, starts)], outputs


def verify(items, passes, references):
    """(attempted, failed, first failure messages) over every pass's outputs."""
    attempted = failed = 0
    seen = {}
    problems = []
    for outputs in passes:
        for item, out in zip(items, outputs):
            attempted += 1
            if isinstance(out, Exception):
                ok = False
                reason = f"{type(out).__name__}: {out}"
            else:
                key = (item.key, out if isinstance(out, str) else tuple(out))
                if key not in seen:
                    seen[key] = item.check(out, references.get(item.key))
                ok = seen[key]
                reason = "output differs from the reference"
            if not ok:
                failed += 1
                if len(problems) < 5:
                    problems.append(f"{item.key}: {reason}")
    return attempted, failed, problems


def percentile(values, q):
    """Inclusive-method quantile q (0-100) of at least one value."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(items, timed, setup_times):
    """End-to-end metrics from the timed passes: {name: (value, unit, samples)}.

    ``timed`` holds each pass's latencies at reference speed.  An item's
    latency is its median over the passes.
    """
    timed_items = [
        (item, statistics.median(lat[i] for lat in timed if i < len(lat)))
        for i, item in enumerate(items)
        if i < len(timed[0])
    ]
    per_item = [t for _, t in timed_items]
    executed = sum(len(lat) for lat in timed)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s", len(setup_times)),
        "wall_s": (sum(per_item), "s", len(timed)),
        "items_per_s": (executed / sum(sum(lat) for lat in timed), "1/s", executed),
        "item_p50_ms": (1000 * statistics.median(per_item), "ms", len(per_item)),
        "item_p95_ms": (1000 * percentile(per_item, 95), "ms", len(per_item)),
    }
    for label in ("gf", "qq", "zz"):
        share = [t for item, t in timed_items if item.ring == label]
        metrics[f"ring_s.{label}"] = (sum(share), "s", len(share))
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics["peak_rss_mb"] = (rss_kib / 1024, "MB", 1)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("corpus", "structured", "query"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    process_start = time.perf_counter()

    if not (ROOT / "src" / "ringgb" / "__init__.py").is_file():
        print(f"error: no ringgb sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from oracle import load_references
    from workloads import SETUPS

    references = load_references()
    setup = SETUPS[args.workload]
    meter = Speedometer()
    signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, GUARD_S)
    try:
        setup_times = []
        for _ in range(1 if args.trace else SETUP_REPEATS):
            for _ in range(3):
                meter.tick(force=True)
            t0 = time.perf_counter()
            items = setup(args.seed)
            setup_times.append((t0, time.perf_counter() - t0))
            for _ in range(2):
                meter.tick(force=True)
        setup_times = [t * meter.scale_at(t0) for t0, t in setup_times]
    except RunTimeout:
        print("error: set-up did not finish within the guard", file=sys.stderr)
        return 1
    passes, timed = [], []
    try:
        if args.trace:
            result = traced_run(args, items, meter, passes, timed)
        else:
            start = time.perf_counter()
            while not timed or time.perf_counter() - start < args.seconds:
                latencies, outputs = run_pass(items, meter)
                passes.append(outputs)
                timed.append(latencies)
                if isinstance(outputs[-1], RunTimeout):
                    break
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    if not timed[0]:
        print("error: the first item did not finish within the guard", file=sys.stderr)
        return 1
    if not args.trace:
        result = end_to_end(items, timed, setup_times)

    attempted, failed, problems = verify(items, passes, references)
    for line in problems:
        print(f"failed: {line}", file=sys.stderr)
    print(
        f"workload {args.workload} seed {args.seed}: {len(items)} items, {len(passes)} passes, "
        f"{time.perf_counter() - process_start:.1f} s; host speed "
        f"{meter.scale():.3f} of the reference (times below are at reference speed)"
    )
    print(f"fail_ratio {failed / attempted:.6g} ratio ({failed} of {attempted})")
    for name, (value, unit, *samples) in result.items():
        count = f" (n={samples[0]})" if samples else ""
        print(f"{name} {value:.6g} {unit}{count}")
    summary = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, *_) in result.items()},
    }
    print(json.dumps(summary))
    return 0


def traced_run(args, items, meter, passes, timed):
    """One untraced and one traced pass; per-layer metrics plus trace.overhead."""
    from tracing import Tracer

    for tracer in (None, Tracer()):
        if tracer is not None:
            tracer.install()
        first = len(meter.durations)
        try:
            latencies, outputs = run_pass(items, meter, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        passes.append(outputs)
        timed.append(latencies)
    tracer.write_spans(ROOT / ".bench_build" / "perfbench" / f"spans-{args.workload}-{args.seed}.csv.gz")
    metrics = tracer.layer_metrics(meter.scale(first))
    metrics["trace.overhead"] = (sum(timed[1]) / sum(timed[0]), "ratio")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
