"""``bench/trajectory.py``'s summary of before/after runs, on canned run dicts (no subprocess)."""

import importlib.util
from pathlib import Path

import pytest

PATH = Path(__file__).resolve().parent.parent / "bench" / "trajectory.py"
spec = importlib.util.spec_from_file_location("trajectory", PATH)
trajectory = importlib.util.module_from_spec(spec)
spec.loader.exec_module(trajectory)


def run(workload, side, pair, failed=0, **values):
    units = {"wall_s": "s", "items_per_s": "1/s", "peak_rss_mb": "MB"}
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    result = {"correct": failed == 0, "failed": failed, "metrics": metrics}
    return {"workload": workload, "side": side, "pair": pair, "result": result}


BETTER = {"wall_s": "lower", "items_per_s": "higher", "peak_rss_mb": "lower"}


def test_a_change_that_wins_nine_of_ten_pairs_by_more_than_the_parent_spread_is_a_claim():
    parent = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]
    change = [0.90, 0.91, 0.89, 0.92, 0.88, 0.90, 0.97, 0.91, 0.89, 0.90]  # pair 6 ties
    runs = []
    for pair, (p, c) in enumerate(zip(parent, change)):
        runs.append(run("corpus", "parent", pair, wall_s=p, items_per_s=1 / p, peak_rss_mb=25.0))
        runs.append(run("corpus", "change", pair, wall_s=c, items_per_s=1 / c, peak_rss_mb=25.0 + pair % 2))
    summary = trajectory.summarize(runs, BETTER)
    assert summary["corpus"]["correct"] == {"parent": True, "change": True}
    assert summary["corpus"]["failed"] == {"parent": 0, "change": 0}
    wall = summary["corpus"]["metrics"]["wall_s"]
    assert (wall["unit"], wall["better"], wall["pairs"], wall["change_wins"], wall["ties"]) == ("s", "lower", 10, 9, 1)
    assert wall["parent"]["runs"] == parent and wall["change"]["runs"] == change
    assert wall["parent"]["median"] == pytest.approx(1.0)
    assert (wall["parent"]["q1"], wall["parent"]["q3"]) == pytest.approx((0.9825, 1.0175))
    assert wall["change"]["median"] == pytest.approx(0.90)
    assert wall["change_vs_parent"] == pytest.approx(-0.10)
    assert wall["claim"]
    # Higher is better for a rate: the same runs win it.
    rate = summary["corpus"]["metrics"]["items_per_s"]
    assert (rate["better"], rate["change_wins"], rate["ties"], rate["claim"]) == ("higher", 9, 1, True)
    # Equal or worse in every pair: no win and no claim.
    rss = summary["corpus"]["metrics"]["peak_rss_mb"]
    assert (rss["change_wins"], rss["ties"], rss["claim"]) == (0, 5, False)
    assert rss["change_vs_parent"] == pytest.approx(0.02)


def test_no_claim_below_nine_tenths_or_within_the_parent_spread():
    runs = []
    parent = [1.0, 1.5, 0.5, 1.4, 0.6, 1.0]  # a wide spread: q3 - q1 = 0.675
    for pair, p in enumerate(parent):
        runs.append(run("query", "parent", pair, wall_s=p))
        runs.append(run("query", "change", pair, wall_s=p - 0.1))  # wins every pair, by less than the spread
        runs.append(run("structured", "parent", pair, wall_s=1.0))
        runs.append(run("structured", "change", pair, wall_s=0.5 if pair < 5 else 1.5))  # wins 5 of 6
    summary = trajectory.summarize(runs, BETTER)
    query = summary["query"]["metrics"]["wall_s"]
    assert query["change_wins"] == 6 and not query["claim"]
    structured = summary["structured"]["metrics"]["wall_s"]
    assert structured["change_wins"] == 5 and not structured["claim"]


def test_an_incorrect_run_marks_its_side_and_an_unpaired_run_is_left_out():
    runs = [
        run("corpus", "parent", 0, wall_s=1.0),
        run("corpus", "change", 0, failed=2, wall_s=0.8),
        run("corpus", "parent", 1, wall_s=1.2),  # its change run is missing
    ]
    summary = trajectory.summarize(runs, BETTER)
    assert summary["corpus"]["correct"] == {"parent": True, "change": False}
    assert summary["corpus"]["failed"] == {"parent": 0, "change": 2}
    wall = summary["corpus"]["metrics"]["wall_s"]
    assert wall["pairs"] == 1 and wall["parent"]["runs"] == [1.0]
    assert (wall["parent"]["q1"], wall["parent"]["median"], wall["parent"]["q3"]) == (1.0, 1.0, 1.0)


@pytest.mark.parametrize("failing", ["parent", "change"])
def test_a_gain_is_no_claim_when_a_side_fails_items(failing):
    runs = []
    for pair in range(10):
        for side, wall in (("parent", 1.0 + pair / 1000), ("change", 0.5)):
            runs.append(run("corpus", side, pair, failed=int(side == failing and pair == 3), wall_s=wall))
    summary = trajectory.summarize(runs, BETTER)
    assert summary["corpus"]["failed"][failing] == 1
    wall = summary["corpus"]["metrics"]["wall_s"]
    assert wall["change_wins"] == 10 and not wall["claim"]
    clean = [{**r, "result": {**r["result"], "correct": True, "failed": 0}} for r in runs]
    assert trajectory.summarize(clean, BETTER)["corpus"]["metrics"]["wall_s"]["claim"]
