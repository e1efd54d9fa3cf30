"""``tools/bench_pairs.py`` summarizes paired runs into the benchmark's gates."""

from __future__ import annotations

from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"

METRICS = [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "elements_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
]


def _run(wall_s, elements_per_s, failed=0):
    return {"correct": True, "attempted": 10, "failed": failed,
            "metrics": {"wall_s": wall_s, "elements_per_s": elements_per_s}}


@pytest.fixture
def summarize(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))
    import bench_pairs

    return bench_pairs.summarize


def test_worse_by_is_the_median_gap_in_the_worse_direction(summarize):
    # The change is 20 % slower and its rate 30 % lower.
    pairs = [{"parent": _run(1.0, 100.0), "change": _run(1.2, 70.0)} for _ in range(3)]
    out = summarize(pairs, METRICS)
    assert out["wall_s"]["worse_by"] == pytest.approx(0.2)
    assert out["wall_s"]["within_bound"] is True
    assert out["elements_per_s"]["worse_by"] == pytest.approx(0.3)
    assert out["elements_per_s"]["within_bound"] is False
    assert out["wall_s"]["change_better"] == "0/3"


def test_a_better_change_reads_negative_and_within_bound(summarize):
    pairs = [
        {"parent": _run(p, 100.0), "change": _run(c, 150.0)}
        for p, c in ((1.0, 0.5), (2.0, 1.0), (3.0, 1.5))
    ]
    out = summarize(pairs, METRICS)
    # medians 2.0 -> 1.0 and 100 -> 150
    assert out["wall_s"]["worse_by"] == pytest.approx(-0.5)
    assert out["elements_per_s"]["worse_by"] == pytest.approx(-0.5)
    assert out["wall_s"]["within_bound"] and out["elements_per_s"]["within_bound"]
    assert out["wall_s"]["change_better"] == "3/3"


def test_a_failed_pair_is_left_out_and_failed_ops_are_summed(summarize):
    pairs = [
        {"parent": _run(1.0, 100.0, failed=1), "change": _run(1.0, 100.0, failed=2)},
        {"parent": _run(1.0, 100.0), "change": {"correct": False, "returncode": 1, "stderr": ""}},
    ]
    out = summarize(pairs, METRICS)
    assert (out["pairs_run"], out["pairs_correct"]) == (2, 1)
    assert out["failed_ops"] == {"parent": 1, "change": 2}
    assert out["wall_s"]["worse_by"] == 0.0 and out["wall_s"]["within_bound"]
