#!/usr/bin/env python3
"""Paired benchmark runs of two checkouts: a parent commit and a change.

Runs ``perfbench/run.py --trace 0`` from each checkout in turn, alternating
which one goes first in each pair so that a drift of the shared host does
not favour one side, and writes every run plus a per-metric summary to a
JSON file::

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload long_report \\
        --workload remote_report --seed 1 --pairs 10 --out BENCH.json

Each checkout runs its own ``perfbench/`` against its own ``src/``.  Every
run works in a fresh copy of its checkout without ``__pycache__`` and with
``PYTHONDONTWRITEBYTECODE=1``, so each cold start compiles ``src/`` as it
does in a new checkout, whatever bytecode either checkout holds.  (A
``PYTHONPYCACHEPREFIX`` would hide the standard library's bytecode too,
and compiling it would dominate ``setup_s``.)  The run
length and the end-to-end metrics with their direction come from the
change checkout's ``BENCHMARK.json``, so both sides run the benchmark's
length.  For each workload and metric the summary gives both sides'
median, quartiles and range; ``change_better``, the number of pairs in
which the change read better, ties counting for neither side;
``parent_iqr``, the parent's interquartile range (q3 - q1);
``gap_exceeds_parent_iqr``, whether the two medians differ by more than
that range; ``worse_by``, the gap between the medians relative to the
parent's median, positive when the change reads worse in the metric's
direction and negative when it reads better; and ``within_bound``, the
no-regression gate, whether ``worse_by`` is at most the metric's ``bound``
in ``BENCHMARK.json``.  A gain is claimed only when the change reads better
in at least nine pairs of ten and the gap exceeds the range.  A run that
exits non-zero or does not print ``"correct": true`` is recorded with its
stderr tail and left out of the summary.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

RUN_TIMEOUT_S = 900
RUN_ENV = {"PYTHONDONTWRITEBYTECODE": "1"}
NOT_COPIED = ("__pycache__", ".git", ".perfbench_work", ".perfbench_out", ".hypothesis",
              ".pytest_cache")


def run_once(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    with tempfile.TemporaryDirectory(prefix="bench_pairs.") as tmp:
        copy = Path(tmp) / "checkout"
        shutil.copytree(checkout, copy, ignore=shutil.ignore_patterns(*NOT_COPIED))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=copy, env={**os.environ, **RUN_ENV}, capture_output=True, text=True,
            timeout=RUN_TIMEOUT_S,
        )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {}
    if proc.returncode != 0 or result.get("correct") is not True:
        return {"correct": False, "returncode": proc.returncode, "stderr": proc.stderr[-2000:]}
    digest = next((ln.split()[1] for ln in lines if ln.strip().startswith("digest ")), None)
    return {
        "correct": True,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "digest": digest,
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": median, "q1": q1, "q3": q3, "min": min(values), "max": max(values)}


def summarize(pairs: list[dict], metrics: list[dict]) -> dict:
    ok = [p for p in pairs if p["parent"]["correct"] and p["change"]["correct"]]
    out: dict = {
        "pairs_run": len(pairs),
        "pairs_correct": len(ok),
        "failed_ops": {side: sum(p[side]["failed"] for p in ok) for side in ("parent", "change")},
    }
    if not ok:
        return out
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        parent = [p["parent"]["metrics"][name] for p in ok]
        change = [p["change"]["metrics"][name] for p in ok]
        better = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
        parent_spread, change_spread = spread(parent), spread(change)
        parent_iqr = parent_spread["q3"] - parent_spread["q1"]
        gap = change_spread["median"] - parent_spread["median"]
        worse_by = (gap if lower else -gap) / parent_spread["median"]
        out[name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            "parent": parent_spread,
            "change": change_spread,
            "change_better": f"{better}/{len(ok)}",
            "parent_iqr": parent_iqr,
            "gap_exceeds_parent_iqr": abs(gap) > parent_iqr,
            "worse_by": worse_by,
            "within_bound": worse_by <= metric["bound"],
        }
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    bench = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"]
    report: dict = {
        "seed": args.seed,
        "seconds": seconds,
        "env": RUN_ENV,
        "checkout": f"fresh copy per run, without {', '.join(NOT_COPIED)}",
        "workloads": {},
    }
    for workload in args.workload:
        pairs = []
        for i in range(args.pairs):
            sides = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {"first": sides[0]}
            for side in sides:
                pair[side] = run_once(getattr(args, side), workload, args.seed, seconds)
            pairs.append(pair)
            print(f"{workload} pair {i + 1}/{args.pairs}: " + "; ".join(
                f"{side} " + (", ".join(
                    f"{m['name']} {pair[side]['metrics'][m['name']]:.4g}" for m in bench["end_to_end"]
                ) if pair[side]["correct"] else "failed")
                for side in ("parent", "change")), file=sys.stderr, flush=True)
        report["workloads"][workload] = {
            "summary": summarize(pairs, bench["end_to_end"]),
            "pairs": pairs,
        }
        # Written after each workload, so an interrupted run keeps the finished ones.
        args.out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
