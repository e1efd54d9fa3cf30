#!/usr/bin/env python3
"""Peak resident memory of one ``docstitch process`` run, per source tree.

Generates the benchmark's ``long_report`` document once (perfbench's
``gen.make_report`` with the benchmark's seeding, 1,800 pages by default)
and runs ``docstitch process`` on it in a fresh child interpreter per run,
importing ``docstitch`` from each given ``src`` directory in turn.  The
sources alternate run by run, so a drift of the host favours none of them::

    python3 tools/peak_rss.py PARENT/src src --runs 5

Each run's figure is the child's own ``ru_maxrss`` from ``os.wait4``: the
high-water mark of the process command alone.  The benchmark's
``peak_rss_mb`` is the high-water mark of a worker that also hashes every
artifact after each repetition, which can hide what a change does to the
command itself.  Prints one JSON object: every run, and per source the
median, minimum and maximum in MB.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CHILD = "import sys\nfrom docstitch.cli import main\nsys.exit(main(sys.argv[1:]))\n"


def peak_mb(src: Path, document: Path, out_dir: Path) -> float:
    """Run ``docstitch process document`` importing docstitch from ``src``;
    return the child's peak resident set in MB."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    with tempfile.TemporaryFile() as err:
        proc = subprocess.Popen(
            [sys.executable, "-c", CHILD, "process", str(document), "--out-dir", str(out_dir)],
            env=env, stdout=subprocess.DEVNULL, stderr=err,
        )
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            err.seek(0)
            tail = err.read()[-2000:].decode(errors="replace")
            raise SystemExit(f"{src}: process exited {proc.returncode}\n{tail}")
    return usage.ru_maxrss / 1024  # KB on Linux


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("src", nargs="+", type=Path, help="a directory holding the docstitch package")
    ap.add_argument("--pages", type=int, default=1800)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--runs", type=int, default=5, help="runs per source")
    args = ap.parse_args(argv)
    sys.path.insert(0, str(ROOT / "perfbench"))
    import gen

    runs: dict[str, list[float]] = {str(src): [] for src in args.src}
    with tempfile.TemporaryDirectory() as tmp:
        document = Path(tmp) / "long_report.json"
        doc = gen.make_report(random.Random(f"long_report:{args.seed}"), "long_report", args.pages)
        document.write_text(json.dumps(doc), encoding="utf-8")
        del doc
        for i in range(args.runs):
            # Rotate the order each round so that no source always runs first.
            order = args.src[i % len(args.src):] + args.src[: i % len(args.src)]
            for src in order:
                runs[str(src)].append(peak_mb(src.resolve(), document, Path(tmp) / "out"))
    summary = {
        src: {"median_mb": statistics.median(v), "min_mb": min(v), "max_mb": max(v)}
        for src, v in runs.items()
    }
    print(json.dumps({"pages": args.pages, "seed": args.seed, "runs": runs, "summary": summary}, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
