#!/usr/bin/env python3
"""Peak resident memory of one ``docstitch process`` run, per source tree.

Generates the benchmark's ``long_report`` document once (perfbench's
``gen.make_report`` with the benchmark's seeding, 1,800 pages by default)
and runs ``docstitch process`` on it in a fresh child interpreter per run,
importing ``docstitch`` from each given ``src`` directory in turn.  The
sources alternate run by run, so a drift of the host favours none of them::

    python3 tools/peak_rss.py PARENT/src src --runs 5

Each run gives two figures.  The child prints its ``ru_maxrss`` once the
process command returns: the high-water mark of the command alone.  It
then hashes every artifact with whole-file reads, as the benchmark
worker's ``digest_dir`` does after each repetition, and ``os.wait4`` gives
its high-water mark after that.  The benchmark's ``peak_rss_mb`` is such a
worker's, so the second figure shows the harness's share of it, which can
hide what a change does to the command itself.  Prints one JSON object:
every run (``runs`` the command's peaks, ``hashed_runs`` the peaks after
hashing), and per source the median, minimum and maximum of each in MB.
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
# argv: OUT_DIR, then the process command's arguments.  Prints the peak in
# KB before the hashing; hashlib, which loads OpenSSL, is imported after.
CHILD = """\
import contextlib, io, resource, sys
from pathlib import Path
from docstitch.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    status = main(sys.argv[2:])
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, flush=True)
import hashlib
h = hashlib.sha256()
for f in sorted(Path(sys.argv[1]).iterdir()):
    h.update(f.name.encode("utf-8") + b"\\0")
    h.update(f.read_bytes() + b"\\0")
sys.exit(status)
"""


def peak_mb(src: Path, document: Path, out_dir: Path) -> tuple[float, float]:
    """Run ``docstitch process document`` importing docstitch from ``src``,
    then hash its artifacts; return the child's peak resident set in MB
    before and after the hashing."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    argv = [str(out_dir), "process", str(document), "--out-dir", str(out_dir)]
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        proc = subprocess.Popen([sys.executable, "-c", CHILD, *argv], env=env, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            err.seek(0)
            tail = err.read()[-2000:].decode(errors="replace")
            raise SystemExit(f"{src}: process exited {proc.returncode}\n{tail}")
        out.seek(0)
        before_kb = int(out.read())
    return before_kb / 1024, usage.ru_maxrss / 1024  # KB on Linux


STATS = {"median": statistics.median, "min": min, "max": max}


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
    hashed_runs: dict[str, list[float]] = {str(src): [] for src in args.src}
    with tempfile.TemporaryDirectory() as tmp:
        document = Path(tmp) / "long_report.json"
        doc = gen.make_report(random.Random(f"long_report:{args.seed}"), "long_report", args.pages)
        document.write_text(json.dumps(doc), encoding="utf-8")
        del doc
        for i in range(args.runs):
            # Rotate the order each round so that no source always runs first.
            order = args.src[i % len(args.src):] + args.src[: i % len(args.src)]
            for src in order:
                before, after = peak_mb(src.resolve(), document, Path(tmp) / "out")
                runs[str(src)].append(before)
                hashed_runs[str(src)].append(after)
    summary = {
        src: {
            **{f"{k}_mb": f(runs[src]) for k, f in STATS.items()},
            **{f"hashed_{k}_mb": f(hashed_runs[src]) for k, f in STATS.items()},
        }
        for src in runs
    }
    print(json.dumps(
        {"pages": args.pages, "seed": args.seed, "runs": runs, "hashed_runs": hashed_runs,
         "summary": summary},
        indent=2,
    ))
    return 0


if __name__ == "__main__":
    sys.exit(main())
