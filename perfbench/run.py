#!/usr/bin/env python3
"""docstitch benchmark: seeded workloads through the ``docstitch process`` path.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload long_report --seed 1 --seconds 20 --trace 0

Workloads (see ``WORKLOADS``):

* ``long_report``: one long report in rules mode, where the chunked
  pipeline's size-dependent layers (per-chunk filter rescans, repeated table
  parsing, list rebuilds on every merge) do most of the work.
* ``remote_report``: a report in remote-predictor mode against a threaded
  mock backend with a fixed 10 ms latency; backend waits, dispatch
  concurrency and duplicate requests set the time.  Its input is a raw
  MinerU content list read with ``--profile mineru``, so the normalizer is
  on the measured path too.

With ``--trace 0`` the last stdout line reports the end-to-end metrics
(``setup_s``, ``wall_s``, ``elements_per_s``, ``peak_rss_mb``) measured with
tracing off: ``wall_s`` is the mean of the run's closed-loop repetitions
(the report line also gives their median, minimum and sample count) and
``setup_s`` the median of its cold starts.  The mean, not the median: on a
shared host the repetition times fall into a fast and a slow mode as the
neighbours' load comes and goes in phases of seconds, and a median over
one run jumps between the modes where the mean follows the share of time
spent in each.  With ``--trace 1`` it
reports the per-layer metrics of a separate traced run, growth exponents
from a second traced size (a quarter of the workload) and the tracing
overhead.  Lines before it are a readable report that also gives
``backend_calls`` and ``fail_ratio`` with their base.

Every run checks its outputs (text and table conservation, tree
completeness, written artifacts against a direct pipeline run) and requires
every repetition's artifacts to hash to one digest, which must equal the
digest pinned in ``perfbench/digests.json`` for that workload and seed when
one is pinned.  A failed check prints ``"correct": false`` and exits 1.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402

WORKER_TIMEOUT_S = 150

WORKLOADS = {
    "long_report": {"pages": 1800, "mineru": False, "config": {}},
    "remote_report": {
        "pages": 375,
        "mineru": True,
        "config": {"profile": "mineru", "predictor": {"mode": "remote", "parallelism": 2}},
    },
}

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "elements_per_s": "1/s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The benchmark cannot run here; reported without a result line."""


def write_inputs(name: str, seed: int, work: Path) -> dict:
    """Generate the workload's document at full and at quarter size; return
    their paths and the full document's shape."""
    w = WORKLOADS[name]
    big, small = work / "in", work / "in-small"
    big.mkdir(parents=True)
    small.mkdir()
    doc = gen.make_report(random.Random(f"{name}:{seed}"), name, w["pages"])
    quarter_doc = gen.make_report(random.Random(f"{name}:{seed}:quarter"), name, w["pages"] // 4)
    for directory, d in ((big, doc), (small, quarter_doc)):
        body = gen.to_mineru(d) if w["mineru"] else d
        (directory / f"{name}.json").write_text(json.dumps(body), encoding="utf-8")
    return {
        "inputs": [str(big / f"{name}.json")],
        "small_inputs": [str(small / f"{name}.json")],
        "docs": 1,
        "mineru_docs": int(w["mineru"]),
        "pages": doc["page_count"],
        "elements": len(doc["elements"]),
        "small_elements": len(quarter_doc["elements"]),
        "type_shares": gen.type_shares([doc]),
    }


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["NO_PROXY"] = env["no_proxy"] = "127.0.0.1,localhost"
    return env


class MockBackend:
    """The mock backend process, started and stopped around the workload."""

    def __init__(self, seed: int):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "mock_backend.py"), "--seed", str(seed)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        line = self.proc.stdout.readline().split()
        if len(line) != 2 or line[0] != "PORT":
            self.close()
            raise BenchError("mock backend did not start")
        self.url = f"http://127.0.0.1:{line[1]}/"

    def close(self) -> None:
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def pinned_digest(name: str, seed: int) -> str | None:
    path = HERE / "digests.json"
    if not path.exists():
        return None
    return json.loads(path.read_text(encoding="utf-8")).get(name, {}).get(str(seed))


def percentile_note(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 20:
        return f"no percentile above the median has 10 samples beyond it at n={n}; max {max(values):.4f}"
    p = int(100 * (1 - 10 / n))
    return f"p{p} {statistics.quantiles(values, n=100, method='inclusive')[p - 1]:.4f}"


def run_workload(name: str, seed: int, seconds: int, trace: bool, work: Path) -> tuple[dict, list[str]]:
    shape = write_inputs(name, seed, work)
    config = json.loads(json.dumps(WORKLOADS[name]["config"]))
    mock = MockBackend(seed) if config.get("predictor", {}).get("mode") == "remote" else None
    try:
        if mock:
            config["predictor"]["backend_url"] = mock.url
        spec = {
            **shape,
            "workload": name,
            "config": config,
            "backend_url": mock.url if mock else None,
            "seconds": seconds,
            "trace": trace,
            "work": str(work),
            "result": str(work / "result.json"),
            "spans_out": str(ROOT / ".perfbench_out" / f"{name}-seed{seed}.spans.json"),
        }
        spec_path = work / "spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(spec_path)],
            cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise BenchError(f"workload process failed:\n{proc.stderr.strip()[-4000:]}")
        result = json.loads((work / "result.json").read_text(encoding="utf-8"))
    finally:
        if mock:
            mock.close()
    return summarize(name, seed, trace, shape, result)


def summarize(name: str, seed: int, trace: bool, shape: dict, result: dict) -> tuple[dict, list[str]]:
    walls = result["walls"]
    problems = list(result["problems"])
    pinned = pinned_digest(name, seed)
    digest = result["digests"][0] if len(result["digests"]) == 1 else None
    if digest is None:
        problems.append(f"artifact digest changed between repetitions: {result['digests']}")
        pin_note = "changed between repetitions"
    elif pinned is None:
        pin_note = "not pinned for this seed"
    elif digest == pinned:
        pin_note = "pinned, match"
    else:
        problems.append(f"artifact digest {digest} differs from pinned {pinned}")
        pin_note = "pinned, MISMATCH"
    if len(result["posts_per_rep"]) != 1:
        problems.append(f"backend calls changed between repetitions: {result['posts_per_rep']}")

    attempted = result["docs"] + result["requests"]
    failed = result["failed_docs"] + result["degraded"]
    wall = statistics.fmean(walls)
    lines = [
        f"workload {name} seed {seed}: {shape['docs']} documents ({shape['mineru_docs']} MinerU), "
        f"{shape['pages']} pages, {shape['elements']} elements",
        f"  element types: {json.dumps(shape['type_shares'])}",
        f"  wall_s         {wall:.4f} s     mean of n={len(walls)} closed-loop repetitions; "
        f"median {statistics.median(walls):.4f}; min {min(walls):.4f}; {percentile_note(walls)}",
        f"  elements_per_s {shape['elements'] / wall:.1f} 1/s   at {shape['elements']} elements",
    ]
    if not trace:
        setup = result["setup"]
        lines += [
            f"  setup_s        {statistics.median(setup):.4f} s     median of {len(setup)} cold starts "
            f"(min {min(setup):.4f}, max {max(setup):.4f})",
            f"  peak_rss_mb    {result['peak_rss_mb']:.1f} MB",
        ]
    lines += [
        f"  backend_calls  {result['posts_per_rep'][-1]} count  HTTP POSTs per process call, retries included",
        f"  fail_ratio     {failed / attempted:.4f} ratio  {failed} failed of {attempted} attempted "
        f"({result['docs']} documents + {result['requests']} backend requests)",
        f"  checks         {json.dumps(result['checks'])}",
        f"  digest         {digest or '-'} ({pin_note})",
    ]
    lines += [f"  PROBLEM {p}" for p in problems]

    if trace:
        metrics = {k: {"value": v, "unit": per_layer_unit(k)} for k, v in result["per_layer"].items()}
        lines.append(f"  traced wall_s  {result['per_layer']['trace.wall_s']:.4f} s mean of n={len(result['traced_walls'])}; "
                     f"overhead {result['per_layer']['trace.overhead_s']:+.4f} s")
        lines += [f"  {k:40s} {v['value']:.6g} {v['unit']}" for k, v in metrics.items()]
    else:
        values = {
            "setup_s": statistics.median(result["setup"]),
            "wall_s": wall,
            "elements_per_s": shape["elements"] / wall,
            "peak_rss_mb": result["peak_rss_mb"],
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    out = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    return out, lines


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("bytes"):
        return "bytes"
    if name.endswith((".growth", "_per_table", "_per_pair")):
        return "ratio"
    return "count"


def main() -> int:
    parser = argparse.ArgumentParser(description="docstitch benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "docstitch" / "__init__.py").is_file():
        print(f"perfbench: no docstitch sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        out, lines = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), work)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    print("\n".join(lines))
    print(json.dumps(out), flush=True)
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
