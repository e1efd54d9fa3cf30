"""Child process that runs one workload: timed repetitions, checks, trace.

Started by ``perfbench/run.py`` with a JSON spec; writes its result JSON to
the path the spec names.  Running the workload in its own process keeps
its peak RSS apart from the generator's and the orchestrator's.

Each repetition is one ``docstitch process`` call through
``docstitch.cli.main`` into a fresh output directory (load, pipeline,
export, artifact writes).  The loop is closed: the next repetition starts
when the previous one has returned.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

from docstitch import cli
from docstitch.apply import check_table_conservation, check_text_conservation
from docstitch.exporters import export_json
from docstitch.ingest import normalize_elements
from docstitch.model import CanonicalDocument, ElementType
from docstitch.pipeline import PipelineConfig, run_pipeline

import tracer as tracing

_OPENER = urllib.request.build_opener(urllib.request.ProxyHandler({}))


class Backend:
    """Control client for the mock backend's counters."""

    def __init__(self, url: str):
        self.url = url.rstrip("/")

    def reset(self) -> None:
        _OPENER.open(urllib.request.Request(self.url + "/_reset", data=b"{}"), timeout=10).read()

    def stats(self) -> dict:
        with _OPENER.open(self.url + "/_stats", timeout=10) as resp:
            return json.loads(resp.read())


SETUP_CODE = (
    "import json, sys\n"
    "import docstitch.cli\n"
    "from docstitch.pipeline import PipelineConfig, make_predictor\n"
    "with open(sys.argv[1], encoding='utf-8') as f:\n"
    "    make_predictor(PipelineConfig.from_dict(json.load(f)))\n"
)
MIN_SETUP_SAMPLES = 7


def cold_start(config_path: Path) -> float:
    """Wall time of a fresh interpreter that imports the CLI and builds the
    workload's config and predictor."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(config_path)],
        capture_output=True, text=True, timeout=60,
    )
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"set-up interpreter failed:\n{proc.stderr.strip()}")
    return elapsed


def digest_dir(path: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(path.iterdir()):
        h.update(f.name.encode("utf-8") + b"\0")
        h.update(f.read_bytes() + b"\0")
    return h.hexdigest()


def load(path: Path, profile: str) -> CanonicalDocument:
    raw = json.loads(path.read_text(encoding="utf-8"))
    if isinstance(raw, dict):
        return CanonicalDocument.from_dict(raw)
    return normalize_elements(raw, profile, doc_id=path.stem).document


def table_count(inputs: list[Path], profile: str) -> int:
    return sum(
        1 for p in inputs for e in load(p, profile).elements if e.etype is ElementType.TABLE
    )


class Runner:
    """Runs repetitions of one workload and records digests and problems."""

    def __init__(self, spec: dict):
        self.spec = spec
        self.work = Path(spec["work"])
        self.config_path = self.work / "config.json"
        self.config_path.write_text(json.dumps(spec["config"]), encoding="utf-8")
        self.backend = Backend(spec["backend_url"]) if spec["backend_url"] else None
        self.digests: set[str] = set()
        self.problems: list[str] = []

    def rep(self, inputs: list[str], tag: str, tracer: tracing.Tracer | None = None, keep: bool = False) -> dict:
        """One closed-loop repetition; returns its wall time and counts.

        The artifacts of every repetition over the workload's own inputs
        must hash to one digest.  The output directory is removed unless
        ``keep`` is set.
        """
        out = self.work / f"out-{tag}"
        shutil.rmtree(out, ignore_errors=True)
        if self.backend:
            self.backend.reset()
        argv = ["process", *inputs, "--out-dir", str(out), "--config", str(self.config_path)]
        if tracer:
            tracer.install()
        try:
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(argv)
            wall = time.perf_counter() - t0
        finally:
            if tracer:
                tracer.uninstall()
        stats = self.backend.stats() if self.backend else {"posts": 0, "malformed": 0}
        failed_docs = degraded = 0
        for path in inputs:
            report = out / f"{Path(path).stem}.report.json"
            if not report.exists():
                failed_docs += 1
                continue
            warnings = json.loads(report.read_text(encoding="utf-8"))["warnings"]
            degraded += sum(1 for w in warnings if ":degraded:" in w)
        if rc != 0:
            self.problems.append(f"{tag}: docstitch process exited {rc}")
        if inputs == self.spec["inputs"]:
            self.digests.add(digest_dir(out))
        if not keep:
            shutil.rmtree(out, ignore_errors=True)
        return {
            "wall": wall,
            "docs": len(inputs),
            "failed_docs": failed_docs,
            "degraded": degraded,
            "posts": stats["posts"],
            "requests": stats["posts"] - stats["malformed"],
            "backend": stats,
            "out": out,
        }

    def check_outputs(self, inputs: list[str], out: Path) -> dict:
        """Conservation and completeness on every document, and agreement
        of the written tree artifact with a direct pipeline run."""
        cfg = PipelineConfig.from_dict(self.spec["config"])
        checked = {"text_conservation": 0, "table_conservation": 0, "tree_complete": 0, "artifact_match": 0}
        for path in inputs:
            doc = load(Path(path), cfg.profile)
            result = run_pipeline(doc, cfg)
            for name, problems in (
                ("text_conservation", check_text_conservation(doc, result.resolved)),
                ("table_conservation", check_table_conservation(doc, result.resolved)),
            ):
                if problems:
                    self.problems.append(f"{doc.doc_id}: {name}: {problems[:3]}")
                else:
                    checked[name] += 1
            if result.tree.element_idx_multiset() != sorted(e.idx for e in result.resolved.elements):
                self.problems.append(f"{doc.doc_id}: tree does not carry every element exactly once")
            else:
                checked["tree_complete"] += 1
            written = out / f"{doc.doc_id}.tree.json"
            if written.exists() and written.read_text(encoding="utf-8") == export_json(result.tree):
                checked["artifact_match"] += 1
            else:
                self.problems.append(f"{doc.doc_id}: written tree differs from a direct run")
        return checked


class Deadline:
    """The measuring window of ``seconds``: a loop starts another cycle
    only while a cycle of the mean length so far still ends inside it, so
    a run measures for about ``seconds`` and not up to one cycle more."""

    def __init__(self, seconds: float):
        self.start = time.perf_counter()
        self.end = self.start + seconds

    def room_for_another(self, cycles_done: int) -> bool:
        now = time.perf_counter()
        return now + (now - self.start) / cycles_done <= self.end


def measure(runner: Runner, spec: dict) -> tuple[dict, list[dict]]:
    """Untraced repetitions for the end-to-end metrics."""
    # One cold start after each repetition spreads the set-up samples over
    # the run instead of bunching them at one end.  The first may compile
    # bytecode and is dropped.
    cold_start(runner.config_path)
    reps: list[dict] = []
    setup: list[float] = []
    deadline = Deadline(spec["seconds"])
    while len(reps) < 3 or deadline.room_for_another(len(reps)):
        reps.append(runner.rep(spec["inputs"], "timed"))
        setup.append(cold_start(runner.config_path))
    while len(setup) < MIN_SETUP_SAMPLES:
        setup.append(cold_start(runner.config_path))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {"walls": [r["wall"] for r in reps], "setup": setup, "peak_rss_mb": peak_rss_mb}, reps


def measure_traced(runner: Runner, spec: dict) -> tuple[dict, list[dict]]:
    """Per-layer metrics from traced repetitions at the workload's size and
    at a quarter of it, with untraced repetitions for the overhead."""
    profile = spec["config"].get("profile", "generic")

    def traced_rep(inputs: list[str], tables: int, tag: str) -> tuple[dict, tracing.Tracer, dict]:
        tr = tracing.Tracer()
        r = runner.rep(inputs, tag, tr)
        return r, tr, tr.metrics(tables, r["backend"])

    tables = table_count([Path(p) for p in spec["inputs"]], profile)
    untraced: list[dict] = []
    traced: list[tuple[dict, tracing.Tracer, dict]] = []
    # Untraced and traced repetitions alternate so both see the same
    # machine conditions; the difference is the tracing overhead.
    deadline = Deadline(spec["seconds"])
    while len(traced) < 2 or deadline.room_for_another(len(traced)):
        untraced.append(runner.rep(spec["inputs"], "timed"))
        traced.append(traced_rep(spec["inputs"], tables, "traced"))
    small_tables = table_count([Path(p) for p in spec["small_inputs"]], profile)
    small = [traced_rep(spec["small_inputs"], small_tables, "small")[2] for _ in range(2)]

    layers = _median_metrics([m for _, _, m in traced])
    layers.update(tracing.growth(_median_metrics(small), layers, spec["elements"] / spec["small_elements"]))
    walls = [r["wall"] for r in untraced]
    traced_walls = [r["wall"] for r, _, _ in traced]
    layers["trace.wall_s"] = statistics.fmean(traced_walls)
    layers["trace.overhead_s"] = layers["trace.wall_s"] - statistics.fmean(walls)
    spans_path = Path(spec["spans_out"])
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    spans_path.write_text(json.dumps(traced[-1][1].dump_spans()), encoding="utf-8")
    return {"walls": walls, "traced_walls": traced_walls, "per_layer": layers}, untraced + [r for r, _, _ in traced]


def run(spec: dict) -> dict:
    runner = Runner(spec)
    warm = runner.rep(spec["inputs"], "warm", keep=True)
    result, reps = (measure_traced if spec["trace"] else measure)(runner, spec)
    # Checked last, so the check pass does not count in the peak RSS.
    result["checks"] = runner.check_outputs(spec["inputs"], warm["out"])
    shutil.rmtree(warm["out"], ignore_errors=True)
    result["posts_per_rep"] = sorted({r["posts"] for r in reps})
    for key in ("docs", "requests", "failed_docs", "degraded"):
        result[key] = sum(r[key] for r in reps)
    result["digests"] = sorted(runner.digests)
    result["problems"] = runner.problems
    return result


def _median_metrics(rows: list[dict]) -> dict:
    # median_low keeps counts whole: it always returns an observed value.
    return {k: statistics.median_low(row[k] for row in rows) for k in rows[0]}


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    result = run(spec)
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
