"""Per-layer timing of docstitch from outside the package.

``Tracer.install`` rebinds each traced public name where its caller looks
it up (``docstitch.pipeline.filter_titles``, ``docstitch.apply.merge_tables``,
``parse_table`` in the three modules that import it, predictor methods on
their classes, ...) to a wrapper that records a span; ``uninstall``
restores the originals.  Spans stay in memory until the run ends.

A span records its wall-clock start and end and the CPU time its thread
spent inside it (``time.thread_time``).  A layer's ``busy_s`` is self CPU
time: the span's CPU time minus that of its child spans, children being the
spans opened on the same thread while it was open.  CPU time, not wall time,
because remote predictions with parallelism 2 run on two threads at once:
a wall-clock span would also count the time its thread waited for the
interpreter lock while the other one ran, so the layers would read lock
contention.
For the same reason no ``busy_s`` holds time spent blocked: remote
predictions run on the pipeline's worker threads, their spans have no
parent, and the main thread's wait for them is in no layer's busy time;
their round trips are in ``predictors.remote.wait_s`` and the
``p50_ms``/``p90_ms`` figures, which are wall-clock.
"""

from __future__ import annotations

import functools
import math
import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

import docstitch.apply
import docstitch.cli
import docstitch.pipeline
import docstitch.predictors.rules
import docstitch.tables
from docstitch.predictors import FallbackPredictor
from docstitch.predictors.remote import RemotePredictor
from docstitch.predictors.rules import RulePredictor
from docstitch.tree import NodeKind

FILTERS = ("titles", "text", "association", "table")
PREDICT_METHODS = {
    "predict_title_hierarchy": "hierarchy",
    "predict_text_truncation": "text",
    "predict_association": "association",
    "predict_table_truncation": "table",
}
BACKEND_TASKS = ("title_hierarchy", "text_truncation", "association", "table_truncation")
APPLY_STEPS = ("apply", "apply.merge_text", "apply.merge_tables", "apply.assign_levels", "apply.attach_links")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    cpu: float = 0.0


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=dict)
    post_ms: list[float] = field(default_factory=list)
    tree_depths: list[int] = field(default_factory=list)
    _local: threading.local = field(default_factory=threading.local)
    _lock: threading.Lock = field(default_factory=threading.Lock)
    _saved: list[tuple[Any, str, Any]] = field(default_factory=list)

    # -- recording --------------------------------------------------------

    def count(self, name: str, n: float = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + n

    def _timed(self, name: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._local.__dict__.setdefault("stack", [])
            with tracer._lock:
                index = len(tracer.spans)
                tracer.spans.append(Span(name, 0.0, 0.0, stack[-1] if stack else None))
            stack.append(index)
            span = tracer.spans[index]
            span.start = time.perf_counter()
            cpu0 = time.thread_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.cpu = time.thread_time() - cpu0
                span.end = time.perf_counter()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _wrap(self, owner: Any, attr: str, name: str, after: Optional[Callable] = None) -> None:
        self._patch(owner, attr, self._timed(name, getattr(owner, attr), after))

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        pipeline, apply_mod, cli = docstitch.pipeline, docstitch.apply, docstitch.cli
        self._wrap(cli, "_process_one", "cli.process")
        self._wrap(cli, "_load_document", "model.load")
        self._wrap(cli, "normalize_elements", "ingest.normalize")
        self._wrap(cli, "run_pipeline", "pipeline.run")
        self._wrap(cli, "export_json", "exporters.json", self._count_bytes)
        self._wrap(cli, "export_markdown", "exporters.markdown", self._count_bytes)

        self._wrap(pipeline, "validate_document", "model.validate")
        self._wrap(pipeline, "plan_chunks", "chunking.plan",
                   lambda a, r: self.count("chunking.chunks", len(r.chunks)))
        self._wrap(pipeline, "filter_titles", "filtering.titles")
        self._wrap(pipeline, "filter_text_truncation_candidates", "filtering.text",
                   lambda a, r: self.count("filtering.text.candidates", len(r)))
        self._wrap(pipeline, "filter_association_candidates", "filtering.association")
        self._wrap(pipeline, "filter_table_truncation_candidates", "filtering.table",
                   lambda a, r: self.count("filtering.table.candidates", len(r.candidates)))
        self._wrap(pipeline, "synchronize_hierarchy", "chunking.sync")
        self._wrap(pipeline, "merge_union", "chunking.union")
        self._wrap(pipeline, "merge_table_union", "chunking.union", self._count_table_preds)
        self._wrap(pipeline, "apply_predictions", "apply")
        self._wrap(pipeline, "build_tree", "tree.build")
        self._wrap(pipeline, "chunk_nodes", "tree.chunk")
        self._wrap(pipeline, "summarize_nodes", "tree.summarize", self._tree_shape)

        for step in APPLY_STEPS[1:]:
            self._wrap(apply_mod, step.split(".")[1], step)
        for module in (docstitch.tables, apply_mod, docstitch.predictors.rules):
            self._wrap(module, "parse_table", "tables.parse")

        for method, short in PREDICT_METHODS.items():
            self._wrap(RulePredictor, method, f"predictors.rules.{short}")
            self._wrap(RemotePredictor, method, f"predictors.remote.{short}")
            self._patch(FallbackPredictor, method, self._degraded_counter(getattr(FallbackPredictor, method)))
        self._patch(RemotePredictor, "_post", self._post_timer(RemotePredictor._post))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- counters taken at layer boundaries ---------------------------------

    def _count_bytes(self, args, text: str) -> None:
        self.count("exporters.bytes", len(text.encode("utf-8")))

    def _count_table_preds(self, args, result) -> None:
        self.count("chunking.table_preds", sum(len(p.payload) for p in args[0]))
        self.count("chunking.table_pairs", len(result.judgements))

    def _tree_shape(self, args, tree) -> None:
        def depth(node, d: int) -> int:
            return max([d] + [depth(c, d + 1) for c in node.children])

        self.count("tree.nodes", sum(1 for n in tree.walk() if n.kind != NodeKind.ROOT))
        with self._lock:
            self.tree_depths.append(depth(tree.root, 0))

    def _degraded_counter(self, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(self_, req, *args):
            result = fn(self_, req, *args)
            if any(flag.startswith("degraded:") for flag in result.flags):
                tracer.count("predictors.remote.degraded")
            return result

        return wrapper

    def _post_timer(self, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(self_, body):
            t0 = time.perf_counter()
            try:
                return fn(self_, body)
            finally:
                ms = (time.perf_counter() - t0) * 1000.0
                with tracer._lock:
                    tracer.post_ms.append(ms)

        return wrapper

    # -- summary --------------------------------------------------------------

    def self_times(self) -> tuple[dict[str, float], dict[str, int]]:
        """Total self CPU time and call count per span name."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.cpu
        busy: dict[str, float] = {}
        calls: dict[str, int] = {}
        for span, children in zip(self.spans, child_time):
            busy[span.name] = busy.get(span.name, 0.0) + (span.cpu - children)
            calls[span.name] = calls.get(span.name, 0) + 1
        return busy, calls

    def metrics(self, table_elements: int, backend: dict) -> dict[str, float]:
        """The per-layer metrics of one traced repetition; ``backend`` holds
        the mock backend's counters, empty without one."""
        busy, calls = self.self_times()
        c = self.counts
        out: dict[str, float] = {}
        for f in FILTERS:
            out[f"filtering.{f}.busy_s"] = busy.get(f"filtering.{f}", 0.0)
            out[f"filtering.{f}.calls"] = calls.get(f"filtering.{f}", 0)
        out["filtering.text.candidates"] = c.get("filtering.text.candidates", 0)
        out["filtering.table.candidates"] = c.get("filtering.table.candidates", 0)
        out["model.validate.busy_s"] = busy.get("model.validate", 0.0)
        parses = calls.get("tables.parse", 0)
        out["tables.parse.busy_s"] = busy.get("tables.parse", 0.0)
        out["tables.parse.calls"] = parses
        out["tables.parse_per_table"] = parses / table_elements if table_elements else 0.0
        for step in APPLY_STEPS:
            out[f"{step}.busy_s"] = busy.get(step, 0.0)
        for stage in ("plan", "sync", "union"):
            out[f"chunking.{stage}.busy_s"] = busy.get(f"chunking.{stage}", 0.0)
        out["chunking.chunks"] = c.get("chunking.chunks", 0)
        pairs = c.get("chunking.table_pairs", 0)
        out["chunking.table_preds_per_pair"] = c.get("chunking.table_preds", 0) / pairs if pairs else 0.0
        for short in PREDICT_METHODS.values():
            out[f"predictors.rules.{short}.busy_s"] = busy.get(f"predictors.rules.{short}", 0.0)
            out[f"predictors.rules.{short}.calls"] = calls.get(f"predictors.rules.{short}", 0)
        remote_calls = sum(calls.get(f"predictors.remote.{s}", 0) for s in PREDICT_METHODS.values())
        posts = sorted(self.post_ms)
        out["predictors.remote.calls"] = remote_calls
        out["predictors.remote.retries"] = max(0, len(posts) - remote_calls)
        out["predictors.remote.degraded"] = c.get("predictors.remote.degraded", 0)
        out["predictors.remote.wait_s"] = sum(posts) / 1000.0
        out["predictors.remote.p50_ms"] = _quantile(posts, 0.50)
        out["predictors.remote.p90_ms"] = _quantile(posts, 0.90)
        out["backend.inflight_max"] = backend.get("inflight_max", 0)
        for task in BACKEND_TASKS:
            out[f"backend.calls.{task}"] = backend.get("calls", {}).get(task, 0)
        out["tree.build.busy_s"] = busy.get("tree.build", 0.0)
        out["tree.chunk.busy_s"] = busy.get("tree.chunk", 0.0)
        out["tree.summarize.busy_s"] = busy.get("tree.summarize", 0.0)
        out["tree.nodes"] = c.get("tree.nodes", 0)
        out["tree.depth"] = max(self.tree_depths, default=0)
        out["exporters.json.busy_s"] = busy.get("exporters.json", 0.0)
        out["exporters.markdown.busy_s"] = busy.get("exporters.markdown", 0.0)
        out["exporters.bytes"] = c.get("exporters.bytes", 0)
        out["ingest.normalize.busy_s"] = busy.get("ingest.normalize", 0.0)
        out["model.load.busy_s"] = busy.get("model.load", 0.0)
        out["cli.process.self_s"] = busy.get("cli.process", 0.0)
        out["pipeline.run.self_s"] = busy.get("pipeline.run", 0.0)
        return out

    def dump_spans(self) -> list[dict]:
        return [
            {"name": s.name, "start": s.start, "end": s.end, "cpu": s.cpu, "parent": s.parent}
            for s in self.spans
        ]


# Layers whose busy time is compared at two document sizes, and the spans
# each one sums.  The apply layer is ``apply_predictions`` with its four
# steps; its calls into the filters and the table parser count under those
# layers.
GROWTH_LAYERS = {
    "filtering.titles": ("filtering.titles",),
    "filtering.text": ("filtering.text",),
    "filtering.association": ("filtering.association",),
    "filtering.table": ("filtering.table",),
    "tables.parse": ("tables.parse",),
    "apply": APPLY_STEPS,
    "exporters.json": ("exporters.json",),
}


def growth(small: dict[str, float], large: dict[str, float], size_ratio: float) -> dict[str, float]:
    """Exponent k in busy ~ size**k between two sizes, per growth layer."""
    out = {}
    for layer, spans in GROWTH_LAYERS.items():
        a = sum(small[f"{s}.busy_s"] for s in spans)
        b = sum(large[f"{s}.busy_s"] for s in spans)
        out[f"{layer}.growth"] = math.log(b / a) / math.log(size_ratio) if a > 0 and b > 0 else 0.0
    return out


def _quantile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    if len(sorted_values) == 1:
        return sorted_values[0]
    return statistics.quantiles(sorted_values, n=100, method="inclusive")[round(q * 100) - 1]
