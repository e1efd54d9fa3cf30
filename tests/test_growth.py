"""Cost grows linearly with the document, counted rather than timed.

A rules-mode run and both exports of one generated report are traced at
two sizes with ``sys.settrace``, which counts the Python lines each
``docstitch`` module executes.  Line counts do not drift with the host as
timings do, so a per-chunk rescan of the whole document (work that grows
with chunks times elements) fails here as a count, whatever the machine.

Blind spot: loops that run inside C, such as ``x in list``,
``list.insert`` or ``str.join``, execute no Python line and are not
counted, so a quadratic loop of that kind passes this test.
"""

from __future__ import annotations

import random
import sys
from collections import Counter
from pathlib import Path

import docstitch
from docstitch.exporters import export_json, export_markdown
from docstitch.model import CanonicalDocument
from docstitch.pipeline import PipelineConfig, run_pipeline

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
PACKAGE = Path(docstitch.__file__).resolve().parent

SMALL, LARGE = 60, 240
# Only modules that run this many lines on the small report are gated: the
# few warnings built in errors.py (16 lines at 60 pages) do not grow in
# proportion to the elements, and nothing is quadratic about that.
GATED_LINES = 1_000
MARGIN = 1.25  # over the element ratio


def _traced_lines(doc: CanonicalDocument) -> Counter:
    """Lines executed per package module by a rules run and both exports."""
    counts: Counter = Counter()
    package = str(PACKAGE)

    def line(frame, event, arg):
        if event == "line":
            counts[frame.f_code.co_filename] += 1
        return line

    def call(frame, event, arg):
        return line if frame.f_code.co_filename.startswith(package) else None

    previous = sys.gettrace()
    sys.settrace(call)
    try:
        result = run_pipeline(doc, PipelineConfig())
        export_json(result.tree)
        export_markdown(result.tree)
    finally:
        sys.settrace(previous)
    return Counter({str(Path(f).relative_to(PACKAGE)): n for f, n in counts.items()})


def test_lines_per_module_grow_with_the_elements(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import gen

    docs = [
        CanonicalDocument.from_dict(gen.make_report(random.Random(1), "growth", pages))
        for pages in (SMALL, LARGE)
    ]
    small, large = (_traced_lines(doc) for doc in docs)
    element_ratio = len(docs[1].elements) / len(docs[0].elements)

    gated = {module: n for module, n in small.items() if n >= GATED_LINES}
    assert {"filtering.py", "pipeline.py", "tables.py", "exporters.py"} <= set(gated)
    grown = {
        module: (n, large[module])
        for module, n in gated.items()
        if large[module] > MARGIN * element_ratio * n
    }
    assert not grown, (
        f"elements grew x{element_ratio:.2f} from {SMALL} to {LARGE} pages; these modules "
        f"ran more than x{MARGIN * element_ratio:.2f} the lines: "
        + ", ".join(f"{m} {a} -> {b} (x{b / a:.2f})" for m, (a, b) in sorted(grown.items()))
    )
