"""The benchmark's tracer still finds every name it patches.

``perfbench/tracer.py`` rebinds functions and methods of the package by
name to time each layer.  A refactor that drops or moves one of those
names would break only a traced benchmark run; this test makes it fail
here instead.
"""

from __future__ import annotations

from pathlib import Path

from docstitch.cli import main
from docstitch.model import ElementType

from .conftest import CORPUS_DIR, load_corpus_doc

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_installs_and_uninstalls_around_a_process_run(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    t = tracer.Tracer()
    t.install()
    patched = list(t._saved)
    try:
        code = main(["process", str(CORPUS_DIR / "tables_galore.json"), "--out-dir", str(tmp_path)])
    finally:
        t.uninstall()
    assert code == 0
    assert patched
    for owner, attr, original in patched:
        assert owner.__dict__[attr] is original, (owner, attr)

    # Of the 8 tables, the run parses 5, each once: the pair (7, 8) fails
    # the width gate before any parse, and the pair (10, 11) stops at its
    # unparseable upper table.  Row windows are never parsed.
    doc = load_corpus_doc("tables_galore")
    n_tables = sum(1 for e in doc.elements if e.etype is ElementType.TABLE)
    metrics = t.metrics(n_tables, {})
    assert metrics["tables.parse.calls"] == 5
    assert metrics["tables.parse_per_table"] == 5 / n_tables
