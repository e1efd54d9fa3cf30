"""Command-line surface: normalize, process, eval, export, inspect-chunks.

Each pipeline stage is independently runnable for debugging.  Config
precedence is CLI flag > environment > config file > default; the backend
auth token is only ever read from the environment and never logged.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import sys
import threading
from pathlib import Path
from typing import Callable, Optional, TextIO

from .errors import ConfigError, DocstitchError, DuplicateDocId, bad_field
from .exporters import export_json, export_markdown, tree_from_dict, write_json
from .ingest import normalize_elements
from .jsonio import read_json, write_pretty
from .model import CanonicalDocument, int_key, validate_document
from .pipeline import PipelineConfig, plan_subtasks, run_pipeline, thread_map

BACKEND_URL_ENV_VAR = "DOCSTITCH_BACKEND_URL"


def _write_file(path: Path, write: Callable[[TextIO], object]) -> None:
    """Call ``write`` on a temporary text file beside ``path``, then rename
    it over ``path``: a write that fails leaves the previous file whole and
    no temporary file behind.  (No fsync: this guards against a failed run,
    not against power loss.)"""
    # Not tempfile.mkstemp: its 0600 mode would change the artifact's
    # permissions.  The name is unique per process and thread.
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as f:
            write(f)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_text(path: Path, text: str) -> None:
    _write_file(path, lambda f: f.write(text))


def _write_pretty(obj: object, f: TextIO) -> None:
    write_pretty(obj, f.write)
    f.write("\n")


# Characters per write to stdout: at most 4 KiB of UTF-8, which fits its
# buffer and is one atomic write to a pipe.  A larger write that the
# reader cuts short loses its rest with no error, as the buffer reports a
# short count that the text layer drops; a small one fails whole.
_STDOUT_SLICE = 1024


class _StdoutClosed(Exception):
    """stdout's reader went away, as in ``docstitch ... | head``."""


def _write_stdout(text: str, flush: bool = False) -> None:
    """Write ``text`` to stdout, then flush it if ``flush``; a broken pipe
    here, and only here, is raised as ``_StdoutClosed``."""
    try:
        for start in range(0, len(text), _STDOUT_SLICE):
            sys.stdout.write(text[start:start + _STDOUT_SLICE])
        if flush:
            sys.stdout.flush()
    except BrokenPipeError as exc:
        raise _StdoutClosed from exc


def _dump(obj: object, path: Optional[Path] = None) -> None:
    """Write ``dumps_pretty(obj) + "\\n"`` to ``path``, or to stdout, in
    bounded pieces: the whole text is never held at once."""
    if path is None:
        write_pretty(obj, _write_stdout)
        _write_stdout("\n")
    else:
        _write_file(path, lambda f: _write_pretty(obj, f))


def _load_document(path: Path, profile: str) -> CanonicalDocument:
    """Accept a canonical-document JSON or a raw OCR block list or wrapper
    object: an object with a doc_id is canonical when an element has an idx."""
    raw = read_json(path)
    elements = raw.get("elements") if isinstance(raw, dict) and "doc_id" in raw else None
    if isinstance(elements, list) and any(isinstance(e, dict) and "idx" in e for e in elements):
        return CanonicalDocument.from_dict(raw)  # type: ignore[arg-type]
    result = normalize_elements(raw, profile, doc_id=path.stem)  # type: ignore[arg-type]
    return result.document


def _formats(value: str) -> list[str]:
    """The config file's list of export formats for a --format value."""
    return ["json", "markdown"] if value == "both" else [value]


# Each settings flag: the config (section, key) whose rule reads its value,
# how the flag's text becomes a value of the config file's kind (an integer
# as ``model.int_key`` reads it), and its argparse options.  A flag has no
# default, so only the flags given are in the parsed namespace, in
# command-line order.
SETTINGS_FLAGS: dict[
    str, tuple[tuple[Optional[str], str], Callable[[str], object], dict]
] = {
    "--profile": ((None, "profile"), str, {}),
    "--stride": (("chunking", "stride"), int_key, {}),
    "--threshold": (("chunking", "threshold"), int_key, {}),
    "--predictor": (("predictor", "mode"), str, {"choices": ("rules", "remote")}),
    "--backend-url": (("predictor", "backend_url"), str, {}),
    "--node-chunk-chars": (("tree", "node_chunk_chars"), int_key, {}),
    "--format": (("export", "formats"), _formats, {"choices": ("json", "markdown", "both")}),
    "--jobs": ((None, "jobs"), int_key, {}),
}


def _add_settings(parser: argparse.ArgumentParser, *flags: str) -> None:
    """Give ``parser`` --config and the settings ``flags``."""
    parser.add_argument("--config", default=None)
    for flag in flags:
        parser.add_argument(flag, default=argparse.SUPPRESS, **SETTINGS_FLAGS[flag][2])


def _build_config(args: argparse.Namespace) -> PipelineConfig:
    """The config file's settings, overridden by the environment's and
    then by the flags', each read by its config key's rule."""
    raw: dict = {}
    if args.config:
        loaded = read_json(Path(args.config))
        if not isinstance(loaded, dict):
            raise ConfigError("config file must hold a JSON object")
        raw = loaded
    flags = {}
    env_url = os.environ.get(BACKEND_URL_ENV_VAR)
    if env_url:
        flags["predictor", "backend_url"] = (BACKEND_URL_ENV_VAR, env_url)
    for dest, text in vars(args).items():
        flag = "--" + dest.replace("_", "-")
        if flag not in SETTINGS_FLAGS:
            continue
        key, read, _ = SETTINGS_FLAGS[flag]
        try:
            flags[key] = (flag, read(text))
        except ValueError as exc:
            raise bad_field(ConfigError, "config", exc, flag) from exc
    return PipelineConfig.from_dict(raw, flags)


def _write_error(exc: DocstitchError) -> int:
    """Write ``exc`` to stderr as one coded JSON line; return its exit
    status, 2 for a config error and 3 for any other."""
    sys.stderr.write(json.dumps({"error": exc.to_dict()}) + "\n")
    return 2 if isinstance(exc, ConfigError) else 3


def cmd_normalize(args: argparse.Namespace) -> int:
    raw = read_json(Path(args.input))
    result = normalize_elements(raw, args.profile, doc_id=Path(args.input).stem)  # type: ignore[arg-type]
    _dump(result.document.to_dict(), Path(args.out) if args.out else None)
    if args.report:
        validation = validate_document(result.document)
        _dump(
            {"normalization": result.report.to_dict(), "validation": validation.to_dict()},
            Path(args.report),
        )
    return 0


def _process_one(
    path: Path,
    cfg: PipelineConfig,
    out_dir: Path,
    claim: Callable[[str], None] = lambda doc_id: None,
) -> dict:
    """Run one input and write its artifacts; ``claim(doc_id)`` is called
    between the load and the run, and may refuse the doc_id by raising."""
    doc = _load_document(path, cfg.profile)
    claim(doc.doc_id)
    stem = doc.doc_id
    result = run_pipeline(doc, cfg)
    # Each output is held only while an artifact still to be written reads
    # it: the tree (the largest) and the elements, which the document, the
    # resolved document and the tree share, are freed once DOC.tree.json
    # and DOC.md are written, before the JSON artifacts.
    tree, merge_log = result.tree, result.resolved.merge_log
    plans, predictions, report = result.chunk_plans, result.predictions, result.report
    del doc, result

    if "json" in cfg.export_formats:
        # Streamed: the tree's text is the largest thing a run writes.
        _write_file(out_dir / f"{stem}.tree.json", lambda f: write_json(tree, f))
    if "markdown" in cfg.export_formats:
        _write_text(out_dir / f"{stem}.md", export_markdown(tree))
    del tree
    _dump(merge_log.to_dict(), out_dir / f"{stem}.merge_log.json")
    _dump({name: plan.to_dict() for name, plan in plans.items()}, out_dir / f"{stem}.chunks.json")
    _dump({"doc_id": stem, **predictions.to_dict()}, out_dir / f"{stem}.predictions.json")
    _dump(report.to_dict(), out_dir / f"{stem}.report.json")
    return {"input": path.name, "doc_id": stem, "warnings": len(report.warnings)}


def cmd_process(args: argparse.Namespace) -> int:
    cfg = _build_config(args)
    out_dir = Path(args.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # an existing file, or no permission
        raise ConfigError(f"cannot create output directory {out_dir}: {exc.strerror}") from exc
    inputs = [Path(p) for p in args.input]
    # Input i claims its doc_id once input i - 1 has claimed or failed
    # (turns[i] is set), so the first input in argument order wins a doc_id
    # whatever order the jobs run in.
    turns = [threading.Event() for _ in range(len(inputs) + 1)]
    turns[0].set()
    owners: dict[str, Path] = {}

    def job(i: int) -> tuple[dict, int]:
        """One input's summary and exit status; its failure costs only itself."""
        path = inputs[i]

        def claim(doc_id: str) -> None:
            turns[i].wait()
            try:
                if doc_id in owners:
                    raise DuplicateDocId(
                        f"{path} has doc_id {doc_id!r}, which {owners[doc_id]} already holds"
                    )
                owners[doc_id] = path
            finally:
                turns[i + 1].set()

        try:
            return _process_one(path, cfg, out_dir, claim), 0
        except DocstitchError as exc:
            return {"input": path.name, "error": exc.to_dict()}, _write_error(exc)
        finally:  # a job that failed before its claim passes the turn on
            turns[i].wait()
            turns[i + 1].set()

    # The pipeline builds no reference cycles, so reference counting frees
    # all it allocates, and a cyclic collection would only rescan the live
    # documents and trees.  tests/test_cli.py checks that no cycle is left.
    collecting = gc.isenabled()
    gc.disable()
    try:
        results = thread_map(job, range(len(inputs)), cfg.jobs)
    finally:
        if collecting:
            gc.enable()

    _dump({"processed": [summary for summary, _ in results]})
    return max(status for _, status in results)


def cmd_eval(args: argparse.Namespace) -> int:
    from .evaluation import GoldAnnotations, evaluate

    pred_raw = read_json(Path(args.pred))
    gold_raw = read_json(Path(args.gold))
    gold = GoldAnnotations.from_dict(gold_raw)  # type: ignore[arg-type]
    retrieved = read_json(Path(args.retrieved)) if args.retrieved else None
    report = evaluate(gold, pred_raw, retrieved)  # type: ignore[arg-type]
    _dump(report.to_dict(), Path(args.out) if args.out else None)
    sys.stderr.write(report.as_table() + "\n")
    return 0


def cmd_export(args: argparse.Namespace) -> int:
    tree = tree_from_dict(read_json(Path(args.tree)))
    text = export_markdown(tree) if args.format == "markdown" else export_json(tree)
    if args.out:
        _write_text(Path(args.out), text)
    else:
        _write_stdout(text)
    return 0


def cmd_inspect_chunks(args: argparse.Namespace) -> int:
    cfg = _build_config(args)
    doc = _load_document(Path(args.input), cfg.profile)
    plans = {name: plan.to_dict() for name, plan in plan_subtasks(doc, cfg).items()}
    _dump(plans, Path(args.out) if args.out else None)
    return 0


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors are config errors, so that ``main``
    writes them as coded JSON; --help still prints and exits 0."""

    def error(self, message: str):  # type: ignore[override]
        raise ConfigError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="docstitch",
        description="Stitch page-level OCR output into a document-level tree.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_norm = sub.add_parser("normalize", help="map raw OCR blocks to the canonical schema")
    p_norm.add_argument("input")
    p_norm.add_argument("--profile", default="generic")
    p_norm.add_argument("--out", default=None)
    p_norm.add_argument("--report", default=None, help="write normalization+validation report JSON")
    p_norm.set_defaults(func=cmd_normalize)

    p_proc = sub.add_parser("process", help="run the full pipeline and write artifacts")
    p_proc.add_argument("input", nargs="+")
    _add_settings(p_proc, *SETTINGS_FLAGS)
    p_proc.add_argument("--out-dir", dest="out_dir", required=True)
    p_proc.set_defaults(func=cmd_process)

    p_eval = sub.add_parser("eval", help="score prediction artifacts against gold annotations")
    p_eval.add_argument("--pred", required=True)
    p_eval.add_argument("--gold", required=True)
    p_eval.add_argument("--retrieved", default=None, help="retrieved evidence boxes JSON")
    p_eval.add_argument("--out", default=None)
    p_eval.set_defaults(func=cmd_eval)

    p_exp = sub.add_parser("export", help="re-export a tree JSON artifact")
    p_exp.add_argument("tree")
    p_exp.add_argument("--format", choices=("json", "markdown"), default="markdown")
    p_exp.add_argument("--out", default=None)
    p_exp.set_defaults(func=cmd_export)

    p_chunks = sub.add_parser("inspect-chunks", help="show the chunk plans for a document")
    p_chunks.add_argument("input")
    _add_settings(p_chunks, "--profile", "--stride", "--threshold")
    p_chunks.add_argument("--out", default=None)
    p_chunks.set_defaults(func=cmd_inspect_chunks)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        status = args.func(args)
        _write_stdout("", flush=True)  # a reader gone away shows here, not at exit
        return status
    except DocstitchError as exc:
        return _write_error(exc)
    except _StdoutClosed:
        # The output is cut short, so the command fails, but quietly.  A
        # stdout with a file descriptor is pointed at the null device, or
        # the interpreter's last flush of it would fail again.  SIGPIPE
        # keeps Python's handler, so a backend socket that its server
        # closed still raises the BrokenPipeError the remote predictor
        # handles, and a broken pipe anywhere but stdout is not caught.
        try:
            fd = sys.stdout.fileno()
        except (AttributeError, io.UnsupportedOperation):
            return 1
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, fd)
        os.close(devnull)
        return 1


if __name__ == "__main__":
    sys.exit(main())
