#!/usr/bin/env python3
"""Wall time of the remote summarizer phase, per source tree.

perfbench has no workload that summarizes over HTTP, so this script
measures that path on its own.  It generates one report with perfbench's
``gen.make_report`` (60 pages by default), serves a summarizer mock on
127.0.0.1 that answers every POST after 10 ms, and runs ``run_pipeline``
in remote-summarizer mode in a fresh child interpreter per run, importing
``docstitch`` from each given ``src`` directory in turn.  The sources
alternate run by run, so a drift of the host favours none of them::

    python3 tools/remote_summary.py PARENT/src src --runs 5

The mock speaks HTTP/1.1 on a thread per connection, so a client may keep
its connections open.  Each run's figures are the wall time of the child's
``summarize_nodes`` call, the POSTs and connections the mock saw, and the
nodes that fell back to the extractive summary (0 unless the mock failed).
Prints one JSON object: every run, and per source the median, minimum and
maximum of the phase time.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import socket
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LATENCY_S = 0.010
CHILD = """\
import json, sys, time
import docstitch.pipeline as pipeline
from docstitch.model import CanonicalDocument

with open(sys.argv[1], encoding="utf-8") as f:
    doc = CanonicalDocument.from_json(f.read())
cfg = pipeline.PipelineConfig(summarizer_mode="remote", summarizer_url=sys.argv[2])
summarize_nodes, spent = pipeline.summarize_nodes, []

def timed(*args, **kwargs):
    t0 = time.perf_counter()
    try:
        return summarize_nodes(*args, **kwargs)
    finally:
        spent.append(time.perf_counter() - t0)

pipeline.summarize_nodes = timed
result = pipeline.run_pipeline(doc, cfg)
fallbacks = sum(w.startswith("SummarizerFallback") for w in result.report.warnings)
print(json.dumps({"summarize_s": spent[0], "fallbacks": fallbacks}))
"""


class SummarizerMock:
    """Answers each POST with a fixed summary after LATENCY_S; counts POSTs
    and accepted connections."""

    def __init__(self) -> None:
        self.posts = self.connections = 0
        lock = threading.Lock()
        mock = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def setup(self) -> None:
                super().setup()
                self.request.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                with lock:
                    mock.connections += 1

            def do_POST(self) -> None:  # noqa: N802  (stdlib naming)
                self.rfile.read(int(self.headers.get("Content-Length", 0)))
                with lock:
                    mock.posts += 1
                time.sleep(LATENCY_S)
                payload = b'{"summary": "A summary."}'
                self.wfile.write(
                    b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
                    b"Content-Length: %d\r\n\r\n%s" % (len(payload), payload)
                )

            def log_message(self, *args) -> None:
                pass

        self.server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.server.daemon_threads = True
        self.url = f"http://127.0.0.1:{self.server.server_address[1]}/"
        threading.Thread(target=self.server.serve_forever, daemon=True).start()

    def take_counts(self) -> tuple[int, int]:
        counts, self.posts, self.connections = (self.posts, self.connections), 0, 0
        return counts

    def close(self) -> None:
        self.server.shutdown()
        self.server.server_close()


def run_once(src: Path, document: Path, mock: SummarizerMock) -> dict:
    env = {**os.environ, "PYTHONPATH": str(src), "NO_PROXY": "127.0.0.1", "no_proxy": "127.0.0.1"}
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(document), mock.url],
        env=env, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{src}: child exited {proc.returncode}\n{proc.stderr[-2000:]}")
    posts, connections = mock.take_counts()
    return {**json.loads(proc.stdout.splitlines()[-1]), "posts": posts, "connections": connections}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("src", nargs="+", type=Path, help="a directory holding the docstitch package")
    ap.add_argument("--pages", type=int, default=60)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--runs", type=int, default=5, help="runs per source")
    args = ap.parse_args(argv)
    sys.path.insert(0, str(ROOT / "perfbench"))
    import gen

    runs: dict[str, list[dict]] = {str(src): [] for src in args.src}
    mock = SummarizerMock()
    try:
        with tempfile.TemporaryDirectory() as tmp:
            document = Path(tmp) / "report.json"
            doc = gen.make_report(random.Random(f"remote_summary:{args.seed}"), "report", args.pages)
            document.write_text(json.dumps(doc), encoding="utf-8")
            for i in range(args.runs):
                # Rotate the order each round so that no source always runs first.
                order = args.src[i % len(args.src):] + args.src[: i % len(args.src)]
                for src in order:
                    runs[str(src)].append(run_once(src.resolve(), document, mock))
    finally:
        mock.close()
    summary = {}
    for src, results in runs.items():
        times = [r["summarize_s"] for r in results]
        summary[src] = {
            "median_s": statistics.median(times), "min_s": min(times), "max_s": max(times),
            "posts": sorted({r["posts"] for r in results}),
            "connections": sorted({r["connections"] for r in results}),
        }
    print(json.dumps({"pages": args.pages, "seed": args.seed, "latency_s": LATENCY_S,
                      "runs": runs, "summary": summary}, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
