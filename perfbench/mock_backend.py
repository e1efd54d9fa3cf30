"""Threaded mock predictor backend for the ``remote_report`` workload.

Run as its own process::

    python3 perfbench/mock_backend.py --seed 7

It binds 127.0.0.1 on a free port, prints ``PORT <n>`` and serves until it
is terminated.  ``POST /`` answers the four predictor tasks of the wire
protocol; ``GET /_stats`` returns call counts and ``POST /_reset`` clears
them.

The mock is built to measure the program and not itself:

* each response goes out in one write on a socket with ``TCP_NODELAY``, so
  Nagle's algorithm and delayed ACKs add no wait;
* responses are valid and derived from the request content alone, so every
  repetition of a workload gets the same answers;
* a seeded share of request bodies, chosen by a hash of the body rather than
  by arrival order, gets a malformed first answer.  The client's retry then
  succeeds, so the retry path is in the traffic and no request degrades.
  Every later POST of that body, a retry or a new call with the same body,
  is answered properly, so each malformed answer costs exactly one extra
  POST: requests = posts - malformed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import socket
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

LATENCY_S = 0.010
MALFORMED_SHARE = 0.05

_OUTLINE = re.compile(r"^\s*(\d+(?:\.\d+)*)")
_ROW = re.compile(r"<tr>(.*?)</tr>", re.S)
_CELL = re.compile(r"<t[hd][^>]*>(.*?)</t[hd]>", re.S)
_CAPTION_TARGET = {
    "image_caption": "image",
    "image_footnote": "image",
    "table_caption": "table",
    "table_footnote": "table",
}


def title_hierarchy(blocks: list[dict]) -> list[dict]:
    """Outline depth plus one for numbered titles; level 1 otherwise."""
    out = []
    for b in blocks:
        m = _OUTLINE.match(b["content"])
        out.append({"idx": b["idx"], "level": m.group(1).count(".") + 2 if m else 1})
    return out


def text_truncation(blocks: list[dict]) -> list[dict]:
    """Join a block that ends unterminated to a following lowercase block."""
    out = []
    for a, b in zip(blocks, blocks[1:]):
        tail, head = a["content"].rstrip(), b["content"].lstrip()
        if b["idx"] > a["idx"] and tail and tail[-1] not in ".!?:;" and head[:1].islower():
            out.append({"src": a["idx"], "tgt": b["idx"], "reason": "unterminated"})
    return out


def association(blocks: list[dict]) -> list[dict]:
    """Captions to the nearest visual of their kind; visuals to the last title."""
    out = []
    last_title = None
    for b in blocks:
        kind = _CAPTION_TARGET.get(b["type"])
        if kind is not None:
            options = [v for v in blocks if v["type"] == kind]
            if options:
                best = min(options, key=lambda v: (abs(v["idx"] - b["idx"]), v["idx"] > b["idx"]))
                out.append({"src": b["idx"], "tgt": best["idx"]})
        if b["type"] == "title":
            last_title = b["idx"]
        elif b["type"] in ("image", "table") and last_title is not None:
            out.append({"src": b["idx"], "tgt": last_title})
    return out


def _rows(html: str) -> list[list[str]]:
    return [_CELL.findall(row) for row in _ROW.findall(html)]


def table_truncation(body: dict) -> list[dict]:
    """Continuation when the row windows agree on width; fuse split cells."""
    upper, lower = _rows(body["upper_row"]), _rows(body["lower_row"])
    if not upper or not lower or len(upper[-1]) != len(lower[0]):
        return []
    return [{"judgement": [1 if cell.rstrip().endswith("-") else 0 for cell in upper[-1]]}]


TASKS = {
    "title_hierarchy": lambda body: title_hierarchy(body["blocks"]),
    "text_truncation": lambda body: text_truncation(body["blocks"]),
    "association": lambda body: association(body["blocks"]),
    "table_truncation": table_truncation,
}


class Backend:
    """Counters and the malformed-first-answer memory, shared by handlers."""

    def __init__(self, seed: int):
        self.seed = seed
        self.lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        with self.lock:
            self.calls: dict[str, int] = {}
            self.malformed_sent: set[str] = set()
            self.inflight = 0
            self.inflight_max = 0

    def stats(self) -> dict:
        with self.lock:
            return {
                "calls": dict(self.calls),
                "posts": sum(self.calls.values()),
                "malformed": len(self.malformed_sent),
                "inflight_max": self.inflight_max,
            }

    def answer(self, raw: bytes) -> bytes:
        body = json.loads(raw)
        task = body.get("task", "?")
        digest = hashlib.sha256(f"{self.seed}:".encode() + raw).hexdigest()
        with self.lock:
            self.calls[task] = self.calls.get(task, 0) + 1
            self.inflight += 1
            self.inflight_max = max(self.inflight_max, self.inflight)
            malformed = digest not in self.malformed_sent and int(digest[:8], 16) / 2**32 < MALFORMED_SHARE
            if malformed:
                self.malformed_sent.add(digest)
        try:
            time.sleep(LATENCY_S)
            response = {"error": "model busy"} if malformed else TASKS[task](body)
            return json.dumps(response).encode("utf-8")
        finally:
            with self.lock:
                self.inflight -= 1


def make_handler(backend: Backend) -> type:
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def setup(self) -> None:
            super().setup()
            self.request.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

        def _send(self, status: str, payload: bytes) -> None:
            head = (
                f"HTTP/1.1 {status}\r\nContent-Type: application/json\r\n"
                f"Content-Length: {len(payload)}\r\n\r\n"
            ).encode("ascii")
            self.wfile.write(head + payload)

        def do_GET(self) -> None:  # noqa: N802  (stdlib naming)
            if self.path == "/_stats":
                self._send("200 OK", json.dumps(backend.stats()).encode("utf-8"))
            else:
                self._send("404 Not Found", b"{}")

        def do_POST(self) -> None:  # noqa: N802
            raw = self.rfile.read(int(self.headers.get("Content-Length", 0)))
            if self.path == "/_reset":
                backend.reset()
                self._send("200 OK", b"{}")
                return
            self._send("200 OK", backend.answer(raw))

        def log_message(self, *args) -> None:
            pass

    return Handler


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    backend = Backend(args.seed)
    server = ThreadingHTTPServer(("127.0.0.1", 0), make_handler(backend))
    server.daemon_threads = True
    print(f"PORT {server.server_address[1]}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
