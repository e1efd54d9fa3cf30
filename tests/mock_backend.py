"""Scriptable HTTP backend for predictor protocol tests."""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer
from typing import Union

Response = Union[dict, list, str, int]


class Seq(list):
    """Marks a script value as a sequence of responses, one per call."""


class MockBackend:
    """Serves scripted JSON responses keyed by the request's task tag.

    scripts maps task -> response, a Seq of responses consumed one per
    call (last one repeats), or a callable(request_body) -> response.
    An int response is sent as that HTTP status with an empty body; the
    string "garbage" sends non-JSON bytes.
    """

    def __init__(self, scripts: dict[str, Response]):
        self.scripts = scripts
        self.requests: list[dict] = []
        self._consumed: dict[str, int] = {}
        backend = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):  # noqa: N802  (stdlib naming)
                length = int(self.headers.get("Content-Length", 0))
                raw = self.rfile.read(length)
                body = json.loads(raw.decode("utf-8"))
                backend.requests.append(
                    {"body": body, "raw": raw, "headers": dict(self.headers.items())}
                )
                # summarizer requests carry node_id instead of a task tag
                task = body.get("task", "summarize" if "node_id" in body else "?")
                script = backend.scripts.get(task)
                if callable(script):
                    response = script(body)
                elif isinstance(script, Seq):
                    i = min(backend._consumed.get(task, 0), len(script) - 1)
                    backend._consumed[task] = i + 1
                    response = script[i]
                else:
                    response = script

                if isinstance(response, int):
                    self.send_response(response)
                    self.end_headers()
                    return
                if response == "garbage":
                    payload = b"this is not json"
                else:
                    payload = json.dumps(response).encode("utf-8")
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

            def log_message(self, *args):  # silence
                pass

        self._server = HTTPServer(("127.0.0.1", 0), Handler)
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)

    @property
    def url(self) -> str:
        host, port = self._server.server_address
        return f"http://{host}:{port}/"

    def __enter__(self) -> MockBackend:
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._server.shutdown()
        self._server.server_close()
