"""The HTTP transport's promises, against local servers: proxies from the
environment, HTTPS verification, no redirects, and connections that are
kept open for one run and closed when it ends."""

from __future__ import annotations

import base64
import gc
import json
import logging
import os
import shutil
import socket
import subprocess
import sys
import threading
import time
import warnings
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Callable, Optional

import pytest

from docstitch.errors import BackendUnavailable
from docstitch.filtering import filter_titles
from docstitch.pipeline import PipelineConfig, run_pipeline
from docstitch.predictors.remote import RemotePredictor
from docstitch.tree import RemoteSummarizer

from .conftest import load_corpus_doc
from .helpers import stack_elements
from .mock_backend import MockBackend

SRC = Path(__file__).resolve().parent.parent / "src"
PROXY_VARS = ("http_proxy", "https_proxy", "no_proxy", "all_proxy")

# One POST from a fresh interpreter, so that the proxy variables it is
# given are the only ones it reads: ``SERVICE URL`` prints the decoded reply.
CLIENT = (
    "import json, sys\n"
    "from docstitch.predictors.remote import RemotePredictor\n"
    "from docstitch.tree import RemoteSummarizer\n"
    "service, url = sys.argv[1:]\n"
    "if service == 'predictor':\n"
    "    print(json.dumps(RemotePredictor(url, timeout=5)._post({'task': 'probe'})))\n"
    "else:\n"
    "    print(json.dumps({'summary': RemoteSummarizer(url, timeout=5).summarize('n', ['T'], ['p'])}))\n"
)


class _Server(ThreadingHTTPServer):
    daemon_threads = True

    def handle_error(self, request, client_address) -> None:
        pass  # a client that gave up (a timeout test) is not a failure


class LocalServer:
    """A threaded HTTP server on 127.0.0.1 for transport tests.

    ``answer(handler, body)`` writes the reply to each POST.  The server
    records each request as (request line, headers, body), and counts the
    connections it accepted and those still open.  ``http11`` selects
    persistent connections; ``tls`` is a (certificate, key) pair.  A CONNECT
    request is tunnelled to the host and port it names.
    """

    def __init__(
        self,
        answer: Callable[[BaseHTTPRequestHandler, bytes], None],
        http11: bool = True,
        tls: Optional[tuple[Path, Path]] = None,
    ):
        self.requests: list[tuple[str, dict, bytes]] = []
        self.accepted = 0
        self.open = 0
        lock = threading.Lock()
        server = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1" if http11 else "HTTP/1.0"

            def setup(self) -> None:
                super().setup()
                with lock:
                    server.accepted += 1
                    server.open += 1

            def finish(self) -> None:
                try:
                    super().finish()
                finally:
                    with lock:
                        server.open -= 1

            def do_POST(self) -> None:  # noqa: N802  (stdlib naming)
                body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
                server.requests.append((self.requestline, dict(self.headers.items()), body))
                answer(self, body)

            def do_GET(self) -> None:  # noqa: N802
                server.requests.append((self.requestline, dict(self.headers.items()), b""))
                reply(self, 200, {"summary": "from a GET"})

            def do_CONNECT(self) -> None:  # noqa: N802
                server.requests.append((self.requestline, dict(self.headers.items()), b""))
                host, port = self.path.rsplit(":", 1)
                upstream = socket.create_connection((host, int(port)), timeout=5)
                self.send_response(200, "Connection established")
                self.end_headers()
                relay = threading.Thread(target=_pump, args=(upstream, self.connection), daemon=True)
                relay.start()
                _pump(self.connection, upstream)
                relay.join(5)
                upstream.close()
                self.close_connection = True

            def log_message(self, *args) -> None:
                pass

        self._httpd = _Server(("127.0.0.1", 0), Handler)
        if tls is not None:
            import ssl

            context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
            context.load_cert_chain(*tls)
            self._httpd.socket = context.wrap_socket(self._httpd.socket, server_side=True)
        self.scheme = "https" if tls else "http"
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        )

    @property
    def url(self) -> str:
        host, port = self._httpd.server_address
        return f"{self.scheme}://{host}:{port}/"

    @property
    def authority(self) -> str:
        host, port = self._httpd.server_address
        return f"{host}:{port}"

    def wait_closed(self, seconds: float = 5.0) -> int:
        """The connections still open once every one has closed, or the wait ran out."""
        deadline = time.monotonic() + seconds
        while self.open and time.monotonic() < deadline:
            time.sleep(0.01)
        return self.open

    def __enter__(self) -> LocalServer:
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()


def _pump(src: socket.socket, dst: socket.socket) -> None:
    try:
        while data := src.recv(65536):
            dst.sendall(data)
        dst.shutdown(socket.SHUT_WR)
    except OSError:
        pass


def reply(handler: BaseHTTPRequestHandler, status: int, payload=None, **headers: str) -> None:
    """Send ``status`` with ``payload`` as JSON (an empty body for None)."""
    data = b"" if payload is None else json.dumps(payload).encode("utf-8")
    handler.send_response(status)
    for name, value in headers.items():
        handler.send_header(name.replace("_", "-"), value)
    handler.send_header("Content-Type", "application/json")
    handler.send_header("Content-Length", str(len(data)))
    handler.end_headers()
    handler.wfile.write(data)


def answering(payload) -> Callable[[BaseHTTPRequestHandler, bytes], None]:
    return lambda handler, body: reply(handler, 200, payload)


def post_from_fresh_interpreter(service: str, url: str, **env: str) -> subprocess.CompletedProcess:
    """One POST by ``service`` in a child whose only proxy variables are ``env``."""
    clean = {k: v for k, v in os.environ.items() if k.lower() not in PROXY_VARS}
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", CLIENT, service, url],
        env={**clean, **env, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=60,
    )


@pytest.fixture(autouse=True)
def no_proxy_from_the_environment(monkeypatch):
    for name in PROXY_VARS:
        monkeypatch.delenv(name, raising=False)
        monkeypatch.delenv(name.upper(), raising=False)


@pytest.fixture(scope="module")
def certificate(tmp_path_factory) -> tuple[Path, Path]:
    """A self-signed certificate for 127.0.0.1 and its key."""
    openssl = shutil.which("openssl")
    if openssl is None:
        pytest.skip("the openssl binary is not installed")
    folder = tmp_path_factory.mktemp("tls")
    cert, key = folder / "cert.pem", folder / "key.pem"
    subprocess.run(
        [openssl, "req", "-x509", "-newkey", "ec", "-pkeyopt", "ec_paramgen_curve:prime256v1",
         "-nodes", "-keyout", str(key), "-out", str(cert), "-days", "2",
         "-subj", "/CN=127.0.0.1", "-addext", "subjectAltName=IP:127.0.0.1"],
        check=True, capture_output=True, timeout=60,
    )
    return cert, key


@pytest.fixture
def titles():
    doc = stack_elements(
        "t", [("title", "Alpha", 0), ("text", "Body.", 0), ("title", "Beta", 1)]
    )
    return filter_titles(doc.elements)


LEVELS = [{"idx": 0, "level": 1}, {"idx": 2, "level": 2}]

# -- proxies -------------------------------------------------------------------


@pytest.mark.parametrize("service", ["predictor", "summarizer"])
def test_http_proxy_is_honoured(service):
    with LocalServer(answering({"summary": "target"})) as target, \
            LocalServer(answering({"summary": "proxy"})) as proxy:
        proc = post_from_fresh_interpreter(service, target.url, HTTP_PROXY=proxy.url)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"summary": "proxy"}
    assert [r[0] for r in proxy.requests] == [f"POST {target.url} HTTP/1.1"]
    assert target.requests == []


def test_no_proxy_bypasses_the_proxy():
    with LocalServer(answering({"summary": "target"})) as target, \
            LocalServer(answering({"summary": "proxy"})) as proxy:
        proc = post_from_fresh_interpreter(
            "summarizer", target.url, HTTP_PROXY=proxy.url, NO_PROXY="localhost,127.0.0.1"
        )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"summary": "target"}
    assert [r[0] for r in target.requests] == ["POST / HTTP/1.1"]
    assert proxy.requests == []


def test_proxy_userinfo_becomes_a_proxy_authorization_header():
    with LocalServer(answering({"summary": "proxy"})) as proxy:
        proxy_url = f"http://us%40er:p%3Ass@{proxy.authority}"
        proc = post_from_fresh_interpreter("predictor", "http://127.0.0.1:9/", http_proxy=proxy_url)
    assert proc.returncode == 0, proc.stderr
    [(line, headers, _)] = proxy.requests
    assert line == "POST http://127.0.0.1:9/ HTTP/1.1"
    assert headers["Proxy-Authorization"] == "Basic " + base64.b64encode(b"us@er:p:ss").decode()


def test_https_goes_through_a_proxy_tunnel(certificate):
    with LocalServer(answering({"summary": "over tls"}), tls=certificate) as target, \
            LocalServer(answering({"summary": "proxy"})) as proxy:
        proc = post_from_fresh_interpreter(
            "summarizer", target.url, HTTPS_PROXY=f"http://user:pw@{proxy.authority}",
            SSL_CERT_FILE=str(certificate[0]),
        )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"summary": "over tls"}
    [(line, headers, _)] = proxy.requests
    assert line.startswith(f"CONNECT {target.authority} HTTP/1.")
    assert headers["Proxy-Authorization"] == "Basic " + base64.b64encode(b"user:pw").decode()
    [(line, headers, _)] = target.requests
    assert line == "POST / HTTP/1.1"
    assert "Proxy-Authorization" not in headers


# -- TLS -----------------------------------------------------------------------


def test_https_is_verified_against_ssl_cert_file(certificate, monkeypatch):
    monkeypatch.setenv("SSL_CERT_FILE", str(certificate[0]))
    with LocalServer(answering({"summary": "over tls"}), http11=False, tls=certificate) as server:
        assert RemoteSummarizer(server.url, timeout=5).summarize("n", ["T"], ["p"]) == "over tls"


def test_https_with_an_unknown_certificate_degrades(certificate, monkeypatch):
    monkeypatch.delenv("SSL_CERT_FILE", raising=False)
    with LocalServer(answering({"summary": "over tls"}), http11=False, tls=certificate) as server:
        with pytest.raises(BackendUnavailable, match="summarizer unreachable"):
            RemoteSummarizer(server.url, timeout=5).summarize("n", ["T"], ["p"])
    assert server.requests == []


# -- redirects -----------------------------------------------------------------

REDIRECTS = [301, 302, 303, 307, 308]


def redirecting_to(location: str, status: int) -> Callable[[BaseHTTPRequestHandler, bytes], None]:
    return lambda handler, body: reply(handler, status, Location=location)


@pytest.mark.parametrize("status", REDIRECTS)
def test_predictor_follows_no_redirect(status, titles, monkeypatch):
    monkeypatch.setenv("DOCSTITCH_BACKEND_TOKEN", "s3cret")
    with LocalServer(answering(LEVELS)) as elsewhere, \
            LocalServer(redirecting_to(elsewhere.url, status), http11=False) as backend:
        predictor = RemotePredictor(backend.url, timeout=5)
        with pytest.raises(BackendUnavailable, match=f"backend returned HTTP {status}$"):
            predictor.predict_title_hierarchy(titles)
        predictor.close()
    assert len(backend.requests) == 1
    assert elsewhere.requests == []


@pytest.mark.parametrize("status", REDIRECTS)
def test_summarizer_follows_no_redirect(status):
    with LocalServer(answering({"summary": "elsewhere"})) as elsewhere, \
            LocalServer(redirecting_to(elsewhere.url, status), http11=False) as backend:
        summarizer = RemoteSummarizer(backend.url, timeout=5)
        with pytest.raises(BackendUnavailable, match=f"summarizer returned HTTP {status}$"):
            summarizer.summarize("n", ["T"], ["p"])
        summarizer.close()
    assert len(backend.requests) == 1
    assert elsewhere.requests == []


# -- connections kept for one run ----------------------------------------------

# Deterministic answers computed from each request alone.
SCRIPTS: dict[str, Callable[[dict], object]] = {
    "title_hierarchy": lambda body: [
        {"idx": b["idx"], "level": 1 + b["idx"] % 3} for b in body["blocks"]
    ],
    "text_truncation": lambda body: [
        {"src": a["idx"], "tgt": b["idx"]} for a, b in zip(body["blocks"], body["blocks"][1:])
    ],
    "association": lambda body: [],
    "table_truncation": lambda body: [],
}


def scripted(handler: BaseHTTPRequestHandler, body: bytes) -> None:
    request = json.loads(body)
    if "node_id" in request:
        reply(handler, 200, {"summary": f"summary of {request['node_id']}"})
    else:
        reply(handler, 200, SCRIPTS[request["task"]](request))


def remote_config(url: str, **overrides) -> PipelineConfig:
    return PipelineConfig(
        predictor_mode="remote", backend_url=url, backend_timeout=5.0,
        parallelism=4, stride=2, threshold=0, **overrides,
    )


def test_a_run_keeps_at_most_parallelism_connections_and_closes_them():
    doc = load_corpus_doc("field_manual")
    with MockBackend(SCRIPTS) as http10:
        expected = run_pipeline(doc, remote_config(http10.url)).predictions.to_dict()
    with LocalServer(scripted) as backend, LocalServer(scripted) as summaries:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            result = run_pipeline(doc, remote_config(
                backend.url, summarizer_mode="remote", summarizer_url=summaries.url
            ))
            gc.collect()
        assert json.dumps(result.predictions.to_dict()) == json.dumps(expected)
        assert len(backend.requests) > 4
        assert 1 <= backend.accepted <= 4
        assert len(summaries.requests) == sum(1 for n in result.tree.walk() if n.kind != "root")
        assert summaries.accepted == 1
        assert backend.wait_closed() == 0
        assert summaries.wait_closed() == 0
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


def closing_after_each_reply(handler: BaseHTTPRequestHandler, body: bytes) -> None:
    """Answer, then drop the connection without saying ``Connection: close``."""
    reply(handler, 200, LEVELS)
    handler.close_connection = True


def test_a_dropped_idle_connection_is_resent_once_on_a_fresh_one(titles, caplog):
    caplog.set_level(logging.WARNING)
    with LocalServer(closing_after_each_reply) as backend:
        predictor = RemotePredictor(backend.url, timeout=5)
        for _ in range(3):
            assert predictor.predict_title_hierarchy(titles).levels == {0: 1, 2: 2}
            backend.wait_closed()  # the server has dropped the connection now in the pool
        predictor.close()
    assert len(backend.requests) == 3
    assert backend.accepted == 3
    assert [r for r in caplog.records if r.levelno >= logging.WARNING] == []


def test_a_resend_that_fails_too_is_not_resent_again(titles):
    def answer_the_first_only(handler: BaseHTTPRequestHandler, body: bytes) -> None:
        # From the fourth request on it answers again, so a client that
        # kept resending would end, and be caught by the count below.
        if len(backend.requests) in (1, 4):
            reply(handler, 200, LEVELS)
        handler.close_connection = True

    with LocalServer(answer_the_first_only) as backend:
        predictor = RemotePredictor(backend.url, timeout=5)
        predictor.predict_title_hierarchy(titles)
        backend.wait_closed()
        with pytest.raises(BackendUnavailable, match="backend unreachable"):
            predictor.predict_title_hierarchy(titles)
        predictor.close()
    assert len(backend.requests) == 2
    assert backend.accepted == 2


def test_a_timeout_on_a_reused_connection_is_not_resent(titles):
    def slow_second_reply(handler: BaseHTTPRequestHandler, body: bytes) -> None:
        if len(backend.requests) == 2:
            time.sleep(1.0)
        reply(handler, 200, LEVELS)

    with LocalServer(slow_second_reply) as backend:
        predictor = RemotePredictor(backend.url, timeout=0.3)
        predictor.predict_title_hierarchy(titles)
        with pytest.raises(BackendUnavailable, match="timed out"):
            predictor.predict_title_hierarchy(titles)
        predictor.close()
        assert len(backend.requests) == 2
        assert backend.accepted == 1
