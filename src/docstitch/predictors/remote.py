"""JSON-over-HTTP predictor backend.

One POST per request, body = the subtask's input blocks plus a task tag,
response = the subtask's output schema.  Field names are part of the wire
contract (see README).  ``reason`` fields are logged, never parsed.  Each
predictor and each remote summarizer posts over its own ``Connections``,
kept open until the run closes it.

This module is the only reader of predictor replies.  They are validated
before acceptance: malformed shapes are retried once and then raised as
MalformedResponse; pairs outside the candidate set and type-rule-violating
links are dropped and flagged without a retry.
Callers wrap this class in FallbackPredictor so a flaky backend degrades
to the rule baseline instead of failing the run.
"""

from __future__ import annotations

import json
import logging
import os
from collections import deque
from functools import partial
from typing import Any, Callable, Optional

from ..errors import BAD_FIELD, BackendUnavailable, Flag, MalformedResponse
from ..filtering import TablePairCandidate, TextPairCandidate
from ..model import CanonicalElement, json_int
from . import (
    CellMergeJudgement,
    HierarchyPrediction,
    PairPrediction,
    Predictor,
    association_link_valid,
)

logger = logging.getLogger(__name__)

TOKEN_ENV_VAR = "DOCSTITCH_BACKEND_TOKEN"
# A malformed response is retried this many times before MalformedResponse.
RETRIES = 1


class Connections:
    """Kept-alive HTTP connections to one backend URL, for the length of a run.

    A request takes an idle connection or opens one, and hands it back only
    once it has read the whole reply and the server did not ask to close.
    So each connection serves one request at a time, and the pool holds no
    more connections than there were requests in flight at once.  No
    redirect is followed.
    """

    def __init__(self, url: str, timeout: float):
        self.url = url
        self.timeout = timeout
        self._idle: deque = deque()  # its appends and pops are thread-safe
        # (new connection, request target, headers), found on the first POST.
        self._route: Optional[tuple[Callable[[], Any], str, dict[str, str]]] = None

    def post(self, data: bytes, headers: dict[str, str]) -> tuple[int, bytes]:
        """POST ``data``; the reply's status and whole body."""
        if self._route is None:
            self._route = _route(self.url, self.timeout)  # threads racing here agree
        connect, target, route_headers = self._route
        try:
            conn, reused = self._idle.pop(), True
        except IndexError:
            conn, reused = connect(), False
        while True:
            response = None
            try:
                conn.request("POST", target, data, {**headers, **route_headers})
                response = conn.getresponse()
                payload = response.read()
            except BaseException as exc:
                conn.close()
                # A server may close an idle connection at any time, so a
                # reused one that fails before a status line arrives is resent
                # once, on a fresh connection.  A timeout is never resent.
                if reused and response is None and isinstance(exc, _STALE):
                    conn, reused = connect(), False
                    continue
                raise
            if response.will_close:
                conn.close()
            else:
                self._idle.append(conn)
            return response.status, payload

    def close(self) -> None:
        """Close the idle connections; called once no request is in flight."""
        while self._idle:
            self._idle.pop().close()


# How a kept-alive connection fails when its server has closed it; this
# includes http.client's RemoteDisconnected, a ConnectionResetError.
_STALE = (ConnectionResetError, BrokenPipeError, ConnectionAbortedError)


def _route(url: str, timeout: float) -> tuple[Callable[[], Any], str, dict[str, str]]:
    """How to reach ``url`` as urllib would: a factory of new connections,
    the request target, and the headers each request adds.

    The proxy is the one ``getproxies()`` gives for the URL's scheme
    (``HTTP_PROXY``, ``HTTPS_PROXY``) unless ``proxy_bypass()`` exempts the
    host (``NO_PROXY``).  An ``http://`` URL is then requested in absolute
    form from the proxy and an ``https://`` one tunnelled through it, with
    the proxy URL's user and password as Basic ``Proxy-Authorization``.
    HTTPS is verified by http.client's default context (``context=None``):
    the system store, or ``SSL_CERT_FILE`` when it is set.
    """
    # Imported here, on the first POST, so that a run which never posts
    # loads no HTTP, TLS or e-mail module.
    import base64
    import http.client
    import urllib.request
    from urllib.parse import unquote, urlsplit, urlunsplit

    parts = urlsplit(url)
    scheme = parts.scheme.lower()
    if scheme not in ("http", "https") or not parts.netloc:
        raise ValueError(f"not an HTTP(S) URL: {url!r}")
    origin = parts.path or "/"
    if parts.query:
        origin += f"?{parts.query}"
    connection = {"http": http.client.HTTPConnection, "https": http.client.HTTPSConnection}
    proxy = urllib.request.getproxies().get(scheme)
    if not proxy or urllib.request.proxy_bypass(parts.netloc):
        return partial(connection[scheme], parts.netloc, timeout=timeout), origin, {}

    # The parser urllib's ProxyHandler reads a proxy URL with.
    proxy_scheme, user, password, hostport = urllib.request._parse_proxy(proxy)
    proxy_scheme = proxy_scheme or scheme
    if proxy_scheme not in connection:
        raise ValueError(f"unsupported proxy URL: {proxy!r}")
    auth = {}
    if user and password:
        credentials = f"{unquote(user)}:{unquote(password)}".encode()
        auth["Proxy-Authorization"] = "Basic " + base64.b64encode(credentials).decode("ascii")
    if scheme == "http":
        absolute = urlunsplit(parts._replace(fragment=""))
        return partial(connection[proxy_scheme], unquote(hostport), timeout=timeout), absolute, auth

    def tunnel() -> Any:
        conn = http.client.HTTPSConnection(unquote(hostport), timeout=timeout)
        conn.set_tunnel(parts.netloc, headers=auth)
        return conn

    return tunnel, origin, {}


def post_json(connections: Connections, body: dict, service: str = "backend") -> object:
    """POST ``body`` as JSON over ``connections``, with the bearer token from
    the environment, and decode the JSON reply.

    Raises BackendUnavailable when ``service`` is unreachable or answers
    other than 200, and MalformedResponse when the reply is not JSON.
    """
    import http.client

    headers = {"Content-Type": "application/json"}
    token = os.environ.get(TOKEN_ENV_VAR)
    if token:
        headers["Authorization"] = f"Bearer {token}"
    try:
        # Encoding, connecting and sending all fail alike: a bad URL or a NaN
        # in the body degrades this request, it does not end the run.
        data = json.dumps(body, allow_nan=False).encode("utf-8")
        status, payload = connections.post(data, headers)
    except (OSError, ValueError, http.client.HTTPException) as exc:
        raise BackendUnavailable(f"{service} unreachable: {exc}") from exc
    if status != 200:
        raise BackendUnavailable(f"{service} returned HTTP {status}")
    try:
        return json.loads(payload)
    except ValueError as exc:
        raise MalformedResponse(f"response is not JSON: {exc}") from exc


def _records(data: object, keys: tuple[str, str]) -> list[tuple[int, int]]:
    """The ``keys`` pair of each object in a reply that must be a JSON array
    of objects holding those two integer fields (``model.json_int``); else
    MalformedResponse."""
    if not isinstance(data, list):
        raise MalformedResponse("response must be a JSON array")
    records = []
    for entry in data:
        try:  # TypeError for an entry that is not an object
            record = (json_int(entry[keys[0]]), json_int(entry[keys[1]]))
        except BAD_FIELD:
            raise MalformedResponse(
                f"bad entry, want integer {keys[0]} and {keys[1]}: {entry!r}"
            ) from None
        if "reason" in entry:
            logger.debug("backend reason for %s: %s", record, entry["reason"])
        records.append(record)
    return records


def _allowed(
    pairs: list[tuple[int, int]], allow: Callable[[int, int], bool], flag: Flag
) -> PairPrediction:
    """Keep the pairs ``allow`` accepts; flag each other one as ``flag``'s code, ``S->T``."""
    kept = [(s, t) for s, t in pairs if allow(s, t)]
    dropped = [Flag(flag.code, f"{s}->{t}") for s, t in pairs if not allow(s, t)]
    return PairPrediction(pairs=kept, flags=dropped)


class RemotePredictor(Predictor):
    name = "remote"

    def __init__(self, url: str, timeout: float = 30.0):
        self.connections = Connections(url, timeout)

    def _post(self, body: dict) -> object:
        return post_json(self.connections, body)

    def close(self) -> None:
        self.connections.close()

    def _call(self, body: dict, parse: Callable[[object], object]) -> object:
        for attempt in range(RETRIES + 1):
            try:
                return parse(self._post(body))
            except MalformedResponse as exc:
                logger.warning("malformed backend response for %s: %s", body.get("task"), exc.message)
                if attempt == RETRIES:
                    # Re-raised in place: an exception kept in a local would
                    # make a cycle (exception, traceback, this frame) that
                    # holds the request body until the collector runs.
                    raise

    @staticmethod
    def _block(e: CanonicalElement, etype: str, content: str) -> dict:
        return {
            "idx": e.idx,
            "type": etype,
            "content": content,
            "page": e.page,
            "bbox": list(e.bbox),
        }

    # -- subtasks -------------------------------------------------------

    def predict_title_hierarchy(self, req: list[CanonicalElement]) -> HierarchyPrediction:
        body = {
            "task": "title_hierarchy",
            "blocks": [self._block(t, "title", t.content) for t in req],
        }

        def parse(data: object) -> HierarchyPrediction:
            records = _records(data, ("idx", "level"))
            levels, wanted = dict(records), [e.idx for e in req]
            if len(levels) != len(records) or set(levels) != set(wanted):
                got = [i for i, _ in records]
                raise MalformedResponse(
                    f"hierarchy response must hold each requested idx once: want {wanted}, got {got}"
                )
            return HierarchyPrediction(levels=levels)

        return self._call(body, parse)  # type: ignore[return-value]

    def predict_text_truncation(self, req: list[TextPairCandidate]) -> PairPrediction:
        # One block per distinct element; long middles are already elided by
        # the filter, so content is head/tail sentences only.
        heads = {c.tgt.idx: c.tgt_head for c in req}
        tails = {c.src.idx: c.src_tail for c in req}
        elements = {e.idx: e for c in req for e in (c.src, c.tgt)}  # first-seen order
        blocks = []
        for idx, e in elements.items():
            head, tail = heads.get(idx), tails.get(idx)
            if head and tail and head != tail:
                content = f"{head} ... {tail}"
            else:
                content = head or tail or ""
            blocks.append(self._block(e, "text", content))
        body = {"task": "text_truncation", "blocks": blocks}

        candidates = {(c.src.idx, c.tgt.idx) for c in req}

        def parse(data: object) -> PairPrediction:
            pairs = _records(data, ("src", "tgt"))
            return _allowed(pairs, lambda s, t: (s, t) in candidates, Flag("dropped_non_candidate"))

        return self._call(body, parse)  # type: ignore[return-value]

    def predict_association(self, req: list[CanonicalElement]) -> PairPrediction:
        body = {
            "task": "association",
            "blocks": [self._block(it, it.etype.value, it.content) for it in req],
        }

        etype = {e.idx: e.etype for e in req}

        def allow(src: int, tgt: int) -> bool:
            return src in etype and tgt in etype and association_link_valid(etype[src], etype[tgt])

        def parse(data: object) -> PairPrediction:
            return _allowed(_records(data, ("src", "tgt")), allow, Flag("dropped_type_rule"))

        return self._call(body, parse)  # type: ignore[return-value]

    def predict_table_truncation(self, req: TablePairCandidate) -> CellMergeJudgement:
        upper_rows = req.upper_rows.to_html(fragment=True)
        lower_rows = req.lower_rows.to_html(fragment=True)
        body = {
            "task": "table_truncation",
            "upper_caption": req.upper_caption,
            "upper_row": upper_rows,
            "lower_caption": req.lower_caption,
            "lower_row": lower_rows,
            "blocks": [
                {"idx": req.upper_idx, "type": "table", "content": upper_rows},
                {"idx": req.lower_idx, "type": "table", "content": lower_rows},
            ],
        }

        def parse(data: object) -> CellMergeJudgement:
            if not isinstance(data, list):
                raise MalformedResponse("table response must be a JSON array")
            if not data:
                return CellMergeJudgement(columns=[])
            entry = data[0]
            if not isinstance(entry, dict) or not isinstance(entry.get("judgement"), list):
                raise MalformedResponse(f"bad table entry: {entry!r}")
            columns, n_cols = entry["judgement"], req.upper_rows.n_cols
            # A wrong vector degrades to "not a continuation" with a flag.
            if any(type(v) is not int or v not in (0, 1) for v in columns):
                problem = f"judgement entries must be 0/1, got {columns!r}"
            elif columns and len(columns) != n_cols:
                problem = f"judgement length {len(columns)} != column count {n_cols}"
            else:
                return CellMergeJudgement(columns=columns)
            return CellMergeJudgement(columns=[], flags=[Flag("judgement_invalid", problem)])

        return self._call(body, parse)  # type: ignore[return-value]
