"""JSON-over-HTTP predictor backend.

One POST per request, body = the subtask's input blocks plus a task tag,
response = the subtask's output schema.  Field names are part of the wire
contract (see README).  ``reason`` fields are logged, never parsed.

Responses are validated before acceptance: malformed shapes are retried
once and then raised as MalformedResponse; pairs outside the candidate set
and type-rule-violating links are dropped and flagged without a retry.
Callers wrap this class in FallbackPredictor so a flaky backend degrades
to the rule baseline instead of failing the run.
"""

from __future__ import annotations

import http.client
import json
import logging
import os
import urllib.error
import urllib.request
from typing import Callable

from ..errors import BackendUnavailable, MalformedResponse
from ..filtering import TablePairCandidate, TextPairCandidate
from ..model import CanonicalElement
from . import (
    CellMergeJudgement,
    HierarchyPrediction,
    PairPrediction,
    Predictor,
    check_hierarchy_cover,
    check_judgement,
    filter_association_pairs,
    filter_candidate_pairs,
)

logger = logging.getLogger(__name__)

TOKEN_ENV_VAR = "DOCSTITCH_BACKEND_TOKEN"
# A malformed response is retried this many times before MalformedResponse.
RETRIES = 1


def post_json(url: str, body: dict, timeout: float, service: str = "backend") -> object:
    """POST ``body`` as JSON, with the bearer token from the environment,
    and decode the JSON reply.  Each call opens its own connection, so
    concurrent callers share no state.

    Raises BackendUnavailable when ``service`` is unreachable or answers
    other than 200, and MalformedResponse when the reply is not JSON.
    """
    headers = {"Content-Type": "application/json"}
    token = os.environ.get(TOKEN_ENV_VAR)
    if token:
        headers["Authorization"] = f"Bearer {token}"
    try:
        # Encoding, building and sending all fail alike: a bad URL or a NaN
        # in the body degrades this request, it does not end the run.
        if not url.lower().startswith(("http://", "https://")):
            raise ValueError(f"not an HTTP(S) URL: {url!r}")
        data = json.dumps(body, allow_nan=False).encode("utf-8")
        request = urllib.request.Request(url, data=data, headers=headers)
        with urllib.request.urlopen(request, timeout=timeout) as resp:
            status, payload = resp.status, resp.read()
    except urllib.error.HTTPError as exc:
        raise BackendUnavailable(f"{service} returned HTTP {exc.code}") from exc
    except (OSError, ValueError, http.client.HTTPException) as exc:
        raise BackendUnavailable(f"{service} unreachable: {exc}") from exc
    if status != 200:
        raise BackendUnavailable(f"{service} returned HTTP {status}")
    try:
        return json.loads(payload)
    except ValueError as exc:
        raise MalformedResponse(f"response is not JSON: {exc}") from exc


class RemotePredictor(Predictor):
    name = "remote"

    def __init__(self, url: str, timeout: float = 30.0):
        self.url = url
        self.timeout = timeout

    def _post(self, body: dict) -> object:
        return post_json(self.url, body, self.timeout)

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
            if not isinstance(data, list):
                raise MalformedResponse("hierarchy response must be a JSON array")
            levels: dict[int, int] = {}
            for entry in data:
                if not isinstance(entry, dict) or "idx" not in entry or "level" not in entry:
                    raise MalformedResponse(f"bad hierarchy entry: {entry!r}")
                idx, level = entry["idx"], entry["level"]
                if not isinstance(idx, int) or not isinstance(level, int):
                    raise MalformedResponse(f"non-integer idx/level: {entry!r}")
                if idx in levels:
                    raise MalformedResponse(f"duplicate idx {idx} in hierarchy response")
                levels[idx] = level
            check_hierarchy_cover(req, levels)
            return HierarchyPrediction(levels=levels)

        return self._call(body, parse)  # type: ignore[return-value]

    def _parse_pairs(self, data: object) -> list[tuple[int, int]]:
        if not isinstance(data, list):
            raise MalformedResponse("pair response must be a JSON array")
        pairs = []
        for entry in data:
            if not isinstance(entry, dict) or "src" not in entry or "tgt" not in entry:
                raise MalformedResponse(f"bad pair entry: {entry!r}")
            src, tgt = entry["src"], entry["tgt"]
            if not isinstance(src, int) or not isinstance(tgt, int):
                raise MalformedResponse(f"non-integer src/tgt: {entry!r}")
            if "reason" in entry:
                logger.debug("backend reason for (%s, %s): %s", src, tgt, entry["reason"])
            pairs.append((src, tgt))
        return pairs

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

        def parse(data: object) -> PairPrediction:
            pairs = self._parse_pairs(data)
            kept, dropped = filter_candidate_pairs(pairs, req)
            flags = [f"dropped_non_candidate:{s}->{t}" for s, t in dropped]
            return PairPrediction(pairs=kept, flags=flags)

        return self._call(body, parse)  # type: ignore[return-value]

    def predict_association(self, req: list[CanonicalElement]) -> PairPrediction:
        body = {
            "task": "association",
            "blocks": [self._block(it, it.etype.value, it.content) for it in req],
        }

        def parse(data: object) -> PairPrediction:
            pairs = self._parse_pairs(data)
            kept, dropped = filter_association_pairs(pairs, req)
            flags = [f"dropped_type_rule:{s}->{t}" for s, t in dropped]
            return PairPrediction(pairs=kept, flags=flags)

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
            if not isinstance(entry, dict) or "judgement" not in entry:
                raise MalformedResponse(f"bad table entry: {entry!r}")
            judgement = entry["judgement"]
            if not isinstance(judgement, list):
                raise MalformedResponse("judgement must be a list")
            try:
                columns = check_judgement(judgement, req.upper_rows.n_cols)
            except MalformedResponse as exc:
                # Length mismatch degrades to "not a continuation" with a flag.
                return CellMergeJudgement(columns=[], flags=[f"judgement_invalid:{exc.message}"])
            return CellMergeJudgement(columns=columns)

        return self._call(body, parse)  # type: ignore[return-value]
