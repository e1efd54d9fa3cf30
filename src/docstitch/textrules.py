"""Shared text heuristics: terminators, sentence windows, fragment joining.

These are the primitive rules the truncation filter, the rule-based
predictors and the merge step all agree on, so they live in one place and
are configured once.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Optional

DEFAULT_TERMINATORS = frozenset({".", "!", "?", "。", "！", "？", ":", "；", ";"})

# Closing quotes/brackets that may trail a terminator without breaking it.
CLOSERS = frozenset({'"', "'", "”", "’", ")", "]", "}", "»", "）", "】", "」", "』"})

DEFAULT_PREFIX_PATTERNS = (
    r"^\(?\d+(\.\d+)*[.)]?\s+\S",      # 1.  /  1.1  /  2)  decimal outlines
    r"^\([a-zA-Z0-9]+\)\s+\S",          # (a) (3)
    r"^[a-zA-Z][.)]\s+\S",              # a)  B.
    r"^[ivxlcdmIVXLCDM]+[.)]\s+\S",     # iv.  VII)
    r"^[•◦▪‣·*–—-]\s+\S",               # bullet and dash markers
)


def is_cjk(ch: str) -> bool:
    code = ord(ch)
    return (
        0x3040 <= code <= 0x30FF      # kana
        or 0x3400 <= code <= 0x4DBF   # CJK ext A
        or 0x4E00 <= code <= 0x9FFF   # CJK unified
        or 0xF900 <= code <= 0xFAFF   # compatibility ideographs
    )


@dataclass(frozen=True)
class TextRules:
    """Configured punctuation conventions for one pipeline run."""

    terminators: frozenset[str] = DEFAULT_TERMINATORS
    prefix_patterns: tuple[str, ...] = DEFAULT_PREFIX_PATTERNS
    sentence_cap_chars: int = 300
    _compiled: tuple[re.Pattern, ...] = field(init=False, repr=False, compare=False, default=())
    _sentence: re.Pattern = field(init=False, repr=False, compare=False, default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "_compiled", tuple(re.compile(p) for p in self.prefix_patterns)
        )
        # A sentence runs up to a terminator and takes the closers that follow
        # it; text after the last terminator is one more sentence.  Only
        # single characters can terminate: a longer or empty terminator
        # string never matches.
        ends = re.escape("".join(sorted(t for t in self.terminators if len(t) == 1)))
        closers = re.escape("".join(sorted(CLOSERS)))
        pattern = rf"[^{ends}]*[{ends}][{closers}]*|[^{ends}]+" if ends else r"[\s\S]+"
        object.__setattr__(self, "_sentence", re.compile(pattern))

    def ends_terminated(self, text: str) -> bool:
        """True when the text ends in a terminator, ignoring closing quotes."""
        s = text.rstrip()
        while s and s[-1] in CLOSERS:
            s = s[:-1]
        return bool(s) and s[-1] in self.terminators

    def starts_listlike(self, text: str) -> bool:
        s = text.lstrip()
        return any(p.match(s) for p in self._compiled)

    def starts_uppercase(self, text: str) -> bool:
        s = text.lstrip()
        return bool(s) and s[0].isalpha() and s[0].isupper()

    def clean_opener(self, text: str) -> bool:
        return self.starts_listlike(text) or self.starts_uppercase(text)

    def split_sentences(self, text: str, limit: Optional[int] = None) -> list[str]:
        """Split on the terminator set; terminators stay with their sentence.
        With ``limit``, only the first ``limit`` sentences are split off."""
        out: list[str] = []
        if limit == 0:
            return out
        for match in self._sentence.finditer(text):
            sentence = match.group().strip()
            if sentence:
                out.append(sentence)
                if len(out) == limit:
                    break
        return out

    def first_sentence(self, text: str) -> str:
        sentences = self.split_sentences(text, 1)
        head = sentences[0] if sentences else text.strip()
        return head[: self.sentence_cap_chars]

    def last_sentence(self, text: str) -> str:
        sentences = self.split_sentences(text)
        tail = sentences[-1] if sentences else text.strip()
        if len(tail) > self.sentence_cap_chars:
            tail = tail[-self.sentence_cap_chars :]
        return tail


def join_fragments(left: str, right: str) -> str:
    """Join two fragments of one logical run of text.

    A trailing hyphen marks an in-token break: after a letter it is a
    hyphenated word and the hyphen is elided; after anything else (split
    dates, numbers, codes) the hyphen is kept and the parts concatenate
    directly.  CJK-adjacent fragments join without a space; everything else
    joins with a single space.
    """
    a = left.rstrip()
    b = right.lstrip()
    if not a:
        return b
    if not b:
        return a
    if a[-1] == "-":
        if len(a) >= 2 and a[-2].isalpha() and not is_cjk(a[-2]):
            return a[:-1] + b
        return a + b
    if is_cjk(a[-1]) or is_cjk(b[0]):
        return a + b
    return a + " " + b
