"""Pretokenization (word-unit splitting) and lexical-type classification.

Lines split on whitespace runs, and every maximal run of Punctuation-category
characters becomes its own pretoken, so punctuation never sticks to letters.
Unicode general categories come from the stdlib `unicodedata` module; the
pinned UCD version is `unicodedata.unidata_version` (documented in README).

ASCII lines take a regular-expression fast path whose punctuation class is
derived from the same `unicodedata` categories; it gives output identical to
the character loop that handles every other line.
"""

from __future__ import annotations

import re
import unicodedata
from typing import List

DEFAULT_MARKER = "▁"  # the low-line-block word-boundary convention


def _is_punct(ch: str) -> bool:
    return unicodedata.category(ch).startswith("P")


_ASCII_PUNCT = re.escape(
    "".join(chr(c) for c in range(128) if _is_punct(chr(c)))
)
# maximal runs of punctuation, or of anything but whitespace and punctuation;
# `\s` and str.isspace agree on every ASCII character
_ASCII_PRETOKEN = re.compile(f"[{_ASCII_PUNCT}]+|[^\\s{_ASCII_PUNCT}]+")


def pretokenize(line: str) -> List[str]:
    """Split a line into pretokens.

    Whitespace separates pretokens and is dropped; each maximal punctuation
    run is emitted as its own pretoken. Concatenating the pretokens yields
    the line minus whitespace. "don't stop." -> [don, ', t, stop, .]
    """
    if line.isascii():
        return _ASCII_PRETOKEN.findall(line)
    return _pretokenize_loop(line)


def _pretokenize_loop(line: str) -> List[str]:
    """The character loop behind `pretokenize`, for any line."""
    pretokens: List[str] = []
    buf: List[str] = []
    buf_is_punct = False
    for ch in line:
        if ch.isspace():
            if buf:
                pretokens.append("".join(buf))
                buf = []
            continue
        punct = _is_punct(ch)
        if buf and punct != buf_is_punct:
            pretokens.append("".join(buf))
            buf = []
        buf.append(ch)
        buf_is_punct = punct
    if buf:
        pretokens.append("".join(buf))
    return pretokens


def is_lexical(type_string: str, marker: str = DEFAULT_MARKER) -> bool:
    """False iff the string contains a Punctuation or decimal-digit (Nd)
    character. Leading word-boundary markers are ignored for classification;
    only category Nd counts as a digit (letter-numbers and other-numbers do
    not)."""
    stripped = type_string.lstrip(marker) if marker else type_string
    for ch in stripped:
        cat = unicodedata.category(ch)
        if cat.startswith("P") or cat == "Nd":
            return False
    return True
