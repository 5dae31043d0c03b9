"""Pretokenization (word-unit splitting) and lexical-type classification.

Lines split on whitespace runs, and every maximal run of Punctuation-category
characters becomes its own pretoken, so punctuation never sticks to letters.
Unicode general categories come from the stdlib `unicodedata` module; the
pinned UCD version is `unicodedata.unidata_version` (documented in README).

Every line is split by one compiled regular expression, `[P]+|[^\\sP]+`,
whose punctuation class `P` is learned from the characters seen so far: it
starts with ASCII, and a batch of lines holding characters not seen before
has just those classified with `unicodedata` (the pattern is recompiled only when one
of them is punctuation). So each distinct character is classified once per
process, and there is no Unicode table to keep in step with the UCD.
"""

from __future__ import annotations

import re
import threading
import unicodedata
from typing import Dict, List

DEFAULT_MARKER = "▁"  # the low-line-block word-boundary convention


def _is_punct(ch: str) -> bool:
    # whitespace only separates, so the class must not overlap `\s` (which
    # matches exactly the characters for which str.isspace is true)
    return unicodedata.category(ch).startswith("P") and not ch.isspace()


def _compile(punct: str) -> re.Pattern:
    # maximal runs of punctuation, or of anything but whitespace and punctuation
    cls = re.escape(punct)
    return re.compile(f"[{cls}]+|[^\\s{cls}]+")


# Characters already classified, and the punctuation among them: process-wide
# state, but only a cache of fixed facts, so no caller sees another's effect
# in its output. Learning holds the lock and publishes the wider pattern
# before `_known` grows, so a line whose characters are all known is split by
# a pattern that covers them.
_lock = threading.Lock()
_known = set(map(chr, range(128)))
_punct = "".join(filter(_is_punct, _known))
_pattern = _compile(_punct)


def pretokenize(line: str) -> List[str]:
    """Split a line into pretokens.

    Whitespace separates pretokens and is dropped; each maximal punctuation
    run is emitted as its own pretoken. Concatenating the pretokens yields
    the line minus whitespace. "don't stop." -> [don, ', t, stop, .]
    """
    return pretokenize_lines([line])[0]


def pretokenize_lines(lines: List[str]) -> List[List[str]]:
    """`pretokenize` of each line, in order, checking the lines for new
    characters once for all of them."""
    text = "".join(lines)
    if not text.isascii() and not _known.issuperset(text):
        _learn(text)
    return list(map(_pattern.findall, lines))


def _learn(text: str) -> None:
    global _pattern, _punct
    with _lock:
        new = set(text) - _known
        punct = "".join(filter(_is_punct, new))
        if punct:
            _punct += punct
            _pattern = _compile(_punct)
        _known.update(new)


# Whether each character classified so far is lexical: filled on first use,
# and only with fixed facts, so concurrent writers write the same values.
_lexical_chars: Dict[str, bool] = {}


def is_lexical(type_string: str, marker: str = DEFAULT_MARKER) -> bool:
    """False iff the string contains a Punctuation or decimal-digit (Nd)
    character, leading word-boundary markers ignored; letter-numbers and
    other-numbers are not digits. Letters-only strings take one `isalpha()`,
    and otherwise each distinct character is classified once per process."""
    stripped = type_string.lstrip(marker) if marker else type_string
    if stripped.isalpha():
        return True
    for ch in stripped:
        lexical = _lexical_chars.get(ch)
        if lexical is None:
            cat = unicodedata.category(ch)
            lexical = _lexical_chars[ch] = not (cat.startswith("P") or cat == "Nd")
        if not lexical:
            return False
    return True
