"""Pretokenization (word-unit splitting) and lexical-type classification.

Lines split on whitespace runs, and every maximal run of Punctuation-category
characters becomes its own pretoken, so punctuation never sticks to letters.
Unicode general categories come from the stdlib `unicodedata` module; the
pinned UCD version is `unicodedata.unidata_version` (documented in README).

Every line is split by one compiled regular expression, `[P]+|[^\\sP]+`,
whose punctuation class `P` is learned block by block: code points are
classified in fixed blocks of `_BLOCK` (128), starting with ASCII. A batch
of lines is checked with one search of a compiled class of the code points
outside the classified blocks; only a hit classifies the new blocks with
`unicodedata`, and the pattern is recompiled only when they hold
punctuation. So each block is classified once per process, the learned
state grows with the blocks met, not with each distinct character, and
there is no Unicode table to keep in step with the UCD. `is_lexical` learns
the same blocks and searches a class `[\\dP]` recompiled with the pattern.
"""

from __future__ import annotations

import re
import threading
import unicodedata
from typing import List, Tuple

DEFAULT_MARKER = "▁"  # the low-line-block word-boundary convention


def _is_punct(ch: str) -> bool:
    # whitespace only separates, so the class must not overlap `\s` (which
    # matches exactly the characters for which str.isspace is true)
    return unicodedata.category(ch).startswith("P") and not ch.isspace()


def _compile(punct: str) -> Tuple[re.Pattern, re.Pattern]:
    # maximal runs of punctuation or of anything but whitespace and
    # punctuation; and the non-lexical class (in a str pattern, \d is Nd)
    cls = re.escape(punct)
    return re.compile(f"[{cls}]+|[^\\s{cls}]+"), re.compile(f"[\\d{cls}]")


def _outside(blocks) -> re.Pattern:
    # any code point outside the blocks, as one range per run of adjacent blocks
    runs: List[List[int]] = []
    for b in sorted(blocks):
        if runs and runs[-1][1] == b:
            runs[-1][1] = b + 1
        else:
            runs.append([b, b + 1])
    ranges = "".join(f"\\U{lo * _BLOCK:08x}-\\U{hi * _BLOCK - 1:08x}" for lo, hi in runs)
    return re.compile(f"[^{ranges}]")


# The classified blocks of code points, their punctuation, the two classes
# built from it, and the check class of everything else: process-wide state,
# but only a cache of fixed facts, so no caller sees another's effect in its
# output. Learning holds the lock and publishes the wider classes before the
# narrower check class, so a batch or type that the check passes is read by
# classes that cover all its characters.
_BLOCK = 128
_lock = threading.Lock()
_blocks = {0}
_punct = "".join(filter(_is_punct, map(chr, range(_BLOCK))))
_pattern, _nonlexical = _compile(_punct)
_unclassified = _outside(_blocks)


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
    if not text.isascii() and _unclassified.search(text):
        _learn(text)
    return list(map(_pattern.findall, lines))


def _learn(text: str) -> None:
    global _pattern, _nonlexical, _punct, _unclassified
    with _lock:
        # another thread may have classified some of the blocks meanwhile
        new = {ord(ch) // _BLOCK for ch in set(text)} - _blocks
        if not new:
            return
        codes = (c for b in new for c in range(b * _BLOCK, (b + 1) * _BLOCK))
        punct = "".join(filter(_is_punct, map(chr, codes)))
        if punct:
            _punct += punct
            _pattern, _nonlexical = _compile(_punct)
        _blocks.update(new)
        _unclassified = _outside(_blocks)


def is_lexical(type_string: str, marker: str = DEFAULT_MARKER) -> bool:
    """False iff the string contains a Punctuation or decimal-digit (Nd)
    character, leading word-boundary markers ignored; letter-numbers and
    other-numbers are not digits. Letters-only strings take one `isalpha()`;
    any other string is checked for unclassified blocks like a batch of
    lines, then answered with one search of the non-lexical class."""
    stripped = type_string.lstrip(marker) if marker else type_string
    if stripped.isalpha():
        return True
    if _unclassified.search(stripped):
        _learn(stripped)
    return _nonlexical.search(stripped) is None
