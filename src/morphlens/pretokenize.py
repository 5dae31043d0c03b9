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
Learning replaces the blocks, their punctuation and the classes as one value.
"""

from __future__ import annotations

import re
import threading
import unicodedata
from typing import FrozenSet, List, Optional

DEFAULT_MARKER = "▁"  # the low-line-block word-boundary convention


def _is_punct(ch: str) -> bool:
    # whitespace only separates, so the class must not overlap `\s` (which
    # matches exactly the characters for which str.isspace is true)
    return unicodedata.category(ch).startswith("P") and not ch.isspace()


class _Classes:
    """The learned classes of `blocks`, never changed once built. Only blocks
    not in `old` are classified; only their punctuation recompiles the pattern."""

    __slots__ = ("blocks", "punct", "pattern", "nonlexical", "unclassified")

    def __init__(self, blocks: FrozenSet[int], old: Optional[_Classes] = None):
        new = blocks - old.blocks if old else blocks
        codes = (c for b in new for c in range(b * _BLOCK, (b + 1) * _BLOCK))
        punct = "".join(filter(_is_punct, map(chr, codes)))
        self.blocks = blocks
        if old and not punct:
            self.punct, self.pattern, self.nonlexical = old.punct, old.pattern, old.nonlexical
        else:
            self.punct = (old.punct if old else "") + punct
            cls = re.escape(self.punct)
            # maximal runs of punctuation or of neither it nor whitespace; and
            # punctuation or a digit (in a str pattern, \d is Nd)
            self.pattern = re.compile(f"[{cls}]+|[^\\s{cls}]+")
            self.nonlexical = re.compile(f"[\\d{cls}]")
        # the check class: any code point outside the blocks, one range per run of them
        starts = sorted(b for b in blocks if b - 1 not in blocks)
        ends = sorted(b + 1 for b in blocks if b + 1 not in blocks)
        ranges = "".join(f"\\U{lo * _BLOCK:08x}-\\U{hi * _BLOCK - 1:08x}" for lo, hi in zip(starts, ends))
        self.unclassified = re.compile(f"[^{ranges}]")


# A process-wide cache of fixed facts, so no caller sees another's effect in
# its output; learning replaces the whole value under the lock.
_BLOCK = 128
_lock = threading.Lock()
_learned = _Classes(frozenset({0}))


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
    learned = _learned
    if not text.isascii() and learned.unclassified.search(text):
        learned = _learn(text)
    return list(map(learned.pattern.findall, lines))


def _learn(text: str) -> _Classes:
    """Classes that cover every character of `text`, learning its new blocks."""
    global _learned
    with _lock:
        # another thread may have classified some of the blocks meanwhile
        learned = _learned
        new = {ord(ch) // _BLOCK for ch in set(text)} - learned.blocks
        if new:
            learned = _learned = _Classes(learned.blocks | new, learned)
        return learned


def is_lexical(type_string: str, marker: str = DEFAULT_MARKER) -> bool:
    """False iff the string contains a Punctuation or decimal-digit (Nd)
    character, leading word-boundary markers ignored; letter-numbers and
    other-numbers are not digits. Letters-only strings take one `isalpha()`;
    any other string is checked for unclassified blocks like a batch of
    lines, then answered with one search of the non-lexical class."""
    stripped = type_string.lstrip(marker) if marker else type_string
    if stripped.isalpha():
        return True
    learned = _learned
    if learned.unclassified.search(stripped):
        learned = _learn(stripped)
    return learned.nonlexical.search(stripped) is None
