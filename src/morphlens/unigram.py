"""Token-unigram metrics (TTR, MATTR, MTL, Rényi efficiency) and word-based
metrics (mean word length, tokens per character)."""

from __future__ import annotations

import math
import sys
from collections import Counter
from functools import reduce
from itertools import chain
from operator import add, truediv
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence

from .tokenizer import Interner, strip_marker

DEFAULT_MATTR_WINDOW = 500
DEFAULT_RENYI_ALPHA = 2.5


class FrequencyTable(NamedTuple):
    counts: Dict[str, int]
    total: int

    @classmethod
    def from_tokens(cls, tokens: Iterable[str]) -> "FrequencyTable":
        counts = Counter(tokens)
        return cls(counts=dict(counts), total=sum(counts.values()))


def ttr(tokens: Sequence[str]) -> float:
    """Type-token ratio: distinct types over total tokens."""
    if not tokens:
        raise ValueError("token sequence must be nonempty")
    return len(set(tokens)) / len(tokens)


def mattr(tokens: Sequence[str], window: int = DEFAULT_MATTR_WINDOW) -> float:
    """Moving-average TTR over fixed-size windows (stride 1). Falls back to
    plain TTR for sequences shorter than the window."""
    stats = UnigramStats(window)
    stats.add(tokens)
    return stats.mattr()


def mtl(tokens: Iterable[str]) -> float:
    """Micro-average characters per token, boundary markers stripped."""
    stats = UnigramStats()
    stats.add(list(tokens))
    return stats.mtl()


def renyi_efficiency(freq: FrequencyTable, alpha: float = DEFAULT_RENYI_ALPHA) -> float:
    """Rényi entropy H_alpha of the token distribution over its maximal
    entropy H_0 = log2(support size). alpha = 1 is the Shannon limit; a
    single-type support yields 0 by convention."""
    if not 0 <= alpha < math.inf:  # also rejects nan
        raise ValueError(f"alpha must be finite and >= 0, got {alpha}")
    if not freq.counts or freq.total <= 0:
        raise ValueError("frequency table must be nonempty")
    support = len(freq.counts)
    if support == 1:
        return 0.0
    h0 = math.log2(support)
    total = freq.total
    # floats add left to right: sum() compensates on Python 3.12 and later
    if alpha == 1.0:
        h = -reduce(add, ((c / total) * math.log2(c / total) for c in freq.counts.values()), 0.0)
    elif alpha == 0.0:
        h = h0
    else:
        s = reduce(add, ((c / total) ** alpha for c in freq.counts.values()), 0.0)
        if s >= sys.float_info.min:
            h = math.log2(s) / (1.0 - alpha)
        else:  # underflow: factor out pmax, as the sum of (p / pmax)^alpha is >= 1
            cmax = max(freq.counts.values())
            rest = reduce(add, ((c / cmax) ** alpha for c in freq.counts.values()), 0.0)
            h = (alpha * math.log2(cmax / total) + math.log2(rest)) / (1.0 - alpha)
    return h / h0


class UnigramStats:
    """Token-unigram and word metrics of a corpus fed a batch of spans at a
    time, in memory that grows with the types, not with the tokens or the
    MATTR window.

    Tokens are type ids from `interner`, which may be shared with other
    accumulators of the same pass; `add_spans` takes the id records of a
    batch of spans, and `add` interns one span's pieces first. Each batch is
    folded as it arrives into per-id counts, per-id last positions and the
    MATTR gap sum (see `mattr`); reading a metric changes nothing and maps
    ids back to strings. Every count and sum is the one a single pass over
    the whole token list makes, in the same order, so results are exact.
    """

    def __init__(
        self,
        mattr_window: int = DEFAULT_MATTR_WINDOW,
        interner: Optional[Interner] = None,
    ):
        if mattr_window < 1:
            raise ValueError(f"window must be >= 1, got {mattr_window}")
        self.mattr_window = mattr_window
        self.interner = interner if interner is not None else Interner()
        self.tokens = 0  # ctc
        self._counts: List[int] = []  # per type id
        # MATTR: each type id's last position (-1 when unseen), and the gap
        # sum of the tokens so far (see `mattr`)
        self._last: List[int] = []
        self._gap_sum = 0
        self.words = 0
        self._word_chars = 0
        self._s_sum = 0.0

    def add(self, pieces: Sequence[str], word: Optional[str] = None) -> None:
        """Add one span's pieces; `word`, when given, is the span's text and
        counts towards `mwl` and `s`."""
        self.add_spans([self.interner.intern(pieces)], None if word is None else [word])

    def add_spans(
        self, records: Sequence[Sequence[int]], words: Optional[Sequence[str]] = None
    ) -> None:
        """Add the id records of a batch of spans, in corpus order, to the
        type counts and the MATTR gap sum. `words`, when given, are the
        spans' texts, one per record, which are words that count towards
        `mwl` and `s`."""
        if words is not None:
            if not all(words):
                raise ValueError("words must be nonempty")
            if len(words) != len(records):
                raise ValueError(f"got {len(words)} words for {len(records)} spans")
            self.words += len(words)
            self._word_chars += sum(map(len, words))
            # plain left-to-right additions, as one span at a time makes
            # them; sum() of floats compensates on Python 3.12 and later
            self._s_sum = reduce(add, map(truediv, map(len, records), map(len, words)), self._s_sum)
        counts = self._counts
        last = self._last
        new = len(self.interner.strings) - len(counts)
        if new > 0:
            counts += [0] * new
            last += [-1] * new
        w = self.mattr_window
        total = self._gap_sum
        i = self.tokens
        for tid in chain.from_iterable(records):
            counts[tid] += 1
            gap = i - last[tid]
            total += gap if gap < w else w
            last[tid] = i
            i += 1
        self.tokens = i
        self._gap_sum = total

    def _nonempty(self) -> int:
        if not self.tokens:
            raise ValueError("token sequence must be nonempty")
        return self.tokens

    def _type_counts(self) -> Dict[str, int]:
        """Counts of the types seen here, keyed by string, in id order."""
        strings = self.interner.strings
        return {strings[tid]: c for tid, c in enumerate(self._counts) if c}

    def frequency(self) -> FrequencyTable:
        n = self._nonempty()
        return FrequencyTable(counts=self._type_counts(), total=n)

    def mattr(self) -> float:
        """Moving-average TTR over windows of `mattr_window` tokens (stride
        1); plain TTR when fewer tokens than that were added.

        The token at i is the first of its type in min(i - prev(i), w)
        windows (prev(i) = -1 for a new type), so the gap sum of those counts
        totals the distinct types of every window, less those of the windows
        starting past n - w: a type last seen at p > n - w is in p - (n - w)
        of them."""
        n = self._nonempty()
        w = self.mattr_window
        if n < w:
            return sum(1 for c in self._counts if c) / n
        start = n - w
        past = sum(p - start for p in self._last if p > start)
        return (self._gap_sum - past) / (n - w + 1) / w

    def mtl(self) -> float:
        """Micro-average characters per token, boundary markers stripped."""
        n = self._nonempty()
        return sum(c * len(strip_marker(t)) for t, c in self._type_counts().items()) / n

    def mwl(self) -> float:
        """Macro-average characters per word; 0.0 when no word was added."""
        return self._word_chars / self.words if self.words else 0.0

    def s(self) -> float:
        """Macro-average tokens per word character; 0.0 when no word was added."""
        return self._s_sum / self.words if self.words else 0.0
