"""Token-unigram metrics (TTR, MATTR, MTL, Rényi efficiency) and word-based
metrics (mean word length, tokens per character)."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

from .pretokenize import DEFAULT_MARKER

DEFAULT_MATTR_WINDOW = 500
DEFAULT_RENYI_ALPHA = 2.5

# pending tokens folded into the counts and the MATTR window at once
_FLUSH_TOKENS = 1 << 15


@dataclass
class FrequencyTable:
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


def mtl(tokens: Iterable[str], marker: str = DEFAULT_MARKER) -> float:
    """Micro-average characters per token, boundary markers stripped."""
    stats = UnigramStats()
    stats.add(list(tokens))
    return stats.mtl(marker)


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
    if alpha == 1.0:
        h = -sum((c / total) * math.log2(c / total) for c in freq.counts.values())
    elif alpha == 0.0:
        h = h0
    else:
        s = sum((c / total) ** alpha for c in freq.counts.values())
        h = math.log2(s) / (1.0 - alpha)
    return h / h0


class UnigramStats:
    """Token-unigram and word metrics of a corpus fed one word span at a
    time, in memory that grows with the types and the MATTR window, not with
    the tokens. Pieces are buffered and folded in batches, and reading a
    metric folds everything added so far; every count and sum is the one a
    single pass over the whole token list makes, so results are exact."""

    def __init__(self, mattr_window: int = DEFAULT_MATTR_WINDOW):
        if mattr_window < 1:
            raise ValueError(f"window must be >= 1, got {mattr_window}")
        self.mattr_window = mattr_window
        self.tokens = 0  # ctc
        self._counts: Counter = Counter()  # first-seen order, as Counter(tokens)
        self._pending: List[str] = []
        # MATTR: the last `mattr_window` folded tokens, their type counts, the
        # distinct types among them, and that count summed over full windows
        self._tail: List[str] = []
        self._window: Dict[str, int] = {}
        self._distinct = self._distinct_sum = 0
        self.words = 0
        self._word_chars = 0
        self._s_sum = 0.0

    def add(self, pieces: Sequence[str], word: Optional[str] = None) -> None:
        """Add one span's pieces; `word`, when given, is the span's text and
        counts towards `mwl` and `s`."""
        if word is not None:
            if not word:
                raise ValueError("words must be nonempty")
            self.words += 1
            self._word_chars += len(word)
            self._s_sum += len(pieces) / len(word)
        self.tokens += len(pieces)
        self._pending += pieces
        if len(self._pending) >= _FLUSH_TOKENS:
            self._fold()

    def _fold(self) -> None:
        """Apply the pending tokens to the type counts and the MATTR window."""
        batch = self._pending
        self._pending = []
        self._counts.update(batch)
        w = self.mattr_window
        counts = self._window
        distinct = self._distinct
        total = self._distinct_sum
        seq = self._tail + batch
        # the tail is shorter than w only before the first full window, when
        # positions in seq are positions in the corpus
        for i in range(len(self._tail), len(seq)):
            if i >= w:
                out = seq[i - w]
                c = counts[out]
                if c == 1:
                    del counts[out]
                    distinct -= 1
                else:
                    counts[out] = c - 1
            tok = seq[i]
            c = counts.get(tok, 0)
            counts[tok] = c + 1
            if c == 0:
                distinct += 1
            if i >= w - 1:
                total += distinct
        self._tail = seq[-w:]
        self._distinct = distinct
        self._distinct_sum = total

    def _folded(self) -> int:
        self._fold()
        if not self.tokens:
            raise ValueError("token sequence must be nonempty")
        return self.tokens

    def frequency(self) -> FrequencyTable:
        return FrequencyTable(counts=dict(self._counts), total=self._folded())

    def mattr(self) -> float:
        """Moving-average TTR over windows of `mattr_window` tokens (stride
        1); plain TTR when fewer tokens than that were added."""
        n = self._folded()
        w = self.mattr_window
        if n < w:
            return len(self._counts) / n
        return self._distinct_sum / (n - w + 1) / w

    def mtl(self, marker: str = DEFAULT_MARKER) -> float:
        """Micro-average characters per token, boundary markers stripped."""
        n = self._folded()
        chars = sum(
            c * (len(t) - (len(marker) if marker and t.startswith(marker) else 0))
            for t, c in self._counts.items()
        )
        return chars / n

    def mwl(self) -> float:
        """Macro-average characters per word; 0.0 when no word was added."""
        return self._word_chars / self.words if self.words else 0.0

    def s(self) -> float:
        """Macro-average tokens per word character; 0.0 when no word was added."""
        return self._s_sum / self.words if self.words else 0.0
