"""Token-bigram gradient proxies of morphology.

For every token type, and separately for its left (predecessor) and right
(successor) neighbors inside a word span, we keep a sliding window of the
last W accessors (default W=1000) and derive:

  AV   accessor variety: distinct accessors per window, moving-averaged
  TA   total (non-dummy) accessors seen over the type's lifetime
  AU   accessor uniqueness: AV / window fill, the bigram analogue of TTR
  eta  entropic efficiency: window entropy over the maximal entropy
       log2(min(accessor pool, fill)), in [0, 1]
  BR   boundary ratio b / (TA + b), b counting span-edge "dummy" accessors
  LR   lexicalization ratio: share of lexical types filtered for
       min(BR_L, BR_R) >= 0.95

Dummies never enter windows or count tables. Only b_L is tallied: a token
is its span's first or has a left accessor, and its span's last or has a
right accessor, so b_R is derived from f = TA_L + b_L = TA_R + b_R.
A window's count table drops an accessor when its count reaches 0, so the
distinct count is the table's size; the table and the entropy accumulator
sum c*log2(c) update in O(1) per element entering or leaving the window.
Most types are rare and never fill a window, so the table is built only
when the window first fills: until then the window list is the whole
state, and a read of the table replays it. A side with no accessor shares
one empty window and allocates nothing of its own. Lifetime eta, over a
side's whole accessor history, reads counts that `BigramTables` keeps in a
table per side, made at the side's first accessor.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import reduce
from itertools import pairwise, zip_longest
from math import log2
from operator import add, itemgetter
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .corpus import InputError
from .pretokenize import is_lexical
from .tokenizer import Interner

DEFAULT_WINDOW = 1000

# The window of every side with no accessor yet; never mutated, as a side's
# first accessor gives it its own.
_NO_ACCESSORS: List[int] = []

# Pending pairs that trigger a replay into the accessor windows. The replay
# is the one step of the accumulation pass that defers work: replaying every
# 256-line batch as it arrives makes the bigram layer 17-24% slower, as each
# `extend` then gets a short run of accessors per type.
_FLUSH_PAIRS = 1 << 15


def _clog2(c: int) -> float:
    return c * math.log2(c) if c > 1 else 0.0


def entropy_steps(stop: int, start: int = 0) -> List[float]:
    """The change of the entropy accumulator sum c*log2(c) when a count goes
    from c to c + 1, for c in range(start, stop). A window of capacity W
    needs the steps for c < W: `entropy_steps(W)`."""
    return [_clog2(c + 1) - _clog2(c) for c in range(start, stop)]


class MetricsError(InputError):
    pass


def _efficiency(h: float, n: int, pool: int) -> float:
    """Entropy h of n accessors over the maximal entropy log2(min(pool, n));
    min(pool, n) <= 1 defines eta = 0."""
    m = min(pool, n)
    if m <= 1:
        return 0.0
    return min(1.0, h / math.log2(m))


class AccessorState:
    """Sliding-window accessor statistics for one token type on one side.

    `window` holds the last `capacity` accessors, oldest first, and `counts`
    their counts: an accessor leaves the table when its count reaches 0, so
    `len(counts)` is the window's distinct count. The table is built when
    the window first fills; until then `counts` and `entropy_acc` replay the
    window. `push` is the one-at-a-time reference, O(capacity) per accessor
    once the window is full; `extend` is the batched path `BigramTables`
    uses."""

    __slots__ = (
        "capacity",
        "stride",
        "window",
        "_counts",
        "_acc",
        "ta",
        "dummies",
        "av_sum",
        "h_sum",
        "snapshots",
    )

    def __init__(self, capacity: int = DEFAULT_WINDOW, stride: int = 1):
        self.capacity = capacity
        self.stride = stride
        self.window: List[int] = _NO_ACCESSORS
        self._counts: Optional[Dict[int, int]] = None  # built when the window fills
        self._acc = 0.0  # sum of c * log2(c) over the counts, once built
        self.ta = 0
        self.dummies = 0
        self.av_sum = 0  # sum of distinct counts over sampled full windows
        self.h_sum = 0.0  # sum of window entropies over sampled full windows
        self.snapshots = 0

    @property
    def fill(self) -> int:
        """Accessors in the window: min(ta, capacity)."""
        return len(self.window)

    @property
    def counts(self) -> Dict[int, int]:
        return self._table()[0]

    @property
    def entropy_acc(self) -> float:
        return self._table()[1]

    def _table(self, steps: Optional[Sequence[float]] = None) -> Tuple[Dict[int, int], float]:
        """(counts, entropy_acc) of the window: the table once the window has
        filled, else a replay of the window oldest first, from 0.0, with
        `steps` (`entropy_steps` of at least the fill). The replay makes the
        same additions in the same order as a table kept from the start."""
        if self._counts is not None:
            return self._counts, self._acc
        if steps is None:
            steps = entropy_steps(len(self.window))
        counts: Dict[int, int] = {}
        get = counts.get
        acc = 0.0
        for a in self.window:
            c = get(a, 0)
            counts[a] = c + 1
            acc += steps[c]
        return counts, acc

    def push(self, accessor: int) -> None:
        counts = self._counts
        window = self.window
        self.ta += 1
        if counts is None:
            if not window:
                window = self.window = []
            window.append(accessor)
            if len(window) < self.capacity:
                return
            counts, self._acc = self._table()
            self._counts = counts
        else:
            old = window.pop(0)
            c = counts[old]
            if c == 1:
                del counts[old]
            else:
                counts[old] = c - 1
            self._acc += _clog2(c - 1) - _clog2(c)
            window.append(accessor)
            c = counts.get(accessor, 0)
            counts[accessor] = c + 1
            self._acc += _clog2(c + 1) - _clog2(c)
            if (self.ta - self.capacity) % self.stride:
                return
        self.av_sum += len(counts)
        w = self.capacity
        # clamp: accumulated rounding can push a zero entropy negative
        self.h_sum += max(0.0, math.log2(w) - self._acc / w)
        self.snapshots += 1

    def extend(self, accessors: List[int], steps: Sequence[float]) -> None:
        """Push every accessor in order; the state ends slot for slot equal
        to repeated `push`, floats included, because the same additions run
        in the same order. `steps` is `entropy_steps(capacity)`: a count
        entering at c adds steps[c], one leaving at c adds -steps[c - 1]."""
        if not accessors:
            return
        cap = self.capacity
        window = self.window
        room = cap - len(window)
        if room:
            self.window = window = window + accessors[:room]
            self.ta = len(window)
            if self.ta < cap:
                return
            counts, acc = self._table(steps)
            self._counts = counts
            # the first full window is always sampled
            self.av_sum += len(counts)
            h = math.log2(cap) - acc / cap
            self.h_sum += h if h > 0.0 else 0.0
            self.snapshots += 1
            accessors = accessors[room:]
        else:
            counts = self._counts
            acc = self._acc
        if accessors:
            window += accessors
            get = counts.get
            stride = self.stride
            until = stride - (self.ta - cap) % stride  # steps to the next sample
            av_sum = self.av_sum
            h_sum = self.h_sum
            snapshots = self.snapshots
            log2w = math.log2(cap)
            # the window now lists every accessor oldest first, so the k-th
            # entering accessor pushes out window[k]
            for old, a in zip(window, accessors):
                c = counts[old]
                if c == 1:
                    del counts[old]
                else:
                    counts[old] = c - 1
                acc -= steps[c - 1]
                c = get(a, 0)
                counts[a] = c + 1
                acc += steps[c]
                until -= 1
                if until == 0:
                    until = stride
                    av_sum += len(counts)
                    h = log2w - acc / cap
                    h_sum += h if h > 0.0 else 0.0
                    snapshots += 1
            self.av_sum = av_sum
            self.h_sum = h_sum
            self.snapshots = snapshots
            self.ta += len(accessors)
            del window[:-cap]
        self._acc = acc

    # --- windowed metrics -------------------------------------------------

    def windowed_av(self) -> float:
        """Moving average of per-window distinct counts; a single partial
        window for types with fewer than W lifetime accessors."""
        if self.snapshots:
            return self.av_sum / self.snapshots
        return float(len(self.counts))

    def windowed_au(self) -> float:
        if self.snapshots:
            return self.av_sum / self.snapshots / self.capacity
        if self.fill == 0:
            return 0.0
        return len(self.counts) / self.fill

    def windowed_eta(self, pool: int) -> float:
        """Entropy over the maximal entropy log2(min(pool, fill)); windows
        with min(pool, fill) <= 1 define eta = 0."""
        if pool < 1:
            raise MetricsError(f"accessor pool must be >= 1, got {pool}")
        if self.snapshots:
            return _efficiency(self.h_sum / self.snapshots, self.capacity, pool)
        fill = self.fill
        if fill == 0:
            return 0.0
        h = max(0.0, math.log2(fill) - self.entropy_acc / fill)
        return _efficiency(h, fill, pool)

    def boundary_ratio(self) -> float:
        total = self.ta + self.dummies
        return self.dummies / total if total else 0.0


def _side(
    st: AccessorState, pool: int, life: Optional[Dict[int, int]], steps: Sequence[float]
) -> Tuple[float, float, float, float]:
    """(AV, AU, eta, BR) of one state: `windowed_av`, `windowed_au`,
    `windowed_eta` and `boundary_ratio` inlined, with the same float
    operations in the same order (the clamps are conditional expressions, not
    calls of `max` and `min`). An unfilled window is replayed once with
    `steps`. Given the side's lifetime counts `life`, eta is over its `ta`
    accessors instead. eta is 0 for an empty pool or a side with no accessor."""
    snapshots = st.snapshots
    if snapshots:
        av = st.av_sum / snapshots
        n = st.capacity
        au = av / n
        h = st.h_sum / snapshots
    else:
        n = len(st.window)
        av = au = h = 0.0
        if n:
            counts, acc = st._table(steps)
            av = float(len(counts))
            au = av / n
            h = log2(n) - acc / n
            h = h if h > 0.0 else 0.0
    if life is not None:
        n = st.ta
        h = log2(n) - reduce(add, map(_clog2, life.values()), 0.0) / n
        h = h if h > 0.0 else 0.0
    m = n if n < pool else pool
    eta = h / log2(m) if m > 1 else 0.0
    eta = eta if eta < 1.0 else 1.0
    total = st.ta + st.dummies
    return av, au, eta, st.dummies / total if total else 0.0


class TypeMetrics(NamedTuple):
    type: str
    f: int
    av_l: float
    av_r: float
    au_l: float
    au_r: float
    eta_l: float
    eta_r: float
    br_l: float
    br_r: float
    retained: bool

    @property
    def av_mean(self) -> float:
        return (self.av_l + self.av_r) / 2

    @property
    def av_min(self) -> float:
        return min(self.av_l, self.av_r)

    @property
    def au_mean(self) -> float:
        return (self.au_l + self.au_r) / 2

    @property
    def eta_mean(self) -> float:
        return (self.eta_l + self.eta_r) / 2


class BigramReport(NamedTuple):
    types: List[TypeMetrics]
    lr: float
    retained_count: int
    filtered_count: int
    macro_av: Optional[float]  # macro-averages over retained types
    macro_av_min: Optional[float]
    macro_au: Optional[float]
    macro_eta: Optional[float]
    degenerate: bool = False  # every lexical type was filtered

    def lines(self, percent: bool = False) -> List[str]:
        """The `bigram` table: a header, one row per type, then a `# ` footer.
        Values have 4 decimals; percent mode scales AU, eta, BR and LR by 100."""

        def fmt(v: float) -> str:
            return f"{v * 100:.4f}" if percent else f"{v:.4f}"

        out = ["type\tf\tav_L\tav_R\tav_mean\tav_min\tau_mean\teta_mean\tbr_L\tbr_R\tretained"]
        for t in self.types:
            cells = [t.type, str(t.f)] + [f"{v:.4f}" for v in (t.av_l, t.av_r, t.av_mean, t.av_min)]
            cells += [fmt(v) for v in (t.au_mean, t.eta_mean, t.br_l, t.br_r)]
            out.append("\t".join(cells + ["1" if t.retained else "0"]))
        if self.degenerate:
            out.append("# degenerate: every lexical type was filtered")
        elif self.macro_av is None:
            out.append("# no retained type filled a window on both sides")
        else:
            out += [f"# macro_av\t{self.macro_av:.4f}", f"# macro_av_min\t{self.macro_av_min:.4f}",
                    f"# macro_au\t{fmt(self.macro_au)}", f"# macro_eta\t{fmt(self.macro_eta)}"]
        return out + [f"# lr\t{fmt(self.lr)}", f"# retained\t{self.retained_count}",
                      f"# filtered\t{self.filtered_count}"]


class BigramTables:
    """Accumulates per-type left/right accessor statistics over token spans.

    Spans arrive as type ids from `interner`, which may be shared with other
    accumulators of the same pass: `observe_spans` takes the id records of
    a batch of spans, and `observe_span` interns one span's pieces first.
    `type_ids` and `type_strings` are the interner's dict and list; a type
    interned elsewhere but never observed here has frequency 0.

    Observed pairs are buffered per type and side and replayed into the
    windows in batches (`AccessorState.extend`); reading `left` or `right`,
    or finalizing, applies every pair observed so far. With `lifetime_eta`, a
    replay also counts a side's accessors in its lifetime table, which the
    side gets at its first accessor; `finalize` takes eta from these tables.

    One instance is owned by exactly one sequential accumulation pass;
    independent corpora use independent tables.
    """

    def __init__(
        self,
        window: int = DEFAULT_WINDOW,
        stride: int = 1,
        lifetime_eta: bool = False,
        interner: Optional[Interner] = None,
    ):
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        if stride < 1:
            raise ValueError(f"stride must be >= 1, got {stride}")
        self.window = window
        self.stride = stride
        self.lifetime_eta = lifetime_eta
        self.interner = interner if interner is not None else Interner()
        self.type_ids: Dict[str, int] = self.interner.ids
        self.type_strings: List[str] = self.interner.strings
        self._left: List[AccessorState] = []
        self._right: List[AccessorState] = []
        # accessor ids observed but not yet replayed into the windows, per
        # type and side; per-type order is all a window depends on
        self._pending_left: List[List[int]] = []
        self._pending_right: List[List[int]] = []
        self._pending = 0
        # with lifetime_eta, per type and side, lifetime accessor counts or None
        self._life_left: List[Optional[Dict[int, int]]] = []
        self._life_right: List[Optional[Dict[int, int]]] = []
        self._right_dummies_stale = False  # spans arrived since b_R was derived
        # entropy steps for the counts reached so far: no count exceeds the
        # window or the pairs seen, and a huge window must not cost memory
        self._steps: List[float] = []
        self.total_pairs = 0

    @property
    def left(self) -> List[AccessorState]:
        """Predecessor-side state of every type id, with all pairs applied."""
        self._sync()
        return self._left

    @property
    def right(self) -> List[AccessorState]:
        """Successor-side state of every type id, with all pairs applied."""
        self._sync()
        return self._right

    def _grow(self) -> None:
        """Give every type the interner has handed out its states."""
        new = len(self.type_strings) - len(self._left)
        for states, pending in (
            (self._left, self._pending_left),
            (self._right, self._pending_right),
        ):
            states += [AccessorState(self.window, self.stride) for _ in range(new)]
            pending += [[] for _ in range(new)]

    def observe_span(self, pieces: Sequence[str]) -> None:
        """One word span of pieces; see `observe_spans`."""
        if pieces:
            self.observe_spans([self.interner.intern(pieces)])

    def observe_spans(self, records: Sequence[Sequence[int]]) -> None:
        """The id sequences of word spans, each nonempty, in corpus order:
        adjacent pairs feed both sides' windows; the first token of a span
        tallies one dummy in b_L, and b_R is derived from f = TA + b on read."""
        if len(self._left) < len(self.type_strings):
            self._grow()
        left = self._left
        for tid, n in Counter(map(itemgetter(0), records)).items():
            left[tid].dummies += n
        pending_left = self._pending_left
        pending_right = self._pending_right
        for record in records:
            if len(record) > 1:
                for prev, cur in pairwise(record):
                    pending_right[prev].append(cur)
                    pending_left[cur].append(prev)
        pairs = sum(map(len, records)) - len(records)
        self.total_pairs += pairs
        self._pending += pairs
        self._right_dummies_stale = True
        if self._pending >= _FLUSH_PAIRS:
            self._flush()

    def _sync(self) -> None:
        """Apply every pending pair, then derive b_R = TA_L + b_L - TA_R if
        spans arrived since the last derivation, with pairs or without."""
        if len(self._left) < len(self.type_strings):
            self._grow()
        self._flush()
        if self._right_dummies_stale:
            for ls, rs in zip(self._left, self._right):
                rs.dummies = ls.ta + ls.dummies - rs.ta
            self._right_dummies_stale = False

    def _flush(self) -> None:
        """Replay the pending accessors into their windows."""
        if not self._pending:
            return
        steps = self._steps
        need = min(self.window, self.total_pairs)
        if len(steps) < need:
            steps += entropy_steps(need, len(steps))
        track = self.lifetime_eta
        for states, pending, life in (
            (self._left, self._pending_left, self._life_left),
            (self._right, self._pending_right, self._life_right),
        ):
            if track:
                life += [None] * (len(states) - len(life))
            for tid, accessors in enumerate(pending):
                if accessors:
                    states[tid].extend(accessors, steps)
                    pending[tid] = []
                    if track:
                        counts = life[tid]
                        if counts is None:
                            counts = life[tid] = {}
                        for a in accessors:
                            counts[a] = counts.get(a, 0) + 1
        self._pending = 0

    def pools(self) -> Tuple[int, int]:
        """(pool_left, pool_right): the left pool is the number of types
        possessing a right accessor (types occurring as someone's left
        neighbor), and symmetrically for the right pool."""
        pool_left = sum(1 for s in self.right if s.ta > 0)
        pool_right = sum(1 for s in self.left if s.ta > 0)
        return pool_left, pool_right

    def finalize(self, full_windows_only: bool = False) -> BigramReport:
        """Filter to lexical types, apply the boundary-ratio filter, and
        macro-average the windowed metrics over the retained set.

        With full_windows_only, types whose accessor history never filled a
        window on one of the sides are excluded from the macro averages
        (they still appear per-type and still count toward LR)."""
        left, right, strings = self.left, self.right, self.type_strings
        pool_left, pool_right = self.pools()
        steps = self._steps
        new = tuple.__new__  # a record from one tuple, with no keyword parsing

        types: List[TypeMetrics] = []
        retained: List[TypeMetrics] = []
        lexical = filtered_count = 0
        # the lifetime lists end at the last replay: later types have no counts
        sides = zip_longest(left, right, self._life_left, self._life_right)
        for tid, (ls, rs, life_l, life_r) in enumerate(sides):
            f = ls.ta + ls.dummies
            if not f or not is_lexical(strings[tid]):
                continue
            lexical += 1
            av_l, au_l, eta_l, br_l = _side(ls, pool_left, life_l, steps)
            av_r, au_r, eta_r, br_r = _side(rs, pool_right, life_r, steps)
            keep = br_l < 0.95 or br_r < 0.95
            tm = new(TypeMetrics, (strings[tid], f, av_l, av_r, au_l, au_r, eta_l, eta_r, br_l, br_r, keep))
            types.append(tm)
            if keep:
                if not full_windows_only or (ls.snapshots and rs.snapshots):
                    retained.append(tm)
            else:
                filtered_count += 1
        if not lexical:
            raise MetricsError("no lexical types observed")

        # the properties' values added left to right, in their order, on
        # every Python version: sum() of floats compensates from 3.12 on
        n = len(retained)
        return BigramReport(
            types=types,
            lr=filtered_count / lexical,
            retained_count=n,
            filtered_count=filtered_count,
            macro_av=reduce(add, [(t.av_l + t.av_r) / 2 for t in retained], 0.0) / n if n else None,
            macro_av_min=reduce(add, [min(t.av_l, t.av_r) for t in retained], 0.0) / n if n else None,
            macro_au=reduce(add, [(t.au_l + t.au_r) / 2 for t in retained], 0.0) / n if n else None,
            macro_eta=reduce(add, [(t.eta_l + t.eta_r) / 2 for t in retained], 0.0) / n if n else None,
            degenerate=filtered_count == lexical,
        )
