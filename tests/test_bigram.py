import gc
import math
import os
import random
import sys
import threading
import tracemalloc
from collections import Counter
from functools import reduce
from operator import add

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from morphlens import bigram
from morphlens.bigram import (
    AccessorState,
    BigramTables,
    MetricsError,
    entropy_steps,
)
from morphlens.pretokenize import is_lexical


def state_with(accessors, capacity=1000, stride=1):
    s = AccessorState(capacity, stride)
    for a in accessors:
        s.push(a)
    return s


def observe_spans(tables, spans):
    for span in spans:
        tables.observe_span(span)


# --- observation hand traces -----------------------------------------------


def test_span_abc():
    t = BigramTables()
    t.observe_span(["a", "b", "c"])
    a, b, c = (t.type_ids[x] for x in "abc")
    assert t.right[a].ta == 1 and t.left[b].ta == 1
    assert t.right[b].ta == 1 and t.left[c].ta == 1
    assert t.left[a].dummies == 1 and t.right[c].dummies == 1
    assert t.left[a].ta == 0 and t.right[c].ta == 0
    assert t.total_pairs == 2


def test_singleton_span():
    t = BigramTables()
    t.observe_span(["a"])
    a = t.type_ids["a"]
    assert t.left[a].ta == t.right[a].ta == 0
    assert t.left[a].dummies == t.right[a].dummies == 1


def test_span_structure_vs_merged():
    # "a b" x100 as two singleton spans: no pairs, only dummies;
    # the same pieces inside one span: 100 right accessors for a
    split = BigramTables()
    observe_spans(split, [["a"], ["b"]] * 100)
    a = split.type_ids["a"]
    assert split.right[a].ta == 0
    assert split.left[a].dummies == 100
    assert split.right[a].dummies == 100

    merged = BigramTables()
    observe_spans(merged, [["a", "b"]] * 100)
    a = merged.type_ids["a"]
    assert merged.right[a].ta == 100


def test_spans_do_not_pair_across():
    # "x y" then "y x": the two y's are in different spans, so no y-y pair
    t = BigramTables()
    t.observe_span(["x", "y"])
    t.observe_span(["y", "x"])
    x, y = t.type_ids["x"], t.type_ids["y"]
    assert t.right[x].ta == 1 and t.right[y].ta == 1
    assert t.left[x].dummies == 1 and t.left[y].dummies == 1


# --- windowed metrics ------------------------------------------------------


def test_av_partial_window():
    assert state_with([1, 2, 1, 3]).windowed_av() == 3.0


def test_av_degenerate_full_windows():
    assert state_with([7] * 2000, capacity=1000).windowed_av() == 1.0


def test_av_cycling_small_window():
    # x,y,z cycling with W=2: every full window holds 2 distinct
    s = state_with([1, 2, 3] * 20, capacity=2)
    assert s.windowed_av() == 2.0


def test_av_moving_average_brute_force():
    rng = random.Random(5)
    seq = [rng.randrange(6) for _ in range(200)]
    w = 16
    s = state_with(seq, capacity=w)
    expected = sum(
        len(set(seq[i : i + w])) for i in range(len(seq) - w + 1)
    ) / (len(seq) - w + 1)
    assert s.windowed_av() == pytest.approx(expected, abs=1e-12)


def test_au_all_identical():
    s = state_with([1] * 3000, capacity=1000)
    assert s.windowed_au() == pytest.approx(1 / 1000)


def test_au_all_distinct():
    s = state_with(range(3000), capacity=1000)
    assert s.windowed_au() == 1.0


def test_au_partial_window():
    assert state_with([1, 2, 1, 3]).windowed_au() == pytest.approx(3 / 4)


def test_eta_uniform_is_one():
    s = state_with(list(range(8)) * 125, capacity=1000)
    assert s.windowed_eta(pool=8) == pytest.approx(1.0, abs=1e-9)


def test_eta_uniform_large_pool():
    s = state_with(list(range(8)) * 125, capacity=1000)
    assert s.windowed_eta(pool=4096) == pytest.approx(3 / math.log2(1000))


def test_eta_single_accessor_zero():
    assert state_with([4] * 2000, capacity=1000).windowed_eta(pool=50) == 0.0


def test_eta_hand_example():
    # counts {x:3, y:1}, pool 2, fill 4
    s = state_with([1, 1, 2, 1])
    expected = -(0.75 * math.log2(0.75) + 0.25 * math.log2(0.25))
    assert expected == pytest.approx(0.8113, abs=5e-5)
    assert s.windowed_eta(pool=2) == pytest.approx(expected)


def test_eta_pool_one_is_zero():
    assert state_with([1, 2, 3]).windowed_eta(pool=1) == 0.0


def test_eta_bad_pool():
    with pytest.raises(MetricsError):
        state_with([1]).windowed_eta(pool=0)


def test_eta_monotone_in_concentration():
    # 2-type windows: more mass on one type means lower efficiency
    etas = []
    for p in (0.6, 0.7, 0.8, 0.9):
        heavy = int(round(p * 1000))
        s = state_with([1] * heavy + [2] * (1000 - heavy), capacity=1000)
        etas.append(s.windowed_eta(pool=2))
    assert all(a > b for a, b in zip(etas, etas[1:]))


def test_lifetime_eta_matches_partial_window_case():
    s = AccessorState(1000, track_lifetime=True)
    for a in [1, 1, 2, 1]:
        s.push(a)
    assert s.lifetime_eta(pool=2) == pytest.approx(s.windowed_eta(pool=2))


def test_boundary_ratio():
    s = AccessorState()
    s.dummies = 100
    assert s.boundary_ratio() == 1.0
    s2 = state_with([1] * 95)
    s2.dummies = 5
    assert s2.boundary_ratio() == pytest.approx(0.05)
    assert AccessorState().boundary_ratio() == 0.0


# --- incremental vs batch oracle -------------------------------------------


def batch_stats(window):
    """Recompute distinct count and entropy accumulator from raw contents."""
    counts = {}
    for a in window:
        counts[a] = counts.get(a, 0) + 1
    acc = sum(c * math.log2(c) for c in counts.values())
    return len(counts), acc


def test_incremental_equals_batch_every_step():
    rng = random.Random(11)
    for _ in range(50):
        s = AccessorState(capacity=16)
        raw = []
        for _ in range(rng.randrange(1, 80)):
            a = rng.randrange(8)
            s.push(a)
            raw.append(a)
            distinct, acc = batch_stats(raw[-16:])
            assert len(s.counts) == distinct
            assert s.entropy_acc == pytest.approx(acc, abs=1e-10)
            assert sum(s.counts.values()) == min(s.ta, 16)


def test_au_times_fill_equals_av_per_window():
    rng = random.Random(13)
    for _ in range(200):
        s = AccessorState(capacity=16)
        for _ in range(rng.randrange(1, 60)):
            s.push(rng.randrange(5))
            fill = s.fill
            assert len(s.counts) / fill * fill == pytest.approx(len(s.counts))
            assert 1 <= len(s.counts) <= min(s.ta, 16)


# --- conservation fuzzing --------------------------------------------------


def random_spans(rng, n_spans, alphabet):
    return [
        [rng.choice(alphabet) for _ in range(rng.randrange(1, 7))]
        for _ in range(n_spans)
    ]


def test_frequency_identity_fuzz():
    rng = random.Random(17)
    alphabet = list("abcdefgh")
    for _ in range(1000):
        t = BigramTables(window=8)
        spans = random_spans(rng, rng.randrange(1, 12), alphabet)
        observe_spans(t, spans)
        freq = {}
        for span in spans:
            for piece in span:
                freq[piece] = freq.get(piece, 0) + 1
        for piece, tid in t.type_ids.items():
            ls, rs = t.left[tid], t.right[tid]
            assert ls.ta + ls.dummies == freq[piece]
            assert rs.ta + rs.dummies == freq[piece]
        assert sum(s.ta for s in t.left) == t.total_pairs
        assert sum(s.ta for s in t.right) == t.total_pairs


def test_ta_total_identities():
    # pretokenized: each span of length k contributes k-1 pairs
    rng = random.Random(19)
    spans = random_spans(rng, 50, list("abcd"))
    t = BigramTables()
    observe_spans(t, spans)
    n_tokens = sum(len(s) for s in spans)
    assert t.total_pairs == n_tokens - len(spans)


# --- finalize --------------------------------------------------------------


def test_finalize_no_lexical_types():
    t = BigramTables()
    t.observe_span(["...", "!!"])
    with pytest.raises(MetricsError, match="no lexical types"):
        t.finalize()


def test_finalize_all_boundary_only():
    t = BigramTables()
    observe_spans(t, [["a"], ["b"]] * 50)
    report = t.finalize()
    assert report.degenerate
    assert report.lr == 1.0
    assert report.retained_count == 0
    assert report.macro_av is None


def test_finalize_half_filtered():
    # a,b always bound together (retained); c,d always alone (filtered)
    t = BigramTables()
    observe_spans(t, [["a", "b"], ["c"], ["d"]] * 50)
    report = t.finalize()
    assert report.lr == pytest.approx(0.5)
    assert report.retained_count == 2
    assert report.filtered_count == 2
    retained = {x.type for x in report.types if x.retained}
    assert retained == {"a", "b"}


def test_finalize_threshold_exactly_095():
    # 19 singleton occurrences and one pair: BR exactly 0.95 on one side
    t = BigramTables()
    for _ in range(19):
        t.observe_span(["q"])
    t.observe_span(["q", "r"])
    q = t.type_ids["q"]
    assert t.right[q].dummies == 19 and t.right[q].ta == 1
    br_r = t.right[q].boundary_ratio()
    assert br_r == pytest.approx(0.95)
    report = t.finalize()
    q_metrics = next(x for x in report.types if x.type == "q")
    # min(BR_L, BR_R) >= 0.95 filters the type
    assert not q_metrics.retained


def test_finalize_marker_insensitive_identity():
    t = BigramTables()
    t.observe_span(["▁kirj", "alle"])
    report = t.finalize()
    names = {x.type for x in report.types}
    assert names == {"▁kirj", "alle"}


def test_finalize_nonlexical_excluded_from_lr():
    t = BigramTables()
    observe_spans(t, [["a", "."], ["a", "b"]] * 30)
    report = t.finalize()
    assert all(x.type != "." for x in report.types)


def test_full_windows_only_restricts_macro_set():
    t = BigramTables(window=4)
    # "a" sees plenty of accessors; "z" appears in only two pairs
    spans = [["a", "bcdefghij"[i % 9]] for i in range(60)] + [
        ["z", "a"],
        ["a", "z"],
    ]
    observe_spans(t, spans)
    loose = t.finalize()
    strict = t.finalize(full_windows_only=True)
    assert strict.retained_count < loose.retained_count


def test_pools_count_accessor_domains():
    t = BigramTables()
    observe_spans(t, [["a", "b", "c"], ["a", "c"]])
    pool_left, pool_right = t.pools()
    # left pool: types occurring as someone's left neighbor = {a, b}
    assert pool_left == 2
    # right pool: types occurring as someone's right neighbor = {b, c}
    assert pool_right == 2


def test_window_and_stride_validation():
    with pytest.raises(ValueError):
        BigramTables(window=0)
    with pytest.raises(ValueError):
        BigramTables(stride=0)


def test_tumbling_stride_subsamples_snapshots():
    seq = [random.Random(23).randrange(4) for _ in range(64)]
    moving = state_with(seq, capacity=8, stride=1)
    tumbling = state_with(seq, capacity=8, stride=8)
    assert moving.snapshots == 64 - 8 + 1
    assert tumbling.snapshots == 8


# --- batched replay against the incremental reference ----------------------


def slots(state):
    return {name: getattr(state, name) for name in AccessorState.__slots__}


@given(
    window=st.integers(1, 20),
    stride=st.integers(1, 4),
    lifetime=st.booleans(),
    accessors=st.lists(st.integers(0, 6), max_size=120),
    cuts=st.lists(st.integers(0, 120), max_size=6),
)
# the first fill: at the first accessor, mid-extend, exactly at an extend's
# end, with stride > 1, and with lifetime tracking
@example(window=1, stride=1, lifetime=False, accessors=[3, 4, 4, 5, 5], cuts=[1, 4])
@example(window=4, stride=1, lifetime=False, accessors=[1, 2, 3, 1, 2, 9, 2], cuts=[2, 6])
@example(window=4, stride=1, lifetime=False, accessors=[1, 2, 3, 4, 4], cuts=[4])
@example(window=4, stride=3, lifetime=False, accessors=[1, 2, 3, 4, 5, 1, 1, 7, 7, 7, 7], cuts=[1, 7])
@example(window=4, stride=2, lifetime=True, accessors=[1, 1, 2, 2, 3, 3, 1, 1], cuts=[3, 7])
@settings(max_examples=400, deadline=None)
def test_extend_equals_repeated_push(window, stride, lifetime, accessors, cuts):
    # floats compare with ==: extend must add the same terms in the same order
    ref = AccessorState(window, stride, lifetime)
    batched = AccessorState(window, stride, lifetime)
    steps = entropy_steps(window)
    start = 0
    for stop in sorted(min(c, len(accessors)) for c in cuts) + [len(accessors)]:
        chunk = accessors[start:stop]
        for a in chunk:
            ref.push(a)
        batched.extend(chunk, steps)
        assert slots(batched) == slots(ref)
        assert batched.window == accessors[:stop][-window:]
        # the count table holds exactly the window's accessors, with no zero
        # entry: `len(counts)` is the distinct count
        assert batched.counts == Counter(batched.window)
        assert ref.counts == Counter(ref.window)
        start = stop


def test_extend_default_window_large_counts():
    rng = random.Random(29)
    accessors = [rng.randrange(3) for _ in range(5000)]
    ref = state_with(accessors)
    batched = AccessorState()
    steps = entropy_steps(batched.capacity)
    for i in range(0, len(accessors), 700):
        batched.extend(accessors[i : i + 700], steps)
    assert slots(batched) == slots(ref)


def replay(spans, window=bigram.DEFAULT_WINDOW, stride=1, lifetime=False):
    """Pairs pushed one at a time, as BigramTables did before batching."""
    ids, left, right = {}, [], []
    for span in spans:
        tids = []
        for piece in span:
            if piece not in ids:
                ids[piece] = len(left)
                left.append(AccessorState(window, stride, lifetime))
                right.append(AccessorState(window, stride, lifetime))
            tids.append(ids[piece])
        left[tids[0]].dummies += 1
        right[tids[-1]].dummies += 1
        for a, b in zip(tids, tids[1:]):
            right[a].push(b)
            left[b].push(a)
    return ids, left, right


def assert_tables_equal(tables, spans, **kwargs):
    ids, left, right = replay(spans, **kwargs)
    assert tables.type_ids == ids
    assert [slots(s) for s in tables.left] == [slots(s) for s in left]
    assert [slots(s) for s in tables.right] == [slots(s) for s in right]
    assert tables.total_pairs == sum(len(span) - 1 for span in spans)


@given(
    spans=st.lists(st.lists(st.sampled_from("abcdefg"), min_size=1, max_size=7), max_size=60),
    reads=st.lists(st.integers(0, 60), max_size=5),
    window=st.integers(1, 12),
    stride=st.integers(1, 3),
    lifetime=st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_tables_read_before_finalize_equal_unbatched(spans, reads, window, stride, lifetime):
    t = BigramTables(window=window, stride=stride, lifetime_eta=lifetime)
    done = 0
    for stop in sorted(min(r, len(spans)) for r in reads) + [len(spans)]:
        for span in spans[done:stop]:
            t.observe_span(span)
        done = stop
        assert_tables_equal(t, spans[:done], window=window, stride=stride, lifetime=lifetime)


def test_right_dummies_derived_after_spans_without_pairs():
    # the first batch crosses the flush threshold and leaves no pair pending;
    # the second holds single-piece spans only, so it adds dummies but no
    # pair, and reading `right` must still derive b_R for it
    rng = random.Random(43)
    paired = random_spans(rng, 16000, list("abcdef"))
    singles = [[rng.choice("abcdefg")] for _ in range(50)]
    t = BigramTables(window=50)
    t.observe_spans([t.interner.intern(span) for span in paired])
    assert t._pending == 0 and t.total_pairs > bigram._FLUSH_PAIRS
    t.observe_spans([t.interner.intern(span) for span in singles])
    ids, _, right = replay(paired + singles, window=50)
    assert t.type_ids == ids
    assert [s.dummies for s in t.right] == [s.dummies for s in right]


def test_tables_past_the_flush_threshold_equal_unbatched():
    rng = random.Random(31)
    spans = random_spans(rng, 16000, list("abcdefghijkl"))
    assert sum(len(s) - 1 for s in spans) > 1.2 * bigram._FLUSH_PAIRS
    t = BigramTables(window=50)
    for span in spans:
        t.observe_span(span)
    assert_tables_equal(t, spans, window=50)
    report = t.finalize()
    ids, left, right = replay(spans, window=50)
    assert [tm.av_l for tm in report.types] == [left[ids[tm.type]].windowed_av() for tm in report.types]


@given(
    # ж a letter, ٣ an Nd digit outside ASCII, « punctuation, ▁ the marker
    spans=st.lists(st.lists(st.sampled_from("abcde.7ж٣«▁"), min_size=1, max_size=6), min_size=1, max_size=60),
    batch=st.integers(1, 20),
    window=st.integers(1, 8),
    stride=st.integers(1, 3),
    lifetime=st.booleans(),
    full=st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_batched_spans_and_finalize_equal_method_calls(spans, batch, window, stride, lifetime, full):
    # batches of id records give the tables of one push per pair, and
    # finalize's values are exactly those of the state methods and of sum()
    # over the retained records
    t = BigramTables(window=window, stride=stride, lifetime_eta=lifetime)
    records = [t.interner.intern(span) for span in spans]
    for i in range(0, len(records), batch):
        t.observe_spans(records[i : i + batch])
    assert_tables_equal(t, spans, window=window, stride=stride, lifetime=lifetime)
    if not any(is_lexical(piece) for piece in t.type_strings):
        with pytest.raises(MetricsError):
            t.finalize(full)
        return
    report = t.finalize(full)
    ids, left, right = replay(spans, window, stride, lifetime)
    pools = (sum(1 for s in right if s.ta > 0), sum(1 for s in left if s.ta > 0))

    def eta(state, pool):
        if not pool:
            return 0.0
        return state.lifetime_eta(pool) if lifetime else state.windowed_eta(pool)

    for tm in report.types:
        ls, rs = left[ids[tm.type]], right[ids[tm.type]]
        assert (tm.av_l, tm.av_r, tm.au_l, tm.au_r, tm.eta_l, tm.eta_r, tm.br_l, tm.br_r) == (
            ls.windowed_av(), rs.windowed_av(), ls.windowed_au(), rs.windowed_au(),
            eta(ls, pools[0]), eta(rs, pools[1]), ls.boundary_ratio(), rs.boundary_ratio(),
        )

    freq = Counter(piece for span in spans for piece in span)
    lexical = [piece for piece in ids if is_lexical(piece)]
    assert [tm.type for tm in report.types] == lexical
    for tm in report.types:
        ls, rs = left[ids[tm.type]], right[ids[tm.type]]
        assert tm.f == ls.ta + ls.dummies == freq[tm.type]
        assert tm.retained == (min(ls.boundary_ratio(), rs.boundary_ratio()) < 0.95)
    filtered = sum(not tm.retained for tm in report.types)
    macro = [
        tm for tm in report.types
        if tm.retained and (not full or (left[ids[tm.type]].snapshots and right[ids[tm.type]].snapshots))
    ]
    n = len(macro)
    assert (report.lr, report.retained_count, report.filtered_count, report.degenerate) == (
        filtered / len(lexical), n, filtered, filtered == len(lexical),
    )
    # added left to right on every Python version, as `finalize` adds them
    assert (report.macro_av, report.macro_av_min, report.macro_au, report.macro_eta) == (
        (
            reduce(add, (tm.av_mean for tm in macro), 0.0) / n,
            reduce(add, (tm.av_min for tm in macro), 0.0) / n,
            reduce(add, (tm.au_mean for tm in macro), 0.0) / n,
            reduce(add, (tm.eta_mean for tm in macro), 0.0) / n,
        )
        if n
        else (None,) * 4
    )


# --- per-type memory -------------------------------------------------------


def owned_containers(state):
    """The lists and dicts a state refers to, but the shared empty window
    and lifetime table."""
    return [
        r for r in gc.get_referents(state)
        if isinstance(r, (list, dict)) and r is not bigram._NO_ACCESSORS and r is not bigram._NO_COUNTS
    ]


@pytest.mark.parametrize("lifetime", [False, True])
def test_state_without_accessors_owns_no_container(lifetime):
    t = BigramTables(window=4, lifetime_eta=lifetime)
    for span in (["a"], ["b"], ["a", "c"], ["c", "d", "c"]):
        t.observe_span(span)
    a, b, c, d = (t.type_ids[x] for x in "abcd")
    # a and b have no left accessor, and b no right one
    for state in (t.left[a], t.left[b], t.right[b], AccessorState(track_lifetime=lifetime)):
        assert owned_containers(state) == []
    s = AccessorState(track_lifetime=lifetime)
    s.extend([], entropy_steps(s.capacity))
    assert owned_containers(s) == []
    # below capacity the window is the whole state: no count table yet
    owned = owned_containers(t.left[c])
    assert [r for r in owned if isinstance(r, list)] == [t.left[c].window] == [[a, d]]
    assert [r for r in owned if isinstance(r, dict)] == ([{a: 1, d: 1}] if lifetime else [])
    # a tracked state with no accessor has lifetime eta 0; an untracked one none
    if lifetime:
        assert t.left[b].lifetime_eta(pool=2) == 0.0
    else:
        with pytest.raises(MetricsError, match="not tracked"):
            t.left[b].lifetime_eta(pool=2)


@pytest.mark.parametrize("lifetime, bound", [(False, 600), (True, 650)])
def test_rare_types_cost_bounded_memory(lifetime, bound):
    # half the types only ever form single-token spans (no accessor), the
    # rest come in two-token spans seen twice. Python 3.10-3.13 trace about
    # 480-490 bytes a type here; a count table and a window list on every
    # side made it 785-800. Lifetime tracking adds a table to each side with
    # an accessor, about 595 bytes on Python 3.11; a table on every side
    # made it 690.
    n = 20000
    words = [f"w{i}" for i in range(n)]
    rare = words[n // 2 :]
    spans = [[w] for w in words[: n // 2]] + [[a, b] for a, b in zip(rare[::2], rare[1::2])] * 2
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        t = BigramTables(lifetime_eta=lifetime)
        for span in spans:
            t.observe_span(span)
        assert len(t.left) == n
        per_type = (tracemalloc.get_traced_memory()[0] - before) / n
    finally:
        tracemalloc.stop()
    assert per_type < bound


# --- c*log2(c) under threads -----------------------------------------------


def test_clog2_exact():
    assert bigram._clog2(0) == 0.0
    for c in range(1, 5001):
        assert bigram._clog2(c) == c * math.log2(c)


def test_clog2_threads_stress():
    # every thread drives its own tables with window counts up to 20,000, so
    # any shared c*log2(c) cache that grew on demand would race between threads
    window = 20_000
    rng = random.Random(37)
    spans = random_spans(rng, 3000, list("abcd"))

    def metrics():
        t = BigramTables(window=window, lifetime_eta=True)
        for span in spans:
            t.observe_span(span)
        return t.finalize()

    n_threads = len(os.sched_getaffinity(0)) + 2 if hasattr(os, "sched_getaffinity") else 4
    results = [None] * n_threads
    start = threading.Barrier(n_threads)

    def work(i):
        start.wait(timeout=60)
        results[i] = metrics()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(n_threads)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
            assert not th.is_alive()
    finally:
        sys.setswitchinterval(interval)
    expected = metrics()
    assert all(r == expected for r in results)
    for c in range(1, window + 2):
        assert bigram._clog2(c) == c * math.log2(c)
