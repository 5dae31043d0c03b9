import math
import random
import string
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morphlens.unigram import (
    FrequencyTable,
    UnigramStats,
    mattr,
    mtl,
    renyi_efficiency,
    ttr,
)


# --- TTR -------------------------------------------------------------------


def test_ttr_all_distinct():
    assert ttr(["a", "b", "c"]) == 1.0


def test_ttr_quarter():
    assert ttr(["a"] * 4) == 0.25


def test_ttr_alphabet_counterexample():
    # every letter exactly once: maximal lexical diversity from a sequence
    # that is trivially predictable
    assert ttr(list(string.ascii_lowercase)) == 1.0


def test_ttr_empty_errors():
    with pytest.raises(ValueError):
        ttr([])


# --- MATTR -----------------------------------------------------------------


def test_mattr_window_one():
    assert mattr(["a", "a", "b"], 1) == 1.0


def test_mattr_cyclic():
    assert mattr(["a", "b", "c"] * 100, 3) == 1.0


def test_mattr_hand_enumeration():
    assert mattr(["a", "a", "b", "b"], 2) == pytest.approx(2 / 3)


def test_mattr_window_equals_length_is_ttr():
    rng = random.Random(0)
    for _ in range(50):
        toks = [rng.choice("abcde") for _ in range(rng.randint(1, 40))]
        assert mattr(toks, len(toks)) == ttr(toks)


def test_mattr_short_sequence_falls_back_to_ttr():
    assert mattr(["a", "b", "a"], 10) == ttr(["a", "b", "a"])


def test_mattr_duplication_stability_vs_ttr_collapse():
    rng = random.Random(1)
    toks = [rng.choice([f"w{i}" for i in range(300)]) for _ in range(10000)]
    w = 500
    assert abs(mattr(toks + toks, w) - mattr(toks, w)) <= 0.02
    assert ttr(toks + toks) < ttr(toks)


def test_mattr_brute_force_oracle():
    rng = random.Random(2)
    toks = [rng.choice("abcd") for _ in range(60)]
    w = 7
    expected = sum(
        ttr(toks[i : i + w]) for i in range(len(toks) - w + 1)
    ) / (len(toks) - w + 1)
    assert mattr(toks, w) == pytest.approx(expected, abs=1e-12)


def test_mattr_bad_window():
    with pytest.raises(ValueError):
        mattr(["a"], 0)


# --- MTL -------------------------------------------------------------------


def test_mtl_plain():
    assert mtl(["ab", "cd"]) == 2.0


def test_mtl_micro_not_macro():
    assert mtl(["a", "abc"]) == 2.0


def test_mtl_strips_marker():
    assert mtl(["▁ab", "cd"]) == 2.0


def test_mtl_equals_ccc_over_ctc_on_marker_free_text():
    rng = random.Random(3)
    for _ in range(30):
        toks = [
            "".join(rng.choice("xyz") for _ in range(rng.randint(1, 6)))
            for _ in range(rng.randint(1, 50))
        ]
        ccc = sum(len(t) for t in toks)
        assert mtl(toks) == pytest.approx(ccc / len(toks))


def test_mtl_empty_errors():
    with pytest.raises(ValueError):
        mtl([])


# --- Renyi efficiency ------------------------------------------------------


def table_of(counts):
    return FrequencyTable(counts=dict(counts), total=sum(counts.values()))


def test_renyi_uniform_is_one():
    freq = table_of({f"t{i}": 7 for i in range(16)})
    for alpha in (0.0, 0.5, 1.0, 2.0, 2.5):
        assert renyi_efficiency(freq, alpha) == pytest.approx(1.0)


def test_renyi_half_half_alpha_two():
    assert renyi_efficiency(table_of({"a": 5, "b": 5}), 2.0) == pytest.approx(1.0)


def test_renyi_nine_one_alpha_two():
    expected = -math.log2(0.81 + 0.01)
    assert renyi_efficiency(table_of({"a": 9, "b": 1}), 2.0) == pytest.approx(
        expected, abs=1e-10
    )


def test_renyi_single_type_zero():
    assert renyi_efficiency(table_of({"a": 100}), 2.5) == 0.0


def test_renyi_negative_alpha_errors():
    with pytest.raises(ValueError):
        renyi_efficiency(table_of({"a": 1, "b": 1}), -0.5)


@pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
def test_renyi_non_finite_alpha_errors(alpha):
    with pytest.raises(ValueError):
        renyi_efficiency(table_of({"a": 1, "b": 1}), alpha)


def test_renyi_alpha_one_is_shannon():
    freq = table_of({"a": 3, "b": 1})
    h = -(0.75 * math.log2(0.75) + 0.25 * math.log2(0.25))
    assert renyi_efficiency(freq, 1.0) == pytest.approx(h / 1.0)


@given(
    st.lists(st.integers(min_value=1, max_value=50), min_size=2, max_size=10),
    st.integers(min_value=1, max_value=6),
)
@settings(max_examples=200)
def test_renyi_scale_and_permutation_invariant(counts, k):
    names = [f"t{i}" for i in range(len(counts))]
    base = renyi_efficiency(table_of(dict(zip(names, counts))), 2.5)
    scaled = renyi_efficiency(
        table_of(dict(zip(names, [c * k for c in counts]))), 2.5
    )
    shuffled = renyi_efficiency(
        table_of(dict(zip(reversed(names), counts))), 2.5
    )
    assert scaled == pytest.approx(base, abs=1e-12)
    assert shuffled == pytest.approx(base, abs=1e-12)


def test_renyi_entropy_decreasing_in_alpha():
    freq = table_of({"a": 10, "b": 5, "c": 2, "d": 1})
    h0 = math.log2(4)
    values = [
        renyi_efficiency(freq, alpha) * h0
        for alpha in (0.5, 1.0, 2.0, 2.5, 3.0, 2000)
    ]
    assert all(a > b for a, b in zip(values, values[1:]))
    # where (10/18)^2000 underflows, H_alpha is near the min-entropy limit
    assert values[-1] / h0 == pytest.approx(-math.log2(10 / 18) / h0, abs=1e-3)


# --- word metrics ----------------------------------------------------------


def word_stats(words):
    stats = UnigramStats()
    for word, token_count in words:
        stats.add(["t"] * token_count, word)
    return stats


def test_word_metrics_hand():
    stats = word_stats([("abcd", 2), ("ab", 1)])
    assert stats.mwl() == 3.0
    assert stats.s() == pytest.approx(0.5)


def test_word_metrics_single_chars():
    stats = word_stats([("a", 1), ("b", 1), ("c", 1)])
    assert stats.mwl() == 1.0
    assert stats.s() == 1.0


def test_word_metrics_empty_errors():
    # no word spans give 0.0, as `analyze_language` reports in whole-line mode
    assert word_stats([]).mwl() == 0.0
    assert word_stats([]).s() == 0.0
    with pytest.raises(ValueError):
        word_stats([("", 1)])
    with pytest.raises(ValueError):
        UnigramStats().mattr()


# --- streaming accumulator ---------------------------------------------------


def reference_metrics(spans, window, marker):
    """Brute force over the whole token list: every window's distinct types
    counted from scratch."""
    tokens = [t for pieces, _ in spans for t in pieces]
    words = [(pieces, word) for pieces, word in spans if word is not None]
    n = len(tokens)
    if n < window:
        mattr_value = len(set(tokens)) / n
    else:
        distinct = sum(len(set(tokens[i : i + window])) for i in range(n - window + 1))
        mattr_value = distinct / (n - window + 1) / window
    chars = sum(len(t) - (len(marker) if t.startswith(marker) else 0) for t in tokens)
    mwl_value = s_value = 0.0
    if words:
        mwl_value = sum(len(word) for _, word in words) / len(words)
        s_sum = 0.0
        for pieces, word in words:
            s_sum += len(pieces) / len(word)
        s_value = s_sum / len(words)
    return {
        "tokens": n,
        "mattr": mattr_value,
        "mtl": chars / n,
        "counts": list(Counter(tokens).items()),
        "mwl": mwl_value,
        "s": s_value,
    }


PIECES = st.sampled_from(["a", "b", "ab", "▁a", "▁b", "▁abc", "<unk>", "▁"])
SPANS = st.lists(
    st.tuples(
        st.lists(PIECES, max_size=6),
        st.one_of(st.none(), st.text(alphabet="xyz", min_size=1, max_size=5)),
        st.booleans(),
    ),
    min_size=1,
    max_size=40,
)


@given(SPANS, st.integers(min_value=1, max_value=12), st.data())
@settings(max_examples=300, deadline=None)
def test_stats_stream_equals_brute_force(spans, window, data):
    # the spans go in as batches of drawn sizes, each folded on its own, so
    # a batch boundary may fall anywhere relative to a window or to a type's
    # previous occurrence; a batch in which some span has no word adds none
    tokens = [t for pieces, _, _ in spans for t in pieces]
    if not tokens:
        return
    stats = UnigramStats(window)
    fed = []
    while len(fed) < len(spans):
        size = data.draw(st.integers(min_value=1, max_value=len(spans) - len(fed)))
        batch = spans[len(fed) : len(fed) + size]
        words = [word for _, word, _ in batch]
        if None in words:
            words = None
        stats.add_spans([stats.interner.intern(pieces) for pieces, _, _ in batch], words)
        fed += [(pieces, word if words else None) for pieces, word, _ in batch]
    spans = fed
    got = {
        "tokens": stats.tokens,
        "mattr": stats.mattr(),
        "mtl": stats.mtl(),
        "counts": list(stats.frequency().counts.items()),
        "mwl": stats.mwl(),
        "s": stats.s(),
    }
    assert got == reference_metrics(spans, window, "▁")
    assert stats.frequency().total == len(tokens)


@given(SPANS, st.integers(min_value=1, max_value=12))
@settings(max_examples=200, deadline=None)
def test_stats_read_mid_stream(spans, window):
    # a read between adds sees everything added so far; later adds continue
    stats = UnigramStats(window)
    seen = []
    for pieces, word, read in spans:
        stats.add(pieces, word)
        seen.append((pieces, word))
        if read and stats.tokens:
            expected = reference_metrics(seen, window, "▁")
            assert stats.mattr() == expected["mattr"]
            assert stats.mtl() == expected["mtl"]


def test_add_spans_words_and_reads():
    stats = UnigramStats(3)
    a, b, c = stats.interner.intern(["▁a", "b", "c"])
    with pytest.raises(ValueError, match="words must be nonempty"):
        stats.add_spans([[a], [b]], ["x", ""])
    with pytest.raises(ValueError, match="2 words for 1 spans"):
        stats.add_spans([[a]], ["xy", "z"])
    # without words, tokens count but no word metric moves
    stats.add_spans([[a, b], [c]])
    assert (stats.tokens, stats.words, stats.mwl(), stats.s()) == (3, 0, 0.0, 0.0)
    first = stats.mattr()
    assert stats.mattr() == first  # a read changes nothing
    assert stats.tokens == 3
    stats.add_spans([[a], [a, c]], ["ab", "c"])
    assert (stats.tokens, stats.words, stats.mwl(), stats.s()) == (6, 2, 1.5, 1.25)
    # windows (a b c), (b c a), (c a a), (a a c): 3, 3, 2, 2 distinct
    assert stats.mattr() == stats.mattr() == 10 / 4 / 3


def test_stats_match_public_wrappers():
    rng = random.Random(4)
    toks = [rng.choice([f"w{i}" for i in range(50)]) for _ in range(3000)]
    stats = UnigramStats(17)
    for i in range(0, len(toks), 7):
        stats.add(toks[i : i + 7])
    assert stats.mattr() == mattr(toks, 17)
    assert stats.mtl() == mtl(toks)
    assert stats.frequency() == FrequencyTable.from_tokens(toks)


def test_frequency_table_from_tokens():
    freq = FrequencyTable.from_tokens(["a", "b", "a"])
    assert freq.counts == {"a": 2, "b": 1}
    assert freq.total == 3
