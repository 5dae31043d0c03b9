"""End-to-end acceptance checks, one test per criterion.

Run with `pytest tests/test_acceptance.py -v` for a one-line verdict per
criterion. The external-corpus reproduction (test 11) is optional and skips
unless MORPHLENS_EUROPARL_EN and MORPHLENS_VOCAB_EN point at a corpus and a
vocabulary file.
"""

import itertools
import math
import os
import random
import time

import pytest

from morphlens.bigram import AccessorState, BigramTables
from morphlens.corpus import Corpus
from morphlens.morph_eval import (
    EXCLUDE_VOCAB,
    SegmentationRef,
    eval_full,
    morphscore,
    predicted_boundaries,
)
from morphlens.pretokenize import pretokenize
from morphlens.report import analyze_language
from morphlens.stats import (
    LESS,
    TWO_SIDED,
    Sample,
    correlation,
    duplicate_sample,
    duplication_effect,
    gap_reduction_test,
    ols_simple,
    t_quantile,
    welch_t_test,
)
from morphlens.tokenizer import Vocabulary, load_vocab, segment_viterbi


def fixed_segmenter(table):
    return lambda word: table[word]


def test_01_reference_segmentation_scores():
    """Six hand-scored segmentations of 'gathered' and 'arabaları'."""
    start = time.monotonic()
    gathered_ref = SegmentationRef("gathered", ("gather", "ed"))
    araba_full_ref = SegmentationRef("arabaları", ("araba", "lar", "ı"))
    araba_ss_ref = SegmentationRef("arabaları", ("araba", "ları"))
    vocab = Vocabulary(pieces={"zzz": -1.0})  # neither word is in-vocab

    rows = [
        ("gathered", ["gather", "ed"], gathered_ref, gathered_ref, 1, 1.0),
        ("gathered", ["gathere", "d"], gathered_ref, gathered_ref, 0, 0.0),
        ("gathered", list("gathered"), gathered_ref, gathered_ref, 1, 0.25),
        ("arabaları", ["araba", "lar", "ı"], araba_full_ref, araba_ss_ref, 1, 1.0),
        ("arabaları", ["araba", "ları"], araba_full_ref, araba_ss_ref, 1, 2 / 3),
        ("arabaları", ["arabalar", "ı"], araba_full_ref, araba_ss_ref, 0, 2 / 3),
    ]
    for word, split, full_ref, ms_ref, expected_ms, expected_f1 in rows:
        seg = fixed_segmenter({word: split})
        ms = morphscore(seg, [ms_ref], vocab, EXCLUDE_VOCAB)
        assert ms.recall == expected_ms, (word, split)
        full = eval_full(seg, [full_ref])
        # the two-token 'arabaları' rows score 0.667 under boundary-set F1
        # (P=1, R=0.5); the source table lists 0.5 for them, a discrepancy
        # documented in the project notes
        assert full.f1 == pytest.approx(expected_f1, abs=1e-9), (word, split)
    assert time.monotonic() - start < 1.0


def test_02_outlier_descriptives():
    """Mean chases a single outlier, the median holds; correlation decays."""
    for k, mean in ((5, 3.0), (140, 30.0), (1490, 300.0)):
        s = Sample.of([1, 2, 3, 4, k])
        assert round(s.mean(), 2) == mean
        assert s.median() == 3.0
    y = Sample.of([10, 20, 30, 40, 50])
    for k, r in ((5, 1.00), (10, 0.89), (20, 0.80), (100, 0.72)):
        assert round(correlation(Sample.of([1, 2, 3, 4, k]), y), 2) == r


def test_03_duplication_effects(statistics_demo):
    """Duplicating measurements shrinks variance by the exact factor, never
    raises the p-value, and flips a near-significant comparison for most
    seeds."""
    start = time.monotonic()
    rng = random.Random(0)

    for _ in range(200):
        n = rng.randint(2, 30)
        k = rng.randint(2, 5)
        s = Sample.of([rng.gauss(0, 2) for _ in range(n)])
        expected = (n - 1) / (n - 1 / k) * s.variance()
        assert abs(duplicate_sample(s, k).variance() - expected) <= 1e-12 * max(
            1.0, expected
        )

    checked = 0
    for _ in range(1000):
        s1 = Sample.of([rng.gauss(0, 1) for _ in range(rng.randint(2, 12))])
        s2 = Sample.of([rng.gauss(0.3, 1.1) for _ in range(rng.randint(2, 12))])
        eff = duplication_effect(s1, s2, rng.randint(2, 4), TWO_SIDED)
        if abs(eff.t) > 0:
            assert eff.p_dup <= eff.p + 1e-12
            checked += 1
    assert checked > 900

    # seeded scenario: n=25 per group, N(1,1) vs N(1.4,1.05^2), k=3, one
    # sided at alpha=2.5%. The plain test is not significant for the
    # majority of seeds while the triplicated test is significant for at
    # least 60% of them. (The stricter reading, significance flipping on
    # >=60% of seeds, is provably unattainable for any sampler: the flip
    # region of the t statistic never carries that much probability; see
    # the project notes.)
    alpha = 0.025
    dup_significant = 0
    plain_not_significant = 0
    for seed in range(1000):
        s1, s2 = statistics_demo.near_significant_pair(seed)
        p_plain = welch_t_test(s1, s2, LESS).p_value
        p_dup = welch_t_test(
            duplicate_sample(s1, 3), duplicate_sample(s2, 3), LESS
        ).p_value
        if p_dup <= alpha:
            dup_significant += 1
        if p_plain > alpha:
            plain_not_significant += 1
    assert dup_significant >= 600
    assert plain_not_significant > 500
    assert time.monotonic() - start < 10.0


def test_04_quadratic_regression_demo(statistics_demo):
    """Y = X^2 on a slightly off-center uniform X: a real effect that a
    linear fit barely explains yet reports as overwhelmingly significant."""
    start = time.monotonic()
    x, y = statistics_demo.quadratic_regression_pair(seed=0)
    r = ols_simple(x, y)
    assert 0.012 <= r.adj_r2 <= 0.032
    assert r.t1 > 15
    assert time.monotonic() - start < 5.0


def _batch_side_metrics(accessors, w):
    """Brute-force windowed AV/AU/entropy from a raw accessor sequence."""
    if len(accessors) < w:
        window_list = [accessors] if accessors else []
    else:
        window_list = [accessors[i : i + w] for i in range(len(accessors) - w + 1)]
    if not window_list:
        return 0.0, 0.0, 0.0
    avs, aus, hs = [], [], []
    for win in window_list:
        counts = {}
        for a in win:
            counts[a] = counts.get(a, 0) + 1
        n = len(win)
        avs.append(len(counts))
        aus.append(len(counts) / n)
        hs.append(-sum(c / n * math.log2(c / n) for c in counts.values()))
    m = len(window_list)
    return sum(avs) / m, sum(aus) / m, sum(hs) / m


def test_05_window_invariants():
    """1000 fuzzed streams: incremental windowed metrics equal batch
    recomputation, f(t) = TA+b on both sides, and AU*fill = AV."""
    rng = random.Random(1)
    w = 16
    for _ in range(1000):
        spans = [
            [rng.choice("abcdef") for _ in range(rng.randint(1, 8))]
            for _ in range(rng.randint(1, 10))
        ]
        tables = BigramTables(window=w)
        for span in spans:
            tables.observe_span(span)

        freq = {}
        left_acc = {}
        right_acc = {}
        for span in spans:
            for piece in span:
                freq[piece] = freq.get(piece, 0) + 1
            for prev, cur in zip(span, span[1:]):
                right_acc.setdefault(prev, []).append(cur)
                left_acc.setdefault(cur, []).append(prev)

        for piece, tid in tables.type_ids.items():
            ls, rs = tables.left[tid], tables.right[tid]
            assert ls.ta + ls.dummies == freq[piece]
            assert rs.ta + rs.dummies == freq[piece]
            for state, acc in ((ls, left_acc.get(piece, [])), (rs, right_acc.get(piece, []))):
                ids = [tables.type_ids[a] for a in acc]
                av, au, h = _batch_side_metrics(ids, w)
                assert abs(state.windowed_av() - av) <= 1e-10
                assert abs(state.windowed_au() - au) <= 1e-10
                if state.snapshots:
                    assert abs(state.h_sum / state.snapshots - h) <= 1e-10
                # per current window: AU * fill = AV exactly
                if state.fill:
                    distinct = len(state.counts)
                    assert distinct / state.fill * state.fill == distinct


def test_06_eta_boundary_behavior():
    """Uniform accessors over exactly pool-many types give eta 1; a
    deterministic successor gives 0; concentrating mass lowers eta."""

    def eta_for(successor_counts, window=1000):
        spans = []
        for i, (name, count) in enumerate(successor_counts.items()):
            spans += [["t", name]] * count
        rng = random.Random(2)
        rng.shuffle(spans)
        tables = BigramTables(window=window)
        for span in spans:
            tables.observe_span(span)
        report = tables.finalize()
        return next(x for x in report.types if x.type == "t").eta_r

    uniform = eta_for({f"u{i}": 125 for i in range(8)})
    assert abs(uniform - 1.0) <= 1e-9

    assert eta_for({"only": 2000}) == 0.0

    etas = []
    for p in (0.6, 0.7, 0.8, 0.9):
        heavy = int(round(p * 1000))
        etas.append(eta_for({"ha": heavy, "hb": 1000 - heavy}))
    assert all(a > b for a, b in zip(etas, etas[1:]))


def _synthetic_language(seed, agglutinative):
    """Words are stem+suffixes; the two regimes differ in how many suffixes
    attach and how skewed the suffix choice is."""
    rng = random.Random(seed)
    stem_alpha = "bcdfghjklm"
    suffix_alpha = "aeiouy"
    stems = set()
    while len(stems) < 30:
        stems.add("".join(rng.choice(stem_alpha) for _ in range(5)))
    stems = sorted(stems)
    pool_size = 20 if agglutinative else 8
    suffixes = set()
    while len(suffixes) < pool_size:
        suffixes.add("".join(rng.choice(suffix_alpha) for _ in range(3)))
    suffixes = sorted(suffixes)

    if agglutinative:
        weights = [1.0] * pool_size
        n_suffixes = 3
    else:
        weights = [1.0 / (i + 1) for i in range(pool_size)]  # skewed use
        n_suffixes = 1

    words = []
    for _ in range(2000):
        word = rng.choice(stems) + "".join(
            rng.choices(suffixes, weights=weights, k=n_suffixes)
        )
        words.append(word)
    lines = [
        " ".join(words[i : i + 8]) for i in range(0, len(words), 8)
    ]
    pieces = {piece: -5.0 for piece in stems + suffixes}
    for ch in stem_alpha + suffix_alpha:
        pieces[ch] = -50.0  # fallback only; morph covers always win
    return Corpus.from_lines(lines), Vocabulary(pieces=pieces)


def test_07_morphology_gradient_direction():
    """Languages stacking three uniform suffixes score strictly higher
    macro AV and eta than one-suffix languages with a skewed suffix
    distribution, for every seed."""
    start = time.monotonic()
    for seed in range(20):
        corpus_f, vocab_f = _synthetic_language(seed, agglutinative=False)
        corpus_a, vocab_a = _synthetic_language(seed, agglutinative=True)
        m_f = analyze_language(corpus_f, vocab_f, window=100, mattr_window=100)
        m_a = analyze_language(corpus_a, vocab_a, window=100, mattr_window=100)
        assert m_a.bigram.macro_av > m_f.bigram.macro_av, seed
        assert m_a.bigram.macro_eta > m_f.bigram.macro_eta, seed
    assert time.monotonic() - start < 30.0


def test_08_viterbi_exhaustive_oracle():
    """Dynamic program equals brute-force enumeration on every string of
    length <= 8 over a 4-letter alphabet with a 5-piece vocabulary."""
    vocab = Vocabulary(
        pieces={"a": -1.0, "b": -2.0, "d": -1.2, "ab": -3.0, "bc": -2.4}
    )

    def oracle(text):
        candidates = []

        def rec(i, seq, score):
            if i == len(text):
                candidates.append((score, len(seq), tuple(seq)))
                return
            for j in range(i + 1, len(text) + 1):
                piece = text[i:j]
                if piece in vocab.pieces:
                    rec(j, seq + [piece], score + vocab.pieces[piece])
            rec(i + 1, seq + [vocab.unk_piece], score - 1.0e6)

        rec(0, [], 0.0)
        return list(min(candidates, key=lambda c: (-c[0], c[1], c[2]))[2])

    cases = 0
    for length in range(1, 8):
        for chars in itertools.product("abcd", repeat=length):
            text = "".join(chars)
            assert segment_viterbi(text, vocab) == oracle(text), text
            cases += 1
    assert cases >= 10**4


def test_09_welch_machinery():
    """Hand-computed Welch example, the t quantile, and exact shift
    invariance of the gap-reduction test."""
    r = welch_t_test(Sample.of([1, 2, 3]), Sample.of([2, 3, 4]), TWO_SIDED)
    assert round(r.statistic, 4) == -1.2247
    assert round(r.df, 4) == 4.0

    assert abs(t_quantile(0.975, 4) - 2.7764) <= 1e-3

    g1b = [10.0, 11.0, 12.5, 9.5]
    g2b = [7.0, 8.0, 6.5, 7.5]
    g1a = [9.0, 10.5, 11.0, 9.0]
    g2a = [7.2, 7.9, 6.8, 7.4]

    def gap(groups):
        return gap_reduction_test(*[Sample.of(g) for g in groups], 0.05)

    base = gap([g1b, g2b, g1a, g2a])
    after_shift = gap(
        [g1b, g2b, [v - 2.5 for v in g1a], [v - 2.5 for v in g2a]]
    )
    all_shift = gap([[v + 7.0 for v in g] for g in (g1b, g2b, g1a, g2a)])
    assert after_shift.statistic == base.statistic
    assert all_shift.statistic == pytest.approx(base.statistic, abs=1e-9)


@pytest.mark.slow
def test_10_throughput_200k_lines():
    """200k synthetic lines (~10 MB) through pretokenization, segmentation,
    and bigram accumulation in under 60 s single-worker."""
    rng = random.Random(3)
    syllables = [c + v for c in "bcdfghjklmnprst" for v in "aeiou"]
    word_cache = [
        "".join(rng.choice(syllables) for _ in range(rng.randint(1, 4)))
        for _ in range(5000)
    ]
    lines = [
        " ".join(rng.choice(word_cache) for _ in range(8)) for _ in range(200000)
    ]
    assert sum(len(l) + 1 for l in lines) > 8_000_000
    pieces = {s: -6.0 for s in syllables}
    for w in word_cache[:1000]:
        pieces[w] = -9.0
    vocab = Vocabulary(pieces=pieces)

    start = time.monotonic()
    tables = BigramTables()
    cache = {}
    for line in lines:
        for pretoken in pretokenize(line):
            seg = cache.get(pretoken)
            if seg is None:
                seg = segment_viterbi(pretoken, vocab)
                cache[pretoken] = seg
            tables.observe_span(seg)
    report = tables.finalize()
    elapsed = time.monotonic() - start
    assert report.types
    assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_11_external_corpus_reference():
    """Optional, not gating: reproduce the published English reference row
    to within +-20% given a user-supplied corpus and vocabulary."""
    corpus_path = os.environ.get("MORPHLENS_EUROPARL_EN")
    vocab_path = os.environ.get("MORPHLENS_VOCAB_EN")
    if not corpus_path or not vocab_path:
        pytest.skip("set MORPHLENS_EUROPARL_EN and MORPHLENS_VOCAB_EN to run")
    from morphlens.corpus import read_lines

    metrics = analyze_language(read_lines(corpus_path), load_vocab(vocab_path))
    assert abs(metrics.bigram.macro_av - 2.1) <= 0.2 * 2.1
    assert abs(metrics.bigram.macro_eta - 0.159) <= 0.2 * 0.159
    assert abs(metrics.bigram.lr - 0.593) <= 0.2 * 0.593
