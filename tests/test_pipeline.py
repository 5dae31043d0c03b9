"""`analyze_language` end to end against a per-token oracle.

The oracle is the benchmark's reference loop, generalised over the
settings: every pretoken is segmented at every occurrence (no cache, no
interner), the unigram counts are `Counter(tokens)` over the full token list,
every accessor enters its window by one `AccessorState.push`, and finalize,
MATTR, MTL and Rényi efficiency are recomputed here. It shares no
accumulation code with `analyze_language`, `BigramTables` or `UnigramStats`.
"""

import math
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morphlens import bigram
from morphlens.bigram import AccessorState, MetricsError
from morphlens.corpus import BATCH_LINES, Corpus, CorpusError
from morphlens.pretokenize import DEFAULT_MARKER, is_lexical, pretokenize
from morphlens.report import analyze_language
from morphlens.tokenizer import Vocabulary, segment_greedy, segment_viterbi

REL_TOL = 1e-9
ABS_TOL = 1e-12


def _mattr(tokens, window):
    if len(tokens) < window:
        return len(set(tokens)) / len(tokens)
    counts = {}
    for tok in tokens[:window]:
        counts[tok] = counts.get(tok, 0) + 1
    distinct = total = len(counts)
    for i in range(window, len(tokens)):
        out = tokens[i - window]
        if counts[out] == 1:
            del counts[out]
            distinct -= 1
        else:
            counts[out] -= 1
        tok = tokens[i]
        c = counts.get(tok, 0)
        counts[tok] = c + 1
        if c == 0:
            distinct += 1
        total += distinct
    return total / (len(tokens) - window + 1) / window


def _renyi(counts, total, alpha):
    support = len(counts)
    if support == 1:
        return 0.0
    h0 = math.log2(support)
    if alpha == 1.0:
        return -sum((c / total) * math.log2(c / total) for c in counts.values()) / h0
    if alpha == 0.0:
        return 1.0
    return math.log2(sum((c / total) ** alpha for c in counts.values())) / (1.0 - alpha) / h0


def oracle(lines, vocab, window, stride, mattr_window, alpha, pretokenized, greedy):
    """What `analyze_language` must return, as a flat dict, or the exception
    type it must raise."""
    segment = segment_greedy if greedy else segment_viterbi
    marker = vocab.boundary_marker
    ids, left, right, tokens = {}, [], [], []
    ccc = cbc = words = word_chars = 0
    s_sum = 0.0
    for line in lines:
        ccc += len(line)
        cbc += len(line.encode("utf-8"))
        if pretokenized:
            spans = []
            for p in pretokenize(line):
                seg = segment(p, vocab)
                spans.append(seg)
                words += 1
                word_chars += len(p)
                s_sum += len(seg) / len(p)
        elif line:
            spans = [segment(line.replace(" ", marker) if marker else line, vocab)]
        else:
            spans = []
        for span in spans:
            tids = []
            for piece in span:
                if piece not in ids:
                    ids[piece] = len(left)
                    left.append(AccessorState(window, stride))
                    right.append(AccessorState(window, stride))
                tids.append(ids[piece])
            left[tids[0]].dummies += 1
            right[tids[-1]].dummies += 1
            for a, b in zip(tids, tids[1:]):
                right[a].push(b)
                left[b].push(a)
            tokens.extend(span)
    if not tokens:
        return CorpusError
    mark = marker or DEFAULT_MARKER
    lexical = [piece for piece in ids if is_lexical(piece, mark)]
    if not lexical:
        return MetricsError

    pool_l = sum(1 for s in right if s.ta > 0)
    pool_r = sum(1 for s in left if s.ta > 0)
    rows, kept = [], []
    for piece in lexical:
        ls, rs = left[ids[piece]], right[ids[piece]]
        br_l, br_r = ls.boundary_ratio(), rs.boundary_ratio()
        row = {
            "type": piece,
            "f": ls.ta + ls.dummies,
            "av_l": ls.windowed_av(),
            "av_r": rs.windowed_av(),
            "au_l": ls.windowed_au(),
            "au_r": rs.windowed_au(),
            "eta_l": ls.windowed_eta(pool_l) if pool_l else 0.0,
            "eta_r": rs.windowed_eta(pool_r) if pool_r else 0.0,
            "br_l": br_l,
            "br_r": br_r,
            "retained": min(br_l, br_r) < 0.95,
        }
        rows.append(row)
        if row["retained"]:
            kept.append(row)
    n = len(kept)
    filtered = len(lexical) - n

    def macro(f):
        return sum(f(r) for r in kept) / n if n else None

    counts = Counter(tokens)
    total = len(tokens)
    return {
        "ccc": ccc,
        "cbc": cbc,
        "cwc": words,
        "csc": len(lines),
        "ctc": total,
        "rows": rows,
        "lr": filtered / len(lexical),
        "retained": n,
        "filtered": filtered,
        "degenerate": filtered == len(lexical),
        "macro_av": macro(lambda r: (r["av_l"] + r["av_r"]) / 2),
        "macro_av_min": macro(lambda r: min(r["av_l"], r["av_r"])),
        "macro_au": macro(lambda r: (r["au_l"] + r["au_r"]) / 2),
        "macro_eta": macro(lambda r: (r["eta_l"] + r["eta_r"]) / 2),
        "mattr": _mattr(tokens, mattr_window),
        "mtl": sum(len(t) - (len(mark) if t.startswith(mark) else 0) for t in tokens) / total,
        "re": _renyi(counts, total, alpha),
        "s": s_sum / words if words else 0.0,
        "mwl": word_chars / words if words else 0.0,
    }


def observed(m):
    """The same flat dict from a `LanguageMetrics`."""
    b = m.bigram
    return {
        "ccc": m.counts.ccc,
        "cbc": m.counts.cbc,
        "cwc": m.counts.cwc,
        "csc": m.counts.csc,
        "ctc": m.counts.ctc,
        "rows": [
            {
                "type": t.type,
                "f": t.f,
                "av_l": t.av_l,
                "av_r": t.av_r,
                "au_l": t.au_l,
                "au_r": t.au_r,
                "eta_l": t.eta_l,
                "eta_r": t.eta_r,
                "br_l": t.br_l,
                "br_r": t.br_r,
                "retained": t.retained,
            }
            for t in b.types
        ],
        "lr": b.lr,
        "retained": b.retained_count,
        "filtered": b.filtered_count,
        "degenerate": b.degenerate,
        "macro_av": b.macro_av,
        "macro_av_min": b.macro_av_min,
        "macro_au": b.macro_au,
        "macro_eta": b.macro_eta,
        "mattr": m.mattr,
        "mtl": m.mtl,
        "re": m.renyi,
        "s": m.s,
        "mwl": m.mwl,
    }


def assert_matches(got, want, where=""):
    """Integers, strings, flags and None exactly; floats to REL_TOL."""
    if isinstance(want, dict):
        assert list(got) == list(want), where
        for key in want:
            assert_matches(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            assert_matches(g, w, f"{where}[{i}]")
    elif isinstance(want, float):
        assert isinstance(got, float) and math.isclose(
            got, want, rel_tol=REL_TOL, abs_tol=ABS_TOL
        ), (where, got, want)
    else:
        assert type(got) is type(want) and got == want, (where, got, want)


# Vocabulary pieces come from a few Latin, Cyrillic, Devanagari and Han
# letters and one punctuation mark; corpora add letters no piece covers (they
# segment to `<unk>`), more punctuation, digits and doubled spaces.
PIECE_CHARS = "abcdeäжнक日,"
CORPUS_CHARS = PIECE_CHARS + "qé€!.7"

vocabularies = st.builds(
    lambda pieces, marked: {("▁" + p if m else p): s for (p, s), m in zip(pieces.items(), marked)},
    st.dictionaries(
        st.text(alphabet=PIECE_CHARS, min_size=1, max_size=3),
        st.integers(-16, -1).map(lambda x: x / 2),  # halves, so scores tie
        min_size=1,
        max_size=14,
    ),
    st.lists(st.booleans(), min_size=14, max_size=14),
)
words = st.text(alphabet=CORPUS_CHARS, min_size=1, max_size=7)
corpus_lines = st.one_of(
    st.lists(words, min_size=1, max_size=6).map(" ".join),
    st.lists(words, min_size=1, max_size=3).map("  ".join),
    st.just(""),
)
# small thresholds replay the pending pairs mid-stream; the large one leaves
# everything to the replay on the first read. Unigram tokens are folded as
# each batch arrives.
thresholds = st.sampled_from([1, 2, 3, 5, 8, 1 << 15])


@given(
    pieces=vocabularies,
    corpus=st.lists(corpus_lines, min_size=1, max_size=12),
    pretokenized=st.booleans(),
    greedy=st.booleans(),
    window=st.integers(1, 6),
    stride=st.integers(1, 3),
    mattr_window=st.integers(1, 8),
    alpha=st.sampled_from([0.0, 1.0, 2.5]),
    flush_pairs=thresholds,
)
@settings(max_examples=300, deadline=None)
def test_analyze_language_matches_per_token_oracle(
    pieces, corpus, pretokenized, greedy, window, stride, mattr_window, alpha, flush_pairs
):
    vocab = Vocabulary(pieces=pieces)
    settings_ = dict(window=window, stride=stride, mattr_window=mattr_window, alpha=alpha,
                     pretokenized=pretokenized, greedy=greedy)
    want = oracle(corpus, vocab, **settings_)
    with mock.patch.object(bigram, "_FLUSH_PAIRS", flush_pairs):
        if isinstance(want, type):
            with pytest.raises(want):
                analyze_language(Corpus.from_lines(corpus), vocab, **settings_)
            return
        got = observed(analyze_language(Corpus.from_lines(corpus), vocab, **settings_))
    assert_matches(got, want)


def test_oracle_sees_repeats_unk_and_both_modes():
    # a hand case the generated ones cover only by chance: repeated
    # pretokens (cache hits), an `<unk>` character, an empty line, a snapshot
    vocab = Vocabulary(pieces={"▁ab": -1.0, "c": -2.0, "▁a": -2.5, "b": -3.0})
    corpus = ["ab abc abc", "", "abq ab abc", "abc ab"]
    for pretokenized in (True, False):
        s = dict(window=2, stride=1, mattr_window=3, alpha=2.5, pretokenized=pretokenized, greedy=False)
        want = oracle(corpus, vocab, **s)
        assert "<unk>" in [r["type"] for r in want["rows"]]
        assert_matches(observed(analyze_language(Corpus.from_lines(corpus), vocab, **s)), want)


# Corpora one short of, at and one past a batch of lines, and into a third
# batch. A small flush threshold replays pairs across batch boundaries;
# unigram tokens are folded per batch at any threshold.
B = BATCH_LINES


@pytest.mark.parametrize("n", [0, 1, B - 1, B, B + 1, 2 * B + 3])
@pytest.mark.parametrize("pretokenized", [True, False], ids=["pretokenized", "wholeline"])
@pytest.mark.parametrize("greedy", [False, True], ids=["viterbi", "greedy"])
@pytest.mark.parametrize("flush", [7, 1 << 15], ids=["small-flush", "default-flush"])
def test_analyze_language_across_batch_boundaries(
    boundary_lines, fresh_pretokenizer, n, pretokenized, greedy, flush
):
    vocab = Vocabulary(
        pieces={"▁ab": -2.0, "▁a": -2.5, "b": -1.0, "c": -1.5, "a": -1.0, "▁": -3.0, "▁c": -2.0, "ca": -2.0},
    )
    lines = boundary_lines(n)
    s = dict(window=5, stride=2, mattr_window=7, alpha=2.5, pretokenized=pretokenized, greedy=greedy)
    want = oracle(lines, vocab, **s)
    fresh_pretokenizer()  # the oracle has learned "¡" and "‽"
    with mock.patch.object(bigram, "_FLUSH_PAIRS", flush):
        if n == 0:
            assert want is CorpusError
            with pytest.raises(CorpusError):
                analyze_language(Corpus.from_lines(lines), vocab, **s)
            return
        got = observed(analyze_language(Corpus.from_lines(lines), vocab, **s))
    assert_matches(got, want)
