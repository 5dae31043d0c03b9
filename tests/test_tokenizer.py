import itertools
import operator
import pickle
import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morphlens import tokenizer
from morphlens.corpus import BATCH_LINES, Corpus
from morphlens.pretokenize import pretokenize
from morphlens.tokenizer import (
    _UNK_SCORE,
    Interner,
    Vocabulary,
    VocabularyError,
    _with_marker,
    load_vocab,
    segment_greedy,
    segment_viterbi,
    strip_marker,
    tokenize_corpus,
)

GOLDEN = Path(__file__).resolve().parent / "golden"


def vocab_of(**pieces):
    return Vocabulary(pieces=dict(pieces))


def line_spans(batches):
    """`tokenize_corpus` batches regrouped as one `(line, [(text, record),
    ...])` pair per corpus line."""
    out = []
    for batch in batches:
        assert len(batch.texts) == len(batch.records) == sum(batch.spans_per_line)
        assert len(batch.lines) == len(batch.spans_per_line)
        spans = zip(batch.texts, batch.records)
        out += [(line, list(itertools.islice(spans, n))) for line, n in zip(batch.lines, batch.spans_per_line)]
    return out


# --- vocabulary loading ----------------------------------------------------


def test_load_two_pieces(tmp_path):
    p = tmp_path / "v.tsv"
    p.write_text("▁kirj\t-8.1\nalle\t-9.0\n", encoding="utf-8")
    v = load_vocab(p)
    assert len(v) == 2
    assert v.pieces["▁kirj"] == -8.1
    assert v.boundary_marker == "▁"


def test_load_duplicate_piece_errors(tmp_path):
    p = tmp_path / "v.tsv"
    p.write_text("▁a\t-1\n▁a\t-2\n", encoding="utf-8")
    with pytest.raises(VocabularyError, match="line 2|:2"):
        load_vocab(p)


def test_load_nonnumeric_score_errors(tmp_path):
    p = tmp_path / "v.tsv"
    p.write_text("a\tnot-a-number\n", encoding="utf-8")
    with pytest.raises(VocabularyError, match="non-numeric"):
        load_vocab(p)


@pytest.mark.parametrize("score", ["nan", "inf", "-inf", "NaN", "-Infinity"])
def test_load_nonfinite_score_errors(tmp_path, score):
    p = tmp_path / "v.tsv"
    p.write_text(f"a\t-1.0\nb\t{score}\n", encoding="utf-8")
    with pytest.raises(VocabularyError, match=r"v\.tsv:2: non-finite score"):
        load_vocab(p)


def test_load_invalid_utf8_errors(tmp_path):
    p = tmp_path / "v.tsv"
    p.write_bytes(b"a\t-1.0\n\xff\xfe\t-2.0\n")
    with pytest.raises(VocabularyError, match=r"v\.tsv: invalid UTF-8 at byte offset 7$"):
        load_vocab(p)


def test_load_50k_pieces(tmp_path):
    p = tmp_path / "v.tsv"
    p.write_text(
        "".join(f"p{i}\t-{5 + i * 1e-4}\n" for i in range(50000)), encoding="utf-8"
    )
    assert len(load_vocab(p)) == 50000


def test_no_marker_detected(tmp_path):
    p = tmp_path / "v.tsv"
    p.write_text("ab\t-1\ncd\t-2\n", encoding="utf-8")
    assert load_vocab(p).boundary_marker is None


def test_empty_vocab_errors():
    with pytest.raises(VocabularyError):
        Vocabulary(pieces={})


def test_empty_piece_errors():
    with pytest.raises(VocabularyError, match="empty piece"):
        Vocabulary(pieces={"": -1.0, "a": -2.0})


@pytest.mark.parametrize("score", [float("nan"), float("inf"), float("-inf")])
def test_vocabulary_rejects_nonfinite_scores(score):
    # a NaN piece would never be chosen, an infinite one always or never
    with pytest.raises(VocabularyError, match="non-finite score .* for piece 'ab'"):
        Vocabulary(pieces={"ab": score, "a": -1.0, "b": -1.0})


def test_vocabulary_boundary_marker_is_not_a_field():
    # the marker is worked out from the pieces, as `load_vocab` always did
    assert Vocabulary(pieces={"a▁": -1.0}).boundary_marker == "▁"
    assert Vocabulary(pieces={"a": -1.0}).boundary_marker is None
    # a marker no piece holds would add one <unk> per word
    assert segment_viterbi("a", Vocabulary(pieces={"a": -1.0})) == ["a"]
    with pytest.raises(TypeError):
        Vocabulary(pieces={"a": -1.0}, boundary_marker="▁")


def test_vocabulary_unk_piece_is_not_a_field():
    assert Vocabulary(pieces={"a": -1.0}).unk_piece == "<unk>"
    with pytest.raises(TypeError):
        Vocabulary(pieces={"a": -1.0}, unk_piece="x")


def test_load_drops_byte_order_mark(tmp_path):
    p = tmp_path / "v.tsv"
    p.write_bytes(b"\xef\xbb\xbfab\t-1\n")
    vocab = load_vocab(p)
    assert list(vocab.pieces) == ["ab"]
    assert segment_viterbi("ab", vocab) == ["ab"]


# --- Viterbi segmentation --------------------------------------------------


def test_viterbi_prefers_single_piece():
    v = vocab_of(a=-1.0, b=-1.0, ab=-1.5)
    assert segment_viterbi("ab", v) == ["ab"]


def test_viterbi_unknown_char():
    v = vocab_of(a=-1.0)
    assert segment_viterbi("x", v) == [v.unk_piece]


def test_viterbi_aaa():
    # aa+a and a+aa both score -2.9 with two tokens; the lexicographically
    # smallest piece sequence wins ("a" < "aa")
    v = vocab_of(a=-1.0, aa=-1.9)
    assert segment_viterbi("aaa", v) == ["a", "aa"]


def test_viterbi_tie_breaks_fewest_tokens():
    # ab at exactly the sum of a+b: tie on score, fewer tokens wins
    v = vocab_of(a=-1.0, b=-2.0, ab=-3.0)
    assert segment_viterbi("ab", v) == ["ab"]


def test_viterbi_tie_breaks_lexicographic():
    # "abab" as ab+ab or a+ba+b etc.; construct an exact two-way tie
    v = vocab_of(ax=-1.0, xb=-1.0, a=-0.5, x=-1.0, b=-0.5)
    # "axb": ax+b = -1.5, a+xb = -1.5; both 2 tokens; "a..." < "ax..."
    assert segment_viterbi("axb", v) == ["a", "xb"]


# --- greedy segmentation ---------------------------------------------------


def test_greedy_longest_match():
    v = vocab_of(a=-1.0, b=-1.0, ab=-1.0)
    assert segment_greedy("ab", v) == ["ab"]


def test_greedy_aaa():
    v = vocab_of(a=-1.0, aa=-1.0)
    assert segment_greedy("aaa", v) == ["aa", "a"]


def test_greedy_unknown_first_char():
    v = vocab_of(a=-1.0)
    assert segment_greedy("ba", v) == [v.unk_piece, "a"]


@pytest.mark.parametrize("segment", [segment_viterbi, segment_greedy])
@pytest.mark.parametrize(
    "pieces", [{"▁": -1.0, "▁a": -1.0}, {"a": -1.0}], ids=["marker", "plain"]
)
def test_segment_empty_pretoken_errors(segment, pieces):
    # with a marker, "" would be the nonempty "▁" once marked
    with pytest.raises(ValueError, match="^pretoken must be nonempty$"):
        segment("", Vocabulary(pieces=pieces))


# --- oracle comparison -----------------------------------------------------


def oracle_best(text, vocab):
    """All covers, ranked exactly like the production tie-break."""
    pieces = vocab.pieces
    candidates = []

    def rec(i, seq, score, unks):
        if unks > len(text):
            return
        if i == len(text):
            candidates.append((score, len(seq), tuple(seq)))
            return
        for j in range(i + 1, len(text) + 1):
            piece = text[i:j]
            if piece in pieces:
                rec(j, seq + [piece], score + pieces[piece], unks)
        rec(i + 1, seq + [vocab.unk_piece], score - 1.0e6, unks + 1)

    rec(0, [], 0.0, 0)
    best = min(candidates, key=lambda c: (-c[0], c[1], c[2]))
    return list(best[2])


def reference_viterbi(pretoken, vocab):
    """The per-prefix tuple Viterbi that the prefix-table lattice replaced,
    kept as the reference: it scans every span up to the longest piece and
    carries each prefix's whole piece sequence."""
    if not pretoken:
        raise ValueError("pretoken must be nonempty")
    text = _with_marker(pretoken, vocab)
    pieces = vocab.pieces
    max_len = max(len(p) for p in pieces)
    unk = vocab.unk_piece
    best = [(0.0, 0, ())]
    for i in range(1, len(text) + 1):
        prev = best[i - 1]
        candidate = (prev[0] + _UNK_SCORE, prev[1] + 1, prev[2] + (unk,))
        for j in range(max(0, i - max_len), i):
            piece = text[j:i]
            score = pieces.get(piece)
            if score is not None:
                prev = best[j]
                cand = (prev[0] + score, prev[1] + 1, prev[2] + (piece,))
                if _better(cand, candidate):
                    candidate = cand
        best.append(candidate)
    return list(best[-1][2])


def _better(a, b):
    if a[0] != b[0]:
        return a[0] > b[0]
    if a[1] != b[1]:
        return a[1] < b[1]
    return a[2] < b[2]


def reference_greedy(pretoken, vocab):
    """Longest match by scanning down from the longest piece length."""
    text = _with_marker(pretoken, vocab)
    max_len = max(len(p) for p in vocab.pieces)
    out = []
    i = 0
    while i < len(text):
        for length in range(min(max_len, len(text) - i), 0, -1):
            if text[i : i + length] in vocab.pieces:
                out.append(text[i : i + length])
                i += length
                break
        else:
            out.append(vocab.unk_piece)
            i += 1
    return out


# Integer-valued scores make exact score ties common, so the lattice's
# path-rebuild tie-break runs often; "x" is in no piece, so covers need
# <unk> gaps. A piece scoring `_UNK_SCORE` ties <unk>, and two pieces
# scoring -1.7e308 add up to -inf. Half the vocabularies hold a "▁" piece,
# so "▁" is their boundary marker; the other half hold no "▁" and have none.
def lattice_pieces(alphabet):
    return st.dictionaries(
        st.text(alphabet=alphabet, min_size=1, max_size=4),
        st.sampled_from([-1.0, -2.0, -3.0, _UNK_SCORE, -1.7e308]),
        min_size=1,
        max_size=12,
    )


@given(
    pieces=st.one_of(
        lattice_pieces("abc"),
        lattice_pieces("abc▁").filter(lambda pieces: any("▁" in p for p in pieces)),
    ),
    text=st.text(alphabet="abcx▁", min_size=1, max_size=14),
)
@settings(max_examples=500, deadline=None)
def test_lattice_matches_reference(pieces, text):
    vocab = Vocabulary(pieces=pieces)
    assert segment_viterbi(text, vocab) == reference_viterbi(text, vocab)
    assert segment_greedy(text, vocab) == reference_greedy(text, vocab)


@pytest.mark.parametrize("score", [-1.0, _UNK_SCORE])
def test_viterbi_ties_match_exhaustive_oracle(score):
    # every piece scores the same, so equal-count covers tie exactly and the
    # lexicographic rule decides; "x" is unknown. With these pieces, keeping
    # whichever tied cover was found first fails on "acabb", where the tie
    # is met relaxing a piece, and on "bbaac", where it is met relaxing <unk>.
    # At `_UNK_SCORE` every piece also ties <unk>, so covers with the same
    # number of tokens tie whatever mix of pieces and <unk> they hold, and
    # "<unk>" sorts before every piece.
    vocab = vocab_of(**{p: score for p in ("b", "ac", "bb", "aaa", "aba", "acc", "baa", "cab")})
    cases = 0
    for length in range(1, 7):
        for chars in itertools.product("abcx", repeat=length):
            text = "".join(chars)
            assert segment_viterbi(text, vocab) == oracle_best(text, vocab), text
            cases += 1
    assert cases == sum(4**k for k in range(1, 7))


def test_viterbi_long_whole_line_matches_reference():
    # thousands of characters in one span, as in non-pretokenized mode
    vocab = load_vocab(GOLDEN / "mixed.tsv")
    lines = (GOLDEN / "mixed.txt").read_text(encoding="utf-8").splitlines()
    line = " ".join(lines[:40]).replace(" ", vocab.boundary_marker)
    assert len(line) > 5000
    assert segment_viterbi(line, vocab) == reference_viterbi(line, vocab)
    assert segment_greedy(line, vocab) == reference_greedy(line, vocab)


# Pieces nest (a word and some of its prefixes), so the trie has entries with
# both a piece and children, and the longest of several words sharing a
# prefix leaves a tail. Each text ends partway into a word, often inside its
# tail, and "x" is in no piece.
@st.composite
def trie_cases(draw):
    alphabet = draw(st.sampled_from(["ab", "abc"]))
    words = draw(st.lists(st.text(alphabet, min_size=1, max_size=7), min_size=1, max_size=6))
    pieces = {}
    for word in words:
        for k in draw(st.sets(st.integers(1, len(word)))) | {len(word)}:
            pieces[word[:k]] = draw(st.sampled_from([-1.0, -2.0, -3.0]))
    word = draw(st.sampled_from(words))
    text = draw(st.text(alphabet + "x", max_size=8)) + word[: draw(st.integers(0, len(word) - 1))]
    return pieces, text or word


@given(case=trie_cases())
@settings(max_examples=500, deadline=None)
def test_trie_walk_matches_reference(case):
    pieces, text = case
    vocab = Vocabulary(pieces=pieces)
    assert segment_viterbi(text, vocab) == reference_viterbi(text, vocab)
    assert segment_greedy(text, vocab) == reference_greedy(text, vocab)


def test_trie_is_built_at_first_segmentation():
    vocab = vocab_of(ab=-1.0, abcd=-2.0)
    assert "_trie" not in vars(vocab)
    segment_greedy("ab", vocab)
    assert "_trie" in vars(vocab)


def test_trie_entries():
    vocab = vocab_of(ab=-1.0, abcd=-2.0, b=-3.0, ba=-4.0)
    trie = vocab._trie
    # "c" has the single piece "abcd" below it: its entry keeps the tail "d"
    assert trie == {
        "a": ({"b": ({"c": ({}, -2.0, "abcd", "d")}, -1.0, "ab", "")}, None, None, ""),
        "b": ({"a": ({}, -4.0, "ba", "")}, -3.0, "b", ""),
    }
    assert trie["a"][0]["b"][0]["c"][0] is trie["b"][0]["a"][0]
    own = {id(piece) for piece in vocab.pieces}
    assert id(trie["a"][0]["b"][0]["c"][2]) in own and id(trie["b"][2]) in own


def test_nested_vocabulary_does_not_recurse():
    # one trie level per character of the longest piece
    k = 3000
    vocab = Vocabulary(pieces={"a" * i: -1.0 for i in range(1, k + 1)})
    assert segment_greedy("a" * (k + 1), vocab) == ["a" * k, "a"]
    assert segment_viterbi("a" * k + "b", vocab) == ["a" * k, vocab.unk_piece]


def test_pieces_are_the_vocabulary_strings():
    # segmentations (and so the segment cache) share the vocabulary's string
    # objects rather than holding sliced copies of them
    vocab = load_vocab(GOLDEN / "mixed.tsv")
    own = {id(piece) for piece in vocab.pieces}
    lines = (GOLDEN / "mixed.txt").read_text(encoding="utf-8").splitlines()[:20]
    corpus = Corpus.from_lines(lines)
    spans = [pieces for batch in tokenize_corpus(corpus, vocab) for pieces in batch.records]
    spans.append(segment_viterbi(" ".join(lines).replace(" ", vocab.boundary_marker), vocab))
    spans += [segment_greedy(word, vocab) for line in lines for word in line.split()]
    pieces = [piece for span in spans for piece in span]
    assert vocab.unk_piece in pieces and len(pieces) > 1000
    for piece in pieces:
        if piece != vocab.unk_piece:
            assert id(piece) in own, piece
        else:
            assert piece is vocab.unk_piece


def test_viterbi_matches_exhaustive_oracle():
    vocab = vocab_of(**{"a": -1.0, "b": -2.0, "d": -1.2, "ab": -3.0, "bc": -2.4})
    alphabet = "abcd"
    cases = 0
    for length in range(1, 8):
        for chars in itertools.product(alphabet, repeat=length):
            text = "".join(chars)
            assert segment_viterbi(text, vocab) == oracle_best(text, vocab), text
            cases += 1
    assert cases >= 10**4


def test_viterbi_score_geq_greedy():
    rng = random.Random(0)
    vocab = vocab_of(
        **{"a": -1.3, "b": -0.7, "ab": -1.8, "ba": -2.0, "aab": -2.2}
    )

    def score(tokens):
        return sum(vocab.pieces.get(t, -1.0e6) for t in tokens)

    for _ in range(500):
        text = "".join(rng.choice("ab") for _ in range(rng.randint(1, 12)))
        assert score(segment_viterbi(text, vocab)) >= score(segment_greedy(text, vocab))


def test_round_trip_random_strings():
    rng = random.Random(1)
    alphabet = "abcde"
    pieces = {}
    while len(pieces) < 40:
        piece = "".join(
            rng.choice(alphabet) for _ in range(rng.randint(1, 4))
        )
        pieces.setdefault(piece, -rng.uniform(0.5, 10.0))
    vocab = Vocabulary(pieces=pieces)
    for _ in range(10000):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 15)))
        tokens = segment_viterbi(text, vocab)
        joined = "".join(
            t if t != vocab.unk_piece else "?" for t in tokens
        )
        # unk stands for exactly one source character
        assert len(joined.replace("?", "x")) == len(text)
        rebuilt = []
        i = 0
        for t in tokens:
            if t == vocab.unk_piece:
                rebuilt.append(text[i])
                i += 1
            else:
                rebuilt.append(t)
                i += len(t)
        assert "".join(rebuilt) == text


# --- corpus streaming ------------------------------------------------------


def test_tokenize_one_token_per_word():
    vocab = Vocabulary(pieces={"▁a": -1.0, "▁b": -1.0})
    lines = line_spans(tokenize_corpus(Corpus.from_lines(["a b"]), vocab))
    assert lines == [("a b", [("a", ["▁a"]), ("b", ["▁b"])])]


@pytest.mark.parametrize(
    "pretokenized, pieces, records, calls",
    [
        # the first two pretokens are cached, "c" past the bound is segmented each time
        (True, {"▁a": -1.0}, [["a"], ["b"], ["c"]], ["a", "b", "c", "c"]),
        # a whole line is cut before each marker, and its chunks cached alike
        (False, {"▁a": -1.0}, [["▁a", "▁b", "▁c"]], ["▁a", "▁b", "▁c", "▁c"]),
        # a piece crosses the marker, so the line is one chunk, cached alike
        (False, {"▁a": -1.0, "a▁b": -1.0}, [["▁a▁b▁c"]], ["▁a▁b▁c"]),
    ],
    ids=["pretokenized", "wholeline", "wholeline-uncut"],
)
def test_tokenize_segment_cache_is_bounded(monkeypatch, pretokenized, pieces, records, calls):
    monkeypatch.setattr(tokenizer, "_SEGMENT_CACHE_MAX", 2)
    seen = []

    def segment(pretoken, vocab):
        seen.append(pretoken)
        return [pretoken]

    monkeypatch.setattr(tokenizer, "segment_viterbi", segment)
    corpus = Corpus.from_lines(["a b c", "a b c"])
    vocab = Vocabulary(pieces=pieces)
    lines = line_spans(tokenize_corpus(corpus, vocab, pretokenized=pretokenized))
    assert [pieces for _, spans in lines for _, pieces in spans] == records * 2
    assert seen == calls


@pytest.mark.parametrize(
    "pretokenized, cap, calls",
    [
        # "ab" is cached, "abc" is longer than the cap and segmented each time
        (True, 2, ["ab", "abc", "abc", "abc"]),
        # whole-line chunks start with the marker, which counts towards the cap
        (False, 3, ["▁ab", "▁abc", "▁abc", "▁abc"]),
    ],
    ids=["pretokenized", "wholeline"],
)
def test_tokenize_segment_cache_skips_long_keys(monkeypatch, pretokenized, cap, calls):
    corpus = Corpus.from_lines(["ab abc", "abc ab abc"])
    vocab = Vocabulary(pieces={"▁a": -1.0, "a": -1.5, "b": -1.0, "c": -1.0, "▁abc": -2.5})
    want = line_spans(tokenize_corpus(corpus, vocab, pretokenized=pretokenized))
    monkeypatch.setattr(tokenizer, "_SEGMENT_CACHE_KEY_MAX", cap)
    seen = []

    def segment(key, vocab):
        seen.append(key)
        return segment_viterbi(key, vocab)

    monkeypatch.setattr(tokenizer, "segment_viterbi", segment)
    assert line_spans(tokenize_corpus(corpus, vocab, pretokenized=pretokenized)) == want
    assert seen == calls
    # a long key is never stored, and each occurrence gets its own record
    cache = {}
    records = tokenizer._records(calls, cache, lambda key: [key])
    assert records == [[key] for key in calls]
    assert list(cache) == [calls[0]]
    assert records[1] is not records[2]


def test_tokenize_empty_corpus():
    vocab = vocab_of(a=-1.0)
    for pretokenized in (True, False):
        corpus = Corpus.from_lines([])
        assert list(tokenize_corpus(corpus, vocab, pretokenized=pretokenized)) == []


def test_tokenize_non_pretokenized_single_span():
    vocab = vocab_of(**{"a": -1.0, "b": -1.0, " ": -1.0})
    lines = line_spans(
        tokenize_corpus(Corpus.from_lines(["a b", ""]), vocab, pretokenized=False)
    )
    assert lines == [("a b", [("a b", ["a", " ", "b"])]), ("", [])]


def test_tokenize_non_pretokenized_marks_only_spaces():
    vocab = Vocabulary(pieces={"▁": -1.0, "a": -1.0, "\t": -1.0})
    lines = line_spans(
        tokenize_corpus(Corpus.from_lines(["a a\ta"]), vocab, pretokenized=False)
    )
    # segmentation itself prepends the marker, as for any span
    assert lines == [("a a\ta", [("a▁a\ta", ["▁", "a", "▁", "a", "\t", "a"])])]


# Whole-line mode cuts each line before every separator ("▁" with a marker,
# " " without) when no piece holds one after its first character, and
# segments each distinct chunk once. Each line must get the concatenation of
# one call per chunk, and its tokens must reach the interner in the same
# order. Half the vocabularies hold a piece with the separator inside, so
# lines stay whole; "x" is in no piece. Decimal scores tie in real numbers
# but not always in floats; integer scores sum exactly, so there the result
# must also be what one call on the whole line gives.
INTEGER_SCORES = [-1.0, -2.0, -3.0]


@st.composite
def wholeline_cases(draw):
    marker = draw(st.booleans())
    sep = "▁" if marker else " "
    scores = st.sampled_from(draw(st.sampled_from([INTEGER_SCORES, [-0.1, -0.2, -10.0]])))
    # a marker vocabulary holds a "▁" piece; a plain one holds no "▁" at all
    body = st.text("ab\t " if marker else "ab\t", max_size=3)
    piece = st.builds(operator.add, st.sampled_from(["", sep]), body).filter(bool)
    pieces = draw(
        st.dictionaries(piece, scores, min_size=1, max_size=10).filter(
            lambda pieces: not marker or any(sep in p for p in pieces)
        )
    )
    if draw(st.booleans()):
        pieces[draw(st.text("ab", min_size=1, max_size=2)) + sep + draw(body)] = draw(scores)
    lines = draw(st.lists(st.text("abx \t▁", max_size=16), max_size=5))
    return Vocabulary(pieces=pieces), lines


def segment_by_chunks(text, vocab, segment):
    sep = vocab.boundary_marker or " "
    if any(sep in piece[1:] for piece in vocab.pieces):
        return segment(text, vocab)
    chunks = re.split(f"(?={sep})", _with_marker(text, vocab))
    return [piece for chunk in chunks if chunk for piece in segment(chunk, vocab)]


@given(case=wholeline_cases(), greedy=st.booleans())
@settings(max_examples=500, deadline=None)
def test_tokenize_wholeline_is_one_call_per_chunk(case, greedy):
    vocab, lines = case
    segment = segment_greedy if greedy else segment_viterbi
    expected = Interner()
    want = []
    for line in filter(None, lines):
        text = line.replace(" ", "▁") if vocab.boundary_marker else line
        pieces = segment_by_chunks(text, vocab, segment)
        if set(vocab.pieces.values()) <= set(INTEGER_SCORES):
            assert pieces == segment(text, vocab)
        want.append((line, [(text, expected.intern(pieces))]))
    interner = Interner()
    corpus = Corpus.from_lines(lines)
    got = line_spans(tokenize_corpus(corpus, vocab, False, greedy, interner.intern))
    assert [line for line, _ in got] == lines
    assert [(line, spans) for line, spans in got if line] == want
    assert all(spans == [] for line, spans in got if not line)
    assert interner.strings == expected.strings


def test_tokenize_wholeline_scores_each_chunk_from_zero():
    # in the chunk ▁ab, ▁a b and ▁ ab both score -10.2 and the tie-break
    # picks ▁ ab; one call on the whole line adds them to ▁q's -0.1 first,
    # where the two sums round apart
    vocab = Vocabulary(pieces={"▁q": -0.1, "▁a": -10.0, "b": -0.2, "▁": -0.2, "ab": -10.0})
    lines = line_spans(tokenize_corpus(Corpus.from_lines(["q ab"]), vocab, pretokenized=False))
    assert lines == [("q ab", [("q▁ab", ["▁q", "▁", "ab"])])]
    assert segment_viterbi("q▁ab", vocab) == ["▁q", "▁a", "b"]


@pytest.mark.parametrize(
    "pieces, line, span",
    [
        ({"▁": -1.0, "▁a": -1.0, "▁b": -1.0, "a▁b": -0.5}, "a b", ("a▁b", ["▁", "a▁b"])),
        ({"a": -1.0, " b": -1.0, "a b": -0.5}, "a b", ("a b", ["a b"])),
    ],
    ids=["marker", "space"],
)
def test_tokenize_wholeline_piece_across_separator(pieces, line, span):
    # a piece covers a separator it does not start with, so the line is not
    # cut there; cut, it would be ▁a ▁b, or a " b"
    vocab = Vocabulary(pieces=pieces)
    lines = line_spans(tokenize_corpus(Corpus.from_lines([line]), vocab, pretokenized=False))
    assert lines == [(line, [span])]


@pytest.mark.parametrize(
    "pieces, chunks",
    [({"▁": -1.0, "a▁b": -0.5}, ["▁a▁b"]), ({"▁": -1.0, "▁a": -1.0}, ["▁a", "▁b"])],
    ids=["whole", "cut"],
)
def test_vocabulary_pickles_after_wholeline_tokenize(pieces, chunks):
    # whole-line mode caches the cut rule on the vocabulary, which still
    # pickles, say to be sent to a worker process
    vocab = Vocabulary(pieces=pieces)
    list(tokenize_corpus(Corpus.from_lines(["a b"]), vocab, pretokenized=False))
    assert pickle.loads(pickle.dumps(vocab))._cut("▁a▁b") == chunks


# Corpora one short of, at and one past a batch of lines, and into a third
# batch.
B = BATCH_LINES
BOUNDARY_SIZES = [0, 1, B - 1, B, B + 1, 2 * B + 3]

# integer scores, so a whole line and its chunks segment alike
BOUNDARY_VOCABS = {
    "cut": {"▁ab": -2.0, "▁a": -2.0, "▁c": -2.0, "b": -1.0, "c": -2.0, "a": -1.0, "▁": -3.0, "ca": -2.0},
    "whole": {"▁ab": -2.0, "▁a": -2.0, "b": -1.0, "c": -2.0, "a": -1.0, "▁": -3.0, "b▁b": -1.0},
}


@pytest.mark.parametrize("n", BOUNDARY_SIZES)
@pytest.mark.parametrize("pretokenized", [True, False], ids=["pretokenized", "wholeline"])
@pytest.mark.parametrize("greedy", [False, True], ids=["viterbi", "greedy"])
@pytest.mark.parametrize("pieces", list(BOUNDARY_VOCABS.values()), ids=list(BOUNDARY_VOCABS))
def test_tokenize_batches_equal_one_line_at_a_time(boundary_lines, n, pretokenized, greedy, pieces):
    vocab = Vocabulary(pieces=pieces)
    segment = segment_greedy if greedy else segment_viterbi
    lines = boundary_lines(n)
    interner = Interner()
    batches = list(tokenize_corpus(Corpus.from_lines(lines), vocab, pretokenized, greedy, interner.intern))
    assert [len(batch.lines) for batch in batches] == [B] * (n // B) + [n % B] * (n % B > 0)
    expected = Interner()
    want = []
    for line in lines:
        if pretokenized:
            spans = [(p, expected.intern(segment(p, vocab))) for p in pretokenize(line)]
        elif line:
            text = line.replace(" ", "▁")
            spans = [(text, expected.intern(segment(text, vocab)))]
        else:
            spans = []
        want.append((line, spans))
    got = line_spans(batches)
    assert got == want
    # type ids are handed out in corpus order
    assert interner.strings == expected.strings
    if pretokenized and n > B // 2:
        assert [text for text, _ in got[B // 2][1]] == ["ab", "¡", "ca", "¡¡", "ba"]
    if pretokenized and n > B:
        assert [text for text, _ in got[-1][1]] == ["ca", "‽", "‽", "ab"]


def test_strip_marker():
    assert strip_marker("▁kirj") == "kirj"
    assert strip_marker("kirj") == "kirj"
