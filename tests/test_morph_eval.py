import random
from pathlib import Path

import pytest

from morphlens.morph_eval import (
    CREDIT_VOCAB,
    EXCLUDE_VOCAB,
    AlignmentResult,
    MorphEvalError,
    SegmentationRef,
    derive_subsets,
    eval_full,
    load_refs,
    morphscore,
    predicted_boundaries,
)
from morphlens.tokenizer import Vocabulary, load_vocab, segment_greedy, segment_viterbi

GOLDEN = Path(__file__).resolve().parent / "golden"


def fixed_segmenter(table):
    def seg(word):
        return table[word]

    return seg


def ref(word, *morphs):
    return SegmentationRef(word=word, morphs=tuple(morphs))


# --- references ------------------------------------------------------------


def test_boundaries_gathered():
    assert ref("gathered", "gather", "ed").boundaries() == frozenset({6})


def test_boundaries_arabalari():
    assert ref("arabaları", "araba", "lar", "ı").boundaries() == frozenset({5, 8})


def test_boundaries_single_morph_empty():
    assert ref("word", "word").boundaries() == frozenset()


def test_boundaries_empty_morph_adds_no_edge():
    # an empty first morph ends at 0, which is a word edge, not a boundary
    assert SegmentationRef("ab", ("", "ab")).boundaries() == frozenset()


def test_load_refs(tmp_path):
    p = tmp_path / "refs.tsv"
    p.write_text(
        "gathered\tgather|ed\narabaları\taraba|lar|ı\nabc\ta|c\n", encoding="utf-8"
    )
    loaded = load_refs(p)
    assert [r.word for r in loaded.refs] == ["gathered", "arabaları"]
    assert loaded.rejected == 1


def test_load_refs_malformed_lines(tmp_path):
    p = tmp_path / "refs.tsv"
    p.write_text("no-tab-here\n\nok\tok\n", encoding="utf-8")
    loaded = load_refs(p)
    assert len(loaded.refs) == 1
    assert loaded.rejected == 1


def test_load_refs_crlf(tmp_path):
    p = tmp_path / "refs.tsv"
    p.write_bytes(b"gathered\tgather|ed\r\nok\tok\r\n")
    loaded = load_refs(p)
    assert [r.morphs for r in loaded.refs] == [("gather", "ed"), ("ok",)]
    assert loaded.rejected == 0


def test_load_refs_invalid_utf8_reports_offset(tmp_path):
    p = tmp_path / "refs.tsv"
    p.write_bytes(b"ok\tok\n" * 3 + b"\xff\tx\n")
    with pytest.raises(MorphEvalError, match=r"refs\.tsv: invalid UTF-8 at byte offset 18$"):
        load_refs(p)


# --- predicted boundaries --------------------------------------------------


def test_predicted_boundaries_strip_marker():
    assert predicted_boundaries(["▁gather", "ed"]) == frozenset({6})


def test_predicted_boundaries_unk_is_one_character():
    assert predicted_boundaries(["▁a", "<unk>", "bc"]) == frozenset({1, 2})


@pytest.mark.parametrize("segment", [segment_greedy, segment_viterbi])
def test_predicted_boundaries_of_golden_refs_fall_inside_the_word(segment):
    # `temosideqz` and `sanunoriqz` end in characters alpha.tsv does not
    # cover, so their last pieces are `<unk>`
    vocab = load_vocab(GOLDEN / "alpha.tsv")
    for r in load_refs(GOLDEN / "refs.tsv").refs:
        bounds = predicted_boundaries(segment(r.word, vocab))
        assert all(1 <= b <= len(r.word) - 1 for b in bounds), (r.word, sorted(bounds))


def test_predicted_boundaries_edges_excluded():
    rng = random.Random(0)
    for _ in range(100):
        tokens = [
            "".join(rng.choice("ab") for _ in range(rng.randint(1, 4)))
            for _ in range(rng.randint(1, 6))
        ]
        n = sum(len(t) for t in tokens)
        bounds = predicted_boundaries(tokens)
        assert all(0 < b < n for b in bounds)


# --- full alignment, Table 3 values ----------------------------------------


def test_full_gathered_exact():
    result = eval_full(
        fixed_segmenter({"gathered": ["gather", "ed"]}), [ref("gathered", "gather", "ed")]
    )
    assert (result.precision, result.recall, result.f1) == (1.0, 1.0, 1.0)


def test_full_gathered_wrong_split():
    result = eval_full(
        fixed_segmenter({"gathered": ["gathere", "d"]}), [ref("gathered", "gather", "ed")]
    )
    assert result.f1 == 0.0


def test_full_gathered_characters():
    result = eval_full(
        fixed_segmenter({"gathered": list("gathered")}), [ref("gathered", "gather", "ed")]
    )
    assert result.precision == pytest.approx(1 / 7)
    assert result.recall == 1.0
    assert result.f1 == pytest.approx(0.25)


def test_full_arabalari_two_token_splits():
    # both two-token splits recover one of two reference boundaries with one
    # predicted boundary: P=1, R=0.5, F1=2/3
    reference = [ref("arabaları", "araba", "lar", "ı")]
    for split in (["araba", "ları"], ["arabalar", "ı"]):
        result = eval_full(fixed_segmenter({"arabaları": split}), reference)
        assert result.precision == 1.0
        assert result.recall == pytest.approx(0.5)
        assert result.f1 == pytest.approx(2 / 3)


def test_full_empty_refs_errors():
    with pytest.raises(MorphEvalError):
        eval_full(fixed_segmenter({}), [])


def test_full_multi_reference_max_f1():
    refs = [ref("abcd", "ab", "cd"), ref("abcd", "a", "bcd")]
    result = eval_full(fixed_segmenter({"abcd": ["a", "bcd"]}), refs)
    assert result.f1 == 1.0


def test_full_micro_aggregation_oracle():
    rng = random.Random(7)
    refs = []
    seg_table = {}
    for i in range(100):
        word = "".join(rng.choice("abcdef") for _ in range(rng.randint(2, 10)))
        word = f"{word}{i:02d}x"  # unique surface per entry
        cut = rng.randint(1, len(word) - 1)
        refs.append(ref(word, word[:cut], word[cut:]))
        pieces = []
        pos = 0
        while pos < len(word):
            step = rng.randint(1, max(1, len(word) - pos))
            pieces.append(word[pos : pos + step])
            pos += step
        seg_table[word] = pieces
    result = eval_full(fixed_segmenter(seg_table), refs)
    tp = pred = reft = 0
    for r in refs:
        p = predicted_boundaries(seg_table[r.word])
        b = r.boundaries()
        tp += len(p & b)
        pred += len(p)
        reft += len(b)
    assert (result.tp, result.pred_total, result.ref_total) == (tp, pred, reft)


# --- subsets ---------------------------------------------------------------


def test_subsets_arabalari():
    subsets = derive_subsets([ref("arabaları", "araba", "lar", "ı")])
    assert subsets.stem_suffix[0].boundaries() == frozenset({5})
    assert subsets.suffix_suffix[0].boundaries() == frozenset({8})


def test_subsets_exclude_two_morph_words():
    subsets = derive_subsets([ref("gathered", "gather", "ed")])
    assert subsets.stem_suffix == []
    assert subsets.suffix_suffix == []


def test_subsets_four_morph_word():
    subsets = derive_subsets([ref("wxyz", "w", "x", "y", "z")])
    assert subsets.stem_suffix[0].boundaries() == frozenset({1})
    assert subsets.suffix_suffix[0].boundaries() == frozenset({2, 3})


# --- morphscore ------------------------------------------------------------


def small_vocab(*pieces):
    return Vocabulary(pieces={p: -1.0 for p in pieces})


def test_morphscore_recalled():
    result = morphscore(
        fixed_segmenter({"gathered": ["gather", "ed"]}),
        [ref("gathered", "gather", "ed")],
        small_vocab("gather", "ed"),
    )
    assert result.recall == 1.0


def test_morphscore_table3_araba_rows():
    reference = [ref("arabaları", "araba", "ları")]
    vocab = small_vocab("araba", "ları", "arabalar", "ı")
    hit = morphscore(fixed_segmenter({"arabaları": ["araba", "ları"]}), reference, vocab)
    miss = morphscore(
        fixed_segmenter({"arabaları": ["arabalar", "ı"]}), reference, vocab
    )
    assert hit.recall == 1.0
    assert miss.recall == 0.0


def test_morphscore_exclude_skips_in_vocab():
    vocab = small_vocab("gathered")
    result = morphscore(
        fixed_segmenter({}),  # never consulted: the only word is in-vocab
        [ref("gathered", "gather", "ed")],
        vocab,
        EXCLUDE_VOCAB,
    )
    assert result.n_evaluated == 0
    assert result.n_skipped == 1
    assert result.recall == 0.0


def test_morphscore_credit_counts_in_vocab():
    vocab = small_vocab("gathered")
    result = morphscore(
        fixed_segmenter({}),
        [ref("gathered", "gather", "ed")],
        vocab,
        CREDIT_VOCAB,
    )
    assert result.n_evaluated == 1
    assert result.recall == 1.0


def test_morphscore_marker_prefixed_vocab_hit():
    vocab = Vocabulary(pieces={"▁gathered": -1.0})
    result = morphscore(
        fixed_segmenter({}),
        [ref("gathered", "gather", "ed")],
        vocab,
        CREDIT_VOCAB,
    )
    assert result.recall == 1.0


def test_morphscore_requires_single_boundary():
    with pytest.raises(MorphEvalError, match="expected 1"):
        morphscore(
            fixed_segmenter({}),
            [ref("arabaları", "araba", "lar", "ı")],
            small_vocab("x"),
        )


def test_morphscore_credit_geq_exclude():
    rng = random.Random(11)
    words = []
    seg_table = {}
    for i in range(60):
        word = "".join(rng.choice("abcd") for _ in range(4)) + f"{i:02d}"
        cut = rng.randint(1, len(word) - 1)
        words.append(ref(word, word[:cut], word[cut:]))
        pcut = rng.randint(1, len(word) - 1)
        seg_table[word] = [word[:pcut], word[pcut:]]
    vocab = small_vocab(*(r.word for r in words[:20]))
    seg = fixed_segmenter(seg_table)
    credit = morphscore(seg, words, vocab, CREDIT_VOCAB)
    exclude = morphscore(seg, words, vocab, EXCLUDE_VOCAB)
    assert credit.recall >= exclude.recall


def test_morphscore_unknown_mode():
    with pytest.raises(MorphEvalError, match="unknown mode"):
        morphscore(fixed_segmenter({}), [ref("ab", "a", "b")], small_vocab("x"), "nope")


# --- alignment result edge cases -------------------------------------------


def test_alignment_zero_divisions():
    empty = AlignmentResult(tp=0, pred_total=0, ref_total=0)
    assert empty.precision == empty.recall == empty.f1 == 0.0


def test_f1_is_one_iff_sets_equal():
    rng = random.Random(13)
    for _ in range(200):
        word = "".join(rng.choice("abc") for _ in range(rng.randint(2, 8)))
        cut = rng.randint(1, len(word) - 1)
        r = ref(word, word[:cut], word[cut:])
        pcut = rng.randint(1, len(word) - 1)
        result = eval_full(
            fixed_segmenter({word: [word[:pcut], word[pcut:]]}), [r]
        )
        assert (result.f1 == 1.0) == (pcut == cut)
