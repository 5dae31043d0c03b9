import unicodedata

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morphlens.pretokenize import _pretokenize_loop, is_lexical, pretokenize


def test_plain_sentence():
    assert pretokenize("Sabe jugar al ajedrez") == ["Sabe", "jugar", "al", "ajedrez"]


def test_empty_line():
    assert pretokenize("") == []


def test_punctuation_splits_off():
    assert pretokenize("don't stop.") == ["don", "'", "t", "stop", "."]


def test_hyphenated_word_splits():
    assert pretokenize("well-known") == ["well", "-", "known"]


def test_punctuation_runs_stay_together():
    assert pretokenize("wait... what?!") == ["wait", "...", "what", "?!"]


def test_whitespace_only():
    assert pretokenize("  \t ") == []


@given(st.text(max_size=80))
@settings(max_examples=300)
def test_pretokenize_stable(line):
    once = pretokenize(line)
    again = pretokenize(" ".join(once))
    assert again == once


@given(st.text(max_size=80))
@settings(max_examples=300)
def test_no_pretoken_mixes_letters_and_punctuation(line):
    for pretoken in pretokenize(line):
        has_letter = any(unicodedata.category(c).startswith("L") for c in pretoken)
        has_punct = any(unicodedata.category(c).startswith("P") for c in pretoken)
        assert not (has_letter and has_punct)


@given(st.text(max_size=80))
@settings(max_examples=300)
def test_concatenation_preserves_content(line):
    joined = "".join(pretokenize(line))
    assert joined == "".join(c for c in line if not c.isspace())


def test_ascii_fast_path_equals_loop_on_every_code_point():
    chars = [chr(c) for c in range(128)]
    for a in chars:
        for b in chars:
            for line in (a + b, "x" + a + b + "y", a + "." + b, a + " " + b):
                assert pretokenize(line) == _pretokenize_loop(line), repr(line)


def test_ascii_fast_path_control_spaces_and_symbols():
    # \x0b \x0c \x1c-\x1f are whitespace to str.isspace; S-category symbols
    # are not punctuation and stay attached to letters
    assert pretokenize("a\x0bb\x0cc\x1cd\x1de\x1ff\x1eg") == list("abcdefg")
    assert pretokenize("a$b+c<d=e>f^g`h|i~j") == ["a$b+c<d=e>f^g`h|i~j"]
    assert pretokenize("x_y {z}") == ["x", "_", "y", "{", "z", "}"]


@given(st.text(alphabet=st.characters(max_codepoint=127), max_size=80))
@settings(max_examples=300)
def test_ascii_fast_path_equals_loop(line):
    assert pretokenize(line) == _pretokenize_loop(line)


def test_is_lexical_letters():
    assert is_lexical("kirj")


def test_is_lexical_digit_filtered():
    assert not is_lexical("12a")


def test_is_lexical_marker_then_punct():
    assert not is_lexical("▁!")


def test_is_lexical_leading_marker_ignored():
    assert is_lexical("▁kirj")


def test_is_lexical_nd_only():
    # letter-numbers (Nl) and other-numbers (No) are not filtered
    assert is_lexical("Ⅳ")  # ROMAN NUMERAL FOUR, category Nl
    assert is_lexical("½")  # VULGAR FRACTION ONE HALF, category No
    assert not is_lexical("٣")  # ARABIC-INDIC DIGIT THREE, category Nd


def test_is_lexical_exhaustive_below_bmp():
    # reference scan straight over the Unicode category table
    for cp in range(0x10000):
        ch = chr(cp)
        cat = unicodedata.category(ch)
        expected = not (cat.startswith("P") or cat == "Nd")
        if ch == "▁":
            expected = True  # marker stripped before classification
        assert is_lexical(ch) == expected, hex(cp)
