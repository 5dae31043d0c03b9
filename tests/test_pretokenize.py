import inspect
import os
import subprocess
import sys
import textwrap
import unicodedata
from pathlib import Path
from typing import List

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import morphlens
from morphlens.pretokenize import is_lexical, pretokenize, pretokenize_lines


# The character loop that split every non-ASCII line before the learned
# pattern, kept verbatim as the reference.
def _is_punct(ch: str) -> bool:
    return unicodedata.category(ch).startswith("P")


def _pretokenize_loop(line: str) -> List[str]:
    """The character loop behind `pretokenize`, for any line."""
    pretokens: List[str] = []
    buf: List[str] = []
    buf_is_punct = False
    for ch in line:
        if ch.isspace():
            if buf:
                pretokens.append("".join(buf))
                buf = []
            continue
        punct = _is_punct(ch)
        if buf and punct != buf_is_punct:
            pretokens.append("".join(buf))
            buf = []
        buf.append(ch)
        buf_is_punct = punct
    if buf:
        pretokens.append("".join(buf))
    return pretokens


def _run_cold(body: str) -> None:
    """Run `body` in a fresh interpreter, where `pretokenize` has learned
    nothing yet, with the reference loop defined; it fails by raising."""
    src = str(Path(morphlens.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)
    script = "\n".join(
        [
            "import sys, unicodedata",
            "from typing import List",
            "from morphlens.pretokenize import pretokenize",
            inspect.getsource(_is_punct),
            inspect.getsource(_pretokenize_loop),
            inspect.getsource(_is_lexical_reference),
            textwrap.dedent(body),
        ]
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr


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
    # ASCII lines are split by the pattern the module starts with.
    # \x0b \x0c \x1c-\x1f are whitespace to str.isspace; S-category symbols
    # are not punctuation and stay attached to letters
    assert pretokenize("a\x0bb\x0cc\x1cd\x1de\x1ff\x1eg") == list("abcdefg")
    assert pretokenize("a$b+c<d=e>f^g`h|i~j") == ["a$b+c<d=e>f^g`h|i~j"]
    assert pretokenize("x_y {z}") == ["x", "_", "y", "{", "z", "}"]


@given(st.text(alphabet=st.characters(max_codepoint=127), max_size=80))
@settings(max_examples=300)
def test_ascii_fast_path_equals_loop(line):
    assert pretokenize(line) == _pretokenize_loop(line)


@given(st.text(max_size=80))
@settings(max_examples=300)
def test_learned_pattern_equals_loop(line):
    assert pretokenize(line) == _pretokenize_loop(line)


@given(st.lists(st.text(max_size=30), max_size=8))
@settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_pretokenize_lines_equals_loop(fresh_pretokenizer, lines):
    # the lines are checked for new characters together, then split one by one
    fresh_pretokenizer()
    assert pretokenize_lines(lines) == [_pretokenize_loop(line) for line in lines]


@given(st.lists(st.text(max_size=30), max_size=8))
@settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_learning_classifies_whole_blocks(fresh_pretokenizer, lines):
    # after a batch the check class passes every character of it, and the
    # punctuation class holds all the punctuation of every classified block
    fresh_pretokenizer()
    module = sys.modules["morphlens.pretokenize"]
    pretokenize_lines(lines)
    learned = module._learned
    assert learned.unclassified.search("".join(lines)) is None
    size = module._BLOCK
    classified = [chr(c) for b in learned.blocks for c in range(b * size, (b + 1) * size)]
    assert sorted(learned.punct) == sorted(filter(_is_punct, classified))


def test_classified_blocks_are_not_learned_again():
    # the second batch has only characters the first did not have, but all
    # of them in its blocks: Latin-1, Greek (U+0380-03FF) and Cyrillic
    # (U+0400-047F), new punctuation marks among them
    _run_cold(
        """
        from morphlens.pretokenize import pretokenize_lines
        module = sys.modules["morphlens.pretokenize"]
        first = ["привет, «мир»", "γειά σου"]
        second = ["ЖЗИЙ ѐё", "ΩΨ ¿¡ ·.§"]
        assert not set("".join(first)) & set("".join(second)) - set(" ,.")
        pretokenize_lines(first)
        learned = module._learned
        assert pretokenize_lines(second) == [_pretokenize_loop(line) for line in second]
        assert module._learned is learned
        """
    )


def test_every_learned_value_covers_its_blocks(fresh_pretokenizer, monkeypatch):
    # a batch or type that passes a value's check class is read by the same
    # value's classes, so every value the builder returns must agree with
    # its blocks: the check class passes them, the punctuation is theirs,
    # the non-lexical class matches exactly their punctuation and Nd
    # digits, and the pattern splits off each of their punctuation marks
    module = sys.modules["morphlens.pretokenize"]
    build = module._Classes
    steps = 0

    def checked(blocks, old=None):
        nonlocal steps
        learned = build(blocks, old)
        size = module._BLOCK
        codes = [c for b in learned.blocks for c in range(b * size, (b + 1) * size)]
        assert sorted(learned.punct) == sorted(filter(_is_punct, map(chr, codes)))
        for ch in map(chr, codes):
            assert learned.unclassified.search(ch) is None, hex(ord(ch))
            nonlexical = _is_punct(ch) or unicodedata.category(ch) == "Nd"
            assert (learned.nonlexical.search(ch) is not None) == nonlexical, hex(ord(ch))
            if _is_punct(ch):
                assert learned.pattern.match(ch + "a").group() == ch, hex(ord(ch))
        steps += 1
        return learned

    monkeypatch.setattr(module, "_Classes", checked)
    lines = ["a«b» c¿d?", "e—f γειά·", "«мир» нет", "的。"]
    for line in lines:
        assert pretokenize_lines([line]) == [_pretokenize_loop(line)]
    # each type holds a character of a block no line had: an Nd digit, a
    # punctuation mark, a letter beside one, and a letter-number
    types = ["x٣", "ab։", "ꙮ꙳", "Ⅳx"]
    for t in types:
        assert is_lexical(t) == _is_lexical_reference(t, "▁"), t
    assert steps == len(lines) + len(types)


def test_learned_pattern_equals_loop_on_every_code_point():
    # one long line per 4,096-code-point block and context keeps the pattern
    # calls few; a cold process, so the class is learned block by block and
    # the learned state leaves with it
    _run_cold(
        """
        for lo in range(0, 0x110000, 0x1000):
            chars = [chr(c) for c in range(lo, lo + 0x1000) if not 0xD800 <= c < 0xE000]
            # each character alone, then between letters
            for line in (" ".join(chars), "a" + "a".join(chars) + "a"):
                assert pretokenize(line) == _pretokenize_loop(line), hex(lo)
        """
    )


def test_learning_order_in_a_fresh_interpreter():
    _run_cold(
        """
        module = sys.modules["morphlens.pretokenize"]
        start = module._learned.pattern
        lines = [
            "привет мир, как дела",  # new letters only: no recompile
            "a«b» c¿d? e—f",  # then new punctuation marks
            "γειά«σου»κόσμε· नमस्ते। «мир»",  # then new letters and punctuation
        ]
        for k, line in enumerate(lines):
            assert pretokenize(line) == _pretokenize_loop(line), line
            assert (module._learned.pattern is start) == (k == 0), line
        for line in lines:
            assert pretokenize(line) == _pretokenize_loop(line), line
        """
    )


def test_learning_from_four_threads():
    # Each thread splits its own script from a cold start, so the threads
    # learn at once. Then, all letters known, they all meet the same new
    # punctuation marks in the same order: a thread that finds a mark
    # already known must also find a pattern that covers it. Last, they all
    # ask `is_lexical` about the same characters of blocks no line had, in
    # the same order, which holds for the non-lexical class too. A tiny
    # switch interval interleaves the threads finely.
    _run_cold(
        """
        import random, threading
        from morphlens.pretokenize import is_lexical
        sys.setswitchinterval(1e-6)
        scripts = [
            ("абвгдежзийклмнопрстуфхцчшщъыьэюя", "«»„“…"),
            ("ابتثجحخدذرزسشصضطظعغفقكلمنهوي", "،؛؟٪«»"),
            ("कखगघङचछजझञटठडढणतथदधनपफबभमयरलवशषसह", "।॥॰"),
            ("的一是不了人我在有他这中大来上国个到说们", "。、「」『』〈〉"),
        ]
        shared = "‐‑‒–—―‖‗‘’‚‛”‟†‡•‣․‥‧‰‱′″‴‵‶‷‸‹›※‼‽‾‿⁀⁁⁂⁃⁅⁆⁇⁈⁉⁊⁋⁌⁍⁎⁏⁐⁑⁓⁔⁕⁖⁗⁘⁙⁚⁛⁜⁝⁞"
        # Nd digits, punctuation marks, letters, a letter-number and a
        # symbol, each from a block that no line has, the last three outside
        # the BMP
        fresh = "৩๓᠐０։።។༄！\u037eაꙮ꙳Ⅳ𝟎𒑰😀"
        barrier = threading.Barrier(len(scripts), timeout=60)
        failures = []

        def split(seed, letters, punct):
            rng = random.Random(seed)
            own = [
                " ".join(
                    "".join(rng.choice(letters + punct + "a.") for _ in range(rng.randint(1, 6)))
                    for _ in range(rng.randint(1, 12))
                )
                for _ in range(400)
            ]
            word = letters[:3]
            mixed = [word + mark + word for mark in shared]
            for lines in (own, mixed):
                barrier.wait()
                for line in lines:
                    if pretokenize(line) != _pretokenize_loop(line):
                        failures.append(line)
            # "½" (No) keeps each type off the letters-only shortcut
            types = [word + ch + "½" for ch in fresh]
            barrier.wait()
            for t in types:
                if is_lexical(t) != _is_lexical_reference(t, "▁"):
                    failures.append(t)

        threads = [
            threading.Thread(target=split, args=(seed, *script))
            for seed, script in enumerate(scripts)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
        assert not failures, failures[:5]
        """
    )


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


def test_is_lexical_on_every_code_point(fresh_pretokenizer):
    # reference scan straight over the Unicode category table, from ASCII
    # alone, so `is_lexical` learns every other block itself: from one type
    # per 4,096 code points, whose answer is checked too, which keeps the
    # learning steps few; then each code point is read alone
    for lo in range(0, sys.maxunicode + 1, 0x1000):
        chars = [chr(cp) for cp in range(lo, lo + 0x1000)]
        expected = []
        for ch in chars:
            cat = unicodedata.category(ch)
            # the marker is stripped before classification
            expected.append(ch == "▁" or not (cat.startswith("P") or cat == "Nd"))
        assert is_lexical("".join(chars), "") == all(expected), hex(lo)
        for ch, lexical in zip(chars, expected):
            assert is_lexical(ch) == lexical, hex(ord(ch))


def test_isalpha_is_category_letter_on_every_code_point():
    # `is_lexical` answers a string for which `isalpha()` holds at once, so
    # every such character must be a letter, never P* or Nd
    for cp in range(sys.maxunicode + 1):
        ch = chr(cp)
        assert ch.isalpha() == unicodedata.category(ch).startswith("L"), hex(cp)


def _is_lexical_reference(s: str, marker: str) -> bool:
    stripped = s.lstrip(marker) if marker else s
    for ch in stripped:
        cat = unicodedata.category(ch)
        if cat.startswith("P") or cat == "Nd":
            return False
    return True


@given(
    markers=st.integers(0, 2),
    # letters, Nd and No digits, punctuation, math symbols and the marker
    body=st.text(alphabet="aZжλ7٣½²!«_-+<▁", max_size=8),
    marker=st.sampled_from(["▁", "_", ""]),
)
@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_is_lexical_strings_cold_and_warm_cache(fresh_pretokenizer, markers, body, marker):
    s = "▁" * markers + body
    expected = _is_lexical_reference(s, marker)
    fresh_pretokenizer()
    assert is_lexical(s, marker) == expected  # cold: only ASCII classified
    for ch in s:
        is_lexical(ch, "")
    assert is_lexical(s, marker) == expected  # warm: every block classified


def test_import_classifies_no_character():
    _run_cold(
        """
        import morphlens
        assert sys.modules["morphlens.pretokenize"]._learned.blocks == {0}
        """
    )
