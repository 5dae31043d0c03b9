import math
import os
import tempfile
from itertools import islice

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from morphlens.corpus import (
    BATCH_LINES,
    Corpus,
    CorpusCounts,
    CorpusError,
    byte_premium,
    corpus_counts,
    read_lines,
    read_text,
    sample_lines,
)


def write(tmp_path, name, data):
    p = tmp_path / name
    if isinstance(data, bytes):
        p.write_bytes(data)
    else:
        p.write_text(data, encoding="utf-8")
    return p


def test_read_two_lines(tmp_path):
    p = write(tmp_path, "c.txt", "a\nb\n")
    assert list(read_lines(p)) == ["a", "b"]


def test_read_empty_file(tmp_path):
    p = write(tmp_path, "c.txt", "")
    assert list(read_lines(p)) == []


def test_read_crlf_and_missing_trailing_newline(tmp_path):
    p = write(tmp_path, "c.txt", b"a\r\nb")
    assert list(read_lines(p)) == ["a", "b"]


def test_invalid_utf8_reports_offset(tmp_path):
    p = write(tmp_path, "c.txt", b"ok\n\xffrest\n")
    with pytest.raises(CorpusError, match="byte offset 3"):
        list(read_lines(p))


def test_read_text_universal_newlines(tmp_path):
    p = write(tmp_path, "c.txt", b"a\r\nb\rc\nd")
    assert read_text(p, CorpusError) == "a\nb\nc\nd"


def test_read_text_offset_is_absolute(tmp_path):
    # past the 8 KiB read buffer, so a chunked decode would report a
    # chunk-relative offset
    p = write(tmp_path, "c.txt", b"ab\r\n" * 5000 + b"\xe2\x82")
    with pytest.raises(ValueError, match=r"c\.txt: invalid UTF-8 at byte offset 20000$"):
        read_text(p, ValueError)


def test_read_text_drops_byte_order_mark(tmp_path):
    p = write(tmp_path, "c.txt", b"\xef\xbb\xbfab\n\xef\xbb\xbf")
    assert read_text(p, CorpusError) == "ab\n\ufeff"  # only the leading one
    # a corpus keeps it, so its characters and bytes are counted
    assert list(read_lines(p)) == ["\ufeffab", "\ufeff"]
    assert corpus_counts(read_lines(p)).cbc == 8


def test_read_text_offset_counts_byte_order_mark(tmp_path):
    p = write(tmp_path, "c.txt", b"\xef\xbb\xbfab\r\nc\xff")
    with pytest.raises(ValueError, match=r"invalid UTF-8 at byte offset 8$"):
        read_text(p, ValueError)


def test_missing_file_fails_fast(tmp_path):
    with pytest.raises(CorpusError, match="not found"):
        read_lines(tmp_path / "nope.txt")


def test_corpus_counts_attributes_and_equality():
    # the benchmark reads `vars(counts)` as the five counts, in column order
    counts = CorpusCounts()
    assert list(vars(counts)) == ["ccc", "cbc", "cwc", "csc", "ctc"]
    assert counts == CorpusCounts()
    counts.add(["ab", "é"])
    assert vars(counts) == {"ccc": 3, "cbc": 4, "cwc": 0, "csc": 2, "ctc": None}
    assert counts != CorpusCounts()
    assert counts == corpus_counts(Corpus.from_lines(["ab", "é"]))
    assert counts != vars(counts)


def test_sample_all_lines_in_order():
    corpus = Corpus.from_lines([str(i) for i in range(10)])
    assert list(sample_lines(corpus, 10, seed=1)) == [str(i) for i in range(10)]


def test_sample_deterministic():
    corpus = Corpus.from_lines([str(i) for i in range(1000)])
    a = list(sample_lines(corpus, 10, seed=7))
    b = list(sample_lines(corpus, 10, seed=7))
    assert a == b
    assert len(set(a)) == 10


def test_sample_idempotent_set():
    corpus = Corpus.from_lines([str(i) for i in range(1000)])
    once = sample_lines(corpus, 50, seed=3)
    twice = sample_lines(once, 50, seed=99)
    assert set(twice) == set(once)


@pytest.mark.slow
def test_sample_uniformity_monte_carlo():
    # each of 1000 lines should be picked with frequency near 0.1 across
    # 10000 seeds when sampling n=100.  Per-line frequency has binomial
    # sd sqrt(0.1*0.9/10000) ~= 0.003, and the worst of 1000 lines lands
    # around 3.3 sd, so bound the max deviation at 5 sd and the mean
    # absolute deviation (expected ~0.8 sd) much tighter.
    n_lines, n, seeds = 1000, 100, 10000
    corpus = Corpus.from_lines([str(i) for i in range(n_lines)])
    hits = [0] * n_lines
    for seed in range(seeds):
        for line in sample_lines(corpus, n, seed=seed):
            hits[int(line)] += 1
    freqs = [h / seeds for h in hits]
    sd = math.sqrt(0.1 * 0.9 / seeds)
    assert max(abs(f - 0.1) for f in freqs) <= 5 * sd, (min(freqs), max(freqs))
    assert sum(abs(f - 0.1) for f in freqs) / n_lines <= 1.5 * sd


def test_counts_ascii_line():
    c = corpus_counts(Corpus.from_lines(["ab cd"]), pretokenized=True)
    assert (c.ccc, c.cbc, c.csc, c.cwc) == (5, 5, 1, 2)


def test_counts_two_byte_scalar():
    c = corpus_counts(Corpus.from_lines(["é"]))
    assert (c.ccc, c.cbc, c.csc) == (1, 2, 1)


def test_counts_three_lines():
    c = corpus_counts(Corpus.from_lines(["x y", "z", ""]), pretokenized=True)
    assert c.csc == 3
    assert c.cwc == 3


def test_counts_without_pretokenizer_leaves_cwc_zero():
    c = corpus_counts(Corpus.from_lines(["x y z"]))
    assert c.cwc == 0


def test_cbc_geq_ccc_equality_iff_ascii():
    ascii_c = corpus_counts(Corpus.from_lines(["plain ascii"]))
    assert ascii_c.cbc == ascii_c.ccc
    uni_c = corpus_counts(Corpus.from_lines(["naïve"]))
    assert uni_c.cbc > uni_c.ccc


def test_byte_premium_self_ratio():
    c = Corpus.from_lines(["hello", "world"])
    assert byte_premium(c, c) == 1.0


def test_byte_premium_three_to_one():
    target = Corpus.from_lines(["x" * 30])
    reference = Corpus.from_lines(["y" * 10])
    assert byte_premium(target, reference) == 3.0


def test_byte_premium_greek_vs_latin():
    # terminators are excluded from byte counts, consistently with cbc
    target = Corpus.from_lines(["αβ"])  # 4 bytes
    reference = Corpus.from_lines(["ab"])  # 2 bytes
    assert byte_premium(target, reference) == pytest.approx(2.0)


def test_byte_premium_empty_reference_errors():
    with pytest.raises(CorpusError):
        byte_premium(Corpus.from_lines(["a"]), Corpus.from_lines([]))


# --- the batch reader against a line-at-a-time oracle -----------------------


def oracle_lines(path):
    """The corpus lines one at a time: each raw line loses a "\n", then a
    "\r", and is decoded on its own."""
    offset = 0
    with open(path, "rb") as f:
        for raw in f:
            stripped = raw[:-1] if raw.endswith(b"\n") else raw
            stripped = stripped[:-1] if stripped.endswith(b"\r") else stripped
            try:
                yield stripped.decode("utf-8")
            except UnicodeDecodeError as e:
                raise CorpusError(f"{path}: invalid UTF-8 at byte offset {offset + e.start}") from e
            offset += len(raw)


def oracle_batches(lines):
    """`BATCH_LINES` lines at a time; the lines read before an error come
    first."""
    while True:
        batch = []
        try:
            batch.extend(islice(lines, BATCH_LINES))
        except CorpusError:
            if batch:
                yield batch
            raise
        if not batch:
            return
        yield batch


def drain(items):
    """(the items yielded, the message of the CorpusError raised after them
    or None)."""
    out = []
    try:
        for item in items:
            out.append(item)
    except CorpusError as e:
        return out, str(e)
    return out, None


PIECES = [b"a", b" ", b"\n", b"\r", b"\r\n", "é".encode(), "中".encode(), "\ufeff".encode()]
BAD = [b"\xff", b"\x80"]


@given(
    block=st.lists(st.sampled_from(PIECES), max_size=12).map(lambda p: b"".join(p) + b"\n"),
    repeat=st.integers(0, 3 * BATCH_LINES),
    tail=st.lists(st.sampled_from(PIECES + BAD), max_size=30).map(b"".join),
)
# a bad byte on the first line of the second batch, and on an unterminated
# last line
@example(block=b"a\r\n", repeat=BATCH_LINES, tail=b"\xff\n")
@example(block=b"\xc3\xa9\n", repeat=2 * BATCH_LINES + 3, tail=b"a\r\x80")
@settings(max_examples=300, deadline=None)
def test_batches_match_line_at_a_time_oracle(block, repeat, tail):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "c.txt")
        with open(path, "wb") as f:
            f.write(block * repeat + tail)
        batches, error = drain(Corpus(path).batches())
        assert (batches, error) == drain(oracle_batches(oracle_lines(path)))
        assert drain(Corpus(path).lines()) == drain(oracle_lines(path))
    assert all(len(batch) == BATCH_LINES for batch in batches[:-1])
