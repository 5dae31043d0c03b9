"""Line-oriented UTF-8 corpus handling: streaming reads, reservoir sampling,
size statistics, and byte premiums.

A corpus is one sentence per line, read and decoded a batch of
`BATCH_LINES` lines at a time. Both "\n" and "\r\n" terminators are
accepted, and a last line with no "\n" also loses a trailing "\r"; any other
"\r" stays in its line. Terminators never count towards any statistic.
Invalid UTF-8 is a hard error (byte premiums and character counts must be
exact).
"""

from __future__ import annotations

import os
from itertools import chain, islice
from typing import Iterable, Iterator, List, Optional, Type, Union

from .pretokenize import pretokenize_lines


class InputError(Exception):
    """Base of the errors that bad input data raises (a corpus, a vocabulary,
    a reference list, a column of numbers, or no usable tokens): the
    command line ends such an error with a one-line message and exit 1."""


class CorpusError(InputError):
    """Raised for unreadable files or invalid UTF-8 input."""


_MASK64 = (1 << 64) - 1

# Lines handed from the corpus to the accumulators at a time.
BATCH_LINES = 256


class SplitMix64:
    """Tiny seeded 64-bit PRNG (splitmix64).

    Used for reservoir sampling so that samples are reproducible across
    implementations: the algorithm is fully specified by Steele et al.'s
    splitmix64 reference (gamma 0x9E3779B97F4A7C15, two xor-shift-multiply
    rounds), independent of any language runtime.
    """

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def randint_below(self, bound: int) -> int:
        """Uniform integer in [0, bound) by rejection (no modulo bias)."""
        limit = _MASK64 + 1 - ((_MASK64 + 1) % bound)
        while True:
            x = self.next_u64()
            if x < limit:
                return x % bound


def _split_lines(text: str) -> List[str]:
    """The lines of decoded text, without their "\n" or "\r\n" terminators.
    A last line with no "\n" also loses a trailing "\r"."""
    lines = text.replace("\r\n", "\n").split("\n")
    last = lines.pop()
    if last:
        lines.append(last[:-1] if last.endswith("\r") else last)
    return lines


def _read_batches(path: Union[str, os.PathLike]) -> Iterator[List[str]]:
    offset = 0
    try:
        with open(path, "rb") as f:
            # file iteration splits only at b"\n", which is never part of a
            # multi-byte character, so each batch decodes on its own
            while raw := b"".join(islice(f, BATCH_LINES)):
                try:
                    lines = _split_lines(raw.decode("utf-8"))
                except UnicodeDecodeError as e:
                    # the lines before the bad one come first
                    good = raw[: raw.rfind(b"\n", 0, e.start) + 1]
                    if good:
                        yield _split_lines(good.decode("utf-8"))
                    raise CorpusError(f"{path}: invalid UTF-8 at byte offset {offset + e.start}") from e
                offset += len(raw)
                del raw  # not held while the batch is in use
                yield lines
    except OSError as e:
        raise CorpusError(f"cannot read corpus {path!r}: {e}") from e


class Corpus:
    """A deterministic, re-iterable source of text lines.

    Backed either by a file path (streamed, never fully loaded) or by an
    in-memory list of lines (e.g. the result of sampling).
    """

    def __init__(
        self, path: Optional[Union[str, os.PathLike]] = None, _lines: Optional[List[str]] = None
    ) -> None:
        self.path = path
        self._lines = _lines

    def batches(self) -> Iterator[List[str]]:
        """Consecutive lists of `BATCH_LINES` lines, the last one shorter.
        When a line fails to decode, the lines before it are yielded first,
        then the error is raised."""
        lines = self._lines
        if lines is None:
            return iter(()) if self.path is None else _read_batches(self.path)
        return (lines[i : i + BATCH_LINES] for i in range(0, len(lines), BATCH_LINES))

    def lines(self) -> Iterator[str]:
        return chain.from_iterable(self.batches())

    def __iter__(self) -> Iterator[str]:
        return self.lines()

    @classmethod
    def from_lines(cls, lines: Iterable[str]) -> "Corpus":
        return cls(path=None, _lines=list(lines))


class CorpusCounts:
    """Corpus size counts: `vars(counts)` is the five counts, in report
    column order. Counts are equal when all five are."""

    def __init__(self) -> None:
        self.ccc = 0  # characters (Unicode scalar values, terminators excluded)
        self.cbc = 0  # UTF-8 bytes, terminators excluded
        self.cwc = 0  # pretokens, 0 when no pretokenizer given
        self.csc = 0  # lines
        self.ctc: Optional[int] = None  # tokens, present only after tokenization

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CorpusCounts):
            return NotImplemented
        return vars(self) == vars(other)

    def __repr__(self) -> str:
        return f"CorpusCounts({', '.join(f'{k}={v!r}' for k, v in vars(self).items())})"

    def add(self, lines: List[str]) -> None:
        """Count a batch of lines: csc, ccc and cbc."""
        text = "".join(lines)
        self.csc += len(lines)
        self.ccc += len(text)
        self.cbc += len(text.encode("utf-8"))


def read_text(path: Union[str, os.PathLike], error: Type[Exception]) -> str:
    """The whole file in one UTF-8 decode, with universal newlines ("\r\n"
    and "\r" read as "\n") and one leading byte order mark dropped. Invalid
    UTF-8 raises `error` with the absolute byte offset of the first bad byte.

    Corpora are read a batch of lines at a time elsewhere and keep a byte
    order mark, so it counts towards their characters and bytes."""
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except UnicodeDecodeError as e:
        # not "utf-8-sig": its offsets would not count the mark's 3 bytes
        raise error(f"{path}: invalid UTF-8 at byte offset {e.start}") from e
    return text[1:] if text.startswith("\ufeff") else text


def read_lines(path: Union[str, os.PathLike]) -> Corpus:
    """Open a corpus for streaming. I/O and decode errors surface lazily,
    on iteration, except for a missing file which fails fast."""
    if not os.path.exists(path):
        raise CorpusError(f"corpus file not found: {path!r}")
    return Corpus(path=path)


def sample_lines(corpus: Corpus, n: int, seed: int) -> Corpus:
    """Uniform sample of n lines without replacement (reservoir strategy).

    Single pass; deterministic per seed; returns all lines when the corpus
    has at most n. Output order is the reservoir order, which equals corpus
    order whenever no replacement occurred.
    """
    if n < 1:
        raise ValueError(f"sample size must be >= 1, got {n}")
    rng = SplitMix64(seed)
    reservoir: List[str] = []
    for i, line in enumerate(corpus.lines()):
        if i < n:
            reservoir.append(line)
        else:
            j = rng.randint_below(i + 1)
            if j < n:
                reservoir[j] = line
    return Corpus.from_lines(reservoir)


def corpus_counts(corpus: Corpus, pretokenized: bool = False) -> CorpusCounts:
    """Count characters, UTF-8 bytes and lines, a batch of lines at a time.
    With `pretokenized`, also count the pretokens `pretokenize` makes (cwc);
    without, cwc stays 0."""
    counts = CorpusCounts()
    for lines in corpus.batches():
        counts.add(lines)
        if pretokenized:
            counts.cwc += sum(map(len, pretokenize_lines(lines)))
    return counts


def byte_premium(target: Corpus, reference: Corpus) -> float:
    """UTF-8 byte ratio cbc(target) / cbc(reference) for parallel text."""
    ref = corpus_counts(reference).cbc
    if ref == 0:
        raise CorpusError("reference corpus has zero bytes")
    return corpus_counts(target).cbc / ref
