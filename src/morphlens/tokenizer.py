"""Unigram-LM subword segmentation: vocabulary loading, Viterbi
maximum-likelihood inference, a greedy longest-match baseline, the one
corpus-to-word-spans pipeline every metric is computed from, and the
`Interner` that gives the accumulators of one pass their shared token ids.

Vocabulary files are UTF-8 TSV `piece<TAB>logprob` (natural log), the
two-column export format of common unigram-LM tokenizer toolkits. Scores are
used as stored; there is no renormalization and no training here.
"""

from __future__ import annotations

import math
import os
import re
from functools import cached_property
from itertools import chain, islice
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple, TypeVar, Union

from .corpus import Corpus, InputError, read_text
from .pretokenize import DEFAULT_MARKER, pretokenize_lines

# Each unknown character costs this much; any cover using fewer unknowns
# always beats one using more, regardless of real piece scores.
_UNK_SCORE = -1.0e6

# `tokenize_corpus` caches at most this many distinct pretokens, or
# whole-line chunks, per call, so memory stays bounded when a corpus keeps
# bringing new word types, and none longer than the key cap: on text without
# spaces a chunk is a whole line, which seldom repeats.
_SEGMENT_CACHE_MAX = 1 << 16
_SEGMENT_CACHE_KEY_MAX = 64

DEFAULT_UNK = "<unk>"

T = TypeVar("T")

_Trie = Dict[str, Tuple["_Trie", Optional[float], Optional[str], str]]


class VocabularyError(InputError):
    """Raised for malformed or inconsistent vocabulary files."""


class Vocabulary:
    """Immutable piece -> natural-log-probability table.

    `boundary_marker` is worked out from the pieces: `DEFAULT_MARKER`
    (U+2581) when any piece contains that character, and None otherwise;
    segmentation then prepends it to pretokens, so third-party vocabularies
    load unchanged. Neither it nor the unknown piece, always `DEFAULT_UNK`
    (`<unk>`), can be configured, so pieces built in code segment exactly as
    the same pieces loaded by `load_vocab`. Empty pieces and non-finite
    scores are rejected.

    Segmentation walks a piece trie built from `pieces` once per instance,
    at the first segmentation, and whole-line mode cuts lines by one rule,
    `_cut`, worked out at its first use, so `pieces` must not be mutated
    after either. Returned pieces are the very string objects held in
    `pieces` (or `unk_piece`).
    """

    unk_piece = DEFAULT_UNK

    def __init__(self, pieces: Dict[str, float]) -> None:
        if not pieces:
            raise VocabularyError("vocabulary is empty")
        if "" in pieces:
            raise VocabularyError("empty piece")
        for piece, score in pieces.items():
            if not math.isfinite(score):
                raise VocabularyError(f"non-finite score {score!r} for piece {piece!r}")
        self.pieces = pieces
        self.boundary_marker = DEFAULT_MARKER if any(DEFAULT_MARKER in p for p in pieces) else None

    @cached_property
    def _trie(self) -> _Trie:
        # A trie node maps a character to its entry (children, score, piece,
        # tail). When a single piece lies below the character, `tail` is the
        # rest of that piece, `score` and `piece` are that piece's, and
        # `children` is one shared empty node. Otherwise `tail` is "", and
        # `score` and `piece` are those of the piece ending at the character,
        # or None when none does. `piece` is the key string of `pieces`.
        pieces = self.pieces
        ordered = sorted(pieces)
        leaf: _Trie = {}
        root: _Trie = {}
        # (node, lo, hi, d): the pieces ordered[lo:hi] share their first d
        # characters, are all longer than d, and go below `node`
        stack = [(root, 0, len(ordered), 0)]
        while stack:
            node, lo, hi, d = stack.pop()
            while lo < hi:
                first = ordered[lo]
                ch = first[d]
                end = lo + 1
                while end < hi and ordered[end][d] == ch:
                    end += 1
                if end - lo == 1:
                    node[ch] = (leaf, pieces[first], first, first[d + 1 :])
                else:
                    children: _Trie = {}
                    if len(first) == d + 1:
                        # sorting puts the piece that ends here first
                        node[ch] = (children, pieces[first], first, "")
                        stack.append((children, lo + 1, end, d + 1))
                    else:
                        node[ch] = (children, None, None, "")
                        stack.append((children, lo, end, d + 1))
                lo = end
        return root

    @cached_property
    def _cut(self) -> Callable[[str], List[str]]:
        # The separator is the boundary marker, or U+0020 without one. When
        # no piece holds it after its first character, no piece covers a
        # separator it does not start with, so every separator is a forced
        # piece boundary and starts a chunk; otherwise a line is one chunk.
        sep = self.boundary_marker or " "
        whole = any(piece.find(sep, 1) > 0 for piece in self.pieces)
        s = re.escape(sep)
        # a pattern's method, unlike a lambda, pickles with the vocabulary
        return re.compile("(?s).+" if whole else f"{s}[^{s}]*|[^{s}]+").findall

    def __len__(self) -> int:
        return len(self.pieces)

    def __contains__(self, piece: str) -> bool:
        return piece in self.pieces


def load_vocab(path: Union[str, os.PathLike]) -> Vocabulary:
    """Load a TSV vocabulary (see `Vocabulary` for its marker). Duplicate
    pieces and non-numeric or non-finite scores are errors, reported with
    their line number; invalid UTF-8 is an error reported with its byte
    offset."""
    pieces: Dict[str, float] = {}
    text = read_text(path, VocabularyError)
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise VocabularyError(
                f"{path}:{lineno}: expected 'piece<TAB>logprob', got {line!r}"
            )
        piece, score_str = parts
        if not piece:
            raise VocabularyError(f"{path}:{lineno}: empty piece")
        if piece in pieces:
            raise VocabularyError(f"{path}:{lineno}: duplicate piece {piece!r}")
        try:
            score = float(score_str)
        except ValueError:
            raise VocabularyError(
                f"{path}:{lineno}: non-numeric score {score_str!r}"
            ) from None
        if not math.isfinite(score):
            raise VocabularyError(f"{path}:{lineno}: non-finite score {score_str!r}")
        pieces[piece] = score
    return Vocabulary(pieces)


def segment_viterbi(pretoken: str, vocab: Vocabulary) -> List[str]:
    """Maximum-likelihood cover of the pretoken by vocabulary pieces.

    Characters no piece covers map to the unknown piece, one per character.
    Ties break deterministically: highest score, then fewest tokens, then
    lexicographically smallest piece sequence.

    A forward lattice walk: from each position it follows the vocabulary's
    piece trie one character at a time, and a tail (the rest of the only
    piece below a trie entry) with one `startswith`, so no candidate
    substring is sliced, and `<unk>` is tried after it. Token counts and
    piece sequences are rebuilt only on an exact score tie.
    """
    text = _with_marker(pretoken, vocab)
    trie = vocab._trie
    unk = vocab.unk_piece
    n = len(text)
    # The best cover of text[:i] found so far scores score[i] and ends with
    # piece_at[i], which starts at back[i]. Pieces only reach rightward, so
    # the cover of text[:j] is final when the walk gets to j. No sentinel is
    # needed: every position gets the finite <unk> candidate from the one
    # before it, so a candidate that overflows to -inf never stays the best.
    score = [-math.inf] * (n + 1)
    back = [0] * (n + 1)
    piece_at = [unk] * (n + 1)
    score[0] = 0.0
    # a character past Latin-1 is a new string, hashed anew, at each
    # text[i]; the list makes one per position for all the walks reading it
    chars = list(text)
    for j in range(n):
        base = score[j]
        node = trie
        i = j
        while i < n:
            entry = node.get(chars[i])
            if entry is None:
                break
            node, ps, piece, tail = entry
            i += 1
            if tail:
                if not text.startswith(tail, i):
                    break
                i += len(tail)
            if ps is None:
                continue
            s = base + ps
            t = score[i]
            if s > t or s == t and _wins(back, piece_at, j, piece, i):
                score[i] = s
                back[i] = j
                piece_at[i] = piece
        # <unk> last, as the winner is the maximum of one total order in any
        # order of arrival, and a one-character piece has mostly won already
        s = base + _UNK_SCORE
        t = score[j + 1]
        if s > t or s == t and _wins(back, piece_at, j, unk, j + 1):
            score[j + 1] = s
            back[j + 1] = j
            piece_at[j + 1] = unk
    return _path(back, piece_at, n)


def _wins(back: List[int], piece_at: List[str], j: int, piece: str, i: int) -> bool:
    """Whether the cover of text[:j] then `piece` beats that of text[:i] at
    an equal score: fewer tokens, then the smaller piece sequence."""
    new = _path(back, piece_at, j) + [piece]
    old = _path(back, piece_at, i)
    return (len(new), new) < (len(old), old)


def _path(back: List[int], piece_at: List[str], i: int) -> List[str]:
    out = []
    while i:
        out.append(piece_at[i])
        i = back[i]
    out.reverse()
    return out


def segment_greedy(pretoken: str, vocab: Vocabulary) -> List[str]:
    """Longest-prefix-match left to right, along the same trie walk as
    `segment_viterbi`; unmatched characters map to the unknown piece."""
    text = _with_marker(pretoken, vocab)
    trie = vocab._trie
    out: List[str] = []
    i = 0
    n = len(text)
    while i < n:
        # the longest piece starting at i and its end, or one unknown character
        longest = vocab.unk_piece
        end = i + 1
        node = trie
        k = i
        while k < n:
            ch = text[k]
            if ch not in node:
                break
            node, ps, piece, tail = node[ch]
            k += 1
            if tail:
                if text.startswith(tail, k):
                    longest = piece
                    end = k + len(tail)
                break
            if ps is not None:
                longest = piece
                end = k
        out.append(longest)
        i = end
    return out


def _with_marker(pretoken: str, vocab: Vocabulary) -> str:
    if not pretoken:
        raise ValueError("pretoken must be nonempty")
    marker = vocab.boundary_marker
    if marker and not pretoken.startswith(marker):
        return marker + pretoken
    return pretoken


def strip_marker(token: str) -> str:
    if token.startswith(DEFAULT_MARKER):
        return token[1:]
    return token


class Interner:
    """Maps token strings to ids 0, 1, 2, ... in first-seen order.

    `ids` is the string -> id dict and `strings` the id -> string list. Fed
    the tokens of a corpus in order, the ids follow `Counter(tokens)` order,
    so anything kept per id and read back in id order is in that order too.
    """

    __slots__ = ("ids", "strings")

    def __init__(self) -> None:
        self.ids: Dict[str, int] = {}
        self.strings: List[str] = []

    def intern(self, pieces: Sequence[str]) -> List[int]:
        """The ids of `pieces`, handing out the next free id to each new one.

        The result is a list, not a tuple: freed small tuples stay in the
        interpreter's tuple free lists, so a freed cache of tuple records
        raised the peak RSS of a two-language `run` by 0.7 MB."""
        ids = self.ids
        try:
            return [ids[piece] for piece in pieces]
        except KeyError:
            pass
        strings = self.strings
        out = []
        for piece in pieces:
            tid = ids.get(piece)
            if tid is None:
                tid = ids[piece] = len(strings)
                strings.append(piece)
            out.append(tid)
        return out


def _pieces(pieces: List[str]) -> List[str]:
    return pieces


class SpanBatch(NamedTuple):
    """The word spans of consecutive corpus lines, in order: `lines[i]` has
    the next `spans_per_line[i]` spans of `texts` and `records`."""

    lines: List[str]
    texts: List[str]
    records: List[list]
    spans_per_line: List[int]


def tokenize_corpus(
    corpus: Corpus,
    vocab: Vocabulary,
    pretokenized: bool = True,
    greedy: bool = False,
    record: Callable[[List[str]], List[T]] = _pieces,
) -> Iterator[SpanBatch]:
    """Yield the corpus as `SpanBatch`es of `corpus.BATCH_LINES` lines (the
    last one shorter): the lines, flat lists of the texts and the records of
    all their word spans, and how many spans each line has. A span's record
    is `record(pieces)`, which defaults to the pieces list itself; the
    accumulators pass an `Interner.intern`, so each span carries its type
    ids. Characters no piece covers become `<unk>` pieces, one per
    character. When a line fails to read, the batch of the lines before it
    is yielded first, then the error is raised.

    Both modes share one batch step: each line's spans give cache keys, and
    one lookup records the keys of the whole batch. Each distinct key is
    segmented and recorded once per call, in corpus order, and equal keys
    share that cached record, so callers must not mutate it. The cache holds
    no key longer than a fixed number of characters and stops growing at a
    fixed number of distinct keys; the others are segmented and recorded at
    every occurrence. It is freed when the generator is exhausted.

    Pretokenized mode gives one span per pretoken, its one key, segmented on
    its own (bigram statistics then stay within words).

    Otherwise a nonempty line is one span whose text is the line with every
    U+0020 space (and no other whitespace) rewritten to the boundary marker
    `▁` when the vocabulary uses it; an empty line has no spans. Its keys are
    the chunks that `Vocabulary._cut`, the one cut rule, makes of that text
    with the marker prepended, and its record is the concatenation of their
    records. Each separator (the marker, or U+0020 without one) starts a
    chunk, as no piece can cross one, unless some piece holds the separator
    after its first character; then the whole line is one chunk.
    A chunk's scores are summed from 0, not from the line's score so far, so
    where two covers of a chunk tie or nearly tie (the same pieces in
    another order, say), one `segment_viterbi` call on the whole line can
    round them apart and pick the other one. With exactly representable
    sums, such as integer scores, the two always agree, and
    greedy segmentation always agrees with one call per line.
    """
    # module globals read at call time, so rebinding them takes effect
    segment = segment_greedy if greedy else segment_viterbi
    marker = vocab.boundary_marker
    # only whole-line mode cuts lines, so only it needs the cut rule (a scan
    # of every piece)
    cut = None if pretokenized else vocab._cut
    cache: Dict[str, List[T]] = {}

    def make(key: str) -> List[T]:
        return record(segment(key, vocab))

    for lines in corpus.batches():
        # the cache keys of each line's spans: its pretokens, or the chunks
        # of each nonempty line
        if pretokenized:
            keys = pretokenize_lines(lines)
        else:
            texts = [line.replace(" ", marker) if marker else line for line in lines if line]
            keys = [cut(_with_marker(text, vocab)) for text in texts]
        flat = list(chain.from_iterable(keys))
        records = _records(flat, cache, make)
        if pretokenized:
            yield SpanBatch(lines, flat, records, list(map(len, keys)))
        else:
            found = iter(records)
            records = [list(chain.from_iterable(islice(found, len(chunks)))) for chunks in keys]
            yield SpanBatch(lines, texts, records, [1 if line else 0 for line in lines])


def _records(
    keys: List[str], cache: Dict[str, List[T]], make: Callable[[str], List[T]]
) -> List[List[T]]:
    """The records of `keys`, in order, from `cache`. Misses are made and
    cached in key order, so records are made in the order one key at a time
    would make them. Only keys of at most `_SEGMENT_CACHE_KEY_MAX`
    characters are cached, and the cache stops growing at
    `_SEGMENT_CACHE_MAX` entries."""
    records = list(map(cache.get, keys))
    i = 0
    while True:
        try:
            i = records.index(None, i)
        except ValueError:  # no miss left
            return records
        key = keys[i]
        # an earlier miss among these keys may have cached it
        rec = cache.get(key)
        if rec is None:
            rec = make(key)
            if len(key) <= _SEGMENT_CACHE_KEY_MAX and len(cache) < _SEGMENT_CACHE_MAX:
                cache[key] = rec
        records[i] = rec
        i += 1
