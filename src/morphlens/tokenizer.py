"""Unigram-LM subword segmentation: vocabulary loading, Viterbi
maximum-likelihood inference, a greedy longest-match baseline, and the one
corpus-to-word-spans pipeline every metric is computed from.

Vocabulary files are UTF-8 TSV `piece<TAB>logprob` (natural log), the
two-column export format of common unigram-LM tokenizer toolkits. Scores are
used as stored; there is no renormalization and no training here.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple, Union

from .corpus import Corpus, read_text
from .pretokenize import DEFAULT_MARKER, pretokenize

# Each unknown character costs this much; any cover using fewer unknowns
# always beats one using more, regardless of real piece scores.
_UNK_SCORE = -1.0e6

DEFAULT_UNK = "<unk>"


class VocabularyError(Exception):
    """Raised for malformed or inconsistent vocabulary files."""


@dataclass
class Vocabulary:
    """Immutable piece -> natural-log-probability table.

    `boundary_marker` is auto-detected on load: if any piece contains the
    marker character, segmentation prepends it to pretokens so third-party
    vocabularies load unchanged.
    """

    pieces: Dict[str, float]
    unk_piece: str = DEFAULT_UNK
    boundary_marker: Optional[str] = None
    _max_piece_len: int = field(init=False, repr=False)

    def __post_init__(self):
        if not self.pieces:
            raise VocabularyError("vocabulary is empty")
        self._max_piece_len = max(len(p) for p in self.pieces)

    def __len__(self) -> int:
        return len(self.pieces)

    def __contains__(self, piece: str) -> bool:
        return piece in self.pieces


def load_vocab(
    path: Union[str, os.PathLike],
    unk_piece: str = DEFAULT_UNK,
    marker: str = DEFAULT_MARKER,
) -> Vocabulary:
    """Load a TSV vocabulary. Duplicate pieces and non-numeric or non-finite
    scores are errors, reported with their line number; invalid UTF-8 is an
    error reported with its byte offset."""
    pieces: Dict[str, float] = {}
    uses_marker = False
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
        if marker in piece:
            uses_marker = True
    return Vocabulary(
        pieces=pieces,
        unk_piece=unk_piece,
        boundary_marker=marker if uses_marker else None,
    )


def segment_viterbi(pretoken: str, vocab: Vocabulary) -> List[str]:
    """Maximum-likelihood cover of the pretoken by vocabulary pieces.

    Characters no piece covers map to the unknown piece, one per character.
    Ties break deterministically: highest score, then fewest tokens, then
    lexicographically smallest piece sequence.
    """
    if not pretoken:
        raise ValueError("pretoken must be nonempty")
    text = _with_marker(pretoken, vocab)
    pieces = vocab.pieces
    max_len = vocab._max_piece_len
    unk = vocab.unk_piece
    # best[i] covers text[:i] as (score, n_tokens, piece_tuple). Every prefix
    # has a cover, at worst the one of text[:i-1] plus one unknown piece, and
    # _better is a strict total order, so the visit order does not matter.
    best: List[Tuple[float, int, Tuple[str, ...]]] = [(0.0, 0, ())]
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


def _better(a: Tuple[float, int, Tuple[str, ...]], b: Tuple[float, int, Tuple[str, ...]]) -> bool:
    if a[0] != b[0]:
        return a[0] > b[0]
    if a[1] != b[1]:
        return a[1] < b[1]
    return a[2] < b[2]


def segment_greedy(pretoken: str, vocab: Vocabulary) -> List[str]:
    """Longest-prefix-match left to right; unmatched characters map to the
    unknown piece."""
    if not pretoken:
        raise ValueError("pretoken must be nonempty")
    text = _with_marker(pretoken, vocab)
    pieces = vocab.pieces
    max_len = vocab._max_piece_len
    out: List[str] = []
    i = 0
    n = len(text)
    while i < n:
        match = None
        for length in range(min(max_len, n - i), 0, -1):
            piece = text[i : i + length]
            if piece in pieces:
                match = piece
                break
        if match is None:
            out.append(vocab.unk_piece)
            i += 1
        else:
            out.append(match)
            i += len(match)
    return out


def _with_marker(pretoken: str, vocab: Vocabulary) -> str:
    marker = vocab.boundary_marker
    if marker and not pretoken.startswith(marker):
        return marker + pretoken
    return pretoken


def strip_marker(token: str, marker: Optional[str]) -> str:
    if marker and token.startswith(marker):
        return token[len(marker) :]
    return token


def tokenize_corpus(
    corpus: Corpus,
    vocab: Vocabulary,
    pretokenized: bool = True,
    greedy: bool = False,
) -> Iterator[Tuple[str, List[Tuple[str, List[str]]]]]:
    """Yield one `(line, spans)` pair per corpus line, where `spans` lists the
    line's word spans in order as `(text, pieces)` pairs.

    Pretokenized mode gives one span per pretoken, segmented on its own
    (bigram statistics then stay within words). Equal pretokens share one
    cached pieces list per call, so callers must not mutate it.

    Otherwise a nonempty line is one span whose text is the line with every
    U+0020 space (and no other whitespace) rewritten to the boundary marker
    when the vocabulary uses one; an empty line has no spans.
    """
    # module globals read at call time, so rebinding them takes effect
    segment = segment_greedy if greedy else segment_viterbi
    if pretokenized:
        cache: Dict[str, List[str]] = {}
        for line in corpus.lines():
            spans = []
            for pretoken in pretokenize(line):
                pieces = cache.get(pretoken)
                if pieces is None:
                    pieces = cache[pretoken] = segment(pretoken, vocab)
                spans.append((pretoken, pieces))
            yield line, spans
    else:
        marker = vocab.boundary_marker
        for line in corpus.lines():
            if not line:
                yield line, []
                continue
            text = line.replace(" ", marker) if marker else line
            yield line, [(text, segment(text, vocab))]
