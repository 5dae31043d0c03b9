"""Evaluate subword segmentations against reference morphological
segmentations.

Boundaries are character offsets interior to the word; word edges never
count. Full alignment is micro-averaged boundary precision/recall/F1.
MorphScore-style evaluation checks the single stem-suffix boundary per word,
with two treatments of words that are themselves vocabulary pieces.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass
from itertools import accumulate
from typing import Callable, Dict, FrozenSet, Iterable, List, Sequence, Tuple, Union

from .corpus import InputError, read_text
from .tokenizer import DEFAULT_UNK, Vocabulary, strip_marker

Segmenter = Callable[[str], Sequence[str]]

EXCLUDE_VOCAB = "exclude_vocab"
CREDIT_VOCAB = "credit_vocab"


class MorphEvalError(InputError):
    pass


@dataclass(frozen=True)
class SegmentationRef:
    word: str
    morphs: Tuple[str, ...]

    def boundaries(self) -> FrozenSet[int]:
        """Cumulative morph-end offsets, excluding 0 and len(word)."""
        return _interior_offsets(map(len, self.morphs))


def _interior_offsets(lengths: Iterable[int]) -> FrozenSet[int]:
    """The end offsets of consecutive parts of these lengths that fall inside
    the word, 0 < offset < total: an empty part never adds an edge."""
    ends = list(accumulate(lengths))
    return frozenset(end for end in ends if 0 < end < ends[-1])


@dataclass
class AlignmentResult:
    tp: int
    pred_total: int
    ref_total: int

    @property
    def precision(self) -> float:
        return self.tp / self.pred_total if self.pred_total else 0.0

    @property
    def recall(self) -> float:
        return self.tp / self.ref_total if self.ref_total else 0.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if p + r else 0.0


@dataclass
class RefLoadResult:
    refs: List[SegmentationRef]
    rejected: int  # entries whose morph concatenation did not match the word


def load_refs(path: Union[str, os.PathLike]) -> RefLoadResult:
    """Parse a TSV of `word<TAB>morph1|morph2|...`. Entries whose morphs do
    not concatenate to the word are skipped and tallied, not repaired;
    invalid UTF-8 is an error reported with its byte offset."""
    refs: List[SegmentationRef] = []
    rejected = 0
    for line in read_text(path, MorphEvalError).split("\n"):
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 2 or not parts[0] or not parts[1]:
            rejected += 1
            continue
        word, morph_field = parts
        morphs = tuple(m for m in morph_field.split("|") if m)
        if not morphs or "".join(morphs) != word:
            rejected += 1
            continue
        refs.append(SegmentationRef(word=word, morphs=morphs))
    return RefLoadResult(refs=refs, rejected=rejected)


def predicted_boundaries(tokens: Sequence[str]) -> FrozenSet[int]:
    """Cumulative token-end offsets (markers stripped), word edges excluded;
    an `<unk>` token stands for the one character it covers."""
    return _interior_offsets(1 if t == DEFAULT_UNK else len(strip_marker(t)) for t in tokens)


def _tally(pairs: Iterable[Tuple[FrozenSet[int], FrozenSet[int]]]) -> AlignmentResult:
    """Boundary counts summed over (predicted, reference) pairs of sets."""
    tp = pred_total = ref_total = 0
    for pred, ref in pairs:
        tp += len(pred & ref)
        pred_total += len(pred)
        ref_total += len(ref)
    return AlignmentResult(tp=tp, pred_total=pred_total, ref_total=ref_total)


def eval_full(segmenter: Segmenter, refs: Sequence[SegmentationRef]) -> AlignmentResult:
    """Micro-averaged boundary precision/recall/F1 over all words.

    Words with several references (same surface, different segmentations)
    are scored against their max-F1 reference.
    """
    if not refs:
        raise MorphEvalError("reference list is empty")
    by_word: Dict[str, List[SegmentationRef]] = {}
    for ref in refs:
        by_word.setdefault(ref.word, []).append(ref)
    pairs = []
    for word, candidates in by_word.items():
        pred = predicted_boundaries(segmenter(word))
        best = max((c.boundaries() for c in candidates), key=lambda ref: _tally([(pred, ref)]).f1)
        pairs.append((pred, best))
    return _tally(pairs)


@dataclass
class SubsetRefs:
    stem_suffix: List[SegmentationRef]
    suffix_suffix: List[SegmentationRef]


def derive_subsets(refs: Sequence[SegmentationRef]) -> SubsetRefs:
    """From words with at least three morphs, derive one reference set
    keeping only the first (stem-suffix) boundary and one keeping all other
    (suffix-suffix) boundaries."""
    stem_suffix: List[SegmentationRef] = []
    suffix_suffix: List[SegmentationRef] = []
    for ref in refs:
        if len(ref.morphs) < 3:
            continue
        stem, rest = ref.morphs[0], "".join(ref.morphs[1:])
        stem_suffix.append(SegmentationRef(ref.word, (stem, rest)))
        suffix_suffix.append(SegmentationRef(ref.word, (stem + ref.morphs[1],) + ref.morphs[2:]))
    return SubsetRefs(stem_suffix=stem_suffix, suffix_suffix=suffix_suffix)


@dataclass
class MorphScoreResult:
    recall: float
    precision: float
    f1: float
    n_evaluated: int
    n_skipped: int  # words left untested in exclude_vocab mode


def morphscore(
    segmenter: Segmenter,
    refs: Sequence[SegmentationRef],
    vocab: Vocabulary,
    mode: str = EXCLUDE_VOCAB,
) -> MorphScoreResult:
    """Stem-suffix boundary evaluation in the two vocabulary modes: in-vocab
    words are either left untested (exclude_vocab) or scored as if predicted
    exactly (credit_vocab). Each reference must carry exactly one boundary;
    precision, recall and F1 are micro-averaged over the words tested.
    """
    if mode not in (EXCLUDE_VOCAB, CREDIT_VOCAB):
        raise MorphEvalError(f"unknown mode {mode!r}")
    if not refs:
        raise MorphEvalError("reference list is empty")
    pairs = []
    for ref in refs:
        bounds = ref.boundaries()
        if len(bounds) != 1:
            raise MorphEvalError(
                f"morphscore reference {ref.word!r} has {len(bounds)} boundaries, expected 1"
            )
        in_vocab = ref.word in vocab or (
            vocab.boundary_marker and (vocab.boundary_marker + ref.word) in vocab
        )
        if in_vocab and mode == EXCLUDE_VOCAB:
            continue
        pred = bounds if in_vocab else predicted_boundaries(segmenter(ref.word))
        pairs.append((pred, bounds))
    totals = _tally(pairs)
    return MorphScoreResult(
        recall=totals.recall,
        precision=totals.precision,
        f1=totals.f1,
        n_evaluated=len(pairs),
        n_skipped=len(refs) - len(pairs),
    )


# `align` modes in `--mode` choice order; MorphScore modes map to their
# treatment of in-vocabulary words
_MORPHSCORE_MODES = {"morphscore-exclude": EXCLUDE_VOCAB, "morphscore-credit": CREDIT_VOCAB}
MODES = ["full", *_MORPHSCORE_MODES, "stem-suffix", "suffix-suffix"]


def evaluate(
    mode: str, segmenter: Segmenter, loaded: RefLoadResult, vocab: Vocabulary
) -> List[Tuple[str, Union[int, float]]]:
    """Score `segmenter` in one of `MODES`, as ordered (name, value) pairs.
    `full` scores every reference, `stem-suffix` and `suffix-suffix` the
    `derive_subsets` sets; the MorphScore modes score the stem-suffix set,
    or the two-morph references when it is empty."""
    if mode not in MODES:
        raise MorphEvalError(f"unknown mode {mode!r}")
    subsets = derive_subsets(loaded.refs)
    if mode in _MORPHSCORE_MODES:
        refs = subsets.stem_suffix or [r for r in loaded.refs if len(r.boundaries()) == 1]
        if not refs:
            raise MorphEvalError("no single-boundary references available")
        return list(asdict(morphscore(segmenter, refs, vocab, _MORPHSCORE_MODES[mode])).items())
    refs = {"full": loaded.refs, "stem-suffix": subsets.stem_suffix,
            "suffix-suffix": subsets.suffix_suffix}[mode]
    if not refs:
        raise MorphEvalError("no usable references for mode " + mode)
    result = eval_full(segmenter, refs)
    keys = ("precision", "recall", "f1", "tp", "pred_total", "ref_total")
    return [(key, getattr(result, key)) for key in keys]
