"""morphlens: tokenizer-aware corpus metrics.

Streaming token-bigram gradient proxies of morphology (accessor variety,
uniqueness, entropic efficiency, boundary/lexicalization ratios), classical
unigram and word metrics, morphological boundary-alignment evaluation, and
the statistics needed to compare metric populations soundly.

`import morphlens` loads the analysis path only: the package never imports
`morphlens.stats`, and the `morph_eval` names below load that module on
first use.
"""

from .bigram import BigramReport, BigramTables
from .corpus import (
    Corpus,
    CorpusCounts,
    CorpusError,
    byte_premium,
    corpus_counts,
    read_lines,
    sample_lines,
)
from .pretokenize import is_lexical, pretokenize
from .report import RunConfig, analyze_language, emit, load_config, run
from .tokenizer import (
    Interner,
    SpanBatch,
    Vocabulary,
    load_vocab,
    segment_greedy,
    segment_viterbi,
    tokenize_corpus,
)
from .unigram import FrequencyTable, UnigramStats, mattr, mtl, renyi_efficiency, ttr

__version__ = "0.1.0"

_MORPH_EVAL = ("AlignmentResult", "SegmentationRef", "derive_subsets", "eval_full", "load_refs", "morphscore")


def __getattr__(name: str):
    if name in _MORPH_EVAL:
        from . import morph_eval

        return getattr(morph_eval, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted([*globals(), *_MORPH_EVAL])
