"""morphlens: tokenizer-aware corpus metrics.

Streaming token-bigram gradient proxies of morphology (accessor variety,
uniqueness, entropic efficiency, boundary/lexicalization ratios), classical
unigram and word metrics, morphological boundary-alignment evaluation, and
the statistics needed to compare metric populations soundly.
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
from .morph_eval import (
    AlignmentResult,
    SegmentationRef,
    derive_subsets,
    eval_full,
    load_refs,
    morphscore,
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
