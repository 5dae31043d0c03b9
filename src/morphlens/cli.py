"""`morphlens` command line interface.

Subcommands: counts, byte-premium, tokenize, bigram, unigram, align,
stats (welch|gap|holm|dup|ols), run. Exit codes: 0 success; 1 an input
error (missing file, invalid UTF-8, bad vocabulary or number, no tokens or
lexical types, a failed statistic) with a one-line message, or for `run` a
failed language row; 2 a usage error (option out of range, wrong number of
`stats` inputs) or for `run` a config error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict
from typing import Iterable, List, Optional

from . import bigram as bigram_mod
from . import morph_eval, stats
from .bigram import MetricsError
from .corpus import CorpusError, byte_premium, corpus_counts, read_lines, read_text
from .pretokenize import DEFAULT_MARKER, pretokenize
from .report import ConfigError, emit, load_config
from .report import run as run_pipeline
from .tokenizer import (
    VocabularyError,
    load_vocab,
    segment_greedy,
    segment_viterbi,
    tokenize_corpus,
)
from .unigram import (
    DEFAULT_MATTR_WINDOW,
    DEFAULT_RENYI_ALPHA,
    UnigramStats,
    renyi_efficiency,
)


# input errors that end a command with a one-line message and exit 1
_INPUT_ERRORS = (CorpusError, VocabularyError, MetricsError, stats.StatsError,
                 morph_eval.MorphEvalError, OSError)


def _error(message: str, code: int = 1) -> int:
    print(f"morphlens: error: {message}", file=sys.stderr)
    return code


def _positive_int(text: str) -> int:
    """argparse type of counts that must be at least 1."""
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def _float_type(accept, expected: str):
    """argparse type of numbers for which `accept` holds (never for nan)."""

    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            value = math.nan
        if not accept(value):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        return value

    return parse


_nonnegative_float = _float_type(lambda v: 0 <= v < math.inf, "a finite number >= 0")
_probability = _float_type(lambda v: 0 < v < 1, "a number in (0, 1)")


def _write(path: Optional[str], lines: Iterable[str]) -> None:
    """Write each line and a newline as it comes, to `path` or stdout."""
    out = (line + "\n" for line in lines)
    if path and path != "-":
        with open(path, "w", encoding="utf-8") as f:
            f.writelines(out)
    else:
        sys.stdout.writelines(out)


def cmd_counts(args) -> int:
    corpus = read_lines(args.path)
    counts = corpus_counts(corpus, pretokenize if args.pretokenize else None)
    print(f"ccc\t{counts.ccc}")
    print(f"cbc\t{counts.cbc}")
    print(f"cwc\t{counts.cwc}")
    print(f"csc\t{counts.csc}")
    return 0


def cmd_byte_premium(args) -> int:
    ratio = byte_premium(read_lines(args.target), read_lines(args.reference))
    print(f"{ratio:.6f}")
    return 0


def cmd_tokenize(args) -> int:
    vocab = load_vocab(args.vocab)
    corpus = read_lines(args.corpus)
    lines = tokenize_corpus(corpus, vocab, not args.no_pretokenize, args.greedy)
    _write(args.out, (" ".join(p for _, pieces in spans for p in pieces) for _, spans in lines))
    return 0


def _fmt(v: float, percent: bool) -> str:
    return f"{v * 100:.4f}" if percent else f"{v:.4f}"


def cmd_bigram(args) -> int:
    vocab = load_vocab(args.vocab)
    tables = bigram_mod.BigramTables(
        window=args.window, stride=args.stride, lifetime_eta=args.lifetime_eta
    )
    corpus = read_lines(args.corpus)
    for _, spans in tokenize_corpus(corpus, vocab, not args.no_pretokenize, args.greedy):
        for _, pieces in spans:
            tables.observe_span(pieces)
    report = tables.finalize(
        marker=vocab.boundary_marker or DEFAULT_MARKER,
        full_windows_only=args.full_windows_only,
    )
    pct = args.percent
    lines = [
        "type\tf\tav_L\tav_R\tav_mean\tav_min\tau_mean\teta_mean\tbr_L\tbr_R\tretained"
    ]
    for t in report.types:
        cells = [t.type, str(t.f)]
        cells += [f"{v:.4f}" for v in (t.av_l, t.av_r, t.av_mean, t.av_min)]
        cells += [_fmt(v, pct) for v in (t.au_mean, t.eta_mean, t.br_l, t.br_r)]
        lines.append("\t".join(cells + ["1" if t.retained else "0"]))
    if report.degenerate:
        lines.append("# degenerate: every lexical type was filtered")
    elif report.macro_av is None:
        lines.append("# no retained type filled a window on both sides")
    else:
        lines.append(f"# macro_av\t{report.macro_av:.4f}")
        lines.append(f"# macro_av_min\t{report.macro_av_min:.4f}")
        lines.append(f"# macro_au\t{_fmt(report.macro_au, pct)}")
        lines.append(f"# macro_eta\t{_fmt(report.macro_eta, pct)}")
    lines.append(f"# lr\t{_fmt(report.lr, pct)}")
    lines.append(f"# retained\t{report.retained_count}")
    lines.append(f"# filtered\t{report.filtered_count}")
    _write(args.out, lines)
    return 0


def cmd_unigram(args) -> int:
    vocab = load_vocab(args.vocab)
    unigrams = UnigramStats(args.mattr_window)
    # always pretokenized: the command has no --no-pretokenize
    for _, spans in tokenize_corpus(read_lines(args.corpus), vocab, greedy=args.greedy):
        for _, pieces in spans:
            unigrams.add(pieces)
    if not unigrams.tokens:
        return _error("corpus produced no tokens")
    lines = [
        f"ctc\t{unigrams.tokens}",
        f"mattr\t{unigrams.mattr():.6f}",
        f"mtl\t{unigrams.mtl():.6f}",
        f"renyi_efficiency\t{renyi_efficiency(unigrams.frequency(), args.alpha):.6f}",
    ]
    _write(args.out, lines)
    return 0


def cmd_align(args) -> int:
    vocab = load_vocab(args.vocab)
    loaded = morph_eval.load_refs(args.refs)
    segment = segment_greedy if args.greedy else segment_viterbi

    def segmenter(word: str):
        return segment(word, vocab)

    lines = [f"# refs\t{len(loaded.refs)}", f"# rejected\t{loaded.rejected}"]
    mode = args.mode
    if mode in ("full", "stem-suffix", "suffix-suffix"):
        refs = loaded.refs
        if mode != "full":
            subsets = morph_eval.derive_subsets(refs)
            refs = subsets.stem_suffix if mode == "stem-suffix" else subsets.suffix_suffix
        if not refs:
            return _error("no usable references for mode " + mode)
        result = morph_eval.eval_full(segmenter, refs)
        lines += [
            f"precision\t{result.precision:.6f}",
            f"recall\t{result.recall:.6f}",
            f"f1\t{result.f1:.6f}",
            f"tp\t{result.tp}",
            f"pred_total\t{result.pred_total}",
            f"ref_total\t{result.ref_total}",
        ]
    else:
        ms_mode = (
            morph_eval.EXCLUDE_VOCAB
            if mode == "morphscore-exclude"
            else morph_eval.CREDIT_VOCAB
        )
        subsets = morph_eval.derive_subsets(loaded.refs)
        refs = subsets.stem_suffix or [
            r for r in loaded.refs if len(r.boundaries()) == 1
        ]
        if not refs:
            return _error("no single-boundary references available")
        result = morph_eval.morphscore(segmenter, refs, vocab, ms_mode)
        lines += [
            f"recall\t{result.recall:.6f}",
            f"precision\t{result.precision:.6f}",
            f"f1\t{result.f1:.6f}",
            f"n_evaluated\t{result.n_evaluated}",
            f"n_skipped\t{result.n_skipped}",
        ]
    _write(args.out, lines)
    return 0


def _read_column(path: str) -> stats.Sample:
    """The first comma-separated cell of every nonempty line, as finite
    numbers; only the first line may be a non-numeric header."""
    values = []
    for lineno, line in enumerate(read_text(path, stats.StatsError).split("\n"), start=1):
        cell = line.strip().split(",")[0]
        if not cell:
            continue
        try:
            value = float(cell)
        except ValueError:
            if lineno == 1:
                continue  # header row
            raise stats.StatsError(f"{path}:{lineno}: expected a number, got {cell!r}") from None
        if not math.isfinite(value):
            raise stats.StatsError(f"{path}:{lineno}: non-finite value {cell!r}")
        values.append(value)
    if not values:
        raise stats.StatsError(f"{path}: no values")
    return stats.Sample.of(values)


_STATS_ARITY = {
    "welch": (2, "welch needs exactly 2 input files"),
    "gap": (4, "gap needs 4 input files: g1_before g2_before g1_after g2_after"),
    "holm": (1, "holm needs 1 input file of p-values"),
    "dup": (2, "dup needs exactly 2 input files"),
    "ols": (2, "ols needs exactly 2 input files: x y"),
}


def cmd_stats(args) -> int:
    n_files, message = _STATS_ARITY[args.test]
    if len(args.inputs) != n_files:
        return _error(message, 2)
    samples = [_read_column(p) for p in args.inputs]
    alpha = args.alpha
    if args.test == "welch":
        payload = asdict(stats.welch_t_test(*samples, args.alternative, alpha))
    elif args.test == "gap":
        payload = asdict(stats.gap_reduction_test(stats.GapTestInput(*samples), alpha))
        test = payload.pop("test")
        del test["alternative"]  # always "greater"
        payload = {**test, **payload}
    elif args.test == "holm":
        decisions = stats.holm_bonferroni(samples[0].values, alpha)
        payload = {"alpha": alpha, "decisions": [asdict(d) for d in decisions]}
    elif args.test == "dup":
        payload = asdict(stats.duplication_effect(*samples, args.k, args.alternative))
    else:
        payload = asdict(stats.ols_simple(*samples))
    _write(args.out, [json.dumps(payload, indent=2)])
    return 0


def cmd_run(args) -> int:
    try:
        config = load_config(args.config)
    except (ConfigError, ValueError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    report = run_pipeline(config)
    for row in report.rows:
        if row.status != "ok":
            print(f"{row.language}: {row.error}", file=sys.stderr)
    data = emit(report, config.format, config.percent)
    if args.out and args.out != "-":
        with open(args.out, "wb") as f:
            f.write(data)
    else:
        sys.stdout.buffer.write(data)
    return 1 if report.failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="morphlens",
        description="Tokenizer-aware corpus metrics: bigram accessor statistics, "
        "unigram/word metrics, morphological alignment, and sound comparisons.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("counts", help="corpus size statistics")
    p.add_argument("path")
    p.add_argument("--pretokenize", action="store_true", help="also count pretokens (cwc)")
    p.set_defaults(func=cmd_counts)

    p = sub.add_parser("byte-premium", help="UTF-8 byte ratio of parallel corpora")
    p.add_argument("target")
    p.add_argument("reference")
    p.set_defaults(func=cmd_byte_premium)

    p = sub.add_parser("tokenize", help="segment a corpus with a unigram-LM vocabulary")
    p.add_argument("corpus")
    p.add_argument("--vocab", required=True)
    p.add_argument("--no-pretokenize", action="store_true")
    p.add_argument("--greedy", action="store_true")
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_tokenize)

    p = sub.add_parser("bigram", help="accessor-variety metrics report")
    p.add_argument("corpus")
    p.add_argument("--vocab", required=True)
    p.add_argument("--window", type=_positive_int, default=bigram_mod.DEFAULT_WINDOW)
    p.add_argument("--stride", type=_positive_int, default=1)
    p.add_argument("--no-pretokenize", action="store_true")
    p.add_argument("--greedy", action="store_true")
    p.add_argument("--percent", action="store_true")
    p.add_argument(
        "--full-windows-only",
        action="store_true",
        help="exclude types that never filled a window from macro averages; "
        "'# retained' then counts only the types in the averages",
    )
    p.add_argument(
        "--lifetime-eta",
        action="store_true",
        help="compute eta over lifetime accessor counts instead of windows",
    )
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_bigram)

    p = sub.add_parser("unigram", help="token-unigram metrics report")
    p.add_argument("corpus")
    p.add_argument("--vocab", required=True)
    p.add_argument("--mattr-window", type=_positive_int, default=DEFAULT_MATTR_WINDOW)
    p.add_argument("--alpha", type=_nonnegative_float, default=DEFAULT_RENYI_ALPHA)
    p.add_argument("--greedy", action="store_true")
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_unigram)

    p = sub.add_parser("align", help="morphological boundary evaluation")
    p.add_argument("refs")
    p.add_argument("--vocab", required=True)
    p.add_argument(
        "--mode",
        choices=[
            "full",
            "morphscore-exclude",
            "morphscore-credit",
            "stem-suffix",
            "suffix-suffix",
        ],
        default="full",
    )
    p.add_argument("--greedy", action="store_true")
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_align)

    p = sub.add_parser("stats", help="hypothesis tests and regression")
    p.add_argument("test", choices=["welch", "gap", "holm", "dup", "ols"])
    p.add_argument("--in", dest="inputs", nargs="+", required=True, metavar="CSV")
    p.add_argument("--alpha", type=_probability, default=0.05)
    p.add_argument(
        "--alternative",
        choices=[stats.TWO_SIDED, stats.LESS, stats.GREATER],
        default=stats.TWO_SIDED,
    )
    p.add_argument("--k", type=_positive_int, default=3, help="duplication factor for dup")
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("run", help="multi-language comparison report")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_run)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:  # an OSError, so it goes first
        return 0
    except _INPUT_ERRORS as e:
        return _error(str(e))


if __name__ == "__main__":
    sys.exit(main())
