"""`morphlens` command line interface.

Subcommands: counts, byte-premium, tokenize, bigram, unigram, align,
stats (welch|gap|holm|dup|ols), run. Exit codes for `run`: 0 success,
1 partial failure, 2 config error. Input errors (missing files, invalid
UTF-8, bad vocabularies, no lexical types) exit 1 with a one-line message.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from . import bigram as bigram_mod
from . import morph_eval, stats
from .bigram import MetricsError
from .corpus import CorpusError, byte_premium, corpus_counts, read_lines
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
    FrequencyTable,
    mattr,
    mtl,
    renyi_efficiency,
)


def _write(path: Optional[str], text: str) -> None:
    if path and path != "-":
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


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
    out_lines = [" ".join(p for _, pieces in spans for p in pieces) for _, spans in lines]
    _write(args.out, "\n".join(out_lines) + "\n")
    return 0


def _fmt(v: float, percent: bool, scale: bool) -> str:
    return f"{v * 100:.4f}" if percent and scale else f"{v:.4f}"


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
        lines.append(
            "\t".join(
                [
                    t.type,
                    str(t.f),
                    f"{t.av_l:.4f}",
                    f"{t.av_r:.4f}",
                    f"{t.av_mean:.4f}",
                    f"{t.av_min:.4f}",
                    _fmt(t.au_mean, pct, True),
                    _fmt(t.eta_mean, pct, True),
                    _fmt(t.br_l, pct, True),
                    _fmt(t.br_r, pct, True),
                    "1" if t.retained else "0",
                ]
            )
        )
    if report.degenerate:
        lines.append("# degenerate: every lexical type was filtered")
    else:
        lines.append(f"# macro_av\t{report.macro_av:.4f}")
        lines.append(f"# macro_av_min\t{report.macro_av_min:.4f}")
        lines.append(f"# macro_au\t{_fmt(report.macro_au, pct, True)}")
        lines.append(f"# macro_eta\t{_fmt(report.macro_eta, pct, True)}")
    lines.append(f"# lr\t{_fmt(report.lr, pct, True)}")
    lines.append(f"# retained\t{report.retained_count}")
    lines.append(f"# filtered\t{report.filtered_count}")
    _write(args.out, "\n".join(lines) + "\n")
    return 0


def cmd_unigram(args) -> int:
    vocab = load_vocab(args.vocab)
    # always pretokenized: the command has no --no-pretokenize
    lines = tokenize_corpus(read_lines(args.corpus), vocab, greedy=args.greedy)
    tokens = [p for _, spans in lines for _, pieces in spans for p in pieces]
    if not tokens:
        print("error: corpus produced no tokens", file=sys.stderr)
        return 1
    freq = FrequencyTable.from_tokens(tokens)
    lines = [
        f"ctc\t{len(tokens)}",
        f"mattr\t{mattr(tokens, args.mattr_window):.6f}",
        f"mtl\t{mtl(tokens):.6f}",
        f"renyi_efficiency\t{renyi_efficiency(freq, args.alpha):.6f}",
    ]
    _write(args.out, "\n".join(lines) + "\n")
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
            print("error: no usable references for mode " + mode, file=sys.stderr)
            return 1
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
            print("error: no single-boundary references available", file=sys.stderr)
            return 1
        result = morph_eval.morphscore(segmenter, refs, vocab, ms_mode)
        lines += [
            f"recall\t{result.recall:.6f}",
            f"precision\t{result.precision:.6f}",
            f"f1\t{result.f1:.6f}",
            f"n_evaluated\t{result.n_evaluated}",
            f"n_skipped\t{result.n_skipped}",
        ]
    _write(args.out, "\n".join(lines) + "\n")
    return 0


def _read_column(path: str) -> stats.Sample:
    values = []
    with open(path, encoding="utf-8") as f:
        for line in f:
            cell = line.strip().split(",")[0]
            if not cell:
                continue
            try:
                values.append(float(cell))
            except ValueError:
                continue  # header row
    return stats.Sample.of(values)


def cmd_stats(args) -> int:
    samples = [_read_column(p) for p in args.inputs]
    alpha = args.alpha
    alternative = args.alternative
    if args.test == "welch":
        if len(samples) != 2:
            raise SystemExit("welch needs exactly 2 input files")
        r = stats.welch_t_test(samples[0], samples[1], alternative, alpha)
        payload = {
            "statistic": r.statistic,
            "df": r.df,
            "p_value": r.p_value,
            "alternative": r.alternative,
            "alpha": r.alpha,
            "reject": r.reject,
        }
    elif args.test == "gap":
        if len(samples) != 4:
            raise SystemExit(
                "gap needs 4 input files: g1_before g2_before g1_after g2_after"
            )
        r = stats.gap_reduction_test(stats.GapTestInput(*samples), alpha)
        payload = {
            "statistic": r.test.statistic,
            "df": r.test.df,
            "p_value": r.test.p_value,
            "alpha": alpha,
            "reject": r.test.reject,
            "delta_before": r.delta_before,
            "delta_after": r.delta_after,
            "s_y": r.s_y,
            "delta_alpha": r.delta_alpha,
        }
    elif args.test == "holm":
        if len(samples) != 1:
            raise SystemExit("holm needs 1 input file of p-values")
        decisions = stats.holm_bonferroni(samples[0].values, alpha)
        payload = {
            "alpha": alpha,
            "decisions": [
                {
                    "p_value": d.p_value,
                    "holm_reject": d.holm_reject,
                    "bonferroni_reject": d.bonferroni_reject,
                }
                for d in decisions
            ],
        }
    elif args.test == "dup":
        if len(samples) != 2:
            raise SystemExit("dup needs exactly 2 input files")
        r = stats.duplication_effect(samples[0], samples[1], args.k, alternative)
        payload = {
            "t": r.t,
            "t_dup": r.t_dup,
            "nu": r.nu,
            "nu_dup": r.nu_dup,
            "p": r.p,
            "p_dup": r.p_dup,
            "t_ratio_theory": r.t_ratio_theory,
            "nu_ratio_theory": r.nu_ratio_theory,
        }
    elif args.test == "ols":
        if len(samples) != 2:
            raise SystemExit("ols needs exactly 2 input files: x y")
        r = stats.ols_simple(samples[0], samples[1])
        payload = {
            "beta0": r.beta0,
            "beta1": r.beta1,
            "se1": r.se1,
            "t1": r.t1,
            "p1": r.p1,
            "r2": r.r2,
            "adj_r2": r.adj_r2,
            "n": r.n,
        }
    else:
        raise SystemExit(f"unknown stats test {args.test!r}")
    _write(args.out, json.dumps(payload, indent=2) + "\n")
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
    p.add_argument("--window", type=int, default=bigram_mod.DEFAULT_WINDOW)
    p.add_argument("--stride", type=int, default=1)
    p.add_argument("--no-pretokenize", action="store_true")
    p.add_argument("--greedy", action="store_true")
    p.add_argument("--percent", action="store_true")
    p.add_argument(
        "--full-windows-only",
        action="store_true",
        help="exclude types that never filled a window from macro averages",
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
    p.add_argument("--mattr-window", type=int, default=DEFAULT_MATTR_WINDOW)
    p.add_argument("--alpha", type=float, default=DEFAULT_RENYI_ALPHA)
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
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument(
        "--alternative",
        choices=[stats.TWO_SIDED, stats.LESS, stats.GREATER],
        default=stats.TWO_SIDED,
    )
    p.add_argument("--k", type=int, default=3, help="duplication factor for dup")
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
    except (CorpusError, VocabularyError, MetricsError, OSError) as e:
        print(f"morphlens: error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
