"""`morphlens` command line interface.

Subcommands: counts, byte-premium, tokenize, bigram, unigram, align,
stats (welch|gap|holm|dup|ols), run. Each `cmd_*` is a thin wrapper over
library calls: it does its eager work (loading the vocabulary, checking
input paths, loading the config) and returns its output lines. `main` is
the one place that writes them, UTF-8 encoded whatever the locale, to
`--out` or stdout; `tokenize` returns a generator, so its output streams.

`main` is also the one place that maps exceptions to exit codes: 0
success; 1 an input error (missing file, invalid UTF-8, bad vocabulary or
number, no tokens or lexical types, a failed statistic) with a one-line
message, or for `run` a failed language row; 2 a usage error (option out
of range, wrong number of `stats` inputs, an `--out` that names a file the
command reads) or for `run` a config error.

`stats` and `align` import their library modules when they run, so the
other commands never load them.
"""

from __future__ import annotations

import argparse
import os
import sys
from itertools import chain, islice
from typing import Iterable, Iterator, List, Optional

from . import bigram as bigram_mod
from . import report as report_mod
from .corpus import CorpusError, InputError, byte_premium, corpus_counts, read_lines
from .report import ComparisonReport, ConfigError, emit, load_config
from .tokenizer import (
    SpanBatch,
    load_vocab,
    segment_greedy,
    segment_viterbi,
    tokenize_corpus,
)
from .unigram import DEFAULT_MATTR_WINDOW, DEFAULT_RENYI_ALPHA, UnigramStats, renyi_efficiency


class UsageError(Exception):
    """A usage error that argparse cannot see: exit 2."""


class RowsFailed(Exception):
    """Some `run` rows failed: exit 1 after the whole report is written. The
    message is one `<language>: <error>` line per failed row."""


# input errors that end a command with a one-line message and exit 1
_INPUT_ERRORS = (InputError, OSError)

# `morph_eval.MODES` and the `stats` alternatives, spelled out so that
# building the parser loads neither module (a test keeps them equal)
_ALIGN_MODES = ["full", "morphscore-exclude", "morphscore-credit", "stem-suffix", "suffix-suffix"]
_ALTERNATIVES = ["two-sided", "less", "greater"]

# the argparse dests that name files a command reads
_INPUT_DESTS = ("corpus", "vocab", "refs", "inputs", "config")


def _error(message: str, code: int) -> int:
    sys.stderr.write(message + "\n")
    return code


def _flag(read):
    """The argparse type of a `report` reader: its `ValueError` is a usage error."""

    def parse(text: str):
        try:
            return read(text)
        except ValueError as e:
            raise argparse.ArgumentTypeError(str(e)) from None

    return parse


def _segmented(args, pretokenized: bool = True, **record):
    """The lazily segmented corpus of a segmenting command; `record` is
    passed on to `tokenize_corpus`."""
    vocab = load_vocab(args.vocab)
    return tokenize_corpus(read_lines(args.corpus), vocab, pretokenized, args.greedy, **record)


def cmd_counts(args) -> List[str]:
    counts = corpus_counts(read_lines(args.path), args.pretokenize)
    return [f"{key}\t{getattr(counts, key)}" for key in ("ccc", "cbc", "cwc", "csc")]


def cmd_byte_premium(args) -> List[str]:
    return [f"{byte_premium(read_lines(args.target), read_lines(args.reference)):.6f}"]


def cmd_tokenize(args) -> Iterator[str]:
    return _joined(_segmented(args, not args.no_pretokenize))


def _joined(batches: Iterable[SpanBatch]) -> Iterator[str]:
    """Each corpus line's pieces, space-separated."""
    for batch in batches:
        records = iter(batch.records)
        for n in batch.spans_per_line:
            yield " ".join(chain.from_iterable(islice(records, n)))


def cmd_bigram(args) -> List[str]:
    tables = bigram_mod.BigramTables(args.window, args.stride, args.lifetime_eta)
    for batch in _segmented(args, not args.no_pretokenize, record=tables.interner.intern):
        tables.observe_spans(batch.records)
    report = tables.finalize(args.full_windows_only)
    return report.lines(args.percent)


def cmd_unigram(args) -> List[str]:
    unigrams = UnigramStats(args.mattr_window)
    # always pretokenized: there is no --no-pretokenize
    for batch in _segmented(args, record=unigrams.interner.intern):
        unigrams.add_spans(batch.records)
    if not unigrams.tokens:
        raise CorpusError("corpus produced no tokens")
    return [
        f"ctc\t{unigrams.tokens}",
        f"mattr\t{unigrams.mattr():.6f}",
        f"mtl\t{unigrams.mtl():.6f}",
        f"renyi_efficiency\t{renyi_efficiency(unigrams.frequency(), args.alpha):.6f}",
    ]


def cmd_align(args) -> List[str]:
    from . import morph_eval

    vocab = load_vocab(args.vocab)
    loaded = morph_eval.load_refs(args.refs)
    segment = segment_greedy if args.greedy else segment_viterbi
    pairs = morph_eval.evaluate(args.mode, lambda word: segment(word, vocab), loaded, vocab)
    return [f"# refs\t{len(loaded.refs)}", f"# rejected\t{loaded.rejected}"] + [
        f"{name}\t{value:.6f}" if isinstance(value, float) else f"{name}\t{value}"
        for name, value in pairs
    ]


_STATS_ARITY = {
    "welch": (2, "welch needs exactly 2 input files"),
    "gap": (4, "gap needs 4 input files: g1_before g2_before g1_after g2_after"),
    "holm": (1, "holm needs 1 input file of p-values"),
    "dup": (2, "dup needs exactly 2 input files"),
    "ols": (2, "ols needs exactly 2 input files: x y"),
}


def cmd_stats(args) -> List[str]:
    import json
    from dataclasses import asdict

    from . import stats

    n_files, message = _STATS_ARITY[args.test]
    if len(args.inputs) != n_files:
        raise UsageError(message)
    samples = [stats.read_column(p) for p in args.inputs]
    alpha = args.alpha
    if args.test == "welch":
        payload = asdict(stats.welch_t_test(*samples, args.alternative, alpha))
    elif args.test == "gap":
        payload = asdict(stats.gap_reduction_test(*samples, alpha))
    elif args.test == "holm":
        decisions = stats.holm_bonferroni(samples[0].values, alpha)
        payload = {"alpha": alpha, "decisions": [asdict(d) for d in decisions]}
    elif args.test == "dup":
        payload = asdict(stats.duplication_effect(*samples, args.k, args.alternative))
    else:
        payload = asdict(stats.ols_simple(*samples))
    return json.dumps(payload, indent=2).split("\n")


def cmd_run(args) -> Iterator[str]:
    config = load_config(args.config)
    _check_out(args.out, (path for lang in config.languages for path in (lang.corpus, lang.vocab)))
    report = report_mod.run(config)
    return _then_failed_rows(report, emit(report, config.format, config.percent))


def _then_failed_rows(report: ComparisonReport, lines: List[str]) -> Iterator[str]:
    yield from lines
    failed = [f"{row.language}: {row.error}" for row in report.rows if row.status != "ok"]
    if failed:
        raise RowsFailed("\n".join(failed))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="morphlens",
        description="Tokenizer-aware corpus metrics: bigram accessor statistics, "
        "unigram/word metrics, morphological alignment, and sound comparisons.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--out", default="-", help="output file, UTF-8; '-' is stdout")
    # the options of the commands that segment with a vocabulary
    segmenting = argparse.ArgumentParser(add_help=False, parents=[output])
    segmenting.add_argument("--vocab", required=True)
    segmenting.add_argument("--greedy", action="store_true")

    p = sub.add_parser("counts", help="corpus size statistics")
    p.add_argument("path")
    p.add_argument("--pretokenize", action="store_true", help="also count pretokens (cwc)")
    p.set_defaults(func=cmd_counts)

    p = sub.add_parser("byte-premium", help="UTF-8 byte ratio of parallel corpora")
    p.add_argument("target")
    p.add_argument("reference")
    p.set_defaults(func=cmd_byte_premium)

    p = sub.add_parser("tokenize", parents=[segmenting],
                       help="segment a corpus with a unigram-LM vocabulary")
    p.add_argument("corpus")
    p.add_argument("--no-pretokenize", action="store_true")
    p.set_defaults(func=cmd_tokenize)

    p = sub.add_parser("bigram", parents=[segmenting], help="accessor-variety metrics report")
    p.add_argument("corpus")
    p.add_argument("--window", type=_flag(report_mod.read_positive_int), default=bigram_mod.DEFAULT_WINDOW)
    p.add_argument("--stride", type=_flag(report_mod.read_positive_int), default=1)
    p.add_argument("--no-pretokenize", action="store_true")
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
    p.set_defaults(func=cmd_bigram)

    p = sub.add_parser("unigram", parents=[segmenting], help="token-unigram metrics report")
    p.add_argument("corpus")
    p.add_argument("--mattr-window", type=_flag(report_mod.read_positive_int), default=DEFAULT_MATTR_WINDOW)
    p.add_argument("--alpha", type=_flag(report_mod.read_nonnegative), default=DEFAULT_RENYI_ALPHA)
    p.set_defaults(func=cmd_unigram)

    p = sub.add_parser("align", parents=[segmenting], help="morphological boundary evaluation")
    p.add_argument("refs")
    p.add_argument("--mode", choices=_ALIGN_MODES, default="full")
    p.set_defaults(func=cmd_align)

    p = sub.add_parser("stats", parents=[output], help="hypothesis tests and regression")
    p.add_argument("test", choices=list(_STATS_ARITY))
    p.add_argument("--in", dest="inputs", nargs="+", required=True, metavar="CSV")
    p.add_argument("--alpha", type=_flag(report_mod.read_probability), default=0.05)
    p.add_argument("--alternative", choices=_ALTERNATIVES, default="two-sided")
    p.add_argument("--k", type=_flag(report_mod.read_positive_int), default=3, help="duplication factor for dup")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser(
        "run",
        parents=[output],
        help="multi-language comparison report",
        description="Compare languages as an INI config describes them. Relative "
        "corpus and vocab paths in the config resolve against the working "
        "directory, not against the config file's directory.",
    )
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_run)

    return parser


def _check_out(out: Optional[str], inputs: Iterable[str]) -> None:
    """A usage error if `out` is one of the files in `inputs`: opening it
    would empty an input, and the streaming commands have not read theirs
    yet."""
    if not out or out == "-" or not os.path.exists(out):
        return
    for path in inputs:
        if os.path.exists(path) and os.path.samefile(out, path):
            raise UsageError(f"--out {out!r} is the input file {path!r}")


def _inputs(args) -> Iterator[str]:
    """The files named on the command line that the command reads."""
    for dest in _INPUT_DESTS:
        value = getattr(args, dest, None)
        if isinstance(value, list):
            yield from value
        elif value is not None:
            yield value


def _write(path: Optional[str], lines: Iterable[str]) -> None:
    """Write each line and a newline, UTF-8 encoded, as it comes: to `path`,
    or to stdout when there is none or it is '-'."""
    data = ((line + "\n").encode("utf-8") for line in lines)
    if path and path != "-":
        with open(path, "wb") as f:
            f.writelines(data)
    else:
        sys.stdout.buffer.writelines(data)
        sys.stdout.buffer.flush()  # a closed pipe then raises inside main's try


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    out = getattr(args, "out", None)
    try:
        _check_out(out, _inputs(args))
        _write(out, args.func(args))
    except BrokenPipeError:  # an OSError, so it goes first
        return 0
    except RowsFailed as e:
        return _error(str(e), 1)
    except ConfigError as e:
        return _error(f"config error: {e}", 2)
    except UsageError as e:
        return _error(f"morphlens: error: {e}", 2)
    except _INPUT_ERRORS as e:
        return _error(f"morphlens: error: {e}", 1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
