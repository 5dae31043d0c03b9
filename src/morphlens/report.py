"""End-to-end pipelines (corpus -> tokenize -> metrics) and multi-language
comparison reports.

A run is described by an INI-style config file: one `[run]` section with
shared settings and one `[language:NAME]` section per language. Example:

    [run]
    window = 1000
    stride = 1
    mattr_window = 500
    alpha = 2.5
    pretokenized = true
    percent = true
    sort_by = eta

    [language:English]
    corpus = data/en.txt
    vocab = vocabs/en.tsv
    grouping = Fusional

Languages are processed one after another as independent units of work;
one failing language marks its row failed without killing the batch.
"""

from __future__ import annotations

import configparser
import math
import os
from typing import Dict, List, NamedTuple, Optional, Union

from .bigram import DEFAULT_WINDOW, BigramReport, BigramTables
from .corpus import Corpus, CorpusCounts, CorpusError, read_lines, read_text
from .tokenizer import Interner, Vocabulary, load_vocab, tokenize_corpus
from .unigram import (
    DEFAULT_MATTR_WINDOW,
    DEFAULT_RENYI_ALPHA,
    UnigramStats,
    renyi_efficiency,
)


class ConfigError(Exception):
    pass


class LanguageSpec(NamedTuple):
    name: str
    corpus: str
    vocab: str
    grouping: str = ""


class RunConfig(NamedTuple):
    languages: List[LanguageSpec]
    window: int = DEFAULT_WINDOW
    stride: int = 1
    mattr_window: int = DEFAULT_MATTR_WINDOW
    alpha: float = DEFAULT_RENYI_ALPHA
    pretokenized: bool = True
    greedy: bool = False
    percent: bool = False
    format: str = "tsv"
    sort_by: str = "eta"

    def validate(self) -> None:
        for key in ("window", "stride", "mattr_window"):
            if getattr(self, key) < 1:
                raise ConfigError(f"{key} must be >= 1")
        if not 0 <= self.alpha < math.inf:  # also rejects nan
            raise ConfigError("alpha must be finite and >= 0")
        if self.sort_by not in _NUMERIC_COLUMNS:
            raise ConfigError(
                f"unknown sort_by column {self.sort_by!r}; "
                f"expected one of {', '.join(_NUMERIC_COLUMNS)}"
            )
        if not self.languages:
            raise ConfigError("no languages configured")
        if self.format not in ("tsv", "csv", "json"):
            raise ConfigError(f"unknown output format {self.format!r}")
        for lang in self.languages:
            for key in ("corpus", "vocab"):
                path = getattr(lang, key)
                if not os.path.exists(path):
                    raise ConfigError(
                        f"{lang.name}: {key} not found: {path} "
                        f"(relative paths resolve against the working directory, {os.getcwd()})"
                    )


_RUN_KEYS = set(RunConfig._fields) - {"languages"}
_LANGUAGE_KEYS = set(LanguageSpec._fields) - {"name"}


def load_config(path: Union[str, os.PathLike]) -> RunConfig:
    """Read and check a run config. Relative `corpus` and `vocab` paths are
    resolved against the working directory, not the config's directory.
    Every problem with the file, down to its INI syntax and an unknown
    section or key, is a `ConfigError`."""
    try:
        text = read_text(path, ConfigError)
    except OSError:
        raise ConfigError(f"cannot read config file {path!r}") from None
    # values are literal: a "%" in a path is not an interpolation; and no
    # section is the default one, whose keys configparser copies into every
    # other section, so [DEFAULT] is an unknown section like any other
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        parser.read_string(text, source=os.fspath(path))
        sections = {s: dict(parser[s]) for s in parser.sections()}
    except configparser.Error as e:
        raise ConfigError(_syntax_message(os.fspath(path), e)) from None
    run = sections.pop("run", {})
    unknown = sorted(set(run) - _RUN_KEYS)
    if unknown:
        raise ConfigError(f"[run]: unknown key(s) {', '.join(unknown)}")
    languages = []
    for section, entry in sections.items():
        name = section[len("language:") :]
        if not section.startswith("language:") or not name:
            raise ConfigError(f"[{section}]: unknown section; expected [run] or [language:NAME]")
        unknown = sorted(set(entry) - _LANGUAGE_KEYS)
        if unknown:
            raise ConfigError(f"[{section}]: unknown key(s) {', '.join(unknown)}")
        if "corpus" not in entry or "vocab" not in entry:
            raise ConfigError(f"{section}: needs 'corpus' and 'vocab' keys")
        if any(c in name + entry.get("grouping", "") for c in "\t\r\n"):
            raise ConfigError(
                f"{section!r}: a name or grouping cannot hold a tab or line break, as TSV has no quoting"
            )
        languages.append(
            LanguageSpec(
                name=name,
                corpus=entry["corpus"],
                vocab=entry["vocab"],
                grouping=entry.get("grouping", ""),
            )
        )

    settings = {
        key: _parse_run_value(key, run[key], type(default))
        for key, default in RunConfig._field_defaults.items()
        if key in run
    }
    config = RunConfig(languages=languages, **settings)
    config.validate()
    return config


def _syntax_message(where: str, e: configparser.Error) -> str:
    """One `path:line: message` line for a configparser error, naming the
    file once; an error without a line gets `path: message`."""
    if isinstance(e, configparser.DuplicateOptionError):
        return f"{where}:{e.lineno}: option {e.option!r} in section {e.section!r} already exists"
    if isinstance(e, configparser.DuplicateSectionError):
        return f"{where}:{e.lineno}: section {e.section!r} already exists"
    if isinstance(e, configparser.MissingSectionHeaderError):
        return f"{where}:{e.lineno}: {e.line.strip()!r} is outside any [section]"
    if isinstance(e, configparser.ParsingError):
        return f"{where}:{e.errors[0][0]}: expected 'key = value' or a [section] header"
    # some configparser messages span lines
    return f"{where}: {' '.join(str(e).split())}"


def _parse_run_value(key: str, raw: str, kind: type):
    """Parse one `[run]` value as the type of its `RunConfig` default."""
    if kind is bool:
        words = configparser.ConfigParser.BOOLEAN_STATES
        if raw.strip().lower() not in words:
            raise ConfigError(f"[run] {key}: expected one of {', '.join(words)}, got {raw!r}")
        return words[raw.strip().lower()]
    if kind is str:
        return raw
    try:
        return kind(raw)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise ConfigError(f"[run] {key}: expected {noun}, got {raw!r}") from None


# ---------------------------------------------------------------------------
# Single-language pipeline


class LanguageMetrics(NamedTuple):
    counts: CorpusCounts
    bigram: BigramReport
    mattr: float
    mtl: float
    renyi: float
    s: float
    mwl: float


def analyze_language(
    corpus: Corpus,
    vocab: Vocabulary,
    window: int = DEFAULT_WINDOW,
    stride: int = 1,
    mattr_window: int = DEFAULT_MATTR_WINDOW,
    alpha: float = DEFAULT_RENYI_ALPHA,
    pretokenized: bool = True,
    greedy: bool = False,
) -> LanguageMetrics:
    """One streaming pass computing corpus counts, bigram tables, and the
    unigram/word metric battery. Both accumulators share one interner, so
    each span arrives as type ids, recorded once per distinct pretoken."""
    interner = Interner()
    tables = BigramTables(window=window, stride=stride, interner=interner)
    unigrams = UnigramStats(mattr_window, interner)
    counts = CorpusCounts()
    for batch in tokenize_corpus(corpus, vocab, pretokenized, greedy, interner.intern):
        counts.add(batch.lines)
        tables.observe_spans(batch.records)
        unigrams.add_spans(batch.records, batch.texts if pretokenized else None)
    # the last batch's records, not only the exhausted generator's cache,
    # must be free before finalize
    batch = None

    counts.cwc = unigrams.words
    counts.ctc = unigrams.tokens
    if not counts.ctc:
        raise CorpusError("corpus produced no tokens")
    return LanguageMetrics(
        counts=counts,
        bigram=tables.finalize(),
        mattr=unigrams.mattr(),
        mtl=unigrams.mtl(),
        renyi=renyi_efficiency(unigrams.frequency(), alpha),
        s=unigrams.s(),
        mwl=unigrams.mwl(),
    )


# ---------------------------------------------------------------------------
# Multi-language report


# ratio-valued columns scaled by 100 in percent mode; AV, MTL, and MWL stay
_PERCENT_COLUMNS = ("eta", "au", "lr", "mattr", "re", "s")

# `CorpusCounts` fields, printed as integers
_COUNT_COLUMNS = ("ccc", "cbc", "cwc", "csc", "ctc")

_NUMERIC_COLUMNS = ("av", "eta", "au", "lr", "mattr", "mtl", "re", "s", "mwl") + _COUNT_COLUMNS


class ReportRow(NamedTuple):
    language: str
    grouping: str
    values: Dict[str, Optional[float]]  # no default, so no two rows share one dict
    status: str = "ok"
    error: str = ""


class ComparisonReport(NamedTuple):
    rows: List[ReportRow]
    sort_key: str = "eta"

    def sorted_rows(self) -> List[ReportRow]:
        def key(row: ReportRow):
            v = row.values.get(self.sort_key)
            return (row.status != "ok", v if v is not None else math.inf)

        return sorted(self.rows, key=key)

    @property
    def failed(self) -> bool:
        return any(row.status != "ok" for row in self.rows)


def _row_from_metrics(spec: LanguageSpec, m: LanguageMetrics) -> ReportRow:
    b = m.bigram
    values = {
        "av": b.macro_av,
        "eta": b.macro_eta,
        "au": b.macro_au,
        "lr": b.lr,
        "mattr": m.mattr,
        "mtl": m.mtl,
        "re": m.renyi,
        "s": m.s,
        "mwl": m.mwl,
    }
    values.update((col, float(getattr(m.counts, col) or 0)) for col in _COUNT_COLUMNS)
    return ReportRow(language=spec.name, grouping=spec.grouping, values=values)


def run(config: RunConfig) -> ComparisonReport:
    """Compute the full metric battery for every configured language.

    Languages run in config order; a failure marks the row failed and the
    batch continues. Deterministic given config (all pipelines are deterministic).
    """
    config.validate()

    def one(spec: LanguageSpec) -> ReportRow:
        try:
            vocab = load_vocab(spec.vocab)
            metrics = analyze_language(
                read_lines(spec.corpus),
                vocab,
                window=config.window,
                stride=config.stride,
                mattr_window=config.mattr_window,
                alpha=config.alpha,
                pretokenized=config.pretokenized,
                greedy=config.greedy,
            )
            return _row_from_metrics(spec, metrics)
        except Exception as e:  # isolate per-language failures
            return ReportRow(spec.name, spec.grouping, {}, "failed", f"{type(e).__name__}: {e}")

    rows = [one(spec) for spec in config.languages]
    return ComparisonReport(rows=rows, sort_key=config.sort_by)


def emit(report: ComparisonReport, format: str = "tsv", percent: bool = False) -> List[str]:
    """Render a report as text lines, each without its newline: TSV, or CSV
    quoted by RFC 4180, with 4 decimal places, or indented JSON at full
    precision. Percent mode scales the ratio-valued columns by 100."""

    def scaled(row: ReportRow) -> Dict[str, Optional[float]]:
        out = {}
        for col in _NUMERIC_COLUMNS:
            v = row.values.get(col)
            if v is not None and percent and col in _PERCENT_COLUMNS:
                v = v * 100.0
            out[col] = v
        return out

    rows = report.sorted_rows()
    if format == "json":
        import json

        payload = [
            {
                "language": row.language,
                "grouping": row.grouping,
                "status": row.status,
                "error": row.error,
                **scaled(row),
            }
            for row in rows
        ]
        # JSON escapes newlines inside strings, so "\n" splits only its layout
        return json.dumps(payload, ensure_ascii=False, indent=2).split("\n")
    if format not in ("tsv", "csv"):
        raise ConfigError(f"unknown output format {format!r}")
    table = [["language", "grouping", "status", *_NUMERIC_COLUMNS]]
    for row in rows:
        cells = [row.language, row.grouping, row.status]
        values = scaled(row)
        for col in _NUMERIC_COLUMNS:
            v = values[col]
            if v is None:
                cells.append("")
            elif col in _COUNT_COLUMNS:
                cells.append(str(int(v)))
            else:
                cells.append(f"{v:.4f}")
        table.append(cells)
    if format == "tsv":
        # TSV cannot quote: `load_config` rejects a tab or line break in a
        # language name or grouping
        return list(map("\t".join, table))
    import csv
    import io

    # RFC 4180 quoting; with its default "\r\n" terminator the writer also
    # quotes a cell holding "\r" or "\n"
    buf = io.StringIO()
    csv.writer(buf).writerows(table)
    return buf.getvalue().split("\r\n")[:-1]
