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


# ratio-valued columns scaled by 100 in percent mode; AV, MTL, and MWL stay
_PERCENT_COLUMNS = ("eta", "au", "lr", "mattr", "re", "s")

# `CorpusCounts` fields, printed as integers
_COUNT_COLUMNS = ("ccc", "cbc", "cwc", "csc", "ctc")

_NUMERIC_COLUMNS = ("av", "eta", "au", "lr", "mattr", "mtl", "re", "s", "mwl") + _COUNT_COLUMNS


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
        """Raise a `ConfigError` for a config, read or built in Python alike,
        that cannot run. A setting must be what its reader gives back from its
        text, so `window="8"` and `pretokenized="no"` fail. A language must be
        a `LanguageSpec` of a nonempty `str` name and a `str` grouping, neither
        holding a tab or line break, and of `str` or path-like files that exist."""
        for key in _RUN_READERS:
            value = getattr(self, key)
            if _read_run_key(key, str(value)) != value:
                raise ConfigError(f"[run] {key}: {value!r} is a {type(value).__name__}")
        if not self.languages:
            raise ConfigError("no languages configured")
        for lang in self.languages:
            if not isinstance(lang, LanguageSpec):
                raise ConfigError(f"language {lang!r} is a {type(lang).__name__}, not a LanguageSpec")
            section = f"language:{lang.name}"
            for key, value in lang._asdict().items():
                if not isinstance(value, (str, os.PathLike) if key in ("corpus", "vocab") else str):
                    raise ConfigError(f"{section!r}: {key} {value!r} is a {type(value).__name__}")
            if not lang.name:
                raise ConfigError(f"{section!r}: a language needs a name")
            if any(c in lang.name + lang.grouping for c in "\t\r\n"):
                raise ConfigError(
                    f"{section!r}: a name or grouping cannot hold a tab or line break, as TSV has no quoting"
                )
            for key in ("corpus", "vocab"):
                path = getattr(lang, key)
                if not os.path.exists(path):
                    raise ConfigError(
                        f"{lang.name}: {key} not found: {path} "
                        f"(relative paths resolve against the working directory, {os.getcwd()})"
                    )


def _reader(parse, expected: str, accept=lambda value: True):
    """A reader of an option's text, for a flag and a `[run]` key alike: the
    value `parse` makes of it, unless that is None or fails `accept`, when it
    raises a `ValueError` that names what was `expected`."""

    def read(text: str):
        try:
            value = parse(text)
        except ValueError:
            value = None
        if value is None or not accept(value):
            raise ValueError(f"expected {expected}, got {text!r}")
        return value

    return read


_BOOLEANS = configparser.ConfigParser.BOOLEAN_STATES

read_positive_int = _reader(int, "a positive integer", lambda v: v >= 1)
read_nonnegative = _reader(float, "a finite number >= 0", lambda v: 0 <= v < math.inf)  # not nan
read_probability = _reader(float, "a number in (0, 1)", lambda v: 0 < v < 1)
read_boolean = _reader(lambda text: _BOOLEANS.get(text.strip().lower()), f"one of {', '.join(_BOOLEANS)}")

# the reader of each `[run]` key, which is a `RunConfig` field
_RUN_READERS = {
    "window": read_positive_int,
    "stride": read_positive_int,
    "mattr_window": read_positive_int,
    "alpha": read_nonnegative,
    "pretokenized": read_boolean,
    "greedy": read_boolean,
    "percent": read_boolean,
    "format": _reader(str, "one of tsv, csv, json", ("tsv", "csv", "json").__contains__),
    "sort_by": _reader(str, f"one of {', '.join(_NUMERIC_COLUMNS)}", _NUMERIC_COLUMNS.__contains__),
}
_LANGUAGE_KEYS = set(LanguageSpec._fields) - {"name"}


def _read_run_key(key: str, text: str):
    try:
        return _RUN_READERS[key](text)
    except ValueError as e:
        raise ConfigError(f"[run] {key}: {e}") from None


def load_config(path: Union[str, os.PathLike]) -> RunConfig:
    """Read a run config and check it with `RunConfig.validate`. Itself it
    checks only what the INI form can get wrong: syntax, an unknown section or
    key, a missing `corpus` or `vocab`. Each `[run]` value is read by its key's
    reader, as the matching CLI flag is. Relative paths resolve against the
    working directory, not the config's. Every problem is a `ConfigError`."""
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
    unknown = sorted(run.keys() - _RUN_READERS.keys())
    if unknown:
        raise ConfigError(f"[run]: unknown key(s) {', '.join(unknown)}")
    languages = []
    for section, entry in sections.items():
        if not section.startswith("language:"):
            raise ConfigError(f"[{section}]: unknown section; expected [run] or [language:NAME]")
        unknown = sorted(set(entry) - _LANGUAGE_KEYS)
        if unknown:
            raise ConfigError(f"[{section}]: unknown key(s) {', '.join(unknown)}")
        if "corpus" not in entry or "vocab" not in entry:
            raise ConfigError(f"{section}: needs 'corpus' and 'vocab' keys")
        languages.append(LanguageSpec(section[len("language:") :], **entry))

    config = RunConfig(languages, **{key: _read_run_key(key, text) for key, text in run.items()})
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

        _read_run_key("sort_by", self.sort_key)
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
    precision. Percent mode scales the ratio-valued columns by 100. A
    `format` or sort key that `[run]` would reject is a `ConfigError`."""

    def scaled(row: ReportRow) -> Dict[str, Optional[float]]:
        out = {}
        for col in _NUMERIC_COLUMNS:
            v = row.values.get(col)
            if v is not None and percent and col in _PERCENT_COLUMNS:
                v = v * 100.0
            out[col] = v
        return out

    _read_run_key("format", format)
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
        # TSV cannot quote: `RunConfig.validate` rejects a tab or line break
        # in a language name or grouping
        return list(map("\t".join, table))
    import csv
    import io

    # RFC 4180 quoting; with its default "\r\n" terminator the writer also
    # quotes a cell holding "\r" or "\n"
    buf = io.StringIO()
    csv.writer(buf).writerows(table)
    return buf.getvalue().split("\r\n")[:-1]
