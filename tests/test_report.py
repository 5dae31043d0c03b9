import csv
import io
import json
import os
import random
import re
import subprocess
import sys
import tracemalloc

import pytest

import morphlens
from morphlens import tokenizer
from morphlens.bigram import BigramTables
from morphlens.report import (
    ComparisonReport,
    ConfigError,
    LanguageSpec,
    ReportRow,
    RunConfig,
    _RUN_READERS,
    analyze_language,
    emit,
    load_config,
    run,
)
from morphlens.corpus import Corpus, CorpusError, read_lines
from morphlens.tokenizer import Vocabulary, load_vocab, segment_viterbi


CORPUS_A = "aba bab ca\nca aba aba\nbab ca aba\n" * 5
VOCAB_A = "a\t-2.0\nb\t-2.2\nc\t-2.5\nab\t-3.0\nba\t-3.1\nca\t-3.3\n"

CORPUS_B = "xy xy zz\nzz xy yx\n" * 5
VOCAB_B = "x\t-1.5\ny\t-1.6\nz\t-1.7\n"


def write_language(tmp_path, tag, corpus_text, vocab_text):
    corpus = tmp_path / f"{tag}.txt"
    vocab = tmp_path / f"{tag}.tsv"
    corpus.write_text(corpus_text, encoding="utf-8")
    vocab.write_text(vocab_text, encoding="utf-8")
    return corpus, vocab


def write_config(tmp_path, body):
    p = tmp_path / "run.ini"
    p.write_text(body, encoding="utf-8")
    return p


def two_language_config(tmp_path, extra_run=""):
    ca, va = write_language(tmp_path, "la", CORPUS_A, VOCAB_A)
    cb, vb = write_language(tmp_path, "lb", CORPUS_B, VOCAB_B)
    return write_config(
        tmp_path,
        f"""[run]
window = 8
mattr_window = 10
{extra_run}
[language:Alpha]
corpus = {ca}
vocab = {va}
grouping = G1

[language:Beta]
corpus = {cb}
vocab = {vb}
""",
    )


# --- config ----------------------------------------------------------------


def test_load_config_full(tmp_path):
    config = load_config(two_language_config(tmp_path, "percent = true\nsort_by = av\n"))
    assert [l.name for l in config.languages] == ["Alpha", "Beta"]
    assert config.languages[0].grouping == "G1"
    assert config.window == 8
    assert config.percent is True
    assert config.sort_by == "av"


def test_load_config_defaults(tmp_path):
    ca, va = write_language(tmp_path, "la", CORPUS_A, VOCAB_A)
    config = load_config(
        write_config(tmp_path, f"[language:X]\ncorpus = {ca}\nvocab = {va}\n")
    )
    assert config.window == 1000
    assert config.mattr_window == 500
    assert config.alpha == 2.5
    assert config.format == "tsv"


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "nope.ini")


def test_load_config_missing_keys(tmp_path):
    with pytest.raises(ConfigError, match="corpus"):
        load_config(write_config(tmp_path, "[language:X]\nvocab = v.tsv\n"))


def test_load_config_missing_corpus_path(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(
            write_config(tmp_path, "[language:X]\ncorpus = no.txt\nvocab = no.tsv\n")
        )


def test_run_keys_are_the_config_fields_but_languages():
    # `load_config` reads each key with its reader, which reads each default
    # back from its text
    assert set(_RUN_READERS) == set(RunConfig._fields) - {"languages"} == set(RunConfig._field_defaults)
    assert set(_RUN_READERS) == {
        "window", "stride", "mattr_window", "alpha", "pretokenized", "greedy", "percent", "format", "sort_by"
    }
    for key, default in RunConfig._field_defaults.items():
        assert _RUN_READERS[key](str(default)) == default


@pytest.mark.parametrize(
    "setting",
    [{"window": "8"}, {"window": 2.5}, {"pretokenized": "no"}],
    ids=["window-str", "window-float", "pretokenized-str"],
)
def test_validate_rejects_a_setting_of_another_type(tmp_path, setting):
    # a `RunConfig` built in code is checked as its text in a config file
    # would be: "8" is not the integer 8, and the string "no" is not false
    ca, va = write_language(tmp_path, "la", CORPUS_A, VOCAB_A)
    config = RunConfig(languages=[LanguageSpec("X", str(ca), str(va))], **setting)
    (key,) = setting
    with pytest.raises(ConfigError, match=re.escape(f"[run] {key}: ")):
        config.validate()


@pytest.mark.parametrize(
    "language, named",
    [
        ({"grouping": None}, "'language:X': grouping None is a NoneType"),
        ({"corpus": None}, "'language:X': corpus None is a NoneType"),
        ({"name": 3}, "'language:3': name 3 is a int"),
        ("x", "language 'x' is a str, not a LanguageSpec"),
    ],
    ids=["grouping-none", "corpus-none", "name-int", "not-a-spec"],
)
def test_validate_rejects_a_language_field_of_another_type(tmp_path, language, named):
    # a language built in code is a `LanguageSpec` of strings, with paths
    # for its files; anything else is a config error that names it
    ca, va = write_language(tmp_path, "la", CORPUS_A, VOCAB_A)
    RunConfig([LanguageSpec("X", ca, va)]).validate()
    if isinstance(language, dict):
        language = LanguageSpec("X", str(ca), str(va))._replace(**language)
    config = RunConfig([language])
    with pytest.raises(ConfigError, match=re.escape(named)):
        config.validate()
    with pytest.raises(ConfigError, match=re.escape(named)):
        run(config)


def test_config_no_languages():
    with pytest.raises(ConfigError, match="no languages"):
        RunConfig(languages=[]).validate()


def test_config_bad_format(tmp_path):
    ca, va = write_language(tmp_path, "la", CORPUS_A, VOCAB_A)
    config = RunConfig(
        languages=[LanguageSpec("X", str(ca), str(va))], format="xml"
    )
    with pytest.raises(ConfigError, match="format"):
        config.validate()


# --- single-language pipeline ----------------------------------------------


def vocab_of(**pieces):
    return Vocabulary(pieces=dict(pieces))


def test_analyze_language_populates_everything():
    m = analyze_language(
        Corpus.from_lines(CORPUS_A.splitlines()),
        vocab_of(a=-2.0, b=-2.2, c=-2.5, ab=-3.0, ba=-3.1, ca=-3.3),
        window=8,
        mattr_window=10,
    )
    assert m.counts.csc == 15
    assert m.counts.cwc == 45
    assert m.counts.ctc > 0
    assert 0 < m.mattr <= 1
    assert m.mtl > 0
    assert 0 <= m.renyi <= 1
    assert m.mwl > 0 and m.s > 0
    assert m.bigram.macro_av is not None


@pytest.mark.parametrize(
    "vocab_name, corpus_name",
    [
        ("alpha.tsv", "alpha.txt"),
        ("beta.tsv", "beta.txt"),
        ("mixed.tsv", "mixed.txt"),
        ("joined.tsv", "alpha.txt"),
        ("plain.tsv", "alpha.txt"),
    ],
)
@pytest.mark.parametrize("pretokenized", [True, False], ids=["pretokenized", "wholeline"])
def test_vocabulary_built_in_code_equals_loaded(vocab_name, corpus_name, pretokenized):
    # the same pieces segment alike however the vocabulary is built
    loaded = load_vocab(os.path.join(GOLDEN, vocab_name))
    built = Vocabulary(pieces=dict(loaded.pieces))
    assert built.boundary_marker == loaded.boundary_marker
    assert built._cut("a b▁c") == loaded._cut("a b▁c")
    corpus = read_lines(os.path.join(GOLDEN, corpus_name))
    assert analyze_language(corpus, built, pretokenized=pretokenized) == analyze_language(
        corpus, loaded, pretokenized=pretokenized
    )


def test_analyze_language_does_not_import_numpy():
    # numpy would cost the corpus path about 13 MB of RSS and 0.2 s of start-up
    src = os.path.dirname(os.path.dirname(os.path.abspath(morphlens.__file__)))
    code = (
        "import sys, morphlens\n"
        "from morphlens import Corpus, Vocabulary, analyze_language\n"
        f"analyze_language(Corpus.from_lines({CORPUS_A.splitlines()!r}),\n"
        "    Vocabulary(pieces={'a': -2.0, 'b': -2.2, 'c': -2.5}), window=8, mattr_window=10)\n"
        "assert 'numpy' not in sys.modules\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_package_imports_no_numpy():
    # morphlens has no runtime dependencies: every submodule and both seeded
    # demo generators run on the standard library alone
    src = os.path.dirname(os.path.dirname(os.path.abspath(morphlens.__file__)))
    code = (
        "import importlib, pkgutil, sys, morphlens\n"
        "for m in pkgutil.iter_modules(morphlens.__path__):\n"
        "    importlib.import_module('morphlens.' + m.name)\n"
        "from morphlens.stats import near_significant_pair, quadratic_regression_pair\n"
        "near_significant_pair(seed=1)\n"
        "quadratic_regression_pair(seed=0, n=100)\n"
        "assert 'numpy' not in sys.modules\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


# the `morph_eval` names that `morphlens` resolves on first use
MORPH_EVAL_NAMES = ["AlignmentResult", "SegmentationRef", "derive_subsets", "eval_full", "load_refs", "morphscore"]

IMPORT_GRAPH = """
import os, sys
# a site hook may have loaded some of these already
before = set(sys.modules)
import morphlens, morphlens.cli
main = morphlens.cli.main
LAZY = {"morphlens.stats", "morphlens.morph_eval"}
HEAVY = {"csv", "dataclasses", "inspect", "json"}
def loaded():
    return LAZY & set(sys.modules)
def heavy():
    return HEAVY & (set(sys.modules) - before)
os.chdir(sys.argv[1])
out = os.path.join(sys.argv[2], "out")
assert loaded() == set(), loaded()
assert heavy() == set(), heavy()
assert main(["bigram", "alpha.txt", "--vocab", "alpha.tsv", "--out", out]) == 0
assert main(["run", "--config", "run_tsv.ini", "--out", out]) == 0
assert loaded() == set(), loaded()
assert heavy() == set(), heavy()
assert main(["stats", "welch", "--in", "g1_before.csv", "g2_before.csv", "--out", out]) == 0
assert loaded() == {"morphlens.stats"}, loaded()
assert main(["align", "refs.tsv", "--vocab", "alpha.tsv", "--out", out]) == 0
assert loaded() == LAZY, loaded()
"""


def test_analysis_commands_do_not_load_stats_or_morph_eval(tmp_path):
    # start-up pays only for the analysis path: `stats` and `align` load
    # their modules when they run, and neither the package nor `bigram` or a
    # TSV `run` loads `dataclasses` (with `inspect`, about 10 ms), `json` or `csv`
    src = os.path.dirname(os.path.dirname(os.path.abspath(morphlens.__file__)))
    golden = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_GRAPH, golden, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    # the re-exported names load `morph_eval` on first use
    code = (
        "import sys, morphlens\n"
        "assert 'morphlens.morph_eval' not in sys.modules\n"
        f"from morphlens import {', '.join(MORPH_EVAL_NAMES)}\n"
        "from morphlens import morph_eval\n"
        f"for name in {MORPH_EVAL_NAMES!r}:\n"
        "    assert getattr(morphlens, name) is getattr(morph_eval, name), name\n"
        "    assert name in dir(morphlens), name\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        morphlens.no_such_name


# VmHWM is the peak RSS of this process image only; ru_maxrss would also
# count the RSS of the test process the child was forked from
PEAK_RSS = """
import sys
from morphlens import analyze_language, load_vocab, read_lines
analyze_language(read_lines(sys.argv[1]), load_vocab(sys.argv[2]))
with open("/proc/self/status") as f:
    print(next(line.split()[1] for line in f if line.startswith("VmHWM:")))
"""


@pytest.mark.slow
@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux /proc")
def test_analyze_language_memory_grows_with_types_not_tokens(tmp_path):
    # 12,000 test_10-style lines (about 200k tokens), then the same lines 8x:
    # no new types, so peak RSS must stay flat; a per-token list adds ~11 MB
    rng = random.Random(10)
    syllables = [c + v for c in "bcdfghjklmnprst" for v in "aeiou"]
    words = ["".join(rng.choice(syllables) for _ in range(rng.randint(1, 4))) for _ in range(5000)]
    lines = "".join(" ".join(rng.choice(words) for _ in range(8)) + "\n" for _ in range(12000))
    vocab = tmp_path / "vocab.tsv"
    vocab.write_text(
        "".join(f"{s}\t-6.0\n" for s in syllables)
        + "".join(f"{w}\t-9.0\n" for w in dict.fromkeys(words[:1000]) if w not in syllables),
        encoding="utf-8",
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(morphlens.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    peaks = []
    for copies in (1, 8):
        corpus = tmp_path / f"corpus{copies}.txt"
        corpus.write_text(lines * copies, encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-c", PEAK_RSS, str(corpus), str(vocab)],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        peaks.append(int(proc.stdout) / 1024)  # kB to MB
    assert peaks[1] - peaks[0] < 3.0, peaks


GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


def distinct_words(n_words):
    """Corpus text of n_words different words, 8 a line, all segmenting into
    the few syllable pieces of the golden alpha vocabulary."""
    syllables = [c + v for c in "bdgkmnrst" for v in "aeiou"]

    def word(i):
        out = "ke"
        while True:
            i, r = divmod(i, len(syllables))
            out += syllables[r]
            if not i:
                return out

    return "".join(
        " ".join(word(i) for i in range(start, start + 8)) + "\n"
        for start in range(0, n_words, 8)
    )


@pytest.mark.slow
@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux /proc")
def test_analyze_language_memory_bounded_when_word_types_grow(tmp_path):
    # 72,000 then 144,000 distinct pretokens, both past the record cache
    # bound (65,536), over a few dozen token types: peak RSS stays flat;
    # caching every pretoken adds ~15 MB on the larger corpus
    vocab = os.path.join(GOLDEN, "alpha.tsv")
    src = os.path.dirname(os.path.dirname(os.path.abspath(morphlens.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    peaks = []
    for n_words in (72_000, 144_000):
        corpus = tmp_path / f"corpus{n_words}.txt"
        corpus.write_text(distinct_words(n_words), encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-c", PEAK_RSS, str(corpus), vocab],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        peaks.append(int(proc.stdout) / 1024)  # kB to MB
    assert peaks[1] - peaks[0] < 3.0, peaks


@pytest.mark.parametrize("pretokenized", [True, False], ids=["pretokenized", "wholeline"])
def test_record_cache_is_freed_before_finalize(monkeypatch, pretokenized):
    # every block still allocated under `tokenize_corpus` when finalize
    # starts: the cache of 5,000 pretoken (or whole-line chunk) records
    # (0.8 MB) must be gone, leaving the interned types and the last line's
    # spans (7 kB)
    vocab = load_vocab(os.path.join(GOLDEN, "alpha.tsv"))
    segment_viterbi("ke", vocab)  # the vocabulary's own tables, before tracing
    corpus = Corpus.from_lines(distinct_words(5_000).splitlines())
    held = []
    finalize = BigramTables.finalize

    def traced_finalize(self, *args, **kwargs):
        snapshot = tracemalloc.take_snapshot().filter_traces(
            [tracemalloc.Filter(True, tokenizer.__file__, all_frames=True)]
        )
        held.append(sum(trace.size for trace in snapshot.traces))
        return finalize(self, *args, **kwargs)

    monkeypatch.setattr(BigramTables, "finalize", traced_finalize)
    tracemalloc.start(4)  # deep enough to reach `tokenize_corpus` from any allocation under it
    try:
        analyze_language(corpus, vocab, pretokenized=pretokenized)
    finally:
        tracemalloc.stop()
    assert len(held) == 1 and held[0] < 100_000, held


def test_analyze_language_empty_corpus_errors():
    with pytest.raises(CorpusError, match="no tokens"):
        analyze_language(Corpus.from_lines([]), vocab_of(a=-1.0))


# --- run -------------------------------------------------------------------


def test_run_two_identical_entries_identical_rows(tmp_path):
    ca, va = write_language(tmp_path, "la", CORPUS_A, VOCAB_A)
    config = RunConfig(
        languages=[
            LanguageSpec("L1", str(ca), str(va)),
            LanguageSpec("L2", str(ca), str(va)),
        ],
        window=8,
        mattr_window=10,
    )
    report = run(config)
    assert report.rows[0].values == report.rows[1].values


def test_run_failure_isolation(tmp_path):
    ca, va = write_language(tmp_path, "la", CORPUS_A, VOCAB_A)
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff\xfe broken")
    config = RunConfig(
        languages=[
            LanguageSpec("Good", str(ca), str(va)),
            LanguageSpec("Bad", str(bad), str(va)),
        ],
        window=8,
        mattr_window=10,
    )
    report = run(config)
    by_name = {r.language: r for r in report.rows}
    assert by_name["Good"].status == "ok"
    assert by_name["Bad"].status == "failed"
    assert by_name["Bad"].error
    assert report.failed


def test_run_failed_rows_have_their_own_values(tmp_path):
    _, va = write_language(tmp_path, "la", CORPUS_A, VOCAB_A)
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff")
    spec = LanguageSpec("F", str(bad), str(va))
    first, second = run(RunConfig(languages=[spec, spec], window=8, mattr_window=10)).rows
    assert first.values == second.values == {}
    assert first.values is not second.values


def test_run_sorts_by_key_failed_last(tmp_path):
    ca, va = write_language(tmp_path, "la", CORPUS_A, VOCAB_A)
    cb, vb = write_language(tmp_path, "lb", CORPUS_B, VOCAB_B)
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff")
    config = RunConfig(
        languages=[
            LanguageSpec("A", str(ca), str(va)),
            LanguageSpec("B", str(cb), str(vb)),
            LanguageSpec("F", str(bad), str(va)),
        ],
        window=8,
        mattr_window=10,
        sort_by="eta",
    )
    report = run(config)
    rows = report.sorted_rows()
    assert rows[-1].language == "F"
    etas = [r.values["eta"] for r in rows[:-1]]
    assert etas == sorted(etas)


def test_run_grouping_does_not_affect_numbers(tmp_path):
    ca, va = write_language(tmp_path, "la", CORPUS_A, VOCAB_A)
    with_label = run(
        RunConfig(
            languages=[LanguageSpec("L", str(ca), str(va), grouping="Agglutinative")],
            window=8,
            mattr_window=10,
        )
    )
    without = run(
        RunConfig(
            languages=[LanguageSpec("L", str(ca), str(va))],
            window=8,
            mattr_window=10,
        )
    )
    assert with_label.rows[0].values == without.rows[0].values


def test_run_byte_identical_tsv(tmp_path):
    config = load_config(two_language_config(tmp_path))
    first = emit(run(config), "tsv", False)
    second = emit(run(config), "tsv", False)
    assert first == second


# --- emit ------------------------------------------------------------------


def fixed_report():
    row = ReportRow(
        language="English",
        grouping="Fusional",
        values={
            "av": 2.12,
            "eta": 0.1592,
            "au": 0.6108,
            "lr": 0.5929,
            "mattr": 0.3178,
            "mtl": 4.89,
            "re": 0.3668,
            "s": 0.0927,
            "mwl": 5.54,
            "ccc": 100.0,
            "cbc": 120.0,
            "cwc": 20.0,
            "csc": 4.0,
            "ctc": 30.0,
        },
    )
    return ComparisonReport(rows=[row], sort_key="eta")


def test_emit_percent_scales_ratio_columns_only():
    header, row = emit(fixed_report(), "tsv", percent=True)
    cells = dict(zip(header.split("\t"), row.split("\t")))
    assert cells["eta"] == "15.9200"
    assert cells["au"] == "61.0800"
    assert cells["lr"] == "59.2900"
    assert cells["mattr"] == "31.7800"
    assert cells["re"] == "36.6800"
    assert cells["s"] == "9.2700"
    # AV, MTL, and MWL are never scaled
    assert cells["av"] == "2.1200"
    assert cells["mtl"] == "4.8900"
    assert cells["mwl"] == "5.5400"
    assert cells["ccc"] == "100"


def test_emit_csv_separator():
    assert emit(fixed_report(), "csv", False)[0].startswith("language,grouping,status")


def test_run_csv_and_tsv_rows_parse_back_to_their_cells(tmp_path):
    # a comma or quote in a language name or grouping is quoted in CSV, so
    # every row reads back as the header's 17 cells
    ca, va = write_language(tmp_path, "la", CORPUS_A, VOCAB_A)
    cb, vb = write_language(tmp_path, "lb", CORPUS_B, VOCAB_B)
    config = load_config(
        write_config(
            tmp_path,
            f'[language:Alpha, "quoted"]\ncorpus = {ca}\nvocab = {va}\ngrouping = Fusional, agglutinative\n'
            f"[language:Beta]\ncorpus = {cb}\nvocab = {vb}\ngrouping = 'a'; b\n",
        )
    )
    report = run(config)
    rows = list(csv.reader(io.StringIO("\n".join(emit(report, "csv", False)) + "\n")))
    tsv = [line.split("\t") for line in emit(report, "tsv", False)]
    assert [len(row) for row in rows] == [len(row) for row in tsv] == [17, 17, 17]
    assert rows == tsv
    assert {tuple(row[:2]) for row in rows[1:]} == {
        ('Alpha, "quoted"', "Fusional, agglutinative"),
        ("Beta", "'a'; b"),
    }


@pytest.mark.parametrize(
    "section, grouping",
    [
        ("language:Alpha\tBeta", "G"),
        ("language:Alpha", "Fusional\tagglutinative"),
        ("language:Alpha", "a\n  b"),  # a continuation line
        ("language:", "G"),
    ],
)
def test_load_config_rejects_tab_or_line_break_in_name_or_grouping(tmp_path, section, grouping):
    # TSV has no quoting, so such a cell would shift every column after it;
    # each case is rejected in a file and in a config built in Python alike
    ca, va = write_language(tmp_path, "la", CORPUS_A, VOCAB_A)
    named = re.escape(repr(section))
    path = write_config(tmp_path, f"[{section}]\ncorpus = {ca}\nvocab = {va}\ngrouping = {grouping}\n")
    with pytest.raises(ConfigError, match=named):
        load_config(path)
    name = section[len("language:") :]
    config = RunConfig([LanguageSpec(name, str(ca), str(va), grouping)])
    with pytest.raises(ConfigError, match=named):
        config.validate()
    with pytest.raises(ConfigError, match=named):
        emit(run(config))  # `run` raises, so `emit` never writes a row


def test_emit_json_round_trip():
    report = fixed_report()
    payload = json.loads("\n".join(emit(report, "json", False)))
    assert payload[0]["language"] == "English"
    # full precision: every numeric survives exactly
    for key, value in report.rows[0].values.items():
        assert payload[0][key] == value


def test_emit_unknown_format():
    with pytest.raises(ConfigError, match="format: expected one of tsv, csv, json, got 'xml'"):
        emit(fixed_report(), "xml", False)


def test_sorted_rows_unknown_sort_key():
    # a key that `[run]` rejects must not leave the rows in input order
    report = fixed_report()._replace(sort_key="ETA")
    with pytest.raises(ConfigError, match="sort_by: expected one of av, eta,"):
        report.sorted_rows()
    with pytest.raises(ConfigError, match="sort_by"):
        emit(report, "tsv", False)
