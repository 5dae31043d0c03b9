import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import morphlens
from morphlens import cli
from morphlens.cli import main
from morphlens.corpus import BATCH_LINES, InputError, read_lines
from morphlens.report import ConfigError, analyze_language, load_config
from morphlens.tokenizer import load_vocab


CORPUS = "aba bab ca\nca aba aba\nbab ca aba\n" * 5
VOCAB = "a\t-2.0\nb\t-2.2\nc\t-2.5\nab\t-3.0\nba\t-3.1\nca\t-3.3\n"


@pytest.fixture
def lang(tmp_path):
    corpus = tmp_path / "c.txt"
    vocab = tmp_path / "v.tsv"
    corpus.write_text(CORPUS, encoding="utf-8")
    vocab.write_text(VOCAB, encoding="utf-8")
    return corpus, vocab


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_counts(capsys, lang):
    corpus, _ = lang
    code, out = run_cli(capsys, "counts", str(corpus), "--pretokenize")
    assert code == 0
    table = dict(line.split("\t") for line in out.strip().splitlines())
    assert table["csc"] == "15"
    assert table["cwc"] == "45"
    assert table["ccc"] == table["cbc"]  # pure ASCII


def test_byte_premium(capsys, tmp_path):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    a.write_text("xxxxxx\n", encoding="utf-8")
    b.write_text("yy\n", encoding="utf-8")
    code, out = run_cli(capsys, "byte-premium", str(a), str(b))
    assert code == 0
    assert float(out.strip()) == pytest.approx(3.0)


@pytest.mark.parametrize("command", ["byte-premium", "counts"])
def test_corpus_decode_error_names_its_file(capsys, tmp_path, command):
    # byte-premium gets a valid target and a bad reference: the message
    # says which of the two is bad
    good = tmp_path / "good.txt"
    good.write_text("xxxxxx\n", encoding="utf-8")
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"y\xff\n")
    args = [str(good), str(bad)] if command == "byte-premium" else [str(bad)]
    code = main([command] + args)
    err = capsys.readouterr().err
    assert (code, err) == (1, f"morphlens: error: {bad}: invalid UTF-8 at byte offset 1\n")


def test_tokenize(capsys, lang):
    corpus, vocab = lang
    code, out = run_cli(capsys, "tokenize", str(corpus), "--vocab", str(vocab))
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 15
    assert lines[0] == "ab a b ab ca"


@pytest.mark.parametrize("spelling", ["same", "dotted"])
def test_tokenize_out_naming_its_corpus_is_a_usage_error(capsys, tmp_path, lang, spelling):
    # the output streams, so opening it for writing would empty the corpus
    # before a line of it is read
    source, vocab = lang
    corpus = tmp_path / "corpus.txt"
    corpus.write_bytes(source.read_bytes())
    out = str(corpus) if spelling == "same" else str(tmp_path / "." / corpus.name)
    code = main(["tokenize", str(corpus), "--vocab", str(vocab), "--out", out])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("morphlens: error: ")
    assert captured.err.count("\n") == 1
    assert corpus.read_bytes() == source.read_bytes()


@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "file"])
def test_tokenize_input_error_after_valid_lines(capsys, tmp_path, lang, to_file):
    # output streams: the lines before the bad byte stay written, and the
    # command still ends with the one-line error
    valid, vocab = lang
    _, expected = run_cli(capsys, "tokenize", str(valid), "--vocab", str(vocab))
    corpus = tmp_path / "late.txt"
    corpus.write_bytes(CORPUS.encode("utf-8") + b"ab\xff\n")
    out_path = tmp_path / "out.txt"
    out_args = ["--out", str(out_path)] if to_file else []
    code = main(["tokenize", str(corpus), "--vocab", str(vocab)] + out_args)
    captured = capsys.readouterr()
    assert code == 1
    offset = len(CORPUS) + 2
    assert captured.err == f"morphlens: error: {corpus}: invalid UTF-8 at byte offset {offset}\n"
    out = out_path.read_text(encoding="utf-8") if to_file else captured.out
    assert out == expected


@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "file"])
def test_input_error_after_more_than_one_batch(capsys, tmp_path, lang, to_file):
    # the bad byte ends the second batch of lines early: tokenize still
    # writes every line before it, and bigram writes nothing but its error
    _, vocab = lang
    valid = CORPUS * 20
    assert BATCH_LINES < valid.count("\n") < 2 * BATCH_LINES
    good = tmp_path / "good.txt"
    good.write_text(valid, encoding="utf-8")
    _, expected = run_cli(capsys, "tokenize", str(good), "--vocab", str(vocab))
    assert expected.count("\n") == valid.count("\n")
    corpus = tmp_path / "late.txt"
    corpus.write_bytes(valid.encode("utf-8") + b"ab\xff\n")
    message = f"morphlens: error: {corpus}: invalid UTF-8 at byte offset {len(valid) + 2}\n"
    out_path = tmp_path / "out.txt"
    out_args = ["--out", str(out_path)] if to_file else []
    code = main(["tokenize", str(corpus), "--vocab", str(vocab)] + out_args)
    captured = capsys.readouterr()
    assert (code, captured.err) == (1, message)
    out = out_path.read_text(encoding="utf-8") if to_file else captured.out
    assert out == expected
    code = main(["bigram", str(corpus), "--vocab", str(vocab)] + out_args)
    captured = capsys.readouterr()
    assert (code, captured.err, captured.out) == (1, message, "")


# VmHWM is the peak RSS of this process image only; ru_maxrss would also
# count the RSS of the test process the child was forked from
TOKENIZE_PEAK_RSS = """
import sys
from morphlens.cli import main
assert main(["tokenize", sys.argv[1], "--vocab", sys.argv[2], "--out", sys.argv[3]]) == 0
with open("/proc/self/status") as f:
    print(next(line.split()[1] for line in f if line.startswith("VmHWM:")))
"""


def tokenize_peak_rss_mb(tmp_path, texts):
    """Peak RSS in MB of one `tokenize` process per corpus text, alpha vocabulary."""
    vocab = Path(__file__).resolve().parent / "golden" / "alpha.tsv"
    src = os.path.dirname(os.path.dirname(os.path.abspath(morphlens.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    peaks = []
    for k, text in enumerate(texts):
        corpus = tmp_path / f"corpus{k}.txt"
        corpus.write_text(text, encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-c", TOKENIZE_PEAK_RSS, str(corpus), str(vocab),
             str(tmp_path / "out.txt")],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        peaks.append(int(proc.stdout) / 1024)  # kB to MB
    return peaks


@pytest.mark.slow
@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux /proc")
def test_tokenize_memory_does_not_grow_with_corpus(tmp_path):
    # 3,000 then 24,000 lines of the golden corpus: the output streams, so
    # peak RSS stays flat; holding the output in memory adds ~10 MB
    golden = Path(__file__).resolve().parent / "golden"
    lines = (golden / "alpha.txt").read_text(encoding="utf-8")
    assert lines.count("\n") == 300
    peaks = tokenize_peak_rss_mb(tmp_path, [lines * 10, lines * 80])
    assert peaks[1] - peaks[0] < 3.0, peaks


@pytest.mark.slow
@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux /proc")
def test_tokenize_memory_bounded_when_word_types_grow(tmp_path):
    # every word is new: 72,000 then 144,000 distinct pretokens, both past
    # the segment cache bound (65,536), so peak RSS stays flat; caching every
    # pretoken adds ~35 MB on the larger corpus
    syllables = [c + v for c in "bdgkmnrst" for v in "aeiou"]

    def word(i):
        out = "ke"
        while True:
            i, r = divmod(i, len(syllables))
            out += syllables[r]
            if not i:
                return out

    def corpus(n_words):
        return "".join(
            " ".join(word(i) for i in range(start, start + 8)) + "\n"
            for start in range(0, n_words, 8)
        )

    peaks = tokenize_peak_rss_mb(tmp_path, [corpus(72_000), corpus(144_000)])
    assert peaks[1] - peaks[0] < 3.0, peaks


def test_tokenize_greedy_differs(capsys, lang):
    corpus, vocab = lang
    _, viterbi = run_cli(capsys, "tokenize", str(corpus), "--vocab", str(vocab))
    _, greedy = run_cli(
        capsys, "tokenize", str(corpus), "--vocab", str(vocab), "--greedy"
    )
    # greedy longest-prefix picks ab+a for "aba"; both run, outputs line up
    assert len(greedy.splitlines()) == len(viterbi.splitlines())


def test_bigram_report(capsys, lang, tmp_path):
    corpus, vocab = lang
    out_path = tmp_path / "report.tsv"
    code, _ = run_cli(
        capsys,
        "bigram",
        str(corpus),
        "--vocab",
        str(vocab),
        "--window",
        "8",
        "--out",
        str(out_path),
    )
    assert code == 0
    lines = out_path.read_text(encoding="utf-8").strip().splitlines()
    assert lines[0].startswith("type\tf\tav_L")
    footer = {
        line.split("\t")[0]: line.split("\t")[1]
        for line in lines
        if line.startswith("#")
    }
    assert "# macro_av" in footer
    assert "# lr" in footer
    body = [line for line in lines[1:] if not line.startswith("#")]
    assert body  # at least one per-type row
    # the always-alone type is filtered
    ca_row = next(line for line in body if line.startswith("ca\t"))
    assert ca_row.endswith("\t0")


def test_bigram_percent_scaling(capsys, lang):
    corpus, vocab = lang
    _, plain = run_cli(
        capsys, "bigram", str(corpus), "--vocab", str(vocab), "--window", "8"
    )
    _, percent = run_cli(
        capsys,
        "bigram",
        str(corpus),
        "--vocab",
        str(vocab),
        "--window",
        "8",
        "--percent",
    )

    def footer_value(text, key):
        for line in text.splitlines():
            if line.startswith(key + "\t"):
                return float(line.split("\t")[1])
        raise AssertionError(key)

    assert footer_value(percent, "# lr") == pytest.approx(
        100 * footer_value(plain, "# lr")
    )
    assert footer_value(percent, "# macro_av") == pytest.approx(
        footer_value(plain, "# macro_av")
    )


def test_unigram_report(capsys, lang):
    corpus, vocab = lang
    code, out = run_cli(
        capsys,
        "unigram",
        str(corpus),
        "--vocab",
        str(vocab),
        "--mattr-window",
        "10",
    )
    assert code == 0
    table = dict(line.split("\t") for line in out.strip().splitlines())
    assert int(table["ctc"]) > 0
    assert 0 < float(table["mattr"]) <= 1
    assert float(table["mtl"]) > 0
    assert 0 <= float(table["renyi_efficiency"]) <= 1


def test_align_full(capsys, tmp_path):
    refs = tmp_path / "refs.tsv"
    refs.write_text("gathered\tgather|ed\n", encoding="utf-8")
    vocab = tmp_path / "v.tsv"
    vocab.write_text("gather\t-1.0\ned\t-1.0\n", encoding="utf-8")
    code, out = run_cli(capsys, "align", str(refs), "--vocab", str(vocab))
    assert code == 0
    table = dict(line.split("\t") for line in out.strip().splitlines())
    assert float(table["f1"]) == 1.0


def test_align_morphscore_modes(capsys, tmp_path):
    refs = tmp_path / "refs.tsv"
    refs.write_text("arabaları\taraba|lar|ı\n", encoding="utf-8")
    vocab = tmp_path / "v.tsv"
    vocab.write_text("araba\t-1.0\nları\t-1.5\narabaları\t-2.0\n", encoding="utf-8")
    code, excl = run_cli(
        capsys, "align", str(refs), "--vocab", str(vocab), "--mode", "morphscore-exclude"
    )
    assert code == 0
    code, cred = run_cli(
        capsys, "align", str(refs), "--vocab", str(vocab), "--mode", "morphscore-credit"
    )
    assert code == 0
    excl_table = dict(line.split("\t") for line in excl.strip().splitlines())
    cred_table = dict(line.split("\t") for line in cred.strip().splitlines())
    # the full form is in-vocab: skipped in one mode, credited in the other
    assert excl_table["n_skipped"] == "1"
    assert float(cred_table["recall"]) == 1.0


def test_stats_welch(capsys, tmp_path):
    f1 = tmp_path / "a.csv"
    f2 = tmp_path / "b.csv"
    f1.write_text("1\n2\n3\n", encoding="utf-8")
    f2.write_text("2\n3\n4\n", encoding="utf-8")
    code, out = run_cli(
        capsys, "stats", "welch", "--in", str(f1), str(f2), "--alpha", "0.05"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["statistic"] == pytest.approx(-1.2247, abs=1e-4)
    assert payload["df"] == pytest.approx(4.0)
    assert payload["reject"] is False


def test_stats_holm(capsys, tmp_path):
    f = tmp_path / "p.csv"
    f.write_text("0.01\n0.04\n0.03\n", encoding="utf-8")
    code, out = run_cli(capsys, "stats", "holm", "--in", str(f))
    assert code == 0
    payload = json.loads(out)
    assert [d["holm_reject"] for d in payload["decisions"]] == [True, False, False]


def test_stats_csv_header_skipped(capsys, tmp_path):
    f1 = tmp_path / "a.csv"
    f2 = tmp_path / "b.csv"
    f1.write_text("value\n1\n2\n3\n", encoding="utf-8")
    f2.write_text("value\n2\n3\n4\n", encoding="utf-8")
    code, out = run_cli(capsys, "stats", "welch", "--in", str(f1), str(f2))
    assert code == 0
    assert json.loads(out)["df"] == pytest.approx(4.0)


def test_run_exit_codes(capsys, tmp_path, lang):
    corpus, vocab = lang
    good = tmp_path / "good.ini"
    good.write_text(
        f"[run]\nwindow = 8\nmattr_window = 10\n"
        f"[language:L]\ncorpus = {corpus}\nvocab = {vocab}\n",
        encoding="utf-8",
    )
    code, out = run_cli(capsys, "run", "--config", str(good))
    assert code == 0
    assert out.splitlines()[0].startswith("language\tgrouping\tstatus")

    bad_config = tmp_path / "bad.ini"
    bad_config.write_text("[language:L]\ncorpus = no.txt\nvocab = no.tsv\n")
    code, _ = run_cli(capsys, "run", "--config", str(bad_config))
    assert code == 2

    broken = tmp_path / "broken.txt"
    broken.write_bytes(b"\xff")
    partial = tmp_path / "partial.ini"
    partial.write_text(
        f"[run]\nwindow = 8\nmattr_window = 10\n"
        f"[language:Ok]\ncorpus = {corpus}\nvocab = {vocab}\n"
        f"[language:Broken]\ncorpus = {broken}\nvocab = {vocab}\n",
        encoding="utf-8",
    )
    code = main(["run", "--config", str(partial)])
    err = capsys.readouterr().err
    assert code == 1
    assert err == f"Broken: CorpusError: {broken}: invalid UTF-8 at byte offset 0\n"


def test_run_empty_corpus_row_is_corpus_error(capsys, tmp_path, lang):
    corpus, vocab = lang
    empty = tmp_path / "empty.txt"
    empty.write_bytes(b"")
    config = tmp_path / "empty.ini"
    config.write_text(
        f"[run]\nwindow = 8\nmattr_window = 10\n"
        f"[language:Ok]\ncorpus = {corpus}\nvocab = {vocab}\n"
        f"[language:Empty]\ncorpus = {empty}\nvocab = {vocab}\n",
        encoding="utf-8",
    )
    code = main(["run", "--config", str(config)])
    err = capsys.readouterr().err
    assert code == 1
    assert err == "Empty: CorpusError: corpus produced no tokens\n"


def test_run_writes_output_file(capsys, tmp_path, lang):
    corpus, vocab = lang
    config = tmp_path / "run.ini"
    config.write_text(
        f"[run]\nwindow = 8\nmattr_window = 10\nformat = json\npercent = true\n"
        f"[language:L]\ncorpus = {corpus}\nvocab = {vocab}\n",
        encoding="utf-8",
    )
    out_path = tmp_path / "report.json"
    code, _ = run_cli(capsys, "run", "--config", str(config), "--out", str(out_path))
    assert code == 0
    payload = json.loads(out_path.read_text(encoding="utf-8"))
    assert payload[0]["language"] == "L"
    assert payload[0]["status"] == "ok"


@pytest.mark.parametrize(
    "setting",
    [
        "stride = 0",
        "mattr_window = 0",
        "alpha = -1",
        "sort_by = nosuch",
        "pretokenized = maybe",
        "greedy = 2",
        "percent = yes please",
        "windw = 5",
        pytest.param("window = abc", id="window-not-integer"),
        pytest.param("alpha = x", id="alpha-not-number"),
        pytest.param("alpha = inf", id="alpha-inf"),
        pytest.param("alpha = nan", id="alpha-nan"),
    ],
    ids=lambda setting: setting.split(" = ")[0],
)
def test_run_rejects_bad_run_key(capsys, tmp_path, lang, setting):
    corpus, vocab = lang
    config = tmp_path / "run.ini"
    config.write_text(
        f"[run]\n{setting}\n[language:L]\ncorpus = {corpus}\nvocab = {vocab}\n",
        encoding="utf-8",
    )
    code = main(["run", "--config", str(config)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("config error:")
    assert setting.split(" = ")[0] in captured.err  # names the key
    assert captured.out == ""


@pytest.mark.parametrize(
    "section, named",
    [
        pytest.param("[langauge:B]\n", "[langauge:B]", id="misspelt-section"),
        pytest.param("[language]\n", "[language]", id="section-without-name"),
        pytest.param("[language:]\n", "'language:'", id="empty-name"),
        pytest.param("[language:B]\ngruoping = X\n", "gruoping", id="misspelt-language-key"),
        pytest.param("[DEFAULT]\n", "[DEFAULT]", id="default-section"),
    ],
)
def test_run_rejects_what_would_drop_a_language(capsys, tmp_path, lang, section, named):
    # each of these once dropped a language or a grouping, or gave its keys
    # to every language, and still exited 0
    corpus, vocab = lang
    config = tmp_path / "run.ini"
    config.write_text(
        f"[language:A]\ncorpus = {corpus}\nvocab = {vocab}\n"
        f"{section}corpus = {corpus}\nvocab = {vocab}\n",
        encoding="utf-8",
    )
    code = main(["run", "--config", str(config)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("config error: ")
    assert named in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "text, where",
    [
        pytest.param("window = 8\n", ":1:", id="no-section-header"),
        pytest.param("[run]\nwindow = 8\nwindow = 9\n", ":3:", id="duplicate-run-key"),
        pytest.param("[run]\nwindow = 8\n[run]\nstride = 2\n", ":3:", id="duplicate-section"),
        pytest.param("[run]\nwindow\n", ":2:", id="key-without-equals"),
    ],
)
def test_run_malformed_config_is_one_line_error(capsys, tmp_path, lang, text, where):
    corpus, vocab = lang
    config = tmp_path / "run.ini"
    config.write_text(
        f"{text}[language:L]\ncorpus = {corpus}\nvocab = {vocab}\n", encoding="utf-8"
    )
    code = main(["run", "--config", str(config)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("config error:")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err
    assert captured.err.startswith(f"config error: {config}{where} ")  # path:line: message
    assert captured.err.count(str(config)) == 1  # names the file once
    assert captured.out == ""


def test_run_config_values_are_literal(capsys, tmp_path, lang):
    # no %-interpolation: a "%" in a path and a "%(name)s" are kept as written
    corpus, vocab = lang
    percent_corpus = tmp_path / "c50%.txt"
    percent_corpus.write_bytes(corpus.read_bytes())
    config = tmp_path / "run.ini"
    config.write_text(
        f"[run]\nwindow = 8\nmattr_window = 10\nformat = json\n"
        f"[language:L]\ncorpus = {percent_corpus}\nvocab = {vocab}\ngrouping = %(x)s\n",
        encoding="utf-8",
    )
    code, out = run_cli(capsys, "run", "--config", str(config))
    assert code == 0
    payload = json.loads(out)
    assert payload[0]["status"] == "ok"
    assert payload[0]["grouping"] == "%(x)s"


def test_run_config_with_byte_order_mark(capsys, tmp_path, lang):
    corpus, vocab = lang
    config = tmp_path / "run.ini"
    config.write_bytes(
        b"\xef\xbb\xbf"
        + f"[run]\nwindow = 8\nmattr_window = 10\n[language:L]\ncorpus = {corpus}\nvocab = {vocab}\n".encode()
    )
    code, out = run_cli(capsys, "run", "--config", str(config))
    assert code == 0
    assert capsys.readouterr().err == ""
    assert "\tok" in out


def test_run_resolves_relative_paths_against_working_directory(
    capsys, tmp_path, lang, monkeypatch
):
    # the corpus and vocabulary sit next to the config, but the config's
    # relative paths are read from the working directory
    corpus, vocab = lang
    config = tmp_path / "run.ini"
    config.write_text(
        f"[run]\nwindow = 8\nmattr_window = 10\n[language:L]\n"
        f"corpus = {corpus.name}\nvocab = {vocab.name}\n",
        encoding="utf-8",
    )
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    monkeypatch.chdir(elsewhere)
    assert main(["run", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: L: corpus not found: {corpus.name} ")
    assert str(elsewhere) in err
    monkeypatch.chdir(tmp_path)
    assert main(["run", "--config", str(config)]) == 0


GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize(
    "argv",
    [
        ["tokenize", "mixed.txt", "--vocab", "mixed.tsv"],
        ["bigram", "alpha.txt", "--vocab", "alpha.tsv"],
        ["unigram", "alpha.txt", "--vocab", "alpha.tsv"],
        ["align", "refs.tsv", "--vocab", "alpha.tsv"],
        ["run", "--config", "run_tsv.ini"],
    ],
    ids=lambda argv: argv[0],
)
def test_stdout_is_the_out_file_bytes_under_ascii_locale(tmp_path, argv):
    # output is UTF-8 whatever the locale's encoding says
    src = os.path.dirname(os.path.dirname(os.path.abspath(morphlens.__file__)))
    env = dict(os.environ, PYTHONPATH=src, PYTHONIOENCODING="ascii")

    def cli(*extra):
        proc = subprocess.run(
            [sys.executable, "-m", "morphlens.cli", *argv, *extra],
            cwd=GOLDEN,
            env=env,
            capture_output=True,
            timeout=300,
        )
        assert (proc.returncode, proc.stderr) == (0, b"")
        return proc.stdout

    out_path = tmp_path / "out"
    stdout = cli()
    assert cli("--out", str(out_path)) == b""
    assert stdout == out_path.read_bytes()


@pytest.mark.parametrize("command", ["tokenize", "bigram", "run"])
def test_early_input_error_leaves_out_file_untouched(capsys, tmp_path, lang, command):
    # the vocabulary and the config are read before --out is opened
    corpus, vocab = lang
    bad_vocab = tmp_path / "bad.tsv"
    bad_vocab.write_text("a\tnan\n", encoding="utf-8")
    bad_config = tmp_path / "bad.ini"
    bad_config.write_text(
        f"[run]\nwindow = 0\n[language:L]\ncorpus = {corpus}\nvocab = {vocab}\n",
        encoding="utf-8",
    )
    out_path = tmp_path / "out.txt"
    out_path.write_bytes(b"earlier output\n")
    argv = {
        "tokenize": ["tokenize", str(corpus), "--vocab", str(bad_vocab)],
        "bigram": ["bigram", str(corpus), "--vocab", str(bad_vocab)],
        "run": ["run", "--config", str(bad_config)],
    }[command]
    code = main(argv + ["--out", str(out_path)])
    captured = capsys.readouterr()
    assert code == (2 if command == "run" else 1)
    assert captured.err.count("\n") == 1
    assert out_path.read_bytes() == b"earlier output\n"


@pytest.mark.parametrize(
    "argv, out",
    [
        (["tokenize", "alpha.txt", "--vocab", "alpha.tsv"], "alpha.tsv"),
        (["bigram", "alpha.txt", "--vocab", "alpha.tsv"], "alpha.txt"),
        (["bigram", "alpha.txt", "--vocab", "alpha.tsv"], "./alpha.tsv"),
        (["unigram", "alpha.txt", "--vocab", "alpha.tsv"], "alpha.txt"),
        (["align", "refs.tsv", "--vocab", "alpha.tsv"], "refs.tsv"),
        (["align", "refs.tsv", "--vocab", "alpha.tsv"], "alpha.tsv"),
        (["stats", "welch", "--in", "g1_before.csv", "g2_before.csv"], "g2_before.csv"),
        (["stats", "holm", "--in", "p_values.csv"], "p_values.csv"),
        (["run", "--config", "run_tsv.ini"], "run_tsv.ini"),
        (["run", "--config", "run_tsv.ini"], "alpha.txt"),
        (["run", "--config", "run_tsv.ini"], "beta.tsv"),
        (["bigram", "alpha.txt", "--vocab", "alpha.tsv"], "link.txt"),
    ],
    ids=[
        "tokenize-vocab",
        "bigram-corpus",
        "bigram-vocab-dotted",
        "unigram-corpus",
        "align-refs",
        "align-vocab",
        "stats-second-input",
        "stats-holm-input",
        "run-config",
        "run-listed-corpus",
        "run-listed-vocab",
        "bigram-corpus-symlink",
    ],
)
def test_out_naming_an_input_is_a_usage_error(capsys, tmp_path, monkeypatch, argv, out):
    # checked before --out is opened, so every input keeps its bytes
    shutil.copytree(GOLDEN, tmp_path, dirs_exist_ok=True)
    (tmp_path / "link.txt").symlink_to(tmp_path / "alpha.txt")
    monkeypatch.chdir(tmp_path)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()}
    code = main(argv + ["--out", out])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"morphlens: error: --out {out!r} is the input file ")
    assert captured.err.count("\n") == 1
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()} == before


def test_parser_choices_match_the_library():
    # the parser spells them out so that building it loads neither module
    from morphlens import morph_eval, stats

    assert cli._ALIGN_MODES == morph_eval.MODES
    assert cli._ALTERNATIVES == list(stats._ALTERNATIVES)
    # and every error they raise is an input error (exit 1)
    assert issubclass(stats.StatsError, InputError)
    assert issubclass(morph_eval.MorphEvalError, InputError)


@pytest.mark.parametrize(
    "argv, choices",
    [
        (["align", "refs.tsv", "--vocab", "v.tsv", "--mode", "x"],
         "'full', 'morphscore-exclude', 'morphscore-credit', 'stem-suffix', 'suffix-suffix'"),
        (["stats", "welch", "--in", "a", "b", "--alternative", "x"], "'two-sided', 'less', 'greater'"),
    ],
    ids=["align-mode", "stats-alternative"],
)
def test_invalid_choice_is_a_usage_error(capsys, argv, choices):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert err.startswith("usage: morphlens ")
    assert f"invalid choice: 'x' (choose from {choices})" in err


def test_run_value_error_names_key_and_type(capsys, tmp_path, lang):
    corpus, vocab = lang
    config = tmp_path / "run.ini"
    config.write_text(
        f"[run]\nwindow = abc\n[language:L]\ncorpus = {corpus}\nvocab = {vocab}\n",
        encoding="utf-8",
    )
    assert main(["run", "--config", str(config)]) == 2
    assert capsys.readouterr().err == (
        "config error: [run] window: expected a positive integer, got 'abc'\n"
    )


def test_run_accepts_boolean_words(capsys, tmp_path, lang):
    corpus, vocab = lang
    config = tmp_path / "run.ini"
    config.write_text(
        "[run]\nwindow = 8\nmattr_window = 10\npretokenized = Off\ngreedy = no\n"
        f"percent = 1\nsort_by = ctc\n[language:L]\ncorpus = {corpus}\nvocab = {vocab}\n",
        encoding="utf-8",
    )
    code, out = run_cli(capsys, "run", "--config", str(config))
    assert code == 0
    row = dict(zip(*(line.split("\t") for line in out.splitlines())))
    assert row["status"] == "ok"
    assert row["cwc"] == "0"  # whole-line mode counts no pretokens


@pytest.mark.parametrize(
    "case",
    [
        "missing-corpus",
        "missing-vocab",
        "nan-vocab",
        "undecodable-corpus",
        "counts-missing",
        "unigram-no-tokens",
        "align-no-refs",
        "undecodable-refs",
    ],
)
def test_command_errors_are_one_line(capsys, tmp_path, lang, case):
    corpus, vocab = lang
    nan_vocab = tmp_path / "nan.tsv"
    nan_vocab.write_text("a\tnan\n", encoding="utf-8")
    undecodable = tmp_path / "ff.txt"
    undecodable.write_bytes(b"ab\xff\n")
    blank = tmp_path / "blank.txt"
    blank.write_text("\n\n", encoding="utf-8")
    refs = tmp_path / "refs.tsv"
    refs.write_text("gathered\tgather|ed\n", encoding="utf-8")
    bom16_refs = tmp_path / "refs16.tsv"
    bom16_refs.write_bytes(b"\xff\xfeg\x00a\x00")
    missing = str(tmp_path / "missing")
    argv = {
        "missing-corpus": ["tokenize", missing, "--vocab", str(vocab)],
        "missing-vocab": ["unigram", str(corpus), "--vocab", missing],
        "nan-vocab": ["bigram", str(corpus), "--vocab", str(nan_vocab)],
        "undecodable-corpus": ["tokenize", str(undecodable), "--vocab", str(vocab)],
        "counts-missing": ["counts", missing],
        "unigram-no-tokens": ["unigram", str(blank), "--vocab", str(vocab)],
        "align-no-refs": ["align", str(refs), "--vocab", str(vocab), "--mode", "suffix-suffix"],
        "undecodable-refs": ["align", str(bom16_refs), "--vocab", str(vocab)],
    }[case]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 1
    assert "Traceback" not in err
    assert err.startswith("morphlens: error: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "pretokenized", [True, False], ids=["pretokenized", "wholeline"]
)
def test_commands_agree_with_analyze_language(capsys, lang, pretokenized):
    corpus, vocab = lang
    m = analyze_language(
        read_lines(corpus),
        load_vocab(vocab),
        window=8,
        mattr_window=10,
        pretokenized=pretokenized,
    )
    mode = [] if pretokenized else ["--no-pretokenize"]
    code, out = run_cli(
        capsys, "bigram", str(corpus), "--vocab", str(vocab), "--window", "8", *mode
    )
    assert code == 0
    footer = dict(line.split("\t") for line in out.splitlines() if line.startswith("#"))
    assert footer["# macro_eta"] == f"{m.bigram.macro_eta:.4f}"
    assert footer["# lr"] == f"{m.bigram.lr:.4f}"
    if pretokenized:  # the unigram command always pretokenizes
        code, out = run_cli(
            capsys, "unigram", str(corpus), "--vocab", str(vocab), "--mattr-window", "10"
        )
        assert code == 0
        table = dict(line.split("\t") for line in out.splitlines())
        assert table == {
            "ctc": str(m.counts.ctc),
            "mattr": f"{m.mattr:.6f}",
            "mtl": f"{m.mtl:.6f}",
            "renyi_efficiency": f"{m.renyi:.6f}",
        }


POSITIVE = "expected a positive integer"
NONNEGATIVE = "expected a finite number >= 0"
PROBABILITY = "expected a number in (0, 1)"


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["bigram", "c.txt", "--vocab", "v.tsv", "--window", "0"], POSITIVE),
        (["bigram", "c.txt", "--vocab", "v.tsv", "--stride", "0"], POSITIVE),
        (["unigram", "c.txt", "--vocab", "v.tsv", "--mattr-window", "0"], POSITIVE),
        (["stats", "dup", "--in", "a.csv", "b.csv", "--k", "-1"], POSITIVE),
        (["unigram", "c.txt", "--vocab", "v.tsv", "--alpha", "-1"], NONNEGATIVE),
        (["unigram", "c.txt", "--vocab", "v.tsv", "--alpha", "nan"], NONNEGATIVE),
        (["unigram", "c.txt", "--vocab", "v.tsv", "--alpha", "inf"], NONNEGATIVE),
        (["unigram", "c.txt", "--vocab", "v.tsv", "--alpha", "x"], NONNEGATIVE),
        (["stats", "holm", "--in", "p.csv", "--alpha", "0"], PROBABILITY),
        (["stats", "holm", "--in", "p.csv", "--alpha", "1"], PROBABILITY),
        (["stats", "holm", "--in", "p.csv", "--alpha", "nan"], PROBABILITY),
        (["stats", "gap", "--in", "a", "b", "c", "d", "--alpha", "-0.05"], PROBABILITY),
    ],
    ids=[
        "window",
        "stride",
        "mattr-window",
        "k",
        "unigram-alpha-negative",
        "unigram-alpha-nan",
        "unigram-alpha-inf",
        "unigram-alpha-not-number",
        "stats-alpha-zero",
        "stats-alpha-one",
        "stats-alpha-nan",
        "stats-alpha-negative",
    ],
)
def test_out_of_range_options_are_usage_errors(capsys, argv, expected):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert err.startswith("usage: morphlens ")
    assert expected in err


# the command and flag that set each `[run]` key's option
FLAG_OF_RUN_KEY = {
    "window": ("bigram", "--window"),
    "stride": ("bigram", "--stride"),
    "mattr_window": ("unigram", "--mattr-window"),
    "alpha": ("unigram", "--alpha"),
}


@pytest.mark.parametrize("text", ["0", "-1", "abc", "nan", "inf", "+8", " 8"])
@pytest.mark.parametrize("key", list(FLAG_OF_RUN_KEY))
def test_flag_and_run_key_read_the_same_text(capsys, tmp_path, lang, key, text):
    # one reader per option: a flag and its `[run]` key accept the same texts
    # as the same value, and reject the same texts (exit 2) with one message
    corpus, vocab = lang
    command, flag = FLAG_OF_RUN_KEY[key]
    try:
        args = cli.build_parser().parse_args([command, str(corpus), "--vocab", str(vocab), f"{flag}={text}"])
        from_flag = repr(getattr(args, key))
    except SystemExit as e:
        assert e.code == 2
        err = capsys.readouterr().err
        from_flag = err[err.index("expected "):]
    config = tmp_path / "run.ini"
    config.write_text(f"[run]\n{key} = {text}\n[language:L]\ncorpus = {corpus}\nvocab = {vocab}\n", encoding="utf-8")
    try:
        from_run_key = repr(getattr(load_config(config), key))
    except ConfigError:
        assert main(["run", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        from_run_key = err[err.index("expected "):]
    assert from_flag == from_run_key
    accepted = {"+8", " 8", "0"} if key == "alpha" else {"+8", " 8"}
    assert from_flag.startswith("expected ") == (text not in accepted)


@pytest.mark.parametrize(
    "test, n_files",
    [("welch", 1), ("gap", 2), ("holm", 2), ("dup", 3), ("ols", 1)],
)
def test_stats_arity_is_usage_error(capsys, tmp_path, test, n_files):
    # checked before any file is read: these paths do not exist
    paths = [str(tmp_path / f"missing{i}.csv") for i in range(n_files)]
    code = main(["stats", test, "--in", *paths])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"morphlens: error: {test} needs ")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "content, message",
    [
        ("1\n", "welch test needs at least 2 observations"),
        ("", "a.csv: no values"),
        ("value\n", "a.csv: no values"),
        ("foo\n1\n2\n1e\n3\n", "a.csv:4: expected a number, got '1e'"),
        ("1\nfoo\n2\n", "a.csv:2: expected a number, got 'foo'"),
        ("x\ny\n1\n2\n", "a.csv:2: expected a number, got 'y'"),
        ("1\n,2\n3\n", "a.csv:2: expected a number, got ''"),
        ("1\n2\nnan\n", "a.csv:3: non-finite value 'nan'"),
        ("1\n-inf\n", "a.csv:2: non-finite value '-inf'"),
        (b"1\n\xff\n", "a.csv: invalid UTF-8 at byte offset 2"),
    ],
    ids=["one-value", "empty", "header-only", "bad-cell", "bad-cell-after-value",
         "second-header", "blank-cell", "nan", "inf", "undecodable"],
)
def test_stats_bad_input_is_one_line_error(capsys, tmp_path, content, message):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    a.write_bytes(content if isinstance(content, bytes) else content.encode("utf-8"))
    b.write_text("1\n2\n4\n", encoding="utf-8")
    code = main(["stats", "welch", "--in", str(a), str(b)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("morphlens: error: ")
    assert message in err
    assert err.count("\n") == 1


def test_stats_ols_exact_fit_is_one_line_error(capsys, tmp_path):
    # its slope t would be infinite, and `"t1": Infinity` is not JSON
    x = tmp_path / "x.csv"
    y = tmp_path / "y.csv"
    x.write_text("1\n2\n3\n4\n", encoding="utf-8")
    y.write_text("2\n4\n6\n8\n", encoding="utf-8")
    code = main(["stats", "ols", "--in", str(x), str(y)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "morphlens: error: exact fit: the slope's standard error is zero\n"


# --- generated corpora at the command boundary ------------------------------

# "x", "y" and "z" are in no piece, so words holding them segment to <unk>
BOUNDARY_VOCAB = "a\t-2.0\nb\t-2.2\nab\t-3.0\nба\t-2.5\n"
COMMANDS = st.sampled_from(["tokenize", "bigram", "unigram"])
WORDS = st.text(alphabet="abxyб", min_size=1, max_size=5)
LINES = st.lists(st.lists(WORDS, max_size=5).map(" ".join), min_size=1, max_size=8)


def run_on_bytes(command, corpus, vocab=BOUNDARY_VOCAB.encode("utf-8"), options=()):
    """(exit code, output file bytes, stderr) of one command run on a corpus
    and a vocabulary given as bytes."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = [os.path.join(tmp, name) for name in ("c.txt", "v.tsv", "out")]
        for path, data in zip(paths, (corpus, vocab)):
            with open(path, "wb") as f:
                f.write(data)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([command, paths[0], "--vocab", paths[1], "--out", paths[2], *options])
        out = Path(paths[2]).read_bytes() if os.path.exists(paths[2]) else b""
    return code, out, err.getvalue()


@given(
    command=COMMANDS,
    lines=LINES,
    in_vocab=st.booleans(),
    position=st.integers(min_value=0),
    bad=st.sampled_from([b"\xff", b"\xc3", b"\xe2\x82", b"\xed\xa0\x80", b"\xc0\xaf"]),
)
@settings(max_examples=100, deadline=None)
def test_invalid_utf8_anywhere_is_one_line_error(command, lines, in_vocab, position, bad):
    files = ["\n".join(lines).encode("utf-8") + b"\n", BOUNDARY_VOCAB.encode("utf-8")]
    data = files[in_vocab]
    k = position % (len(data) + 1)
    files[in_vocab] = data[:k] + bad + data[k:]
    code, _, err = run_on_bytes(command, *files)
    assert code == 1
    assert err.startswith("morphlens: error: ")
    assert "invalid UTF-8 at byte offset" in err
    assert err.count("\n") == 1


@given(
    command=COMMANDS,
    lines=LINES,
    last_newline=st.booleans(),
    crlf_vocab=st.booleans(),
    whole_lines=st.booleans(),
)
@settings(max_examples=100, deadline=None)
def test_crlf_gives_the_bytes_of_lf(command, lines, last_newline, crlf_vocab, whole_lines):
    # pretokenizing drops a stray "\r" as whitespace; whole lines keep it
    options = ["--no-pretokenize"] if whole_lines and command != "unigram" else []
    text = "\n".join(lines) + ("\n" if last_newline else "")
    vocab = BOUNDARY_VOCAB.replace("\n", "\r\n") if crlf_vocab else BOUNDARY_VOCAB
    lf = run_on_bytes(command, text.encode("utf-8"), options=options)
    crlf = run_on_bytes(
        command,
        text.replace("\n", "\r\n").encode("utf-8"),
        vocab.encode("utf-8"),
        options,
    )
    assert crlf == lf


def _with_empty_lines(lines):
    return st.lists(st.sampled_from(["", " ", "\t"]), max_size=3).flatmap(
        lambda empties: st.permutations(lines + empties)
    )


# Every corpus holds at least one word: with none, bigram and unigram have
# nothing to report and end with a one-line error.
def _has_word(lines):
    return any(line.strip() for line in lines)


WORDS_AND_EMPTY_LINES = LINES.filter(_has_word).flatmap(_with_empty_lines)
ONE_TYPE = st.tuples(WORDS, st.lists(st.integers(1, 4), min_size=1, max_size=5)).map(
    lambda t: [" ".join([t[0]] * n) for n in t[1]]
)
UNK_ONLY = (
    st.lists(st.text(alphabet="xyz ", min_size=1, max_size=12), min_size=1, max_size=6)
    .filter(_has_word)
    .flatmap(_with_empty_lines)
)


@given(
    command=COMMANDS,
    lines=st.one_of(WORDS_AND_EMPTY_LINES, ONE_TYPE, UNK_ONLY),
)
@settings(max_examples=150, deadline=None)
def test_degenerate_corpora_exit_zero(command, lines):
    code, out, err = run_on_bytes(command, ("\n".join(lines) + "\n").encode("utf-8"))
    assert (code, err) == (0, "")
    assert out
