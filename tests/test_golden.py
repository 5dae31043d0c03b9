"""Byte-exact golden outputs of the CLI on small seeded inputs.

The inputs in `tests/golden/` are an ASCII pretokenized corpus per language
with a marker vocabulary that has an `<unk>` piece, the first language's
vocabulary without the marker (`plain.tsv`) and with three pieces that join
words across it (`joined.tsv`), a mixed-script corpus of long lines with its
marker vocabulary, a reference segmentation file for `align` (with rejected
entries, a word with two references and CRLF lines), numeric columns for
`stats`, and one `run` config per output format.
Paths in the configs are relative to `tests/golden/`.

The module needs only the standard library, so it also checks every case
against its expected file outside pytest, with whichever `morphlens` it
imports, and names each case that differs:

    python tests/test_golden.py

A change that alters a number must say so and regenerate the expected files:

    PYTHONPATH=src python tests/test_golden.py --write
"""

import io
import os
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

from morphlens.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
EXPECTED = GOLDEN / "expected"

CASES = {
    "bigram_default": ["bigram", "alpha.txt", "--vocab", "alpha.tsv"],
    "bigram_w50_stride3_percent": [
        "bigram",
        "beta.txt",
        "--vocab",
        "beta.tsv",
        "--window",
        "50",
        "--stride",
        "3",
        "--percent",
    ],
    "bigram_w5_lifetime_eta": [
        "bigram",
        "alpha.txt",
        "--vocab",
        "alpha.tsv",
        "--window",
        "5",
        "--lifetime-eta",
    ],
    "bigram_no_pretokenize": ["bigram", "alpha.txt", "--vocab", "alpha.tsv", "--no-pretokenize"],
    # at the default window no retained type fills one on both sides
    "bigram_full_windows_only": [
        "bigram",
        "alpha.txt",
        "--vocab",
        "alpha.tsv",
        "--full-windows-only",
    ],
    "bigram_full_windows_only_w5": [
        "bigram",
        "alpha.txt",
        "--vocab",
        "alpha.tsv",
        "--full-windows-only",
        "--window",
        "5",
    ],
    "tokenize_default": ["tokenize", "alpha.txt", "--vocab", "alpha.tsv"],
    "tokenize_no_pretokenize": [
        "tokenize",
        "alpha.txt",
        "--vocab",
        "alpha.tsv",
        "--no-pretokenize",
    ],
    # mixed-script long lines (Latin with diacritics, Cyrillic, Greek) and a
    # marker vocabulary: the first 150 lines of the seed-3 `wholeline_viterbi`
    # benchmark corpus, with its whole vocabulary
    "tokenize_mixed": ["tokenize", "mixed.txt", "--vocab", "mixed.tsv"],
    "tokenize_mixed_no_pretokenize": [
        "tokenize",
        "mixed.txt",
        "--vocab",
        "mixed.tsv",
        "--no-pretokenize",
    ],
    # pretoken counts over non-ASCII letters and punctuation (« »)
    "counts_mixed_pretokenize": ["counts", "mixed.txt", "--pretokenize"],
    "bigram_mixed_no_pretokenize_w50": [
        "bigram",
        "mixed.txt",
        "--vocab",
        "mixed.tsv",
        "--no-pretokenize",
        "--window",
        "50",
    ],
    **{
        f"align_{mode.replace('-', '_')}": [
            "align",
            "refs.tsv",
            "--vocab",
            "alpha.tsv",
            "--mode",
            mode,
        ]
        for mode in (
            "full",
            "morphscore-exclude",
            "morphscore-credit",
            "stem-suffix",
            "suffix-suffix",
        )
    },
    "unigram_default": ["unigram", "alpha.txt", "--vocab", "alpha.tsv"],
    "unigram_w7": ["unigram", "alpha.txt", "--vocab", "alpha.tsv", "--mattr-window", "7"],
    # a vocabulary without the boundary marker: the pieces of `alpha.tsv`
    # with it removed, and a U+0020 piece, so whole-line mode cuts at spaces
    "tokenize_plain_no_pretokenize": [
        "tokenize",
        "alpha.txt",
        "--vocab",
        "plain.tsv",
        "--no-pretokenize",
    ],
    "bigram_plain_no_pretokenize": [
        "bigram",
        "alpha.txt",
        "--vocab",
        "plain.tsv",
        "--no-pretokenize",
    ],
    "unigram_plain": ["unigram", "alpha.txt", "--vocab", "plain.tsv"],
    # the pieces of `alpha.tsv` and three that join two words across a
    # marker, so whole-line mode cannot cut lines and segments each one whole
    "tokenize_joined_no_pretokenize": [
        "tokenize",
        "alpha.txt",
        "--vocab",
        "joined.tsv",
        "--no-pretokenize",
    ],
    "bigram_joined_no_pretokenize": [
        "bigram",
        "alpha.txt",
        "--vocab",
        "joined.tsv",
        "--no-pretokenize",
    ],
    "run_tsv": ["run", "--config", "run_tsv.ini"],
    "run_csv": ["run", "--config", "run_csv.ini"],
    "run_json": ["run", "--config", "run_json.ini"],
    "stats_welch": ["stats", "welch", "--in", "g1_before.csv", "g2_before.csv"],
    "stats_gap": [
        "stats",
        "gap",
        "--in",
        "g1_before.csv",
        "g2_before.csv",
        "g1_after.csv",
        "g2_after.csv",
    ],
    "stats_holm": ["stats", "holm", "--in", "p_values.csv"],
    "stats_dup": ["stats", "dup", "--in", "g1_before.csv", "g2_before.csv", "--k", "3"],
    "stats_ols": ["stats", "ols", "--in", "g1_before.csv", "g1_after.csv"],
}


# commands without an --out option; their cases are read from stdout
STDOUT_ONLY = {"counts"}


def render(name: str, out: Path) -> bytes:
    """Run one case from `tests/golden/` and return the bytes it wrote."""
    argv = CASES[name]
    cwd = os.getcwd()
    os.chdir(GOLDEN)
    try:
        if argv[0] in STDOUT_ONLY:
            stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
            with redirect_stdout(stdout):
                code = main(argv)
            out.write_bytes(stdout.buffer.getvalue())
        else:
            code = main(argv + ["--out", str(out)])
    finally:
        os.chdir(cwd)
    if code != 0:
        raise RuntimeError(f"{name}: exit status {code}")
    return out.read_bytes()


def pytest_generate_tests(metafunc):
    # one test per case; a hook, not a decorator, so the module imports
    # without pytest
    metafunc.parametrize("name", sorted(CASES))


def test_golden_bytes(name, tmp_path):
    expected = (EXPECTED / f"{name}.out").read_bytes()
    assert render(name, tmp_path / "out") == expected


if __name__ == "__main__":
    write = sys.argv[1:] == ["--write"]
    differ = []
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(CASES):
            try:
                data = render(name, Path(tmp) / name)
            except RuntimeError as e:
                print(e, file=sys.stderr)
                differ.append(name)
                continue
            expected = EXPECTED / f"{name}.out"
            if write:
                expected.write_bytes(data)
                print(f"{name}: {len(data)} bytes", file=sys.stderr)
            elif not expected.exists() or expected.read_bytes() != data:
                differ.append(name)
    for name in differ:
        print(f"{name}: differs from expected/{name}.out", file=sys.stderr)
    print(f"{len(CASES)} golden cases, {len(differ)} differ")
    sys.exit(1 if differ else 0)
