"""Tests of the benchmark itself: generators, reference check, names.

    python3 -m pytest perfbench/tests
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture
def small(monkeypatch):
    """Generators at a tenth of their size or less, for speed."""
    monkeypatch.setattr(workloads, "PAPER_LINES", 400)
    monkeypatch.setattr(workloads, "WHOLELINE_LINES", 40)
    monkeypatch.setattr(workloads, "MULTILANG_LINES", 300)


def _generate(workload, seed, out):
    out.mkdir()
    workloads.GENERATORS[workload](seed, out, "inputs")
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generators_are_deterministic(workload, small, tmp_path):
    first = _generate(workload, 7, tmp_path / "a")
    assert first == _generate(workload, 7, tmp_path / "b")
    assert first != _generate(workload, 8, tmp_path / "c")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_full_size_inputs_match_the_stored_references(workload, tmp_path):
    out = tmp_path / "in"
    out.mkdir()
    rel = workloads.input_dir(workload, 0).relative_to(ROOT).as_posix()
    workloads.GENERATORS[workload](0, out, rel)
    files = {p.name: workloads._sha256(p) for p in sorted(out.iterdir())}
    stored = json.loads(reference.REFERENCES.read_text())[workload]["0"]
    assert reference.inputs_sha256({"files": files}) == stored["inputs_sha256"]


def test_names_use_safe_characters_and_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert all(NAME.fullmatch(n) for n in names)
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in list(run.END_TO_END) + list(run.PER_LAYER))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def _oracle_values(small_dir):
    return reference.oracle_language(small_dir / "corpus.txt", small_dir / "vocab.tsv", True)


def test_compare_flags_perturbed_values(small, tmp_path):
    _generate("paper_pretok", 3, tmp_path / "in")
    want = _oracle_values(tmp_path / "in")
    assert reference.compare(want, dict(want)) == []
    for key in reference.INT_KEYS:
        assert reference.compare(want, dict(want, **{key: want[key] + 1})), key
    for key in reference.FLOAT_KEYS:
        assert reference.compare(want, dict(want, **{key: want[key] * (1 + 1e-6) + 1e-9})), key
        # a last-digit difference from reordered summation is tolerated
        assert reference.compare(want, dict(want, **{key: want[key] * (1 + 1e-13)})) == [], key


def _measure(input_dir, expected, trace="0"):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "measure.py"), "paper_pretok", str(input_dir), trace, str(expected)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_measured_pass_fails_on_perturbed_reference(small, tmp_path):
    _generate("paper_pretok", 3, tmp_path / "in")
    want = _oracle_values(tmp_path / "in")
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"ops": {"main": want}}))
    sample = _measure(tmp_path / "in", good, trace="1")
    assert (sample["ops"], sample["failed"]) == (1, 0)
    assert sample["calib_s"] > 0
    assert set(sample["layers"]) == set(run.PER_LAYER) - set(run.RUN_LEVEL)
    assert sample["layers"]["bigram.pairs"] == want["pairs"]
    assert sample["unhooked"] == []

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"ops": {"main": dict(want, eta=want["eta"] * 1.001)}}))
    sample = _measure(tmp_path / "in", bad)
    assert (sample["ops"], sample["failed"]) == (1, 1)
    assert sample["errors"][0].startswith("main: eta")


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_cache", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper_pretok", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
