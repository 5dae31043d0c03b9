"""Seeded input generators for the benchmark workloads.

Every generator draws only from a `random.Random` seeded with the workload
seed, so the same seed gives byte-identical files. Files are cached under
`perfbench/_cache/<workload>/<seed>/` and generated before any timed run.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import shutil
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
CACHE = Path(__file__).resolve().parent / "_cache"

WORKLOADS = ("paper_pretok", "wholeline_viterbi", "run_multilang")

MARKER = "▁"

# Input sizes, chosen so that one measured pass takes about a second on a
# 2-core x86 VM with Python 3.11, and a 40 s run gets 25-45 passes.
PAPER_LINES = 12_000
WHOLELINE_LINES = 600
MULTILANG_LINES = 3_500  # per language

TRAILING_PUNCT = (",", ",", ",", ".", ".", ";", ":", "?", "!")
WRAP_PUNCT = (("«", "»"), ("(", ")"), ('"', '"'))


# --- shared helpers ---------------------------------------------------------


def _zipf_cum(n: int, s: float = 1.0) -> List[float]:
    acc = 0.0
    cum = []
    for rank in range(1, n + 1):
        acc += rank**-s
        cum.append(acc)
    return cum


def _lexicon(rng: random.Random, syllables: Sequence[str], n: int, max_syl: int) -> List[str]:
    """n distinct words of 1..max_syl syllables, in random (= rank) order."""
    seen = set()
    words = []
    while len(words) < n:
        w = "".join(rng.choice(syllables) for _ in range(rng.randint(1, max_syl)))
        if w not in seen:
            seen.add(w)
            words.append(w)
    return words


def _decorate(rng: random.Random, word: str) -> str:
    """Attach punctuation the way running text does: trailing commas and
    stops, occasional quotes or brackets around a word."""
    r = rng.random()
    if r < 0.10:
        return word + rng.choice(TRAILING_PUNCT)
    if r < 0.12:
        left, right = rng.choice(WRAP_PUNCT)
        return left + word + right
    return word


def _line(rng: random.Random, words: List[str], end: str = ".") -> str:
    words = [_decorate(rng, w) for w in words]
    words[0] = words[0].capitalize()
    return " ".join(words) + end


def _vocab_rows(weights: Dict[str, float], chars: Sequence[str]) -> List[Tuple[str, float]]:
    """Log-probabilities proportional to `weights`, as a unigram LM trained
    on the corpus would give: frequent words become single pieces. Single
    characters score lowest, so they act as the fallback cover."""
    total = sum(weights.values())
    rows = [(p, math.log(w / total)) for p, w in weights.items() if p not in chars]
    floor = min(score for _, score in rows) - 2.0
    rows += [(c, floor - 0.01 * k) for k, c in enumerate(sorted(set(chars)))]
    return rows


def _zipf_weights(words: Sequence[str], n: int, share: float = 1.0, prefix: str = "") -> Dict[str, float]:
    """Zipf probabilities of the n most frequent words, scaled by share."""
    harmonic = _zipf_cum(len(words))[-1]
    return {prefix + w: share / (rank * harmonic) for rank, w in enumerate(words[:n], start=1)}


def _flat_weights(pieces: Sequence[str], weight: float) -> Dict[str, float]:
    return {p: weight for p in pieces}


def _write_vocab(path: Path, rows: List[Tuple[str, float]]) -> None:
    rows = sorted(rows, key=lambda r: (-r[1], r[0]))
    _write_text(path, "".join(f"{p}\t{s:.6f}\n" for p, s in rows))


def _write_lines(path: Path, lines: List[str]) -> None:
    _write_text(path, "".join(line + "\n" for line in lines))


def _write_text(path: Path, text: str) -> None:
    with open(path, "wb") as f:
        f.write(text.encode("utf-8"))


def _chars(texts) -> List[str]:
    out = set()
    for t in texts:
        out.update(t)
    out.discard(" ")
    return sorted(out)


# --- workloads --------------------------------------------------------------


def gen_paper_pretok(seed: int, out: Path, rel: str) -> None:
    """The test_10 generator: 8 words per line from 5,000 syllable words,
    syllables at -6 and the first 1,000 words at -9."""
    rng = random.Random(seed)
    syllables = [c + v for c in "bcdfghjklmnprst" for v in "aeiou"]
    word_cache = [
        "".join(rng.choice(syllables) for _ in range(rng.randint(1, 4)))
        for _ in range(5000)
    ]
    lines = [" ".join(rng.choice(word_cache) for _ in range(8)) for _ in range(PAPER_LINES)]
    pieces = {s: -6.0 for s in syllables}
    for w in word_cache[:1000]:
        pieces[w] = -9.0
    _write_lines(out / "corpus.txt", lines)
    _write_text(out / "vocab.tsv", "".join(f"{p}\t{s}\n" for p, s in pieces.items()))


SCRIPTS = {
    "latin": ("bcdfgklmnprstvz", "aeiouáéíóúàèüöä"),
    "czech": ("bcdfghjklmnprstvzšžčř", "aeiouáéíóúýěů"),
    "cyrillic": ("бвгдзклмнпрстфхчш", "аеиоуыэюя"),
    "greek": ("βγδζκλμνπρστφχ", "αεηιουωάέήίόύώ"),
}
DEVANAGARI = ("कखगचजटडतदनपबमयरलवसह", ("", "ा", "ि", "ी", "ु", "ू", "े", "ो"))


def _syllables(script: str) -> List[str]:
    consonants, vowels = SCRIPTS[script]
    return [c + v for c in consonants for v in vowels]


def gen_wholeline_viterbi(seed: int, out: Path, rel: str) -> None:
    """Long mixed-script lines (Latin with diacritics, Cyrillic, Greek) with
    attached punctuation, and a marker vocabulary with Zipfian scores."""
    rng = random.Random(seed)
    syl = {s: _syllables(s) for s in ("latin", "cyrillic", "greek")}
    words = (
        _lexicon(rng, syl["latin"], 4000, 4)
        + _lexicon(rng, syl["cyrillic"], 3000, 4)
        + _lexicon(rng, syl["greek"], 3000, 4)
    )
    rng.shuffle(words)
    cum = _zipf_cum(len(words))
    lines = []
    for _ in range(WHOLELINE_LINES):
        target = rng.randint(150, 350)
        drawn: List[str] = []
        length = -1
        while length < target:
            w = rng.choices(words, cum_weights=cum)[0]
            drawn.append(w)
            length += len(w) + 1
        lines.append(_line(rng, drawn))
    all_syl = [s for group in syl.values() for s in group]
    syllable_weight = 1.0 / (5000 * cum[-1])
    weights = {
        MARKER: 0.05,
        **_flat_weights(all_syl + [MARKER + s for s in all_syl], syllable_weight),
        **_zipf_weights(words, 4000, prefix=MARKER),
    }
    # "!" is left out of the vocabulary, so a small share of <unk> shows
    chars = [c for c in _chars(lines) if c != "!"]
    _write_lines(out / "corpus.txt", lines)
    _write_vocab(out / "vocab.tsv", _vocab_rows(weights, chars))


def gen_run_multilang(seed: int, out: Path, rel: str) -> None:
    """Two non-ASCII languages and a `morphlens run` config with JSON output:
    Latin with diacritics (plain vocabulary) and Cyrillic mixed with
    Devanagari (marker vocabulary)."""
    rng = random.Random(seed)

    # Latin with diacritics
    lat_syl = _syllables("czech")
    lat_words = _lexicon(rng, lat_syl, 14000, 4)
    cum = _zipf_cum(len(lat_words))
    lines = []
    for _ in range(MULTILANG_LINES):
        lines.append(_line(rng, rng.choices(lat_words, cum_weights=cum, k=rng.randint(9, 15))))
    _write_lines(out / "lat.txt", lines)
    weights = {**_flat_weights(lat_syl, 1.0 / (4000 * cum[-1])), **_zipf_weights(lat_words, 3000)}
    _write_vocab(out / "lat.tsv", _vocab_rows(weights, _chars(lines)))

    # Cyrillic with Devanagari words mixed in
    cyr_syl = _syllables("cyrillic")
    consonants, signs = DEVANAGARI
    dev_syl = [c + v for c in consonants for v in signs]
    cyr_words = _lexicon(rng, cyr_syl, 10000, 4)
    dev_words = _lexicon(rng, dev_syl, 6000, 3)
    cyr_cum = _zipf_cum(len(cyr_words))
    dev_cum = _zipf_cum(len(dev_words))
    lines = []
    for _ in range(MULTILANG_LINES):
        n = rng.randint(9, 15)
        drawn = rng.choices(cyr_words, cum_weights=cyr_cum, k=n)
        for k in range(n):
            if rng.random() < 0.3:
                drawn[k] = rng.choices(dev_words, cum_weights=dev_cum)[0]
        lines.append(_line(rng, drawn, end=rng.choice((".", "।"))))
    _write_lines(out / "cyrdev.txt", lines)
    syllables = cyr_syl + dev_syl
    weights = {
        MARKER: 0.05,
        **_flat_weights(syllables + [MARKER + s for s in syllables], 0.7 / (3000 * cyr_cum[-1])),
        **_zipf_weights(cyr_words, 2500, share=0.7, prefix=MARKER),
        **_zipf_weights(dev_words, 1500, share=0.3, prefix=MARKER),
    }
    _write_vocab(out / "cyrdev.tsv", _vocab_rows(weights, _chars(lines)))

    # paths relative to the repository root, where the benchmark runs
    config = (
        "[run]\nformat = json\n\n"
        f"[language:Latin-dia]\ncorpus = {rel}/lat.txt\nvocab = {rel}/lat.tsv\ngrouping = Latin\n\n"
        f"[language:Cyrillic-Deva]\ncorpus = {rel}/cyrdev.txt\nvocab = {rel}/cyrdev.tsv\n"
        "grouping = Cyrillic+Devanagari\n"
    )
    _write_text(out / "run.ini", config)


# generator(seed, out, rel): write the files into `out`; `rel` is where they
# end up, relative to the repository root, for files that name other files
GENERATORS = {
    "paper_pretok": gen_paper_pretok,
    "wholeline_viterbi": gen_wholeline_viterbi,
    "run_multilang": gen_run_multilang,
}


def input_dir(workload: str, seed: int) -> Path:
    return CACHE / workload / str(seed)


def ensure(workload: str, seed: int) -> dict:
    """Generate the inputs of (workload, seed) unless cached; return the
    manifest: sha256 of every file and the number of corpus lines."""
    final = input_dir(workload, seed)
    manifest_path = final / "manifest.json"
    if manifest_path.exists():
        return json.loads(manifest_path.read_text())
    tmp = final.with_name(f"{seed}.tmp{os.getpid()}")
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    GENERATORS[workload](seed, tmp, final.relative_to(ROOT).as_posix())
    manifest = {
        "workload": workload,
        "seed": seed,
        "files": {p.name: _sha256(p) for p in sorted(tmp.iterdir())},
        "lines": sum(_count_lines(p) for p in tmp.glob("*.txt")),
    }
    (tmp / "manifest.json").write_text(json.dumps(manifest, indent=1, sort_keys=True))
    try:
        tmp.rename(final)
    except OSError:  # another process finished the same seed first
        shutil.rmtree(tmp, ignore_errors=True)
    return manifest


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _count_lines(path: Path) -> int:
    with open(path, "rb") as f:
        return sum(1 for _ in f)
