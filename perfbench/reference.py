"""Reference values for every workload and seed, and the check against them.

The reference is computed by `oracle_language`, a plain loop over the
library's `pretokenize`, `segment_viterbi` and the incremental
`bigram.AccessorState`, with its own finalize and unigram arithmetic, so it
shares no code with `analyze_language`, `BigramTables` or `morphlens.unigram`.
Values for the seeds in `references.json` were stored from this oracle and
pin today's numbers; other seeds are computed by the oracle when their
inputs are generated, outside any timed run.

Usage: python3 perfbench/reference.py --store 0-31   (rewrites references.json)
       python3 perfbench/reference.py --prepare paper_pretok 7
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import importlib
import json
import math
import sys
from collections import Counter
from pathlib import Path
from typing import Dict, List

import workloads

REFERENCES = Path(__file__).resolve().parent / "references.json"

INT_KEYS = ("ccc", "cbc", "cwc", "csc", "ctc", "pairs", "types", "retained", "filtered", "snapshots")
FLOAT_KEYS = ("av", "au", "eta", "lr", "mattr", "mtl", "re", "s", "mwl")
# Floats must agree to this relative tolerance (absolute near zero). Today's
# pipeline matches the oracle exactly; a reordered summation, such as a
# vectorised accessor kernel, moves the entropy sums by about 1e-12.
REL_TOL = 1e-9
ABS_TOL = 1e-12

WINDOW = 1000
MATTR_WINDOW = 500
ALPHA = 2.5


def _import_morphlens():
    src = str(workloads.ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    return [importlib.import_module(f"morphlens.{m}") for m in ("bigram", "pretokenize", "tokenizer")]


def oracle_language(corpus_path: Path, vocab_path: Path, pretokenized: bool) -> Dict[str, float]:
    """Reference values of one language at the default settings."""
    bigram, pretok, tokenizer = _import_morphlens()
    vocab = tokenizer.load_vocab(vocab_path)
    marker = vocab.boundary_marker
    lines = corpus_path.read_bytes().decode("utf-8").split("\n")
    if lines[-1] == "":
        lines.pop()

    ids: Dict[str, int] = {}
    left: List = []
    right: List = []
    tokens: List[str] = []
    cache: Dict[str, List[str]] = {}
    ccc = cbc = cwc = pairs = words = 0
    mwl_sum = s_sum = 0.0
    for line in lines:
        ccc += len(line)
        cbc += len(line.encode("utf-8"))
        if pretokenized:
            spans = []
            for p in pretok.pretokenize(line):
                seg = cache.get(p)
                if seg is None:
                    seg = cache[p] = tokenizer.segment_viterbi(p, vocab)
                spans.append(seg)
                mwl_sum += len(p)
                s_sum += len(seg) / len(p)
                words += 1
            cwc += len(spans)
        elif line:
            spans = [tokenizer.segment_viterbi(line.replace(" ", marker) if marker else line, vocab)]
        else:
            spans = []
        for span in spans:
            tids = []
            for piece in span:
                tid = ids.get(piece)
                if tid is None:
                    tid = ids[piece] = len(left)
                    left.append(bigram.AccessorState(WINDOW))
                    right.append(bigram.AccessorState(WINDOW))
                tids.append(tid)
            left[tids[0]].dummies += 1
            right[tids[-1]].dummies += 1
            for a, b in zip(tids, tids[1:]):
                right[a].push(b)
                left[b].push(a)
            pairs += len(tids) - 1
            tokens.extend(span)

    # finalize: lexical types, boundary-ratio filter, macro averages
    mark = marker or pretok.DEFAULT_MARKER
    lexical = [t for t, piece in enumerate(ids) if pretok.is_lexical(piece, mark)]
    pool_l = sum(1 for st in right if st.ta > 0)
    pool_r = sum(1 for st in left if st.ta > 0)
    kept = []
    for t in lexical:
        ls, rs = left[t], right[t]
        if min(ls.boundary_ratio(), rs.boundary_ratio()) >= 0.95:
            continue
        eta_l = ls.windowed_eta(pool_l) if pool_l else 0.0
        eta_r = rs.windowed_eta(pool_r) if pool_r else 0.0
        kept.append(
            (
                (ls.windowed_av() + rs.windowed_av()) / 2,
                (ls.windowed_au() + rs.windowed_au()) / 2,
                (eta_l + eta_r) / 2,
            )
        )
    n = len(kept)

    # unigram metrics
    counts = Counter(tokens)
    total = len(tokens)
    re_sum = sum((c / total) ** ALPHA for c in counts.values())
    return {
        "ccc": ccc,
        "cbc": cbc,
        "cwc": cwc,
        "csc": len(lines),
        "ctc": total,
        "pairs": pairs,
        "types": len(ids),
        "retained": n,
        "filtered": len(lexical) - n,
        "snapshots": sum(st.snapshots for st in left + right),
        "av": sum(k[0] for k in kept) / n,
        "au": sum(k[1] for k in kept) / n,
        "eta": sum(k[2] for k in kept) / n,
        "lr": (len(lexical) - n) / len(lexical),
        "mattr": _mattr(tokens, MATTR_WINDOW),
        "mtl": sum(len(t) - (len(mark) if t.startswith(mark) else 0) for t in tokens) / total,
        "re": math.log2(re_sum) / (1.0 - ALPHA) / math.log2(len(counts)),
        "s": s_sum / words if words else 0.0,
        "mwl": mwl_sum / words if words else 0.0,
    }


def _mattr(tokens: List[str], window: int) -> float:
    counts: Dict[str, int] = {}
    for tok in tokens[:window]:
        counts[tok] = counts.get(tok, 0) + 1
    distinct = total = len(counts)
    for i in range(window, len(tokens)):
        out = tokens[i - window]
        if counts[out] == 1:
            del counts[out]
            distinct -= 1
        else:
            counts[out] -= 1
        tok = tokens[i]
        c = counts.get(tok, 0)
        counts[tok] = c + 1
        if c == 0:
            distinct += 1
        total += distinct
    return total / (len(tokens) - window + 1) / window


def languages(workload: str, input_dir: Path) -> Dict[str, tuple]:
    """Operation name -> (corpus, vocab, pretokenized) for one workload."""
    if workload == "run_multilang":
        parser = configparser.ConfigParser()
        parser.read(input_dir / "run.ini", encoding="utf-8")
        return {
            s.split(":", 1)[1]: (workloads.ROOT / parser[s]["corpus"], workloads.ROOT / parser[s]["vocab"], True)
            for s in parser.sections()
            if s.startswith("language:")
        }
    pretokenized = workload == "paper_pretok"
    return {"main": (input_dir / "corpus.txt", input_dir / "vocab.tsv", pretokenized)}


def oracle(workload: str, input_dir: Path) -> Dict[str, Dict[str, float]]:
    return {op: oracle_language(*spec) for op, spec in languages(workload, input_dir).items()}


class ReferenceError(Exception):
    """The stored reference does not fit the generated inputs."""


def expected_path(workload: str, seed: int, manifest: dict) -> Path:
    """Path of the expected values for (workload, seed), writing them next to
    the inputs on first use: stored values when the seed is in
    references.json, else the oracle's."""
    input_dir = workloads.input_dir(workload, seed)
    path = input_dir / "expected.json"
    if path.exists():
        return path
    stored = json.loads(REFERENCES.read_text()).get(workload, {}).get(str(seed)) if REFERENCES.exists() else None
    if stored is not None:
        if stored["inputs_sha256"] != inputs_sha256(manifest):
            raise ReferenceError(
                f"{workload} seed {seed}: generated files differ from the ones the "
                "stored reference was made from; the generator is not reproducible"
            )
        doc = {"source": "stored", "ops": stored["ops"]}
    else:
        doc = {"source": "oracle", "ops": oracle(workload, input_dir)}
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(doc, indent=1, sort_keys=True))
    tmp.replace(path)
    return path


def inputs_sha256(manifest: dict) -> str:
    """One hash over the names and hashes of a seed's generated files."""
    return hashlib.sha256(json.dumps(manifest["files"], sort_keys=True).encode()).hexdigest()


def compare(expected: Dict[str, float], actual: Dict[str, float]) -> List[str]:
    """Mismatches of one operation: integers exactly, floats within REL_TOL."""
    problems = []
    for key in INT_KEYS:
        if actual.get(key) != expected[key]:
            problems.append(f"{key}: expected {expected[key]}, got {actual.get(key)}")
    for key in FLOAT_KEYS:
        got = actual.get(key)
        if got is None or not math.isclose(got, expected[key], rel_tol=REL_TOL, abs_tol=ABS_TOL):
            problems.append(f"{key}: expected {expected[key]!r}, got {got!r}")
    return problems


def _store(seeds: List[int]) -> None:
    table = json.loads(REFERENCES.read_text()) if REFERENCES.exists() else {}
    for workload in workloads.WORKLOADS:
        for seed in seeds:
            manifest = workloads.ensure(workload, seed)
            ops = oracle(workload, workloads.input_dir(workload, seed))
            table.setdefault(workload, {})[str(seed)] = {"inputs_sha256": inputs_sha256(manifest), "ops": ops}
            print(f"{workload} seed {seed}: stored", flush=True)
    REFERENCES.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


def _prepare(workload: str, seed: int) -> int:
    try:
        expected_path(workload, seed, workloads.ensure(workload, seed))
    except ReferenceError as e:
        print(e, file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    group = ap.add_mutually_exclusive_group(required=True)
    group.add_argument("--store", metavar="A-B", help="store the references of a seed range, inclusive")
    group.add_argument("--prepare", nargs=2, metavar=("WORKLOAD", "SEED"), help="generate inputs and expected.json")
    args = ap.parse_args()
    if args.prepare:
        sys.exit(_prepare(args.prepare[0], int(args.prepare[1])))
    lo, hi = args.store.split("-")
    _store(list(range(int(lo), int(hi) + 1)))
