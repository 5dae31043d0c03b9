"""Seeded, layered benchmark for morphlens.

    python3 perfbench/run.py --workload paper_pretok --seed 1 --seconds 20 --trace 0

Generates the workload's inputs from the seed (cached under
perfbench/_cache, never inside a timed run), then starts one fresh process
per sample (perfbench/measure.py) until --seconds have been spent, checks
every sample's output against the reference values, and prints each metric
as median, quartiles, sample count and unit. The last line of standard
output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, from untraced samples:
medians, except peak_rss_mb, which is the largest peak. lines_per_s and
setup_s are scaled to the reference host speed: each sample's times are
multiplied by calibrate.REFERENCE_S over the seconds the calibration kernel
took in that sample's process (see calibrate.py). The unscaled medians are
printed above the result line.
With --trace 1 the run alternates untraced and traced samples and the
metrics are the per-layer ones, plus trace.overhead_s: the median traced
set-up + work time minus the median untraced one.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Reported as the median over a run's samples, except peak_rss_mb: the
# largest peak is what a user must provision for, and with two pool threads
# the per-process peak depends on how the languages interleave, so its
# median jumps between two modes about 10% apart.
END_TO_END = {
    "lines_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
PER_LAYER = {
    "corpus.decode_s": "s",
    "corpus.lines": "count",
    "corpus.bytes": "bytes",
    "pretokenize.s": "s",
    "pretokenize.pretokens": "count",
    "pretokenize.nonascii_line_share": "ratio",
    "tokenizer.load_vocab_s": "s",
    "tokenizer.vocab_pieces": "count",
    "tokenizer.segment_s": "s",
    "tokenizer.segment_calls": "count",
    "tokenizer.cache_hit_ratio": "ratio",
    "tokenizer.span_chars_mean": "chars",
    "tokenizer.tokens": "count",
    "tokenizer.unk_ratio": "ratio",
    "tokenizer.cache_entries": "count",
    "bigram.observe_s": "s",
    "bigram.pairs": "count",
    "bigram.pairs_per_s": "1/s",
    "bigram.types": "count",
    "bigram.snapshots": "count",
    "bigram.finalize_s": "s",
    "bigram.retained": "count",
    "bigram.filtered": "count",
    "unigram.s": "s",
    "unigram.mattr_s": "s",
    "unigram.tokens_held": "count",
    "report.load_config_s": "s",
    "report.analyze_s": "s",
    "report.run_s": "s",
    "report.emit_s": "s",
    "report.rows": "count",
    "report.rows_failed": "count",
    "report.pool_speedup": "ratio",
    "report.glue_s": "s",
    "trace.overhead_s": "s",
    # Failed over attempted operations. It belongs with the end-to-end
    # metrics, but those must never read 0; `failed` and `attempted` in the
    # result line carry it on every run.
    "fail_ratio": "ratio",
}
RUN_LEVEL = ("trace.overhead_s", "fail_ratio")  # one value per run, not per sample

MIN_SAMPLES = 3  # per kind (untraced, traced), whatever --seconds says
CHILD_TIMEOUT_S = 150


def run_sample(workload: str, input_dir: Path, expected: Path, traced: bool) -> dict:
    """One fresh measuring process; a crash or timeout fails all its operations."""
    env = {k: v for k, v in os.environ.items() if k not in ("MORPHLENS_WORKERS", "PYTHONPATH")}
    cmd = [
        sys.executable,
        str(HERE / "measure.py"),
        workload,
        input_dir.relative_to(ROOT).as_posix(),
        "1" if traced else "0",
        str(expected),
    ]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        if proc.returncode == 0:
            return json.loads(proc.stdout.strip().splitlines()[-1])
        problem = f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"
    except subprocess.TimeoutExpired:
        problem = f"timed out after {CHILD_TIMEOUT_S} s"
    except (ValueError, IndexError) as e:
        problem = f"unreadable output: {e}"
    n_ops = len(json.loads(expected.read_text())["ops"])
    return {"ops": n_ops, "failed": n_ops, "errors": [problem], "crashed": True}


def host_scale(sample: dict) -> float:
    """Factor that takes a sample's times to the reference host speed."""
    return calibrate.REFERENCE_S / sample["calib_s"]


def summarize(values: list) -> tuple:
    """(median, q1, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "morphlens" / "__init__.py").is_file():
        print(f"morphlens sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # Generation and the oracle run in their own process: a child starts
    # with its parent's RSS as ru_maxrss, so this process must stay small.
    prep = subprocess.run(
        [sys.executable, str(HERE / "reference.py"), "--prepare", args.workload, str(args.seed)],
        cwd=ROOT,
        timeout=CHILD_TIMEOUT_S,
    )
    if prep.returncode != 0:
        return prep.returncode
    input_dir = workloads.input_dir(args.workload, args.seed)
    manifest = json.loads((input_dir / "manifest.json").read_text())
    expected = input_dir / "expected.json"

    plain, traced, crashed = [], [], []
    start = time.perf_counter()
    while True:
        want_traced = bool(args.trace) and len(traced) < len(plain)
        sample = run_sample(args.workload, input_dir, expected, want_traced)
        (crashed if sample.get("crashed") else traced if want_traced else plain).append(sample)
        elapsed = time.perf_counter() - start
        done = len(plain) + len(traced) + len(crashed)
        enough = len(plain) >= MIN_SAMPLES and (not args.trace or len(traced) >= MIN_SAMPLES)
        # stop before a sample that would end past the deadline
        if enough and elapsed * (done + 1) / done > args.seconds:
            break
        if len(crashed) > MIN_SAMPLES:
            break
    samples = plain + traced + crashed
    attempted = sum(s["ops"] for s in samples)
    failed = sum(s["failed"] for s in samples)
    if not plain or (args.trace and not traced):
        for s in crashed[:3]:
            print("\n".join(s["errors"]), file=sys.stderr)
        return 1

    rows = {
        "lines_per_s": [manifest["lines"] / (s["work_s"] * host_scale(s)) for s in plain],
        "peak_rss_mb": [s["peak_rss_mb"] for s in plain],
        "setup_s": [s["setup_s"] * host_scale(s) for s in plain],
    }
    unscaled = {
        "lines_per_s": statistics.median(manifest["lines"] / s["work_s"] for s in plain),
        "setup_s": statistics.median(s["setup_s"] for s in plain),
        "calibration kernel s": statistics.median(s["calib_s"] for s in plain),
    }
    units = dict(END_TO_END)
    if args.trace:
        rows = {name: [s["layers"][name] for s in traced] for name in PER_LAYER if name not in RUN_LEVEL}
        e2e = lambda group: statistics.median(s["setup_s"] + s["work_s"] for s in group)
        rows["trace.overhead_s"] = [e2e(traced) - e2e(plain)]
        rows["fail_ratio"] = [failed / attempted]
        units = PER_LAYER

    print(f"workload {args.workload}  seed {args.seed}  lines {manifest['lines']}  "
          f"reference {json.loads(expected.read_text())['source']}  "
          f"samples {len(plain)} untraced, {len(traced)} traced, {len(crashed)} crashed")
    print(f"fail_ratio {failed / attempted:.6g}  ({failed} of {attempted} operations)")
    for err in [e for s in samples for e in s["errors"]][:10]:
        print(f"  failed: {err}")
    print("unscaled medians: " + ", ".join(f"{k} {v:.6g}" for k, v in unscaled.items()))
    if args.trace:
        _write_trace(args, traced[-1])
    metrics = {}
    for name, values in rows.items():
        med, q1, q3 = summarize(values)
        top = max(values)
        print(f"{name:34s} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} max {top:<12.6g} "
              f"n={len(values):<3d} {units[name]}")
        metrics[name] = {"value": top if name == "peak_rss_mb" else med, "unit": units[name]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def _write_trace(args, sample: dict) -> None:
    """Write out one traced sample's spans and layer metrics."""
    out = workloads.CACHE / "traces" / f"{args.workload}-{args.seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"spans": sample["spans"], "layers": sample["layers"]}, indent=1))
    print(f"spans of the last traced sample: {out.relative_to(ROOT)}")
    if sample.get("unhooked"):
        print(f"not traced (missing in morphlens): {', '.join(sample['unhooked'])}")


if __name__ == "__main__":
    sys.exit(main())
