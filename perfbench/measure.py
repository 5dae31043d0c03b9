"""One measured pass of one workload, in a fresh process.

    python3 perfbench/measure.py <workload> <input_dir> <trace 0|1> <expected.json>

run.py starts this once per sample, so every sample pays what a user's
process pays: interpreter start, `import morphlens`, cold segment and
c*log2(c) caches, and its own peak RSS. Prints one JSON line: set-up and work
seconds, peak RSS, operations attempted and failed, the seconds of the
calibration kernel run after the pass (calibrate.py), and with tracing the
per-layer metrics and spans.
"""

import os
import sys
import time

# One CPU for the whole pass. The `run` command's pool threads share the
# interpreter lock, so a second CPU gains them nothing; but handing the lock
# to a thread on another CPU of a shared VM waits for the host to schedule
# that CPU, which made `run_multilang` swing 3.5x with the host's load.
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

# Only modules the interpreter loads at start-up come before this point, so
# set-up time includes all of `import morphlens`.
T0 = time.perf_counter()

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    workload, input_dir, trace, expected_path = sys.argv[1:5]
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import morphlens
    import morphlens.cli

    captures = _capture_bigram(morphlens.bigram.BigramTables)
    tracer = None
    if trace == "1":
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        setup_span = tracer.begin("setup")
    if workload == "run_multilang":
        config = morphlens.load_config(os.path.join(input_dir, "run.ini"))
        for lang in config.languages:
            morphlens.load_vocab(lang.vocab)
    else:
        vocab = morphlens.load_vocab(os.path.join(input_dir, "vocab.tsv"))
    t1 = time.perf_counter()
    if tracer:
        tracer.end(setup_span)

    error = None
    result = None
    out_path = os.path.join(input_dir, f"out-{os.getpid()}.json")
    t2 = time.perf_counter()
    if tracer:
        work_span = tracer.begin("work")
    try:
        if workload == "run_multilang":
            result = morphlens.cli.main(["run", "--config", os.path.join(input_dir, "run.ini"), "--out", out_path])
        else:
            result = morphlens.analyze_language(
                morphlens.read_lines(os.path.join(input_dir, "corpus.txt")),
                vocab,
                pretokenized=workload == "paper_pretok",
            )
    except Exception as e:  # a failed operation is counted, not fatal
        error = f"{type(e).__name__}: {e}"
    t3 = time.perf_counter()
    if tracer:
        tracer.end(work_span)

    import json
    import resource

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(expected_path, encoding="utf-8") as f:
        expected = json.load(f)["ops"]
    actual = _outputs(workload, result, error, out_path, captures)
    if os.path.exists(out_path):
        os.remove(out_path)

    import reference

    errors = []
    failed = 0
    for op, want in expected.items():
        got = actual.get(op, error or "no output")
        problems = [got] if isinstance(got, str) else reference.compare(want, got)
        failed += bool(problems)
        errors.extend(f"{op}: {p}" for p in problems)
    # after the RSS was read, so the kernel's memory is not counted
    import calibrate

    sample = {
        "calib_s": calibrate.kernel_seconds(),
        "setup_s": t1 - T0,
        "work_s": t3 - t2,
        "peak_rss_mb": peak_rss_mb,
        "ops": len(expected),
        "failed": failed,
        "errors": errors[:10],
    }
    if tracer:
        sample["layers"] = tracer.layer_metrics(captures)
        sample["spans"] = tracer.spans
        sample["unhooked"] = tracer.unhooked
    print(json.dumps(sample))
    return 0


def _capture_bigram(tables_cls) -> list:
    """Record the bigram integers that `analyze_language` does not return
    (pairs, types, snapshots) by wrapping `BigramTables.finalize`."""
    captures = []
    finalize = tables_cls.finalize

    def capturing_finalize(self, *args, **kwargs):
        report = finalize(self, *args, **kwargs)
        captures.append(
            {
                "pairs": self.total_pairs,
                "types": len(self.type_strings),
                "snapshots": sum(s.snapshots for s in self.left) + sum(s.snapshots for s in self.right),
                "tokens": sum(s.ta + s.dummies for s in self.left),
                "retained": report.retained_count,
                "filtered": report.filtered_count,
            }
        )
        return report

    tables_cls.finalize = capturing_finalize
    return captures


def _outputs(workload, result, error, out_path, captures) -> dict:
    """Operation name -> output values (or an error string)."""
    if workload != "run_multilang":
        if error:
            return {"main": error}
        m, b = result, result.bigram
        values = dict(
            vars(m.counts),
            retained=b.retained_count,
            filtered=b.filtered_count,
            av=b.macro_av,
            au=b.macro_au,
            eta=b.macro_eta,
            lr=b.lr,
            mattr=m.mattr,
            mtl=m.mtl,
            re=m.renyi,
            s=m.s,
            mwl=m.mwl,
        )
        if captures:
            values.update({k: captures[0][k] for k in ("pairs", "types", "snapshots")})
        return {"main": values}

    import json

    if error or not os.path.exists(out_path):
        return {}
    with open(out_path, encoding="utf-8") as f:
        rows = json.load(f)
    ops = {}
    unmatched = list(captures)
    for row in rows:
        if row["status"] != "ok":
            ops[row["language"]] = f"row failed: {row['error']}"
            continue
        values = {k: v for k, v in row.items() if isinstance(v, (int, float))}
        for k in ("ccc", "cbc", "cwc", "csc", "ctc"):
            values[k] = int(values[k])
        # finalize runs on pool threads, so match its capture by token count
        match = next((c for c in unmatched if c["tokens"] == values["ctc"]), None)
        if match is not None:
            unmatched.remove(match)
            values.update({k: match[k] for k in ("pairs", "types", "snapshots", "retained", "filtered")})
        ops[row["language"]] = values
    return ops


if __name__ == "__main__":
    sys.exit(main())
