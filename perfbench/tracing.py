"""Tracing from outside the program, for the benchmark's traced runs.

`Tracer.install` rebinds the public functions of each morphlens module to
wrappers, in every morphlens module that imported them, so nothing under
`src/` changes. Two kinds of wrapper:

* coarse calls (load_config, load_vocab, analyze_language, run, emit,
  finalize and the unigram metrics) record a span: name, start, end,
  parent span and thread;
* per-line and per-span calls (Corpus.lines, pretokenize, segment_viterbi,
  BigramTables.observe_span) only add to per-thread counters, because a
  span per call (about 1.6M pretokens per 200k lines) would swamp the run.

A span's fine-grained time is the counter delta on its thread while it was
open, which is what self-time accounting needs.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import os
import sys
import threading
from time import perf_counter
from typing import Callable, Dict, List, Optional

# Spans that orchestrate; their self time is report.glue_s. Every other span
# and all fine-grained counters are stage time.
ORCHESTRATION = ("setup", "work", "analyze_language", "run")


class _Thread:
    """Counters of one thread, written only by that thread."""

    def __init__(self):
        self.stack: List[int] = []
        self.fine_s = 0.0
        self.decode_s = 0.0
        self.lines = 0
        self.bytes = 0
        self.pretok_s = 0.0
        self.pretok_calls = 0
        self.pretokens = 0
        self.nonascii = 0
        self.segment_s = 0.0
        self.segment_calls = 0
        self.span_chars = 0
        self.cache_entries = 0
        self.observe_s = 0.0


class Tracer:
    def __init__(self):
        self.spans: List[dict] = []
        self.unhooked: List[str] = []
        self.vocab_pieces: Dict[str, int] = {}
        self.tokens = 0
        self.unk = 0
        self.tokens_held = 0
        self.rows = 0
        self.rows_failed = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._threads: List[_Thread] = []
        self._lock = threading.Lock()
        self._main = self._state()

    # --- spans ---------------------------------------------------------------

    def _state(self) -> _Thread:
        st = getattr(self._local, "st", None)
        if st is None:
            st = self._local.st = _Thread()
            with self._lock:
                self._threads.append(st)
        return st

    def begin(self, name: str) -> tuple:
        st = self._state()
        # a pool thread's first span belongs to whatever the main thread has open
        stack = st.stack or self._main.stack
        parent = stack[-1] if stack else None
        sid = next(self._ids)
        st.stack.append(sid)
        return (sid, name, parent, st, perf_counter(), st.fine_s)

    def end(self, token: tuple) -> None:
        sid, name, parent, st, start, fine0 = token
        stop = perf_counter()
        st.stack.pop()
        self.spans.append(
            {
                "id": sid,
                "name": name,
                "parent": parent,
                "thread": self._threads.index(st),
                "start": start,
                "end": stop,
                "fine_s": st.fine_s - fine0,
            }
        )

    def _span(self, name: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(token)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    # --- fine-grained wrappers ----------------------------------------------

    def _lines(self, fn):
        state = self._state

        @functools.wraps(fn)
        def lines(corpus):
            st = state()
            if corpus.path is not None:
                st.bytes += os.path.getsize(corpus.path)
            it = fn(corpus)
            while True:
                t = perf_counter()
                try:
                    line = next(it)
                except StopIteration:
                    dt = perf_counter() - t
                    st.decode_s += dt
                    st.fine_s += dt
                    return
                dt = perf_counter() - t
                st.decode_s += dt
                st.fine_s += dt
                st.lines += 1
                yield line

        return lines

    def _pretokenize(self, fn):
        state = self._state

        @functools.wraps(fn)
        def pretokenize(line):
            st = state()
            t = perf_counter()
            out = fn(line)
            dt = perf_counter() - t
            st.pretok_s += dt
            st.fine_s += dt
            st.pretok_calls += 1
            st.pretokens += len(out)
            if not line.isascii():
                st.nonascii += 1
            return out

        return pretokenize

    def _segment(self, fn):
        state = self._state

        @functools.wraps(fn)
        def segment(pretoken, vocab):
            st = state()
            t = perf_counter()
            out = fn(pretoken, vocab)
            dt = perf_counter() - t
            st.segment_s += dt
            st.fine_s += dt
            st.segment_calls += 1
            st.span_chars += len(pretoken)
            return out

        return segment

    def _observe(self, fn):
        state = self._state

        @functools.wraps(fn)
        def observe_span(tables, pieces):
            st = state()
            t = perf_counter()
            fn(tables, pieces)
            dt = perf_counter() - t
            st.observe_s += dt
            st.fine_s += dt

        return observe_span

    def _analyze(self, fn):
        signature = inspect.signature(fn)
        span = self._span("analyze_language", fn)

        @functools.wraps(fn)
        def analyze_language(*args, **kwargs):
            st = self._state()
            calls = st.segment_calls
            try:
                return span(*args, **kwargs)
            finally:
                # pretokenized mode caches one entry per segment call
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                if bound.arguments.get("pretokenized"):
                    st.cache_entries += st.segment_calls - calls

        return analyze_language

    # --- result hooks ----------------------------------------------------------

    def _after_vocab(self, args, kwargs, vocab):
        self.vocab_pieces[str(args[0] if args else kwargs["path"])] = len(vocab)

    def _after_freq(self, args, kwargs, freq):
        with self._lock:
            self.tokens += freq.total
            self.unk += freq.counts.get(self.unk_piece, 0)

    def _after_mattr(self, args, kwargs, result):
        with self._lock:
            self.tokens_held += len(args[0])

    def _after_run(self, args, kwargs, report):
        self.rows += len(report.rows)
        self.rows_failed += sum(1 for row in report.rows if row.status != "ok")

    # --- installation ------------------------------------------------------------

    def install(self) -> None:
        from morphlens import bigram, corpus, report, tokenizer, unigram

        pretok = sys.modules["morphlens.pretokenize"]
        self.unk_piece = tokenizer.DEFAULT_UNK
        functions = [
            (report, "load_config", lambda f: self._span("load_config", f)),
            (tokenizer, "load_vocab", lambda f: self._span("load_vocab", f, self._after_vocab)),
            (pretok, "pretokenize", self._pretokenize),
            (tokenizer, "segment_viterbi", self._segment),
            (unigram, "mattr", lambda f: self._span("mattr", f, self._after_mattr)),
            (unigram, "mtl", lambda f: self._span("mtl", f)),
            (unigram, "renyi_efficiency", lambda f: self._span("renyi_efficiency", f)),
            (report, "analyze_language", self._analyze),
            (report, "run", lambda f: self._span("run", f, self._after_run)),
            (report, "emit", lambda f: self._span("emit", f)),
        ]
        for module, name, make in functions:
            original = getattr(module, name, None)
            if original is None:
                self.unhooked.append(f"{module.__name__}.{name}")
                continue
            _rebind(original, make(original))

        methods = [
            (corpus.Corpus, "lines", self._lines),
            (bigram.BigramTables, "observe_span", self._observe),
            (bigram.BigramTables, "finalize", lambda f: self._span("finalize", f)),
        ]
        for cls, name, make in methods:
            if name not in vars(cls):
                self.unhooked.append(f"{cls.__qualname__}.{name}")
                continue
            setattr(cls, name, make(vars(cls)[name]))
        cm = vars(unigram.FrequencyTable).get("from_tokens")
        if isinstance(cm, classmethod):
            span = self._span("from_tokens", cm.__func__, self._after_freq)
            unigram.FrequencyTable.from_tokens = classmethod(span)
        else:
            self.unhooked.append("FrequencyTable.from_tokens")

    # --- results -------------------------------------------------------------------

    def layer_metrics(self, bigram_captures: List[dict]) -> Dict[str, float]:
        t = {k: sum(getattr(st, k) for st in self._threads) for k in vars(_Thread()) if k != "stack"}
        dur = lambda name: sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)
        pairs = sum(c["pairs"] for c in bigram_captures)
        analyze_s, run_s = dur("analyze_language"), dur("run")
        return {
            "corpus.decode_s": t["decode_s"],
            "corpus.lines": t["lines"],
            "corpus.bytes": t["bytes"],
            "pretokenize.s": t["pretok_s"],
            "pretokenize.pretokens": t["pretokens"],
            "pretokenize.nonascii_line_share": _ratio(t["nonascii"], t["pretok_calls"]),
            "tokenizer.load_vocab_s": dur("load_vocab"),
            "tokenizer.vocab_pieces": sum(self.vocab_pieces.values()),
            "tokenizer.segment_s": t["segment_s"],
            "tokenizer.segment_calls": t["segment_calls"],
            "tokenizer.cache_hit_ratio": 1.0 - t["cache_entries"] / t["pretokens"] if t["pretokens"] else 0.0,
            "tokenizer.span_chars_mean": _ratio(t["span_chars"], t["segment_calls"]),
            "tokenizer.tokens": self.tokens,
            "tokenizer.unk_ratio": _ratio(self.unk, self.tokens),
            "tokenizer.cache_entries": t["cache_entries"],
            "bigram.observe_s": t["observe_s"],
            "bigram.pairs": pairs,
            "bigram.pairs_per_s": _ratio(pairs, t["observe_s"]),
            "bigram.types": sum(c["types"] for c in bigram_captures),
            "bigram.snapshots": sum(c["snapshots"] for c in bigram_captures),
            "bigram.finalize_s": dur("finalize"),
            "bigram.retained": sum(c["retained"] for c in bigram_captures),
            "bigram.filtered": sum(c["filtered"] for c in bigram_captures),
            "unigram.s": dur("from_tokens") + dur("mattr") + dur("mtl") + dur("renyi_efficiency"),
            "unigram.mattr_s": dur("mattr"),
            "unigram.tokens_held": self.tokens_held,
            "report.load_config_s": dur("load_config"),
            "report.analyze_s": analyze_s,
            "report.run_s": run_s,
            "report.emit_s": dur("emit"),
            "report.rows": self.rows,
            "report.rows_failed": self.rows_failed,
            "report.pool_speedup": _ratio(analyze_s, run_s),
            "report.glue_s": sum(self.self_time(s) for s in self.spans if s["name"] in ORCHESTRATION),
        }

    def self_time(self, span: dict) -> float:
        """Duration minus the part of it that child spans cover (their union,
        since children on pool threads overlap) minus the fine-grained time
        recorded on the span's own thread outside those children."""
        children = [c for c in self.spans if c["parent"] == span["id"]]
        covered = 0.0
        reach = span["start"]
        for c in sorted(children, key=lambda c: c["start"]):
            lo, hi = max(c["start"], reach), min(c["end"], span["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        fine = span["fine_s"] - sum(c["fine_s"] for c in children if c["thread"] == span["thread"])
        return span["end"] - span["start"] - covered - fine


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _rebind(original: Callable, wrapper: Callable) -> None:
    """Point every morphlens module's binding of `original` at `wrapper`."""
    for name, module in list(sys.modules.items()):
        if name != "morphlens" and not name.startswith("morphlens."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)
