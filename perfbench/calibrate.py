"""A fixed pure-Python kernel that times the host, not morphlens.

On a shared host the speed of the interpreter drifts by up to 1.7x over
minutes, as other tenants come and go. measure.py runs this kernel in the
same process right after each pass, and run.py scales the pass's times by
REFERENCE_S / kernel time: the numbers it reports are what the pass would
take on a host where the kernel takes REFERENCE_S. The kernel does what
morphlens spends its time on (a Viterbi split of words over a dict of
pieces, a sliding window of accessor counts with c*log2(c) sums), but it is
its own frozen copy, so a change to morphlens does not change it.
"""

from __future__ import annotations

import math
import random
import time
from typing import Dict, List, Tuple

# Kernel seconds of the reference host; it only sets the scale of the
# reported numbers. About the fastest the kernel runs on a 2-core x86 VM
# with Python 3.11.
REFERENCE_S = 0.1

WINDOW = 500


def build() -> Tuple[List[str], Dict[str, float]]:
    """The kernel's fixed inputs: 12,000 Zipfian tokens over 4,000 word
    types, and a vocabulary of syllables, letters and frequent words."""
    rng = random.Random(20251101)
    letters = "bcdfghklmnprstvzaeiouáé"
    syllables = [c + v for c in "bcdfghklmnprstvz" for v in "aeiouáé"]
    types: List[str] = []
    seen = set()
    while len(types) < 4000:
        w = "".join(rng.choice(syllables) for _ in range(rng.randint(1, 4)))
        if w not in seen:
            seen.add(w)
            types.append(w)
    cum = []
    acc = 0.0
    for rank in range(1, len(types) + 1):
        acc += 1.0 / rank
        cum.append(acc)
    tokens = rng.choices(types, cum_weights=cum, k=12000)
    scores = {c: -12.0 for c in letters}
    scores.update({s: -6.0 for s in syllables})
    scores.update({w: -9.0 for w in types[:800]})
    return tokens, scores


def kernel(tokens: List[str], scores: Dict[str, float]) -> float:
    ids: Dict[str, int] = {}
    window: List[int] = []
    head = 0
    counts: Dict[int, int] = {}
    clog = [0.0, 0.0]
    entropy_acc = 0.0
    h_sum = 0.0
    for w in tokens:
        n = len(w)
        best = [0.0] + [-1e18] * n
        back = [0] * (n + 1)
        for i in range(1, n + 1):
            for j in range(max(0, i - 8), i):
                s = scores.get(w[j:i])
                if s is not None and best[j] + s > best[i]:
                    best[i] = best[j] + s
                    back[i] = j
        i = n
        while i > 0:
            j = back[i]
            piece = ids.setdefault(w[j:i], len(ids))
            if len(window) == WINDOW:
                old = window[head]
                window[head] = piece
                head = (head + 1) % WINDOW
                c = counts[old]
                if c == 1:
                    del counts[old]
                else:
                    counts[old] = c - 1
                entropy_acc += clog[c - 1] - clog[c]
            else:
                window.append(piece)
            c = counts.get(piece, 0)
            counts[piece] = c + 1
            while len(clog) <= c + 1:
                k = len(clog)
                clog.append(k * math.log2(k))
            entropy_acc += clog[c + 1] - clog[c]
            h_sum += math.log2(WINDOW) - entropy_acc / WINDOW
            i = j
    return h_sum


def kernel_seconds() -> float:
    """Seconds one run of the kernel takes now; its inputs are built first,
    outside the timing."""
    tokens, scores = build()
    t0 = time.perf_counter()
    kernel(tokens, scores)
    return time.perf_counter() - t0
