"""
Sound comparisons: robust descriptives, Welch tests, and their abuse
====================================================================

Three short cautionary experiments:

1. a single outlier drags the mean and the correlation while the median
   holds;
2. duplicating every measurement k times silently shrinks the estimated
   variance and inflates the t statistic by about sqrt(k) -- enough to
   flip a non-significant comparison to significant;
3. a perfectly causal but nonlinear relation (Y = X^2) that simple linear
   regression reports as a tiny R^2 with an enormous t statistic.

Plus the gap-reduction test: a one-sided test of whether the difference
between two group means shrank after a treatment.
"""

import random
from typing import Tuple

from morphlens.stats import (
    LESS,
    Sample,
    correlation,
    duplication_effect,
    gap_reduction_test,
    holm_bonferroni,
    ols_simple,
)

# The seeded scenarios: stdlib `random.Random`, a Mersenne Twister seeded
# explicitly, so the stochastic examples are reproducible and tests can
# check them with tolerance bands. tests/conftest.py loads this file as the
# `statistics_demo` fixture, so the tests use these same generators.


def near_significant_pair(
    seed: int,
    n: int = 25,
    mean1: float = 1.0,
    sd1: float = 1.0,
    mean2: float = 1.4,
    sd2: float = 1.05,
) -> Tuple[Sample, Sample]:
    """Two normal samples whose Welch test hovers around significance; the
    scenario used to demonstrate how measurement duplication flips test
    decisions."""
    rng = random.Random(seed)
    s1 = Sample.of([rng.gauss(mean1, sd1) for _ in range(n)])
    s2 = Sample.of([rng.gauss(mean2, sd2) for _ in range(n)])
    return s1, s2


def quadratic_regression_pair(
    seed: int, n: int = 20000, low: float = -0.96, high: float = 1.04
) -> Tuple[Sample, Sample]:
    """X uniform on (low, high), Y = X^2: a perfectly causal relation that a
    simple linear regression nevertheless barely explains."""
    rng = random.Random(seed)
    x = [rng.uniform(low, high) for _ in range(n)]
    return Sample.of(x), Sample.of([v * v for v in x])


def main() -> None:
    # 1. outliers: mean vs median --------------------------------------------
    y = Sample.of([10, 20, 30, 40, 50])
    for k in (5, 10, 100, 1490):
        x = Sample.of([1, 2, 3, 4, k])
        print(
            f"k={k:>5}: mean={x.mean():>6.1f} median={x.median():.1f} "
            f"r={correlation(x, y):.2f}"
        )

    # 2. measurement duplication ---------------------------------------------
    s1, s2 = near_significant_pair(seed=1)
    eff = duplication_effect(s1, s2, k=3, alternative=LESS)
    alpha = 0.025  # one-sided
    print("\nplain:       t=%.3f p=%.4f  significant at one-sided alpha=%g: %s"
          % (eff.t, eff.p, alpha, eff.p <= alpha))
    print("triplicated: t=%.3f p=%.4f  significant at one-sided alpha=%g: %s"
          % (eff.t_dup, eff.p_dup, alpha, eff.p_dup <= alpha))
    print("t ratio %.3f ~ sqrt(3)=%.3f" % (eff.t_dup / eff.t, eff.t_ratio_theory))

    # correcting for many such tests
    decisions = holm_bonferroni([0.01, 0.04, 0.03], alpha=0.05)
    print("Holm decisions for p=[0.01, 0.04, 0.03]:",
          [d.holm_reject for d in decisions])

    # 3. nonlinear truth, linear fit -----------------------------------------
    x, yq = quadratic_regression_pair(seed=0)
    r = ols_simple(x, yq)
    print("\nY=X^2 linear fit: adj R^2=%.3f, slope t=%.1f, p=%.2g"
          % (r.adj_r2, r.t1, r.p1))

    # 4. did the gap between two systems close? ------------------------------
    result = gap_reduction_test(
        group1_before=Sample.of([104.0, 101.0, 99.0, 103.0]),
        group2_before=Sample.of([90.0, 92.0, 88.0, 91.0]),
        group1_after=Sample.of([95.0, 93.0, 96.0, 94.0]),
        group2_after=Sample.of([91.0, 90.0, 92.0, 89.0]),
        alpha=0.05,
    )
    print(
        "\ngap before=%.1f after=%.1f, one-sided p=%.4f, reject=%s"
        % (result.delta_before, result.delta_after, result.p_value, result.reject)
    )


if __name__ == "__main__":
    main()
