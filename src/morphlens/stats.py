"""Statistical toolkit: descriptive estimators, Student-t machinery on a
self-contained regularized incomplete beta, Welch tests, the one-sided
gap-reduction test, Holm-Bonferroni correction, measurement-duplication
analysis, and simple linear regression with a slope t-test. The Welch and
gap tests share one Welch core, and `_p_value` alone turns a t into a p.

The incomplete beta function uses a continued-fraction evaluation (modified
Lentz) with relative tolerance 1e-12, so p-values are reproducible without
external dependencies. Every test takes an explicit alternative; there are
no silent one-sided/two-sided defaults. Finite values whose squares or sums
pass the float range are a `StatsError`, not an overflow or an inf.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import reduce
from operator import add
from typing import Iterable, List, Optional, Sequence, Tuple, Union

from .corpus import InputError, read_text

TWO_SIDED = "two-sided"
LESS = "less"
GREATER = "greater"
_ALTERNATIVES = (TWO_SIDED, LESS, GREATER)

_BETA_TOL = 1e-12
_BETA_MAX_ITER = 500


class StatsError(InputError):
    pass


def _sum(values: Iterable[float]) -> float:
    """`values` added left to right, the same on every Python version:
    sum() of floats compensates from 3.12 on, which moves the last digits."""
    return reduce(add, values, 0.0)


def _finite(value: float, what: str) -> float:
    if not math.isfinite(value):
        raise StatsError(f"values too large: {what} is beyond the float range")
    return value


def _finite_sum(terms: Iterable[float], what: str) -> float:
    """`_sum(terms)`, or a StatsError when a term or the sum passes the
    float range: a float `**` raises OverflowError where `*` gives inf."""
    try:
        total = _sum(terms)
    except OverflowError:
        total = math.inf
    return _finite(total, what)


def read_column(path: Union[str, os.PathLike]) -> Sample:
    """The first comma-separated cell of every nonempty line, as finite
    numbers; only the first line may be a non-numeric header."""
    values = []
    for lineno, line in enumerate(read_text(path, StatsError).split("\n"), start=1):
        line = line.strip()
        if not line:
            continue
        cell = line.split(",")[0]
        try:
            value = float(cell)
        except ValueError:
            if lineno == 1:
                continue  # header row
            raise StatsError(f"{path}:{lineno}: expected a number, got {cell!r}") from None
        if not math.isfinite(value):
            raise StatsError(f"{path}:{lineno}: non-finite value {cell!r}")
        values.append(value)
    if not values:
        raise StatsError(f"{path}: no values")
    return Sample.of(values)


# ---------------------------------------------------------------------------
# Sample container and descriptive estimators


@dataclass(frozen=True)
class Sample:
    values: Tuple[float, ...]

    def __post_init__(self):
        if not self.values:
            raise StatsError("sample must be nonempty")
        for v in self.values:
            if not math.isfinite(v):
                raise StatsError(f"sample contains non-finite value {v!r}")

    @classmethod
    def of(cls, values: Sequence[float]) -> "Sample":
        return cls(tuple(float(v) for v in values))

    @property
    def n(self) -> int:
        return len(self.values)

    def mean(self) -> float:
        return _sum(self.values) / self.n

    def variance(self) -> float:
        """n-1 corrected sample variance."""
        if self.n < 2:
            raise StatsError("variance needs at least 2 observations")
        m = self.mean()
        return _finite_sum(((v - m) ** 2 for v in self.values), "the variance") / (self.n - 1)

    def median(self) -> float:
        s = sorted(self.values)
        mid = self.n // 2
        if self.n % 2:
            return s[mid]
        return (s[mid - 1] + s[mid]) / 2


def _centered_sums(x: Sample, y: Sample, min_n: int, what: str) -> Tuple[float, ...]:
    """The means of paired samples, then their centered sums S_xx, S_xy, S_yy."""
    if x.n != y.n:
        raise StatsError("samples must have equal length")
    if x.n < min_n:
        raise StatsError(f"{what} needs at least {min_n} observations")
    mx, my = x.mean(), y.mean()
    sxx = _finite_sum(((a - mx) ** 2 for a in x.values), "S_xx")
    sxy = _finite_sum(((a - mx) * (b - my) for a, b in zip(x.values, y.values)), "S_xy")
    syy = _finite_sum(((b - my) ** 2 for b in y.values), "S_yy")
    return mx, my, sxx, sxy, syy


def correlation(x: Sample, y: Sample) -> float:
    """Pearson correlation S_xy / sqrt(S_xx S_yy)."""
    _, _, sxx, sxy, syy = _centered_sums(x, y, 2, "correlation")
    if sxx == 0 or syy == 0:
        raise StatsError("correlation undefined for zero-variance sample")
    return sxy / math.sqrt(sxx * syy)


# ---------------------------------------------------------------------------
# Student's t distribution via the regularized incomplete beta


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz)."""
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, _BETA_MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _BETA_TOL:
            return h
    raise StatsError(f"incomplete beta did not converge for a={a}, b={b}, x={x}")


def betainc_reg(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b)."""
    if a <= 0 or b <= 0:
        raise StatsError("beta parameters must be positive")
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def t_cdf(x: float, df: float) -> float:
    """CDF of Student's t with df degrees of freedom (df may be fractional)."""
    if df <= 0:
        raise StatsError(f"degrees of freedom must be > 0, got {df}")
    if x == 0.0:
        return 0.5
    z = df / (df + x * x)
    tail = 0.5 * betainc_reg(df / 2.0, 0.5, z)
    return 1.0 - tail if x > 0 else tail


def t_sf(x: float, df: float) -> float:
    return t_cdf(-x, df)


def t_quantile(p: float, df: float) -> float:
    """Inverse t CDF by monotone bisection; |t_cdf(t_quantile(p)) - p| <= 1e-10."""
    if not 0.0 < p < 1.0:
        raise StatsError(f"quantile probability must be in (0, 1), got {p}")
    if df <= 0:
        raise StatsError(f"degrees of freedom must be > 0, got {df}")
    if p == 0.5:
        return 0.0
    lo, hi = -1.0, 1.0
    while t_cdf(lo, df) > p:
        lo *= 2.0
    while t_cdf(hi, df) < p:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if t_cdf(mid, df) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _p_value(statistic: float, df: float, alternative: str) -> float:
    if alternative == TWO_SIDED:
        return 2.0 * t_sf(abs(statistic), df)
    if alternative == GREATER:
        return t_sf(statistic, df)
    if alternative == LESS:
        return t_cdf(statistic, df)
    raise StatsError(f"unknown alternative {alternative!r}")


# ---------------------------------------------------------------------------
# Hypothesis tests


@dataclass
class TestResult:
    statistic: float
    df: float
    p_value: float
    alternative: str
    alpha: Optional[float] = None
    reject: Optional[bool] = None


def _welch_variance(samples: Sequence[Sample], test: str, all_zero: str) -> Tuple[float, float]:
    """The sum of the samples' mean variances (the squared standard error of
    a difference of their means) and its Welch-Satterthwaite df."""
    if any(s.n < 2 for s in samples):
        raise StatsError(f"{test} test needs at least 2 observations per sample")
    mean_vars = [s.variance() / s.n for s in samples]
    total = _finite(_sum(mean_vars), "the squared standard error")
    if total == 0:
        raise StatsError(all_zero)
    squares = _finite(_sum(v * v / (s.n - 1) for v, s in zip(mean_vars, samples)), "the Welch df")
    if squares == 0:
        raise StatsError(f"values too close together: the {test} test's squared variances underflow to 0")
    return total, _finite(total * total / squares, "the Welch df")


def welch_t_test(
    s1: Sample, s2: Sample, alternative: str, alpha: Optional[float] = None
) -> TestResult:
    """Unequal-variance two-sample t-test with Welch-Satterthwaite df."""
    su2, df = _welch_variance((s1, s2), "welch", "both samples have zero variance")
    statistic = (s1.mean() - s2.mean()) / math.sqrt(su2)
    p = _p_value(statistic, df, alternative)
    reject = None if alpha is None else p <= alpha
    return TestResult(statistic, df, p, alternative, alpha, reject)


@dataclass
class GapTestResult:
    statistic: float
    df: float
    p_value: float
    alpha: float
    reject: bool
    delta_before: float
    delta_after: float
    s_y: float
    delta_alpha: float


def gap_reduction_test(
    group1_before: Sample, group2_before: Sample, group1_after: Sample, group2_after: Sample, alpha: float
) -> GapTestResult:
    """One-sided test that a between-group mean gap shrank after a treatment.

    Y = delta_before - delta_after is compared against its standard error
    S_Y (sum of the four mean-variances), with Welch-Satterthwaite df over
    the four variance terms; the alternative is always `greater`. Rejects
    when Y / S_Y > t_{1-alpha, df}, equivalently when delta_after < delta_alpha.
    """
    samples = (group1_before, group2_before, group1_after, group2_after)
    s_y2, df = _welch_variance(samples, "gap", "all four samples have zero variance")
    delta_before = group1_before.mean() - group2_before.mean()
    delta_after = group1_after.mean() - group2_after.mean()
    s_y = math.sqrt(s_y2)
    statistic = (delta_before - delta_after) / s_y
    p = _p_value(statistic, df, GREATER)
    delta_alpha = delta_before - t_quantile(1.0 - alpha, df) * s_y
    return GapTestResult(statistic, df, p, alpha, p <= alpha, delta_before, delta_after, s_y, delta_alpha)


@dataclass
class CorrectionDecision:
    p_value: float
    holm_reject: bool
    bonferroni_reject: bool


def holm_bonferroni(p_values: Sequence[float], alpha: float) -> List[CorrectionDecision]:
    """Holm step-down decisions (plus plain Bonferroni alpha/m), returned in
    the input order."""
    m = len(p_values)
    if m == 0:
        raise StatsError("no p-values given")
    for p in p_values:
        if not 0.0 <= p <= 1.0:
            raise StatsError(f"p-value {p} outside [0, 1]")
    order = sorted(range(m), key=lambda i: p_values[i])
    holm = [False] * m
    for rank, idx in enumerate(order):
        if p_values[idx] <= alpha / (m - rank):
            holm[idx] = True
        else:
            break  # step-down stops at the first failure
    return [
        CorrectionDecision(
            p_value=p_values[i],
            holm_reject=holm[i],
            bonferroni_reject=p_values[i] <= alpha / m,
        )
        for i in range(m)
    ]


# The most values a duplicated sample may hold: k copies of n values are
# k * n floats, so an unbounded k would ask for unbounded memory.
MAX_DUPLICATED_VALUES = 10**6


def duplicate_sample(sample: Sample, k: int) -> Sample:
    """Concatenate k copies of the sample (the measurement-inflation
    malpractice under study; mean is invariant, variance shrinks by
    (n-1)/(n-1/k)). k * n may be at most `MAX_DUPLICATED_VALUES`."""
    if k < 1:
        raise StatsError(f"duplication factor must be >= 1, got {k}")
    n = len(sample.values)
    if k * n > MAX_DUPLICATED_VALUES:
        raise StatsError(f"duplication too large: {k} copies of {n} values pass {MAX_DUPLICATED_VALUES:,}")
    return Sample.of(sample.values * k)


@dataclass
class DuplicationEffect:
    t: float
    t_dup: float
    nu: float
    nu_dup: float
    p: float
    p_dup: float
    t_ratio_theory: float  # sqrt(k)
    nu_ratio_theory: float  # k


def duplication_effect(
    s1: Sample, s2: Sample, k: int, alternative: str
) -> DuplicationEffect:
    """Welch test before and after including every measurement k times."""
    plain = welch_t_test(s1, s2, alternative)
    dup = welch_t_test(duplicate_sample(s1, k), duplicate_sample(s2, k), alternative)
    return DuplicationEffect(
        t=plain.statistic,
        t_dup=dup.statistic,
        nu=plain.df,
        nu_dup=dup.df,
        p=plain.p_value,
        p_dup=dup.p_value,
        t_ratio_theory=math.sqrt(k),
        nu_ratio_theory=float(k),
    )


# ---------------------------------------------------------------------------
# Simple linear regression


@dataclass
class RegressionResult:
    beta0: float
    beta1: float
    se1: float
    t1: float
    p1: float
    r2: float
    adj_r2: float
    n: int


def ols_simple(x: Sample, y: Sample) -> RegressionResult:
    """Least-squares y = beta0 + beta1 * x with a two-sided slope t-test
    (df = n - 2) and plain/adjusted R^2."""
    mx, my, sxx, sxy, syy = _centered_sums(x, y, 3, "regression")
    if sxx == 0:
        raise StatsError("predictor has zero variance")
    if syy == 0:
        raise StatsError("response has zero variance")
    n = x.n
    beta1 = sxy / sxx
    beta0 = my - beta1 * mx
    rss = syy - beta1 * sxy
    if rss < 0:  # guard against roundoff on exact fits
        rss = 0.0
    sigma2 = rss / (n - 2)
    se1 = math.sqrt(sigma2 / sxx)
    if se1 == 0:
        raise StatsError("exact fit: the slope's standard error is zero")
    t1 = beta1 / se1
    p1 = _p_value(t1, n - 2, TWO_SIDED)
    r2 = 1.0 - rss / syy
    adj_r2 = 1.0 - (1.0 - r2) * (n - 1) / (n - 2)
    return RegressionResult(beta0, beta1, se1, t1, p1, r2, adj_r2, n)
