import math
import os
import random
import subprocess
import sys

import pytest

import morphlens
from morphlens.stats import (
    GREATER,
    LESS,
    MAX_DUPLICATED_VALUES,
    TWO_SIDED,
    Sample,
    StatsError,
    betainc_reg,
    correlation,
    duplicate_sample,
    duplication_effect,
    gap_reduction_test,
    holm_bonferroni,
    ols_simple,
    t_cdf,
    t_quantile,
    welch_t_test,
)


def S(*values):
    return Sample.of(values)


# --- sample container ------------------------------------------------------


def test_sample_rejects_empty_and_nonfinite():
    with pytest.raises(StatsError):
        Sample.of([])
    with pytest.raises(StatsError):
        Sample.of([1.0, float("nan")])
    with pytest.raises(StatsError):
        Sample.of([float("inf")])


def test_descriptive_basic():
    s = S(1, 2, 3, 4, 5)
    assert s.mean() == 3.0
    assert s.variance() == 2.5
    assert s.median() == 3.0


def test_descriptive_outlier_contrast():
    # the mean chases a single wild value; the median does not
    for k, mean in ((5, 3), (140, 30), (1490, 300)):
        s = S(1, 2, 3, 4, k)
        assert s.mean() == pytest.approx(mean)
        assert s.median() == 3.0


def test_median_breakdown_contrast():
    for k in (3, 10**3, 10**6, 10**9):
        assert S(1, 2, 3, 4, k).median() == 3.0
    assert S(1, 2, 3, 4, 10**9).mean() > 10**8


def test_sums_add_left_to_right():
    # the same last digits on every Python version: sum() of floats is
    # compensated from 3.12 on, and its mean here would be 1/3
    assert S(1e16, 1.0, -1e16).mean() == 0.0


def test_constant_sample_zero_variance():
    assert S(7, 7, 7).variance() == 0.0


def trimmed(sample, proportion):
    """The sample without its `proportion` smallest and largest values."""
    if not 0 <= proportion < 0.5:
        raise StatsError("trim proportion must be in [0, 0.5)")
    k = int(sample.n * proportion)
    return Sample.of(sorted(sample.values)[k : sample.n - k])


def test_trimmed():
    t = trimmed(S(*range(10)), 0.2)
    assert t.values == (2.0, 3.0, 4.0, 5.0, 6.0, 7.0)
    with pytest.raises(StatsError):
        trimmed(S(1, 2), 0.5)


# --- correlation -----------------------------------------------------------


def test_correlation_outlier_decay():
    y = S(10, 20, 30, 40, 50)
    for k, r in ((5, 1.00), (10, 0.89), (20, 0.80), (100, 0.72)):
        assert correlation(S(1, 2, 3, 4, k), y) == pytest.approx(r, abs=5e-3)


def test_correlation_antisymmetry():
    x = S(1, 2, 3, 4, 5)
    neg = S(-1, -2, -3, -4, -5)
    assert correlation(x, neg) == pytest.approx(-1.0)


def test_correlation_zero_variance_errors():
    with pytest.raises(StatsError):
        correlation(S(1, 1, 1), S(1, 2, 3))


# --- t distribution vs oracle ----------------------------------------------


def test_betainc_against_scipy():
    scipy_stats = pytest.importorskip("scipy.stats")
    rng = random.Random(0)
    for _ in range(300):
        a = rng.uniform(0.1, 50)
        b = rng.uniform(0.1, 50)
        x = rng.random()
        assert betainc_reg(a, b, x) == pytest.approx(
            float(scipy_stats.beta.cdf(x, a, b)), abs=1e-10
        )


def test_t_cdf_against_scipy():
    scipy_stats = pytest.importorskip("scipy.stats")
    rng = random.Random(1)
    for _ in range(300):
        x = rng.uniform(-8, 8)
        df = rng.uniform(0.5, 200)
        assert t_cdf(x, df) == pytest.approx(
            float(scipy_stats.t.cdf(x, df)), abs=1e-10
        )


def test_t_cdf_symmetry_and_monotonicity():
    assert t_cdf(0.0, 7) == 0.5
    xs = [-3, -1, 0, 0.5, 2, 6]
    values = [t_cdf(x, 4.5) for x in xs]
    assert all(a < b for a, b in zip(values, values[1:]))
    for x in (0.3, 1.7, 4.2):
        assert t_cdf(-x, 9) == pytest.approx(1 - t_cdf(x, 9), abs=1e-14)


def test_t_quantile_examples():
    assert t_quantile(0.975, 4) == pytest.approx(2.7764, abs=1e-3)
    assert t_quantile(0.975, 1e6) == pytest.approx(1.9600, abs=1e-3)
    assert t_quantile(0.5, 10) == 0.0


def test_t_quantile_round_trip():
    rng = random.Random(2)
    for _ in range(100):
        p = rng.uniform(0.001, 0.999)
        df = rng.uniform(1, 100)
        assert t_cdf(t_quantile(p, df), df) == pytest.approx(p, abs=1e-10)


def test_t_quantile_against_mpmath():
    mpmath = pytest.importorskip("mpmath")

    def oracle(p, df):
        # invert the CDF written via the incomplete beta at high precision
        with mpmath.workdps(40):
            f = lambda x: 1 - 0.5 * mpmath.betainc(
                df / 2, mpmath.mpf(1) / 2, 0, df / (df + x * x), regularized=True
            ) - p
            return float(mpmath.findroot(f, 2.0))

    for p, df in ((0.975, 4.0), (0.9, 12.5), (0.99, 3.0)):
        assert t_quantile(p, df) == pytest.approx(oracle(p, df), abs=1e-8)


def test_t_distribution_domain_errors():
    with pytest.raises(StatsError):
        t_cdf(1.0, 0)
    with pytest.raises(StatsError):
        t_quantile(0.0, 5)


# --- Welch test ------------------------------------------------------------


def test_welch_hand_example():
    r = welch_t_test(S(1, 2, 3), S(2, 3, 4), TWO_SIDED)
    assert r.statistic == pytest.approx(-1.2247, abs=1e-4)
    assert r.df == pytest.approx(4.0, abs=1e-10)


def test_welch_identical_samples():
    r = welch_t_test(S(1, 2, 3), S(1, 2, 3), TWO_SIDED)
    assert r.statistic == 0.0
    assert r.p_value == pytest.approx(1.0)


def test_welch_against_scipy():
    scipy_stats = pytest.importorskip("scipy.stats")
    rng = random.Random(3)
    for _ in range(100):
        a = [rng.gauss(0, 1) for _ in range(rng.randint(3, 20))]
        b = [rng.gauss(0.4, 1.3) for _ in range(rng.randint(3, 20))]
        mine = welch_t_test(Sample.of(a), Sample.of(b), TWO_SIDED)
        ref = scipy_stats.ttest_ind(a, b, equal_var=False)
        assert mine.statistic == pytest.approx(float(ref.statistic), abs=1e-10)
        assert mine.p_value == pytest.approx(float(ref.pvalue), abs=1e-10)


def test_welch_swap_antisymmetry():
    a, b = S(1.0, 2.5, 3.0, 4.5), S(2.0, 2.0, 5.0)
    fwd = welch_t_test(a, b, TWO_SIDED)
    rev = welch_t_test(b, a, TWO_SIDED)
    assert fwd.statistic == pytest.approx(-rev.statistic)
    assert fwd.p_value == pytest.approx(rev.p_value)


def test_welch_one_sided_alternatives():
    a, b = S(1, 2, 3), S(4, 5, 6)
    less = welch_t_test(a, b, LESS)
    greater = welch_t_test(a, b, GREATER)
    assert less.p_value + greater.p_value == pytest.approx(1.0)
    assert less.p_value < 0.05 < greater.p_value


def test_welch_zero_variance_errors():
    with pytest.raises(StatsError):
        welch_t_test(S(1, 1), S(2, 2), TWO_SIDED)


# --- gap reduction test ----------------------------------------------------


def gap_input(g1b, g2b, g1a, g2a):
    return Sample.of(g1b), Sample.of(g2b), Sample.of(g1a), Sample.of(g2a)


def test_gap_null_treatment():
    g1 = [10.0, 11.0, 12.5, 9.5]
    g2 = [7.0, 8.0, 6.5, 7.5]
    r = gap_reduction_test(*gap_input(g1, g2, g1, g2), 0.05)
    assert r.statistic == 0.0
    assert r.p_value == pytest.approx(0.5)
    assert not r.reject


def test_gap_invariant_under_common_after_shift():
    g1b = [10.0, 11.0, 12.5, 9.5]
    g2b = [7.0, 8.0, 6.5, 7.5]
    g1a = [9.0, 10.5, 11.0, 9.0]
    g2a = [7.2, 7.9, 6.8, 7.4]
    base = gap_reduction_test(*gap_input(g1b, g2b, g1a, g2a), 0.05)
    shifted = gap_reduction_test(
        *gap_input(g1b, g2b, [v - 3.0 for v in g1a], [v - 3.0 for v in g2a]), 0.05
    )
    assert shifted.statistic == pytest.approx(base.statistic, abs=1e-12)
    assert shifted.delta_after == pytest.approx(base.delta_after, abs=1e-12)


def test_gap_invariant_under_global_shift():
    g1b = [10.0, 11.0, 12.5, 9.5]
    g2b = [7.0, 8.0, 6.5, 7.5]
    g1a = [9.0, 10.5, 11.0, 9.0]
    g2a = [7.2, 7.9, 6.8, 7.4]
    base = gap_reduction_test(*gap_input(g1b, g2b, g1a, g2a), 0.05)
    shifted = gap_reduction_test(
        *gap_input(*[[v + 100.0 for v in g] for g in (g1b, g2b, g1a, g2a)]), 0.05
    )
    assert shifted.statistic == pytest.approx(base.statistic, abs=1e-9)


def test_gap_clear_reduction_significant():
    tiny = 0.01
    g1b = [10.0 - tiny, 10.0 + tiny, 10.0]
    g2b = [0.0 - tiny, 0.0 + tiny, 0.0]
    g1a = [5.0 - tiny, 5.0 + tiny, 5.0]
    g2a = [5.0 - tiny, 5.0 + tiny, 5.0]
    r = gap_reduction_test(*gap_input(g1b, g2b, g1a, g2a), 0.05)
    assert r.delta_before == pytest.approx(10.0)
    assert r.delta_after == pytest.approx(0.0)
    assert r.p_value < 0.001
    assert r.reject
    # the decision is equivalent to delta_after < delta_alpha
    assert r.delta_after < r.delta_alpha


def test_gap_statistic_matches_direct_formula():
    g1b = [10.0, 11.0, 12.5, 9.5]
    g2b = [7.0, 8.0, 6.5, 7.5]
    g1a = [9.0, 10.5, 11.0, 9.0]
    g2a = [7.2, 7.9, 6.8, 7.4]
    r = gap_reduction_test(*gap_input(g1b, g2b, g1a, g2a), 0.05)
    samples = [Sample.of(g) for g in (g1b, g2b, g1a, g2a)]
    s_y2 = sum(s.variance() / s.n for s in samples)
    delta_b = samples[0].mean() - samples[1].mean()
    delta_a = samples[2].mean() - samples[3].mean()
    assert r.s_y == pytest.approx(math.sqrt(s_y2), abs=1e-14)
    assert r.statistic == pytest.approx(
        (delta_b - delta_a) / math.sqrt(s_y2), abs=1e-14
    )


def test_gap_degenerate_variances_error():
    with pytest.raises(StatsError):
        gap_reduction_test(
            *gap_input([1, 1], [0, 0], [1, 1], [0, 0]), 0.05
        )


# --- multiple comparisons --------------------------------------------------


def test_holm_single_test_is_plain():
    d = holm_bonferroni([0.04], 0.05)[0]
    assert d.holm_reject and d.bonferroni_reject


def test_holm_hand_trace():
    decisions = holm_bonferroni([0.01, 0.04, 0.03], 0.05)
    assert [d.holm_reject for d in decisions] == [True, False, False]
    assert [d.bonferroni_reject for d in decisions] == [True, False, False]


def test_bonferroni_boundary_all_rejected():
    m = 4
    decisions = holm_bonferroni([0.05 / m] * m, 0.05)
    assert all(d.bonferroni_reject for d in decisions)
    assert all(d.holm_reject for d in decisions)


def test_holm_rejects_superset_of_bonferroni():
    rng = random.Random(4)
    for _ in range(200):
        ps = [rng.random() for _ in range(rng.randint(1, 8))]
        for d in holm_bonferroni(ps, 0.05):
            if d.bonferroni_reject:
                assert d.holm_reject


def test_holm_invalid_inputs():
    with pytest.raises(StatsError):
        holm_bonferroni([], 0.05)
    with pytest.raises(StatsError):
        holm_bonferroni([1.2], 0.05)


# --- duplication -----------------------------------------------------------


def test_duplicate_mean_invariant_variance_identity():
    rng = random.Random(5)
    for _ in range(100):
        n = rng.randint(2, 30)
        k = rng.randint(2, 6)
        s = Sample.of([rng.gauss(0, 3) for _ in range(n)])
        d = duplicate_sample(s, k)
        assert d.mean() == pytest.approx(s.mean(), abs=1e-12)
        expected = (n - 1) / (n - 1 / k) * s.variance()
        assert d.variance() == pytest.approx(expected, abs=1e-12 * max(1, expected))


def test_duplication_lowers_p():
    rng = random.Random(6)
    checked = 0
    for _ in range(1000):
        n1, n2 = rng.randint(2, 15), rng.randint(2, 15)
        s1 = Sample.of([rng.gauss(0, 1) for _ in range(n1)])
        s2 = Sample.of([rng.gauss(0.3, 1.2) for _ in range(n2)])
        eff = duplication_effect(s1, s2, k=rng.randint(2, 4), alternative=TWO_SIDED)
        if abs(eff.t) > 0:
            assert eff.p_dup <= eff.p + 1e-12
            checked += 1
    assert checked > 900


def test_seeded_scenarios_need_no_numpy(statistics_demo):
    # the demo's generators run on the standard library alone
    src = os.path.dirname(os.path.dirname(os.path.abspath(morphlens.__file__)))
    code = (
        "import runpy, sys\n"
        "demo = runpy.run_path(sys.argv[1])\n"
        "demo['near_significant_pair'](seed=1)\n"
        "demo['quadratic_regression_pair'](seed=0, n=100)\n"
        "assert 'numpy' not in sys.modules\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    argv = [sys.executable, "-c", code, statistics_demo.__file__]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_duplication_ratio_approximations(statistics_demo):
    s1, s2 = statistics_demo.near_significant_pair(seed=42)
    eff = duplication_effect(s1, s2, k=3, alternative=TWO_SIDED)
    # exact finite-n relation for equal sample sizes:
    # T* = sqrt((kn-1)/(n-1)) * T; for n=25, k=3 that is 1.38% above
    # sqrt(3)*T, so the sqrt(k) rule holds to ~2.4% but no tighter
    n, k = 25, 3
    exact = math.sqrt((k * n - 1) / (n - 1))
    assert eff.t_dup == pytest.approx(exact * eff.t, abs=1e-10)
    assert abs(eff.t_dup - math.sqrt(k) * eff.t) <= 0.025 * abs(eff.t)
    # likewise nu* = ((kn-1)/(n-1)) * nu exactly, 2.8% above k*nu
    assert eff.nu_dup == pytest.approx(exact * exact * eff.nu, abs=1e-8)
    assert abs(eff.nu_dup - k * eff.nu) <= 0.05 * (k * eff.nu)


def test_duplication_k_validation():
    with pytest.raises(StatsError):
        duplicate_sample(S(1, 2), 0)


def test_duplication_past_the_cap_is_refused():
    # two values k times: the cap itself passes, two values over it do not
    k = MAX_DUPLICATED_VALUES // 2
    assert len(duplicate_sample(S(1, 2), k).values) == MAX_DUPLICATED_VALUES
    with pytest.raises(StatsError, match=f"^duplication too large: {k + 1} copies of 2 values pass 1,000,000$"):
        duplicate_sample(S(1, 2), k + 1)


# --- regression ------------------------------------------------------------


def test_ols_perfect_fit():
    # an exact fit has no slope t-test (see test_ols_validation), so the line
    # 2x + 1 gets an alternating error of 0.001; its sum against x - 5.5 is
    # 0.005, and sxx is 82.5
    x = S(*range(1, 11))
    y = Sample.of([2 * v + 1 + (-1) ** v * 1e-3 for v in x.values])
    r = ols_simple(x, y)
    assert r.beta1 == pytest.approx(2.0 + 0.005 / 82.5, abs=1e-12)
    assert r.beta0 == pytest.approx(1.0 - 5.5 * 0.005 / 82.5, abs=1e-12)
    assert r.r2 == pytest.approx(1.0)


def test_ols_slope_equals_correlation_identity():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(3, 40)
        xs = [rng.gauss(0, 2) for _ in range(n)]
        ys = [0.5 * v + rng.gauss(0, 1) for v in xs]
        x, y = Sample.of(xs), Sample.of(ys)
        r = ols_simple(x, y)
        expected = (
            correlation(x, y)
            * math.sqrt(y.variance())
            / math.sqrt(x.variance())
        )
        assert r.beta1 == pytest.approx(expected, abs=1e-12 * max(1, abs(expected)))


def test_ols_against_scipy():
    scipy_stats = pytest.importorskip("scipy.stats")
    rng = random.Random(8)
    xs = [rng.gauss(0, 1) for _ in range(200)]
    ys = [0.3 * v + rng.gauss(0, 0.7) for v in xs]
    mine = ols_simple(Sample.of(xs), Sample.of(ys))
    ref = scipy_stats.linregress(xs, ys)
    assert mine.beta1 == pytest.approx(float(ref.slope), abs=1e-10)
    assert mine.beta0 == pytest.approx(float(ref.intercept), abs=1e-10)
    assert mine.se1 == pytest.approx(float(ref.stderr), abs=1e-10)
    assert mine.p1 == pytest.approx(float(ref.pvalue), abs=1e-10)


def test_ols_quadratic_demo(statistics_demo):
    x, y = statistics_demo.quadratic_regression_pair(seed=0)
    r = ols_simple(x, y)
    assert 0.012 <= r.adj_r2 <= 0.032
    assert r.beta1 == pytest.approx(0.076, abs=0.01)
    assert r.t1 > 15
    assert r.adj_r2 <= r.r2


@pytest.mark.slow
def test_ols_slope_t_grows_with_sqrt_n():
    import numpy as np

    ratios = []
    for seed in range(100):
        rng = np.random.default_rng(seed)
        x1 = rng.normal(0, 1, 400)
        y1 = 0.2 * x1 + rng.normal(0, 1, 400)
        x2 = rng.normal(0, 1, 800)
        y2 = 0.2 * x2 + rng.normal(0, 1, 800)
        t_small = ols_simple(Sample.of(x1), Sample.of(y1)).t1
        t_big = ols_simple(Sample.of(x2), Sample.of(y2)).t1
        ratios.append(t_big / t_small)
    mean_ratio = sum(ratios) / len(ratios)
    assert abs(mean_ratio - math.sqrt(2)) <= 0.1 * math.sqrt(2)


def test_ols_validation():
    with pytest.raises(StatsError):
        ols_simple(S(1, 1, 1), S(1, 2, 3))
    with pytest.raises(StatsError):
        ols_simple(S(1, 2), S(1, 2))
    # a constant response has no slope to test, not a significant zero one
    with pytest.raises(StatsError, match="response has zero variance"):
        ols_simple(S(1, 2, 3, 4), S(5, 5, 5, 5))
    # nor does an exact fit, whose slope has a zero standard error: its t
    # would be infinite, which JSON cannot hold
    with pytest.raises(StatsError, match="exact fit"):
        ols_simple(S(1, 2, 3, 4), S(2, 4, 6, 8))
    with pytest.raises(StatsError, match="exact fit"):
        ols_simple(S(*range(1, 11)), Sample.of([2 * v + 1 for v in range(1, 11)]))


# --- exact values ----------------------------------------------------------

# Every field the tests return on small fixed inputs, compared with `==`:
# the Welch core, the centered sums and the p-value rule that the tests
# share must keep running the same float operations in the same order.
PIN_X = S(1.0, 2.5, 2.0, 4.25, 3.0, 5.5)
PIN_Y = S(0.5, 1.75, 3.0, 2.0, 4.5, 4.0)
PIN_A = S(2.0, 3.5, 1.0, 4.0, 2.75)
PIN_B = S(1.25, 0.5, 2.0, 1.0)


def test_correlation_exact_values():
    assert correlation(PIN_X, PIN_Y) == 0.5758942344471936
    assert correlation(PIN_A, S(1.0, 3.0, 0.5, 3.5, 2.0)) == 0.9857281161802884


@pytest.mark.parametrize(
    "alternative, p_value, reject",
    [
        (TWO_SIDED, 0.05438566772362085, False),
        (LESS, 0.9728071661381896, False),
        (GREATER, 0.027192833861810425, True),
    ],
)
def test_welch_exact_values(alternative, p_value, reject):
    r = welch_t_test(PIN_A, PIN_B, alternative, 0.05)
    assert (r.statistic, r.df, r.p_value, r.alternative, r.alpha, r.reject) == (
        2.3642395013541178, 6.234821406604694, p_value, alternative, 0.05, reject
    )


def test_gap_exact_values():
    r = gap_reduction_test(PIN_A, PIN_B, PIN_X, PIN_Y, 0.1)
    assert (r.statistic, r.df, r.p_value, r.alpha, r.reject) == (
        0.9580362022901483, 15.90069971541833, 0.17619294767868748, 0.1, False
    )
    assert (r.delta_before, r.delta_after, r.s_y, r.delta_alpha) == (
        1.4625, 0.4166666666666665, 1.0916428114441912, 0.002846106791836389
    )
    r = gap_reduction_test(PIN_X, PIN_Y, PIN_A, PIN_B, 0.05)
    assert (r.statistic, r.p_value, r.delta_alpha) == (
        -0.9580362022901483, 0.8238070523213126, -1.4899449562565183
    )


def test_ols_exact_values():
    r = ols_simple(PIN_X, PIN_Y)
    assert (r.beta0, r.beta1, r.se1, r.t1, r.p1, r.r2, r.adj_r2, r.n) == (
        1.0009976057462089, 0.5339185953711094, 0.3789683510699477,
        1.4088738383131154, 0.23165751028555448, 0.3316541692695193,
        0.1645677115868991, 6,
    )


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: welch_t_test(S(1), S(1, 2), TWO_SIDED), "welch test needs at least 2 observations per sample"),
        (lambda: welch_t_test(S(1, 1), S(2, 2), TWO_SIDED), "both samples have zero variance"),
        (lambda: welch_t_test(PIN_A, PIN_B, "both"), "unknown alternative 'both'"),
        (lambda: duplication_effect(PIN_A, PIN_B, 2, "up"), "unknown alternative 'up'"),
        (lambda: gap_reduction_test(PIN_A, PIN_B, PIN_X, S(1), 0.05),
         "gap test needs at least 2 observations per sample"),
        (lambda: gap_reduction_test(S(1, 1), S(2, 2), S(3, 3), S(4, 4), 0.05),
         "all four samples have zero variance"),
        (lambda: correlation(PIN_X, PIN_A), "samples must have equal length"),
        (lambda: correlation(S(1), S(2)), "correlation needs at least 2 observations"),
        (lambda: correlation(PIN_X, S(1, 1, 1, 1, 1, 1)), "correlation undefined for zero-variance sample"),
        (lambda: ols_simple(PIN_X, PIN_A), "samples must have equal length"),
        (lambda: ols_simple(S(1, 2), S(1, 2)), "regression needs at least 3 observations"),
        (lambda: ols_simple(S(1, 1, 1), S(1, 2, 3)), "predictor has zero variance"),
        (lambda: ols_simple(S(1, 2, 3, 4), S(5, 5, 5, 5)), "response has zero variance"),
        (lambda: ols_simple(S(1, 2, 3, 4), S(2, 4, 6, 8)), "exact fit: the slope's standard error is zero"),
    ],
)
def test_error_messages_exact(call, message):
    with pytest.raises(StatsError) as raised:
        call()
    assert str(raised.value) == message
