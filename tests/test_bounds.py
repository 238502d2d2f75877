import math

import pytest

from empint.bounds import (BoundParams, bernstein_exponent, bernstein_tail_bound,
                           crossover_level, moment_growth_bound, regime_report,
                           two_regime_exponent, two_regime_tail_bound)
from empint.errors import BadM, NonpositiveX, RegimeViolation


def test_crossover_hand_value():
    # x* = n^{k/2} sigma^{k+1}
    assert crossover_level(2, 0.5, 100) == pytest.approx(100.0 * 0.5**3)
    assert crossover_level(1, 1.0, 4) == pytest.approx(2.0)


def test_two_regime_hand_value():
    # at x = sigma = 1/2, k = 2, n = 100 the Gaussian branch is active
    # with exponent (x/sigma)^{2/k} = 1, so the bound is e^{-1}
    assert two_regime_tail_bound(0.5, 2, 0.5, 100) == pytest.approx(math.exp(-1))


def test_two_regime_branch_selection():
    k, sigma, n = 2, 0.3, 50
    xc = crossover_level(k, sigma, n)
    lo, hi = xc * 0.5, xc * 2.0
    g = (lo / sigma) ** (2 / k)
    e = (n * hi * hi) ** (1 / (k + 1))
    assert two_regime_tail_bound(lo, k, sigma, n) == pytest.approx(math.exp(-g))
    assert two_regime_tail_bound(hi, k, sigma, n) == pytest.approx(math.exp(-e))
    # at the crossover itself the two exponents coincide
    assert (xc / sigma) ** (2 / k) == pytest.approx((n * xc * xc) ** (1 / (k + 1)))


def test_params_scale_and_shift():
    p = BoundParams(C=3.0, alpha=2.0)
    plain = two_regime_tail_bound(0.5, 2, 0.5, 100)
    assert two_regime_tail_bound(0.5, 2, 0.5, 100, p) == \
        pytest.approx(3.0 * plain**2)


def test_validation_errors():
    with pytest.raises(NonpositiveX):
        two_regime_tail_bound(0.0, 2, 0.5, 100)
    with pytest.raises(RegimeViolation):
        two_regime_tail_bound(0.5, 0, 0.5, 100)
    with pytest.raises(RegimeViolation):
        two_regime_tail_bound(0.5, 2, 1.5, 100)
    with pytest.raises(RegimeViolation):
        two_regime_tail_bound(0.5, 2, 0.5, 0)


def test_bernstein_between_regimes():
    # the Bernstein denominator is at most twice each pure term, so its
    # exponent is at least half of the two-regime exponent
    for k in (1, 2, 3):
        for x in (0.05, 0.3, 1.0, 5.0):
            for n in (10, 1000):
                sigma = 0.6
                b = bernstein_tail_bound(x, k, sigma, n)
                t = two_regime_tail_bound(x, k, sigma, n)
                assert b >= t  # losing a factor of 2 in the exponent only helps
                assert b <= math.sqrt(t) * 1.0 + 1e-12


def test_moment_growth_plain():
    # M = 1, k = 1: C sigma^2 with no deficit once n sigma^2 >= 1
    assert moment_growth_bound(1, 1, 0.5, 100, C=2.0) == pytest.approx(0.5)
    # deficit activates when n sigma^2 < M
    v = moment_growth_bound(1, 2, 0.1, 10, C=1.0)
    main = (0.01 * 2.0) ** 2
    deficit = (2 / (10 * 0.01)) ** 2
    assert v == pytest.approx(main * deficit)


def test_moment_growth_ranked():
    v = moment_growth_bound(2, 2, 0.5, 100, C=1.0, r=1)
    main = (1.0 * 2.0**2 * 0.25 / 4.0) ** 2
    deficit = max(1.0, 4 / (100 * 0.25)) ** (2 * 1)
    assert v == pytest.approx(main * deficit)
    # higher rank softens the variance deficit, so the bound tightens
    r1 = moment_growth_bound(2, 2, 0.3, 16, C=1.0, r=1)
    r3 = moment_growth_bound(2, 2, 0.3, 16, C=1.0, r=3)
    assert r3 <= r1


def test_moment_growth_errors():
    with pytest.raises(BadM):
        moment_growth_bound(2, 3, 0.5, 100, C=1.0)
    with pytest.raises(RegimeViolation):
        moment_growth_bound(4, 1, 0.5, 2, C=1.0)  # n < k
    with pytest.raises(RegimeViolation):
        moment_growth_bound(2, 16, 0.5, 16, C=1.0, r=1)  # k M > n
    with pytest.raises(RegimeViolation):
        moment_growth_bound(2, 2, 0.0, 100, C=1.0)


def test_regime_report_structure():
    k, sigma, n = 2, 0.4, 25
    xc = crossover_level(k, sigma, n)
    grid = [xc * t for t in (0.25, 0.5, 0.9, 1.5, 3.0)]
    rows = regime_report(k, sigma, n, grid)
    branches = [r[3] for r in rows]
    assert branches == ["gaussian"] * 3 + ["empirical"] * 2
    for x, b13, b16, _, lr in rows:
        assert lr == pytest.approx(math.log(b13) - math.log(b16))
        assert 0 < b13 <= 1 and 0 < b16 <= 1


def test_regime_report_errors():
    # bad grids: test_cli's test_bad_level_grids_are_refused_alike
    for k, sigma, n in ((100000, 0.4, 10), (2, 0.4, 10**400), (1000, 0.01, 10)):
        with pytest.raises(RegimeViolation):
            crossover_level(k, sigma, n)
        with pytest.raises(RegimeViolation):
            regime_report(k, sigma, n, [0.5, 1.0])


def test_regime_report_past_float_range():
    # a bound that underflows to 0 keeps its log from the exponent
    (_, b13, b16, _, lr), = regime_report(2, 0.4, 25, [1.0], BoundParams(alpha=1e5))
    assert b13 == 0.0 and lr == pytest.approx(-1e5 * 2.5 - math.log(b16))
    # an exponent past float range reads as inf: both bounds are 0
    for x in (1e155, 1e300):
        assert two_regime_tail_bound(x, 1, 0.5, 10) == bernstein_tail_bound(x, 1, 0.5, 10) == 0.0
    assert all(r[1] == r[2] == 0.0 for r in regime_report(1, 0.5, 10, [1e155, 1e300]))


def test_bounds_are_exponentials_of_the_exponent_functions():
    params = BoundParams(C=2.0, alpha=0.7, c1=3.0, c2=0.4)
    k, sigma, n = 2, 0.5, 30
    for x in (0.1, 1.0, crossover_level(k, sigma, n), 20.0):
        assert two_regime_tail_bound(x, k, sigma, n, params) == \
            2.0 * math.exp(-0.7 * two_regime_exponent(x, k, sigma, n))
        assert bernstein_tail_bound(x, k, sigma, n, params) == \
            3.0 * math.exp(-0.4 * bernstein_exponent(x, k, sigma, n))
    # below the crossover level the Gaussian branch is the minimum
    assert two_regime_exponent(0.1, k, sigma, n) == pytest.approx((0.1 / sigma) ** (2.0 / k))
