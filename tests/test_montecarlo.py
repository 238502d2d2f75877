import math
from fractions import Fraction as F

import numpy as np
import pytest

from empint import montecarlo
from empint.errors import InsufficientTailData, NegativeSeed, RegimeViolation
from empint.kernels import (canonical_project, indicator_kernel, kernel_from_values, l2_norm,
                            l2_norm_sq, random_kernel)
from empint.montecarlo import (McConfig, TailEstimate, auto_grid, binomial_levels,
                               binomial_tail_oracle, estimate_tail, exceedance, fit_constants,
                               replicate_counts, replicate_values)
from empint.space import make_space, uniform_space


def centered_indicator(space, atom=0):
    return canonical_project(indicator_kernel(space, atom))


def test_config_validation():
    with pytest.raises(ValueError):
        McConfig(replicates=0, seed=1, n=4, target="integral")
    with pytest.raises(ValueError):
        McConfig(replicates=10, seed=1, n=4, target="median")
    for n in (0, -3):
        with pytest.raises(ValueError):
            McConfig(replicates=10, seed=1, n=n, target="integral")
    with pytest.raises(NegativeSeed):
        McConfig(replicates=10, seed=-1, n=4, target="integral")
    McConfig(replicates=10, seed=1, n=4, target="ustat")


def test_replicates_deterministic_across_workers():
    sp = uniform_space(2)
    f = centered_indicator(sp)
    cfg = McConfig(replicates=500, seed=99, n=12, target="integral")
    a = replicate_values(f, cfg)
    b = replicate_values(f, cfg)
    assert a.tobytes() == b.tobytes()
    c = replicate_values(f, McConfig(replicates=500, seed=100, n=12, target="integral"))
    assert a.tobytes() != c.tobytes()


def test_replicates_prefix_stable():
    # growing the replicate count extends the sequence without reshuffling
    sp = uniform_space(2)
    f = centered_indicator(sp)
    short = replicate_values(f, McConfig(replicates=100, seed=7, n=6, target="integral"))
    long = replicate_values(f, McConfig(replicates=300, seed=7, n=6, target="integral"))
    assert short.tobytes() == long[:100].tobytes()


def test_replicates_prefix_stable_across_chunks():
    # at n = 256 the counts are drawn 128 replicates to a chunk, so 129 and
    # 300 replicates end in a partial chunk; a replicate's value must not
    # depend on which chunk it fell in
    sp = make_space(["1/6", "1/3", "1/2"])
    f = canonical_project(random_kernel(sp, 2, np.random.default_rng(3)))
    runs = [replicate_values(f, McConfig(replicates=r, seed=8, n=256, target=target))
            for r in (100, 129, 300) for target in ("integral", "ustat")]
    for short, long in zip(runs, runs[2:]):
        assert short.tobytes() == long[:len(short)].tobytes()


def test_ustat_target_matches_integral_for_canonical():
    # the two statistics agree path by path in exact arithmetic; only the
    # final float rescaling (multiply vs divide by n^{k/2}) can differ, by
    # at most one ulp
    sp = make_space(["1/3", "2/3"])
    f = centered_indicator(sp)
    kw = dict(replicates=200, seed=5, n=8)
    a = replicate_values(f, McConfig(target="integral", **kw))
    b = replicate_values(f, McConfig(target="ustat", **kw))
    assert np.allclose(a, b, rtol=0, atol=1e-14)


def test_binomial_oracle_hand_value():
    # n = 2, w = 1/2: the statistic is 0 or +-sqrt(2)/2, each sign w.p. 1/4
    [p] = binomial_tail_oracle(F(1, 2), 2, [0.6])
    assert p == pytest.approx(0.5)
    [p0] = binomial_tail_oracle(F(1, 2), 2, [0.8])
    assert p0 == pytest.approx(0.0)


def _binomial_tail_by_fraction_pmf(weight, n, x_grid):
    """The closed form summed as a Fraction pmf, term by term."""
    w = F(weight)
    pmf = [F(math.comb(n, b)) * w**b * (1 - w) ** (n - b) for b in range(n + 1)]
    lims = [F(x) ** 2 * n for x in x_grid]
    return [float(sum(pmf[b] for b in range(n + 1) if (b - n * w) ** 2 > lim)) for lim in lims]


@pytest.mark.parametrize("weight, n", [(F(1, 2), 300), (F(1, 3), 41), (0.1, 12), (F(2, 7), 1),
                                       (F(0), 5), (F(1), 5)])
def test_binomial_oracle_matches_fraction_pmf(weight, n):
    grid = [0.05, 0.25, 0.5, math.sqrt(0.5), 1.0, 1.5, 3.0]
    assert binomial_tail_oracle(weight, n, grid) == _binomial_tail_by_fraction_pmf(weight, n, grid)


def test_estimate_tail_matches_binomial_oracle():
    sp = uniform_space(2)
    f = centered_indicator(sp)
    n = 10
    grid = (0.3, 0.6, 0.95)
    cfg = McConfig(replicates=4000, seed=12, n=n, target="integral")
    est = estimate_tail(f, cfg, replicate_counts(sp, cfg), grid)
    exact = binomial_tail_oracle(F(1, 2), n, grid)
    for p_hat, p, se in zip(est.p_hat, exact, est.stderr):
        band = max(se, math.sqrt(p * (1 - p) / cfg.replicates))
        assert abs(p_hat - p) <= 4 * band + 1e-12


def test_estimate_tail_reads_given_counts():
    sp = make_space(["1/4", "3/4"])
    f = centered_indicator(sp)
    cfg = McConfig(replicates=300, seed=12, n=10, target="ustat")
    grid = (0.3, 0.6, 0.95)
    counts = replicate_counts(sp, cfg)
    est = estimate_tail(f, cfg, counts, grid)
    assert (est.p_hat, est.stderr) == exceedance(replicate_values(f, cfg), grid)
    for bad in (counts[:-1], counts[:, :1], counts * 2):
        with pytest.raises(ValueError):
            estimate_tail(f, cfg, bad, grid)


def test_estimate_moments_second_moment():
    # E J^2 = ||f||_2^2 for a canonical arity-1 kernel, independent of n
    sp = make_space(["1/4", "3/4"])
    f = centered_indicator(sp)
    cfg = McConfig(replicates=4000, seed=77, n=9, target="integral")
    squares = replicate_values(f, cfg) ** 2
    se = np.std(squares, ddof=1) / math.sqrt(cfg.replicates)
    assert abs(np.mean(squares) - float(l2_norm_sq(f))) <= 4 * se


def test_fit_constants_dominates():
    sp = uniform_space(2)
    f = centered_indicator(sp)
    cfg = McConfig(replicates=3000, seed=21, n=25, target="integral")
    est = estimate_tail(f, cfg, replicate_counts(sp, cfg), (0.1, 0.25, 0.4, 0.6, 0.8))
    for form in ("two_regime", "bernstein"):
        params = fit_constants(est, form=form)
        from empint.bounds import bernstein_tail_bound, two_regime_tail_bound
        fn = two_regime_tail_bound if form == "two_regime" else bernstein_tail_bound
        for x, p in zip(est.x_grid, est.p_hat):
            assert fn(x, est.k, est.sigma, est.n, params) >= p - 1e-12


def test_fit_constants_needs_data():
    est = TailEstimate(x_grid=(1.0, 2.0, 3.0), p_hat=(0.1, 0.0, 0.0),
                       stderr=(0.01, 0.0, 0.0), k=1, n=10, sigma=0.5)
    with pytest.raises(InsufficientTailData):
        fit_constants(est)
    with pytest.raises(ValueError):
        fit_constants(TailEstimate(x_grid=(1.0, 2.0, 3.0),
                                   p_hat=(0.5, 0.4, 0.3),
                                   stderr=(0.1, 0.1, 0.1), k=1, n=10, sigma=0.5),
                      form="cauchy")
    for k, sigma in ((0, 0.5), (1, 2.5)):  # outside the bound shapes' regime
        with pytest.raises(RegimeViolation):
            fit_constants(TailEstimate(x_grid=(1.0, 2.0, 3.0), p_hat=(0.5, 0.4, 0.3),
                                       stderr=(0.1, 0.1, 0.1), k=k, n=10, sigma=sigma))


def test_fit_constants_rejects_a_rising_tail():
    # a least-squares fit to this tail has a negative exponent: a "bound"
    # growing with x
    est = TailEstimate(x_grid=(0.5, 1.0, 1.5, 2.0), p_hat=(0.01, 0.05, 0.2, 0.4),
                       stderr=(0.01, 0.01, 0.01, 0.01), k=1, n=10, sigma=0.5)
    for form in ("two_regime", "bernstein"):
        with pytest.raises(InsufficientTailData, match="does not decay"):
            fit_constants(est, form=form)


def test_binomial_levels_leave_the_lattice():
    # w = 1/10, n = 100: the statistic takes the values |b - 10| / 10, and
    # sigma = 3/10, so levels sigma * t for t = 1, 2, 3 are attained values
    sigma = l2_norm(centered_indicator(make_space(["1/10", "9/10"])))
    ts = (0.5, 1.0, 1.5, 2.0, 3.0)
    levels = binomial_levels(F(1, 10), 100, sigma, ts)
    assert levels[0] == sigma * 0.5 and levels[2] == sigma * 1.5  # off the lattice: same bytes
    assert levels[1] == pytest.approx(0.35) and levels[3] == pytest.approx(0.65)
    assert levels[4] == pytest.approx(0.95)
    # the moved levels sit a half step from either neighbour, so the exact
    # tail is P(|B - 10| >= 4) etc. whatever the float rounding
    pmf = [math.comb(100, b) * F(1, 10) ** b * F(9, 10) ** (100 - b) for b in range(101)]
    for x, steps in ((levels[1], 4), (levels[3], 7), (levels[4], 10)):
        want = float(sum(m for b, m in enumerate(pmf) if abs(b - 10) >= steps))
        assert binomial_tail_oracle(F(1, 10), 100, [x]) == [want]
    # w = 1/2, n = 4: the values are |2b - 4| / 4; the largest, 1, has no
    # value above it and moves to (4 + 1/2) / 4
    assert binomial_levels(F(1, 2), 4, 0.5, (2.0,)) == (1.125,)


def test_auto_grid_shape():
    sp = uniform_space(2)
    f = centered_indicator(sp)
    cfg = McConfig(replicates=100, seed=3, n=20, target="integral")
    grid = auto_grid(f, cfg, points=8)
    assert len(grid) == 8
    assert all(b > a for a, b in zip(grid, grid[1:]))
    assert all(x > 0 for x in grid)


@pytest.mark.parametrize("n", [30, 100, 300])
@pytest.mark.parametrize("target", ["integral", "ustat"])
@pytest.mark.parametrize("kernel", ["indicator", "rank_one"])
def test_auto_grid_levels_avoid_pilot_values(kernel, target, n):
    # both statistics live on a lattice, so the pilot median (and often the
    # 0.999 quantile) is a value the statistic attains
    sp = uniform_space(2)
    values = ["1", "0"] if kernel == "indicator" else [["1", "0"], ["0", "0"]]
    f = canonical_project(kernel_from_values(sp, values))
    for seed in (1, 2, 3):
        cfg = McConfig(replicates=100, seed=seed, n=n, target=target)
        grid = auto_grid(f, cfg, points=12)
        pilot = np.abs(replicate_values(f, McConfig(1000, seed, n, target),
                                        base_offset=montecarlo._PILOT_OFFSET))
        assert not set(grid) & set(pilot.tolist())
        assert 0 < grid[0] < grid[-1]

