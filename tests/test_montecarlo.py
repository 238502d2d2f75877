import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from _oracle import refine
from _strategies import PROPERTY, exact_kernels
from empint import montecarlo
from empint.errors import InsufficientTailData, NegativeSeed, RegimeViolation
from empint.kernels import (canonical_project, indicator_kernel, kernel_from_values, l2_norm_sq,
                            random_kernel)
from empint.montecarlo import (McConfig, TailEstimate, auto_grid, binomial_band,
                               binomial_tail_oracle, estimate_tail, exceedance, fit_constants)
from empint.integrals import eval_batch, eval_integral, eval_ustat
from empint.space import draw_counts, make_space, sample_from_counts, uniform_space


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
    a = eval_batch(f, draw_counts(sp, 12, 99, 500))
    b = eval_batch(f, draw_counts(sp, 12, 99, 500))
    assert a.tobytes() == b.tobytes()
    c = eval_batch(f, draw_counts(sp, 12, 100, 500))
    assert a.tobytes() != c.tobytes()


def test_replicates_prefix_stable():
    # growing the replicate count extends the sequence without reshuffling
    sp = uniform_space(2)
    f = centered_indicator(sp)
    short = eval_batch(f, draw_counts(sp, 6, 7, 100))
    long = eval_batch(f, draw_counts(sp, 6, 7, 300))
    assert short.tobytes() == long[:100].tobytes()


def test_replicates_prefix_stable_across_chunks():
    # at n = 256 the counts are drawn 128 replicates to a chunk, so 129 and
    # 300 replicates end in a partial chunk; a replicate's value must not
    # depend on which chunk it fell in
    sp = make_space(["1/6", "1/3", "1/2"])
    f = canonical_project(random_kernel(sp, 2, np.random.default_rng(3)))
    runs = [eval_batch(f, draw_counts(sp, 256, 8, r), ustat=ustat)
            for r in (100, 129, 300) for ustat in (False, True)]
    for short, long in zip(runs, runs[2:]):
        assert short.tobytes() == long[:len(short)].tobytes()


def test_ustat_target_matches_integral_for_canonical():
    # the two statistics agree path by path in exact arithmetic; only the
    # final float rescaling (multiply vs divide by n^{k/2}) can differ, by
    # at most one ulp
    sp = make_space(["1/3", "2/3"])
    f = centered_indicator(sp)
    counts = draw_counts(sp, 8, 5, 200)
    a = eval_batch(f, counts)
    b = eval_batch(f, counts, ustat=True)
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


@PROPERTY
@given(st.integers(1, 12).flatmap(lambda q: st.tuples(st.integers(0, q), st.just(q))),
       st.integers(0, 300))
def test_binomial_oracle_matches_fraction_pmf_property(pq, n):
    # every w = p/q with q <= 12, w = 0 and w = 1 included
    grid = [0.05, 0.25, 0.5, math.sqrt(0.5), 1.0, 1.5, 3.0]
    w = F(*pq)
    assert binomial_tail_oracle(w, n, grid) == _binomial_tail_by_fraction_pmf(w, n, grid)


@pytest.mark.parametrize("weight", [F(1, 6), F(5, 12)])
def test_binomial_oracle_at_n_2000_matches_the_power_form(weight):
    # the reference is the form the recurrence replaced: every numerator
    # C(n, b) p^b (q - p)^(n - b) from its powers, each tail a slice sum
    n, p, q = 2000, weight.numerator, weight.denominator
    xs = [math.sqrt(weight * (1 - weight)) * t for t in (0.5, 1.0, 1.5, 2.0, 3.0)]
    numer = [math.comb(n, b) * p**b * (q - p) ** (n - b) for b in range(n + 1)]
    want = []
    for x in xs:
        lo, hi = binomial_band(weight, n, x)
        want.append(float(F(sum(numer[:max(lo, 0)]) + sum(numer[hi + 1:]), q**n)))
    assert binomial_tail_oracle(weight, n, xs) == want


def test_estimate_tail_matches_binomial_oracle():
    sp = uniform_space(2)
    f = centered_indicator(sp)
    n = 10
    grid = (0.3, 0.6, 0.95)
    cfg = McConfig(replicates=4000, seed=12, n=n, target="integral")
    est = estimate_tail(f, cfg, draw_counts(sp, n, 12, 4000), grid)
    exact = binomial_tail_oracle(F(1, 2), n, grid)
    for p_hat, p, se in zip(est.p_hat, exact, est.stderr):
        band = max(se, math.sqrt(p * (1 - p) / cfg.replicates))
        assert abs(p_hat - p) <= 4 * band + 1e-12


def test_estimate_tail_reads_given_counts():
    sp = make_space(["1/4", "3/4"])
    f = centered_indicator(sp)
    cfg = McConfig(replicates=300, seed=12, n=10, target="ustat")
    grid = (0.3, 0.6, 0.95)
    counts = draw_counts(sp, 10, 12, 300)
    est = estimate_tail(f, cfg, counts, grid)
    assert (est.p_hat, est.stderr) == exceedance(eval_batch(f, counts, ustat=True), grid)
    for bad in (counts[:-1], counts[:, :1], counts * 2):
        with pytest.raises(ValueError):
            estimate_tail(f, cfg, bad, grid)


def test_estimate_moments_second_moment():
    # E J^2 = ||f||_2^2 for a canonical arity-1 kernel, independent of n
    sp = make_space(["1/4", "3/4"])
    f = centered_indicator(sp)
    squares = eval_batch(f, draw_counts(sp, 9, 77, 4000)) ** 2
    se = np.std(squares, ddof=1) / math.sqrt(len(squares))
    assert abs(np.mean(squares) - float(l2_norm_sq(f))) <= 4 * se


def test_fit_constants_dominates():
    sp = uniform_space(2)
    f = centered_indicator(sp)
    cfg = McConfig(replicates=3000, seed=21, n=25, target="integral")
    est = estimate_tail(f, cfg, draw_counts(sp, 25, 21, 3000), (0.1, 0.25, 0.4, 0.6, 0.8))
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



def test_tail_rows_without_a_statistic_fit_nothing():
    # sigma 0: fitting these points would raise, as there is no tail at all
    est = TailEstimate(x_grid=(0.5, 1.0), p_hat=(0.0, 0.0), stderr=(0.0, 0.0), k=1, n=10,
                       sigma=0.0)
    assert montecarlo.tail_rows(est) == [(0.5, 0.0, 0.0, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0, 0.0)]


def test_tail_rows_bounds_dominate_the_estimate():
    sp = uniform_space(2)
    cfg = McConfig(replicates=3000, seed=21, n=25, target="integral")
    est = estimate_tail(centered_indicator(sp), cfg, draw_counts(sp, 25, 21, 3000),
                        (0.1, 0.25, 0.4, 0.6, 0.8))
    rows = montecarlo.tail_rows(est)
    assert [row[:3] for row in rows] == list(zip(est.x_grid, est.p_hat, est.stderr))
    for _, p_hat, _, b13, b16 in rows:
        assert min(b13, b16) >= p_hat - 1e-12


def test_self_check_hand_case():
    # w = 1/2, n = 4, one replicate at each count b = 0..4: the statistic
    # sqrt(4) (b/4 - 1/2) exceeds x exactly when (b - 2)^2 > 4 x^2
    b = np.arange(5)
    xs = [math.sqrt(0.25) * t for t in (0.5, 1.0, 1.5, 2.0, 3.0)]
    want = []
    for x, pe in zip(xs, _binomial_tail_by_fraction_pmf(F(1, 2), 4, xs)):
        p = sum((c - 2) ** 2 > 4 * F(x) ** 2 for c in b) / 5
        se = math.sqrt(pe * (1 - pe) / 5)
        want.append((x, p, pe, se, abs(p - pe) / se if se else 0.0))
    assert [row[1] for row in want] == [0.8, 0.4, 0.4, 0.0, 0.0]
    assert montecarlo.self_check(F(1, 2), 4, b) == want
    for w in (0, 1):  # the indicator of such an atom does not vary
        with pytest.raises(ValueError):
            montecarlo.self_check(w, 4, b)


@pytest.mark.parametrize("x, steps", [(0.35, 4), (0.65, 7), (0.95, 10), (0.3, 3), (0.4, 5),
                                      (0.6, 6), (0.3 * 3, 9)])
def test_binomial_oracle_at_fixed_levels(x, steps):
    # w = 1/10, n = 100: the statistic takes the values |b - 10| / 10.  A
    # level between two of them counts the larger; the float of a value
    # counts that value when it lies below it (0.3, 0.6, 0.3 * 3) and not
    # when it lies above it (0.4)
    pmf = [math.comb(100, b) * F(1, 10) ** b * F(9, 10) ** (100 - b) for b in range(101)]
    want = float(sum(m for b, m in enumerate(pmf) if abs(b - 10) >= steps))
    assert binomial_tail_oracle(F(1, 10), 100, [x]) == [want]


def test_binomial_oracle_on_attained_levels():
    # w = 1/2, n = 4: the values |2b - 4| / 4 are 0, 1/2 and 1, exact
    # floats; a level on one of them leaves it out of the tail
    assert binomial_tail_oracle(F(1, 2), 4, [0.0, 0.5, 1.0]) == [10 / 16, 2 / 16, 0.0]


_band_weights = st.one_of(
    st.sampled_from([F(0), F(1)]),
    st.integers(1, 60).flatmap(lambda q: st.builds(F, st.integers(0, q), st.just(q))),
    st.floats(0, 1).map(F))  # every float is dyadic


@settings(derandomize=True, max_examples=200, deadline=None)
@given(data=st.data(), w=_band_weights, n=st.integers(1, 400))
def test_binomial_band_is_the_exact_exceedance_property(data, w, n):
    # levels on the float of an attained value |b q - n p| / (q sqrt(n)),
    # one ulp either side of it, or anywhere
    on = abs(data.draw(st.integers(0, n)) - n * w) / math.sqrt(n)
    x = data.draw(st.one_of(st.sampled_from([on, math.nextafter(on, 0), math.nextafter(on, 2)]),
                            st.floats(0, 2)))
    lo, hi = binomial_band(w, n, x)
    assert -1 <= lo and hi <= n + 1
    for b in range(n + 1):
        assert (not lo <= b <= hi) == ((b - n * w) ** 2 > F(x) ** 2 * n)


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
        pilot = np.abs(eval_batch(f, draw_counts(sp, n, seed, 1000, montecarlo._PILOT_OFFSET),
                                  ustat=target == "ustat"))
        assert not set(grid) & set(pilot.tolist())
        assert 0 < grid[0] < grid[-1]



@st.composite
def dyadic_spaces(draw):
    """Spaces of 1 to 4 atoms whose positive weights have denominator 2^j,
    2 <= j <= 4, so every cumulative sum of their floats is exact."""
    j, atoms = draw(st.integers(2, 4)), draw(st.integers(1, 4))
    cuts = sorted(draw(st.sets(st.integers(1, 2**j - 1), min_size=atoms - 1, max_size=atoms - 1)))
    return make_space([F(b - a, 2**j) for a, b in zip([0, *cuts], [*cuts, 2**j])])


@settings(derandomize=True, max_examples=60, deadline=None)
@given(data=st.data(), sp=dyadic_spaces(), k=st.integers(0, 3), n=st.integers(1, 300),
       replicates=st.integers(1, 200), seed=st.integers(0, 2**32 - 1),
       t=st.sampled_from([F(1, 4), F(1, 2), F(3, 4)]))
def test_draws_and_statistics_are_invariant_under_dyadic_refinement_property(
        data, sp, k, n, replicates, seed, t):
    # the last atom split in two: refine appends the second half right after
    # it, so each coarse atom keeps its interval of the inverse CDF and the
    # merged counts are the coarse ones, replicate by replicate
    f = data.draw(exact_kernels(sp, k))
    last = sp.n_atoms - 1
    fine = refine(sp, f, last, t)
    coarse = draw_counts(sp, n, seed, replicates)
    counts = draw_counts(fine.space, n, seed, replicates)
    merged = counts[:, :-1].copy()
    merged[:, last] += counts[:, -1]
    np.testing.assert_array_equal(merged, coarse)
    for row in np.unique(counts, axis=0).tolist():
        s, s_coarse = (sample_from_counts(fine.space, tuple(row)),
                       sample_from_counts(sp, (*row[:last], row[last] + row[-1])))
        assert eval_integral(fine, s) == eval_integral(f, s_coarse)
        assert eval_ustat(fine, s) == eval_ustat(f, s_coarse)
