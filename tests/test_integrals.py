"""Hand-checkable values for the scaled integrals plus identity sweeps.

The k = 1 and k = 2 reference values below were derived by hand from the
inclusion-exclusion form of the statistic and are frozen here as literals.
"""

import gc
import weakref
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import _oracle
from _strategies import PROPERTY, exact_kernels, exact_spaces, samples_of
from empint import integrals

from empint.integrals import (CheckResult, ScaledValue, check_canonical_ustat_identity,
                              check_product_formula, eval_batch, eval_integral, eval_ustat,
                              product_formula_terms)
from empint.combinatorics import expected_integral_oracle
from empint.errors import EmptySample, NotCanonical
from empint.kernels import (canonical_project, constant_kernel, indicator_kernel,
                            kernel_from_values, random_kernel, tensor_product)
from empint.space import (Sample, draw_counts, enumerate_samples, make_space,
                          sample_from_counts, uniform_space)


def test_scaled_value_arithmetic():
    a = ScaledValue(F(1, 2), 2, 4)
    assert a.value == pytest.approx(2.0)  # (1/2) * 4^(2/2)


def test_k1_hand_value():
    # f = indicator of atom 0 on a fair coin, sample (0, 0, 1):
    # q = (1/1!) * [ sum_phi f(x_phi) / n - f integrated ]  with n = 3
    # = (2/3) - (1/2) = 1/6
    sp = uniform_space(2)
    f = indicator_kernel(sp, 0)
    s = Sample(sp, (0, 0, 1))
    q = eval_integral(f, s)
    assert (q.coeff, q.k, q.n) == (F(1, 6), 1, 3)


def test_k1_centred_sample_gives_zero():
    sp = uniform_space(2)
    f = indicator_kernel(sp, 0)
    s = Sample(sp, (0, 1))
    assert eval_integral(f, s).coeff == 0


def test_k2_hand_value():
    # f = 1{x=0} (x) 1{x=0}; sample (0, 1) on a fair coin, n = 2.
    # Pinned-subset expansion by hand: the empty subset contributes
    # <f, mu x mu> = 1/4, each singleton -n^{-1} sum_i <f(X_i, .), mu> = -1/4,
    # and the full subset n^{-2} sum_{i != j} f(X_i, X_j) = 0.  Total -1/4,
    # then 1/2! gives -1/8.
    sp = uniform_space(2)
    f = tensor_product(indicator_kernel(sp, 0), indicator_kernel(sp, 0))
    s = Sample(sp, (0, 1))
    q = eval_integral(f, s)
    assert q.coeff == F(-1, 8)
    assert (q.k, q.n) == (2, 2)


def test_constant_kernel_k0():
    sp = uniform_space(2)
    c = constant_kernel(sp, "7/3")
    s = Sample(sp, (0, 1, 1))
    q = eval_integral(c, s)
    assert q.coeff == F(7, 3)
    assert q.k == 0


def test_eval_depends_only_on_counts():
    sp = uniform_space(3)
    rng = np.random.default_rng(21)
    f = random_kernel(sp, 2, rng)
    a = eval_integral(f, Sample(sp, (0, 1, 2, 1)))
    b = eval_integral(f, Sample(sp, (1, 2, 1, 0)))
    assert a.coeff == b.coeff


def test_expectation_vanishes_k1():
    # averaging q over all samples with their probabilities gives zero at k = 1
    sp = make_space(["1/3", "2/3"])
    f = kernel_from_values(sp, ["2", "-5"])
    for n in (1, 2, 3):
        total = F(0)
        for s, w in enumerate_samples(sp, n):
            total += w * eval_integral(f, s).coeff
        assert total == 0


def test_ustat_hand_value():
    # U-statistic of 1 (x) 1: ordered distinct pairs weighted by 1/2!,
    # so the value is n(n-1)/2 regardless of the sample
    sp = uniform_space(2)
    ones = kernel_from_values(sp, ["1", "1"])
    f = tensor_product(ones, ones)
    for n in (2, 3, 4):
        s = Sample(sp, tuple(i % 2 for i in range(n)))
        assert eval_ustat(f, s) == F(n * (n - 1), 2)
    # an empty sample has U-statistic 0, but q divides by n^k
    empty = Sample(sp, ())
    assert eval_ustat(f, empty) == 0
    assert eval_integral(constant_kernel(sp, "7/3"), empty).coeff == F(7, 3)
    with pytest.raises(EmptySample):
        eval_integral(f, empty)
    with pytest.raises(EmptySample):
        expected_integral_oracle(f, 0)
    with pytest.raises(EmptySample):
        eval_batch(f, np.zeros((1, 2), dtype=np.int64))


def test_canonical_identity_exact_small_sweep():
    rng = np.random.default_rng(22)
    for A in (2, 3):
        sp = uniform_space(A)
        for k in (1, 2, 3):
            f = canonical_project(random_kernel(sp, k, rng))
            for n in (k, k + 1, k + 2):
                for _ in range(5):
                    s = Sample(sp, tuple(int(x) for x in
                                         rng.integers(0, A, size=n)))
                    res = check_canonical_ustat_identity(f, s)
                    assert res.ok
                    assert res.lhs == res.rhs


def test_canonical_identity_requires_canonical():
    sp = uniform_space(2)
    f = indicator_kernel(sp, 0)
    with pytest.raises(NotCanonical):
        check_canonical_ustat_identity(f, Sample(sp, (0, 1)))


def test_product_formula_terms_structure():
    sp = uniform_space(2)
    rng = np.random.default_rng(23)
    f = random_kernel(sp, 2, rng)
    g = random_kernel(sp, 1, rng)
    terms = product_formula_terms(f, g)
    assert set(terms) == {(0, 0), (1, 0), (1, 1)}
    assert terms[(0, 0)].arity == 3
    assert terms[(1, 0)].arity == 2
    assert terms[(1, 1)].arity == 1


def test_product_formula_k1_times_k1_closed_form():
    # q_f q_g = 2 q_{sym(f x g)} + n^{-1} q_{fg} + n^{-1} int f g dmu, checked
    # through the generic machinery on every sample of a 3-point space
    sp = make_space(["1/2", "1/3", "1/6"])
    rng = np.random.default_rng(24)
    f = random_kernel(sp, 1, rng)
    g = random_kernel(sp, 1, rng)
    terms = product_formula_terms(f, g)
    for n in (1, 2, 3):
        for s, _ in enumerate_samples(sp, n):
            res = check_product_formula(f, g, s, terms=terms)
            assert res.ok and res.lhs == res.rhs


def test_product_formula_asymmetric_kernels():
    # the identity holds without any symmetry assumptions on f or g
    sp = uniform_space(2)
    rng = np.random.default_rng(25)
    f = random_kernel(sp, 2, rng)
    g = random_kernel(sp, 2, rng)
    for s, _ in enumerate_samples(sp, 3):
        res = check_product_formula(f, g, s, product_formula_terms(f, g))
        assert res.ok and res.lhs == res.rhs


def test_product_formula_mixed_arities():
    sp = uniform_space(2)
    rng = np.random.default_rng(26)
    for k1, k2 in ((1, 2), (2, 1), (1, 3), (3, 2)):
        f = random_kernel(sp, k1, rng)
        g = random_kernel(sp, k2, rng)
        n = max(k1, k2) + 1
        for s, _ in enumerate_samples(sp, n):
            assert check_product_formula(f, g, s, product_formula_terms(f, g)).ok


def test_check_result_reports_discrepancy():
    r = CheckResult(F(1, 2), F(1, 4), False)
    assert r.discrepancy == pytest.approx(0.25)
    assert not r.ok


def test_check_result_is_small():
    # results are kept by the thousand: no instance dict
    assert not hasattr(CheckResult(F(1, 3), F(1, 3), True), "__dict__")


def test_float_mode_evaluation_close_to_exact():
    sp = uniform_space(3)
    rng = np.random.default_rng(27)
    f = random_kernel(sp, 2, rng)
    exact = eval_integral(f, Sample(sp, (0, 2, 1, 2)))
    ff = f.as_float()
    approx = eval_integral(ff, Sample(ff.space, (0, 2, 1, 2)))
    assert float(exact.coeff) == pytest.approx(float(approx.coeff), abs=1e-12)


@pytest.mark.parametrize("weights", [["1"], ["1/3", "2/3"], ["1/6", "1/3", "1/2"],
                                     ["1/10", "2/5", "0", "1/2"]])
def test_batch_evaluator_matches_recursive(weights):
    """The batch evaluator against the recursive oracle: float summation
    orders differ, so agreement is to 1e-12 relative to the statistic's
    O(1) scale."""
    sp = make_space(weights)
    rng = np.random.default_rng(len(weights))
    for k in range(4):
        f = random_kernel(sp, k, rng).as_float()
        for n in (1, 2, 5, 17):  # n < k covers the vanishing U-statistic
            counts = draw_counts(sp, n, k, 40)
            samples = [sample_from_counts(f.space, tuple(row.tolist())) for row in counts]
            want = [_oracle.integral_coeff(f, s) * float(n) ** (k / 2) for s in samples]
            want_u = [_oracle.ustat(f, s) / float(n) ** (k / 2) for s in samples]
            np.testing.assert_allclose(eval_batch(f, counts), want, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(eval_batch(f, counts, ustat=True), want_u,
                                       rtol=1e-12, atol=1e-12)


def _exact_rows(f, counts):
    """The exact statistic of every row, as floats: ``eval_integral(...).value``
    and the U-statistic over n^{k/2}, each row at its own n."""
    samples = [sample_from_counts(f.space, tuple(row.tolist())) for row in counts]
    return ([eval_integral(f, s).value for s in samples],
            [float(eval_ustat(f, s)) / s.n ** (f.arity / 2) for s in samples])


@pytest.mark.parametrize("weights, k", [(["1/6", "1/3", "1/2"], 3),
                                        (["1/10", "1/5", "3/10", "2/5"], 2)])
def test_batch_matches_exact_at_the_benchmark_sizes(weights, k):
    # the largest Monte Carlo shapes: n = 300, canonical kernels on 3 or 4 atoms
    sp = make_space(weights)
    f = canonical_project(random_kernel(sp, k, np.random.default_rng(k)))
    counts = draw_counts(sp, 300, k, 40)
    want, want_u = _exact_rows(f, counts)
    np.testing.assert_allclose(eval_batch(f, counts), want, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(eval_batch(f, counts, ustat=True), want_u, rtol=1e-12, atol=1e-12)


def test_batch_reads_each_rows_size_from_its_counts():
    sp = make_space(["1/6", "1/3", "1/2"])
    f = random_kernel(sp, 2, np.random.default_rng(3))
    counts = np.array([[1, 0, 0], [0, 3, 4], [2, 2, 1], [10, 0, 20], [0, 0, 2]])
    want, want_u = _exact_rows(f, counts)
    np.testing.assert_allclose(eval_batch(f, counts), want, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(eval_batch(f, counts, ustat=True), want_u, rtol=1e-12, atol=1e-12)
    with pytest.raises(EmptySample):
        eval_batch(f, np.vstack([counts, [0, 0, 0]]))


def test_batch_of_the_zero_kernel_is_zero_per_row():
    sp = uniform_space(3)
    f = kernel_from_values(sp, np.zeros((3, 3), dtype=int))
    counts = draw_counts(sp, 7, 1, 5)
    for ustat in (False, True):
        out = eval_batch(f, counts, ustat=ustat)
        assert out.shape == (5,) and not out.any()


def test_batch_with_huge_weight_denominators():
    # d_w^3 is about 1e360: integer coefficients this large do not fit a
    # float, so each is divided by the common denominator before use
    d = 10**120 + 1
    sp = make_space([F(1, d), F(2, d), F(d - 3, d)])
    f = random_kernel(sp, 3, np.random.default_rng(5))
    counts = np.array([[1, 2, 4], [0, 0, 6], [3, 1, 1]])
    want, want_u = _exact_rows(f, counts)
    np.testing.assert_allclose(eval_batch(f, counts), want, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(eval_batch(f, counts, ustat=True), want_u, rtol=1e-12, atol=1e-12)


def test_product_formula_with_arity_zero():
    """A constant is the arity-0 kernel; its product with anything is the
    empty diagram alone, and the identity holds exactly."""
    sp = make_space(["1/3", "1/6", "1/2"])
    rng = np.random.default_rng(8)
    c = constant_kernel(sp, "-2/3")
    for g in (constant_kernel(sp, 3), random_kernel(sp, 1, rng), random_kernel(sp, 2, rng)):
        for f1, f2 in ((c, g), (g, c)):
            terms = product_formula_terms(f1, f2)
            assert list(terms) == [(0, 0)]
            for n in (1, 2, 5):
                s = Sample(sp, tuple(int(a) for a in rng.integers(0, 3, size=n)))
                res = check_product_formula(f1, f2, s, terms=terms)
                assert res.lhs == res.rhs
                assert isinstance(res.lhs, F)


# -- properties of the count-polynomial evaluator ------------------------------



@pytest.mark.parametrize("n_atoms, k", [(70, 1), (45, 2), (30, 3)])
def test_evaluators_match_recursive_oracle_on_many_atoms(n_atoms, k):
    # wide spaces: every atom, the last ones included, keeps its own monomials
    sp = make_space([F(a + 1, n_atoms * (n_atoms + 1) // 2) for a in range(n_atoms)])
    rng = np.random.default_rng(n_atoms)
    f = random_kernel(sp, k, rng)
    top = (n_atoms - 1, n_atoms - 1, n_atoms - 2)
    samples = [Sample(sp, top + tuple(int(a) for a in rng.integers(0, n_atoms, size=n)))
               for n in (2, 5, 9)]
    _assert_plan_matches_per_kernel_build(f)
    for s in samples:
        assert eval_integral(f, s).coeff == _oracle.integral_coeff(f, s)
        assert eval_ustat(f, s) == _oracle.ustat(f, s)
        n = s.n
        np.testing.assert_allclose(
            eval_batch(f, np.array([s.counts]), ustat=True)[0],
            float(_oracle.ustat(f, s)) / n ** (k / 2), rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(
            eval_batch(f, np.array([s.counts]))[0],
            float(_oracle.integral_coeff(f, s)) * n ** (k / 2), rtol=1e-12, atol=1e-12)


def _assert_plan_matches_per_kernel_build(f):
    for g in (f, f.as_float()):
        poly = integrals._count_polynomial(g)
        blocks, den = _oracle.count_polynomial(g)
        assert poly.blocks == blocks and poly.den == den
        assert repr(poly.blocks) == repr(blocks)


@PROPERTY
@given(data=st.data(), sp=exact_spaces(), k=st.integers(0, 3))
def test_count_polynomial_plan_matches_per_kernel_build_property(data, sp, k):
    _assert_plan_matches_per_kernel_build(data.draw(exact_kernels(sp, k)))


@PROPERTY
@given(data=st.data(), sp=exact_spaces(), k=st.integers(0, 4), n=st.integers(1, 9))
def test_exact_eval_matches_recursive_oracle_property(data, sp, k, n):
    f = data.draw(exact_kernels(sp, k))
    s = data.draw(samples_of(sp, n))
    q, u = eval_integral(f, s).coeff, eval_ustat(f, s)
    assert type(q) is F and q == _oracle.integral_coeff(f, s)
    assert type(u) is F and u == _oracle.ustat(f, s)


@PROPERTY
@given(data=st.data(), sp=exact_spaces(), k=st.integers(0, 4), n=st.integers(1, 9))
def test_batch_eval_matches_recursive_oracle_property(data, sp, k, n):
    f = data.draw(exact_kernels(sp, k))
    samples = data.draw(st.lists(samples_of(sp, n), min_size=1, max_size=4))
    counts = np.array([s.counts for s in samples])
    want = [float(_oracle.integral_coeff(f, s)) * n ** (k / 2) for s in samples]
    want_u = [float(_oracle.ustat(f, s)) / n ** (k / 2) for s in samples]
    np.testing.assert_allclose(eval_batch(f, counts), want, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(eval_batch(f, counts, ustat=True), want_u,
                               rtol=1e-12, atol=1e-12)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(data=st.data(), sp=exact_spaces(), k1=st.integers(0, 3), k2=st.integers(0, 2),
       n=st.integers(1, 9))
def test_product_identity_property(data, sp, k1, k2, n):
    f, g = data.draw(exact_kernels(sp, k1)), data.draw(exact_kernels(sp, k2))
    res = check_product_formula(f, g, data.draw(samples_of(sp, n)), product_formula_terms(f, g))
    assert type(res.lhs) is F and res.lhs == res.rhs


@settings(derandomize=True, max_examples=60, deadline=None)
@given(data=st.data(), sp=exact_spaces(), k=st.integers(0, 4), n=st.integers(1, 9))
def test_canonical_ustat_identity_property(data, sp, k, n):
    f = canonical_project(data.draw(exact_kernels(sp, k)))
    res = check_canonical_ustat_identity(f, data.draw(samples_of(sp, n)))
    assert type(res.lhs) is F and res.lhs == res.rhs


def test_count_polynomial_memo_dies_with_its_kernel():
    sp = make_space(["1/3", "2/3"])
    f = random_kernel(sp, 2, np.random.default_rng(9))
    eval_integral(f, Sample(sp, (0, 1, 1)))
    assert f in integrals._polynomials
    gc.collect()
    before, ref = len(integrals._polynomials), weakref.ref(f)
    del f
    gc.collect()
    assert ref() is None
    assert len(integrals._polynomials) == before - 1
