"""Hand-checkable values for the scaled integrals plus identity sweeps.

The k = 1 and k = 2 reference values below were derived by hand from the
inclusion-exclusion form of the statistic and are frozen here as literals.
"""

from fractions import Fraction as F

import numpy as np
import pytest

from empint.integrals import (CheckResult, ScaledValue, check_canonical_ustat_identity,
                              check_product_formula, eval_integral, eval_ustat,
                              product_formula_terms)
from empint.errors import NotCanonical
from empint.kernels import (canonical_project, constant_kernel, indicator_kernel,
                            kernel_from_values, random_kernel, tensor_product)
from empint.space import (Sample, enumerate_samples, make_space, uniform_space)


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
        res = check_product_formula(f, g, s)
        assert res.ok and res.lhs == res.rhs


def test_product_formula_mixed_arities():
    sp = uniform_space(2)
    rng = np.random.default_rng(26)
    for k1, k2 in ((1, 2), (2, 1), (1, 3), (3, 2)):
        f = random_kernel(sp, k1, rng)
        g = random_kernel(sp, k2, rng)
        n = max(k1, k2) + 1
        for s, _ in enumerate_samples(sp, n):
            assert check_product_formula(f, g, s).ok


def test_check_result_reports_discrepancy():
    r = CheckResult(F(1, 2), F(1, 4), False)
    assert r.discrepancy == pytest.approx(0.25)
    assert not r.ok


def test_float_mode_evaluation_close_to_exact():
    sp = uniform_space(3)
    rng = np.random.default_rng(27)
    f = random_kernel(sp, 2, rng)
    exact = eval_integral(f, Sample(sp, (0, 2, 1, 2)))
    ff = f.as_float()
    approx = eval_integral(ff, Sample(ff.space, (0, 2, 1, 2)))
    assert float(exact.coeff) == pytest.approx(float(approx.coeff), abs=1e-12)
