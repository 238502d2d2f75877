"""Partition machinery, expectation coefficients, and recursion constants.

Expected values are frozen from independent derivations: Bell and Stirling
numbers from the standard recurrences worked by hand, expectation
coefficients from the brute-force sample average, and constant values
from direct arithmetic on the closed forms.
"""

import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import _oracle
from _strategies import exact_kernels, exact_spaces

from empint.combinatorics import (_counts_moment, bell_number, check_moment_recursion,
                                  cumulative_constant, damping_factor,
                                  expectation_coefficient,
                                  expectation_coefficient_bruteforce,
                                  expectation_coefficient_scaled,
                                  expected_integral_oracle, moment_constant_table,
                                  moment_oracle, partition_count_bound,
                                  profile_maximizer, profile_weight,
                                  recursion_weight, set_partitions, stirling2,
                                  ustat_moment_oracle)
from empint.errors import EmptySample, EnumerationTooLarge
from empint.integrals import _eval_counts, eval_integral, eval_ustat
from empint.kernels import canonical_project, random_kernel, tensor_product
from empint.space import enumerate_counts, enumerate_samples, make_space, uniform_space


def test_set_partitions_counts():
    # Bell numbers 1, 1, 2, 5, 15, 52, 203, 877, 4140
    expected = [1, 1, 2, 5, 15, 52, 203, 877, 4140]
    for k, b in enumerate(expected):
        assert bell_number(k) == b
        if k >= 1:
            parts = list(set_partitions(k))
            assert len(parts) == b
            for pi in parts:
                flat = sorted(x for block in pi for x in block)
                assert flat == list(range(1, k + 1))


def test_set_partitions_cap():
    with pytest.raises(EnumerationTooLarge):
        list(set_partitions(13))


def test_stirling_hand_values():
    assert stirling2(3, 2) == 3
    assert stirling2(4, 2) == 7
    assert stirling2(5, 3) == 25
    assert stirling2(4, 4) == 1
    assert stirling2(4, 0) == 0
    # column sums give Bell numbers
    for k in range(1, 9):
        assert sum(stirling2(k, s) for s in range(k + 1)) == bell_number(k)


def test_partition_count_bound_dominates():
    for k in range(1, 9):
        for s in range(1, k + 1):
            assert partition_count_bound(k, s) >= stirling2(k, s)


def test_expectation_coefficient_small_closed_forms():
    # r(n, 1) = 0, r(n, 2) = -1/(2n), r(n, 3) = 1/(3n^2)
    for n in range(1, 12):
        assert expectation_coefficient(n, 1) == 0
        assert expectation_coefficient(n, 2) == F(-1, 2 * n)
        assert expectation_coefficient(n, 3) == F(1, 3 * n * n)


def test_expectation_coefficient_matches_bruteforce():
    # the subset form against the set-partition sum, two derivations
    for k in range(9):
        for n in range(1, 13):
            assert expectation_coefficient(n, k) == \
                expectation_coefficient_bruteforce(n, k)


def test_expectation_coefficient_scaled():
    # scaled value multiplies by n^{k/2}; at k = 2 this is the constant -1/2
    for n in (1, 4, 9, 25):
        assert expectation_coefficient_scaled(n, 2) == pytest.approx(-0.5)
    assert expectation_coefficient_scaled(7, 1) == 0.0


def test_expected_integral_oracle_methods_agree():
    sp = make_space(["1/4", "3/4"])
    rng = np.random.default_rng(31)
    for k in (1, 2, 3):
        f = random_kernel(sp, k, rng)
        for n in (1, 2, 3):
            a = expected_integral_oracle(f, n, method="counts")
            b = expected_integral_oracle(f, n, method="samples")
            assert a == b


def test_expected_integral_oracle_vs_direct_average():
    sp = uniform_space(2)
    rng = np.random.default_rng(32)
    f = random_kernel(sp, 2, rng)
    for n in (2, 3):
        direct = sum(w * eval_integral(f, s).coeff
                     for s, w in enumerate_samples(sp, n))
        assert expected_integral_oracle(f, n) == direct


def test_expectation_prediction_arbitrary_kernels():
    # E q = r(n, k) * <f, mu^{(x)k}> for every kernel, not just symmetric ones
    sp = make_space(["1/3", "2/3"])
    rng = np.random.default_rng(33)
    for k in (1, 2, 3):
        for _ in range(4):
            f = random_kernel(sp, k, rng)
            full = f
            for label in tuple(full.axis_labels):
                from empint.kernels import integrate_axis
                full = integrate_axis(full, label)
            mean_f = full.value_at(())
            for n in (1, 2, 3, 4):
                assert expected_integral_oracle(f, n) == \
                    expectation_coefficient(n, k) * mean_f


def test_second_moment_k1_closed_form():
    # E q^2 = ||f||_2^2 / n for canonical k = 1 kernels
    sp = make_space(["1/6", "1/3", "1/2"])
    rng = np.random.default_rng(34)
    from empint.kernels import l2_norm_sq
    for _ in range(5):
        f = canonical_project(random_kernel(sp, 1, rng))
        for n in (1, 2, 3, 4):
            assert moment_oracle(f, n, 2) == l2_norm_sq(f) / n


def test_ustat_moment_oracle_constant_kernel():
    # constant kernel: the U-statistic is deterministic, moments are powers
    from empint.kernels import kernel_from_values
    sp = uniform_space(2)
    ones = kernel_from_values(sp, ["1", "1"])
    f = tensor_product(ones, ones)
    for n in (2, 3, 4):
        u = F(n * (n - 1), 2)
        assert ustat_moment_oracle(f, n, 1) == u
        assert ustat_moment_oracle(f, n, 2) == u * u


def test_damping_factor_values():
    # D(m) = 1 + 2^{4-m}
    assert damping_factor(0) == 17
    assert damping_factor(1) == 9
    assert damping_factor(2) == 5
    assert damping_factor(3) == 3
    assert damping_factor(4) == 2
    assert damping_factor(5) == F(3, 2)
    assert damping_factor(8) == F(17, 16)


def test_cumulative_constant_values():
    # running product of D over p < m, all raised to the k-th power
    assert cumulative_constant(1, 0) == 1
    assert cumulative_constant(3, 0) == 1
    assert cumulative_constant(1, 3) == 17 * 9 * 5
    assert cumulative_constant(2, 3) == 585225  # (17 * 9 * 5)^2
    assert cumulative_constant(1, 5) == 17 * 9 * 5 * 3 * 2


def test_cumulative_constant_converges():
    # sup over m of C(1, m) is a finite product; partial products stabilize
    prev = cumulative_constant(1, 40)
    cur = cumulative_constant(1, 60)
    assert abs(float(cur) / float(prev) - 1.0) < 1e-9


def test_recursion_weight_special_slices():
    # l = p = 0 gives 1; the full-contraction corner reduces to a power of 2
    for k in (1, 2, 3, 4):
        for m in (0, 1, 5):
            assert recursion_weight(0, 0, k, m) == 1
            assert recursion_weight(k, k, k, m) == F(2) ** (2 * k * (4 - m))


def test_recursion_weight_positive():
    for k in (1, 2, 3):
        for m in (0, 2, 6):
            for l in range(k + 1):
                for p in range(l + 1):
                    assert recursion_weight(l, p, k, m) > 0


def test_recursion_weight_matches_closed_form():
    for k in range(1, 9):
        for m in range(17):
            for l in range(k + 1):
                for p in range(l + 1):
                    assert recursion_weight(l, p, k, m) == _oracle.recursion_weight(l, p, k, m)


def test_moment_recursion_holds():
    assert check_moment_recursion(5, 10) == []


def test_profile_maximizer_identity():
    # value at the maximizing point matches D(m)^{2k}
    for k in (1, 2, 3, 4):
        for m in (2, 5, 8):
            v = profile_maximizer(k, m)
            top = profile_weight(k, m, v)
            want = float(damping_factor(m)) ** (2 * k)
            assert top == pytest.approx(want, rel=1e-12)
            # nearby points do not exceed it
            for dv in (-0.01, 0.01):
                if 0 < v + dv < 2 * k:
                    assert profile_weight(k, m, v + dv) <= top * (1 + 1e-12)


def test_moment_constant_table_shape():
    t = moment_constant_table(3, 4)
    assert t.k_max == 3 and t.m_max == 4
    ks = {row[0] for row in t.rows}
    assert ks == {1, 2, 3}
    for k, m, d, cbar in t.rows:
        assert d == damping_factor(m)
        assert cbar == cumulative_constant(k, m)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(data=st.data(), sp=exact_spaces(), k=st.integers(0, 3), n=st.integers(0, 5),
       order=st.integers(1, 3), ustat=st.booleans())
def test_counts_moment_matches_fraction_sums_property(data, sp, k, n, order, ustat):
    # the integer sum divided once against Fraction accumulations over the
    # counts and over every ordered sample
    f = data.draw(exact_kernels(sp, k))
    if n == 0 and k and not ustat:
        with pytest.raises(EmptySample):
            _counts_moment(f, n, order, ustat)
        return
    got = _counts_moment(f, n, order, ustat)
    over_counts = sum((w * _eval_counts(f, c, ustat) ** order for c, w in enumerate_counts(sp, n)),
                      F(0))
    stat = eval_ustat if ustat else (lambda g, s: eval_integral(g, s).coeff)
    over_samples = sum((w * stat(f, s) ** order for s, w in enumerate_samples(sp, n)), F(0))
    assert type(got) is F and type(got.numerator) is int and type(got.denominator) is int
    assert got == over_counts == over_samples
    if order == 1 and not ustat:
        assert expected_integral_oracle(f, n, method="samples") == got


def test_cumulative_constant_is_memoized():
    assert cumulative_constant(3, 7) is cumulative_constant(3, 7)
    assert cumulative_constant(2, 2) == (17 * 9) ** 2
