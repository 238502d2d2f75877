"""Hand-checkable values for the scaled integrals plus identity sweeps.

The k = 1 and k = 2 reference values below were derived by hand from the
inclusion-exclusion form of the statistic and are frozen here as literals.
"""

import ast
import gc
import inspect
import math
import weakref
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import _oracle
from _oracle import pull_back, refine
from _strategies import PROPERTY, exact_kernels, exact_spaces, samples_of
from empint import integrals

from empint.integrals import (CheckResult, ScaledValue, check_canonical_ustat_identity,
                              check_product_formula, eval_batch, eval_integral, eval_ustat,
                              product_formula_terms)
from empint.combinatorics import expected_integral_oracle
from empint.diagrams import product_formula_coefficient
from empint.errors import EmptySample, NotCanonical, SpaceMismatch
from empint.kernels import (canonical_project, constant_kernel, indicator_kernel,
                            kernel_from_values, random_kernel, tensor_product)
from empint.scalars import mode_of, require_one_measure
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
    # exact sides past float range: 0.0 when they agree, inf when they do not
    sp = make_space(["1/2", "1/2"])
    f = kernel_from_values(sp, [10**200, 0])
    res = check_product_formula(f, f, Sample(sp, (0, 0)), product_formula_terms(f, f))
    assert res.ok and res.discrepancy == 0.0
    assert CheckResult(F(10**400), F(1), False).discrepancy == math.inf


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


def test_kernels_of_one_check_are_one_measure():
    """Two exact spaces are two measures even when their float forms agree,
    and a sample on that shared float form does not join them."""
    sp = make_space(["1/3", "2/3"])
    near = make_space([F(1, 3) + F(1, 10**30), F(2, 3) - F(1, 10**30)])
    assert near.as_float() == sp.as_float()
    f, g = kernel_from_values(sp, ["1", "0"]), kernel_from_values(near, ["1", "0"])
    sample = Sample(sp.as_float(), (0, 1))
    with pytest.raises(SpaceMismatch):
        check_product_formula(f, g, sample, product_formula_terms(f, f))
    with pytest.raises(SpaceMismatch):
        check_product_formula(f, f, sample, product_formula_terms(g, g))


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
@given(data=st.data(), sp=exact_spaces(), k=st.integers(0, 3), wide=st.integers(4, 6),
       parts=st.tuples(st.integers(0, 5), st.integers(0, 5)).filter(any))
def test_count_polynomial_plan_matches_per_kernel_build_property(data, sp, k, wide, parts):
    _assert_plan_matches_per_kernel_build(data.draw(exact_kernels(sp, k)))
    # arities 4 to 6 on two atoms, as the (3, 3) product terms are built
    two = make_space([F(p, sum(parts)) for p in parts])
    _assert_plan_matches_per_kernel_build(data.draw(exact_kernels(two, wide)))


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


def _reference_q(h, sample):
    """eval_integral's coefficient from the recursive oracle, after the
    checks eval_integral makes, in its order."""
    require_one_measure(h.space, sample.space)
    if h.arity and not sample.n:
        raise EmptySample("an empty sample")
    return _oracle.integral_coeff(h, sample) if sample.n else h.values[()]


def _reference_product(f, g, sample, terms):
    """Both sides of the product identity, one Fraction operation at a time,
    after one check that every kernel and the sample are one measure."""
    require_one_measure(f.space, g.space, *(h.space for h in terms.values()), sample.space)
    mode = mode_of(f, g)
    lhs = _reference_q(f, sample) * _reference_q(g, sample)
    rhs = mode.zero
    for (l, p), h in terms.items():
        c = mode.cast(product_formula_coefficient(f.arity, g.arity, l, p))
        rhs = rhs + c * _reference_q(h, sample) / mode.cast(sample.n) ** l
    return lhs, rhs


def _reference_canonical(f, sample):
    """Both sides of the canonical identity: q n^k and the U-statistic."""
    lhs = _reference_q(f, sample) * mode_of(f).cast(sample.n) ** f.arity
    return lhs, _oracle.ustat(f, sample)


def _outcome(check, *args):
    """check(*args)'s (lhs, rhs) with its verdict, or the type of the
    EmptySample or SpaceMismatch it raises."""
    try:
        res = check(*args)
    except (EmptySample, SpaceMismatch) as e:
        return type(e)
    return (res.lhs, res.rhs, res.ok) if isinstance(res, CheckResult) else (*res, True)


def _assert_same_outcome(got, want, exact):
    if isinstance(want, type):
        assert got is want
    elif exact:
        assert got == want and list(map(type, got)) == list(map(type, want)) == [F, F, bool]
    else:
        assert got[2]
        for a, b in zip(got[:2], want[:2]):
            assert math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12), (a, b)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(data=st.data(), sp=exact_spaces(), k1=st.integers(0, 3), k2=st.integers(0, 3),
       n=st.integers(0, 5), exact=st.sampled_from([True, True, False]),
       stray=st.sampled_from([False] * 3 + [True]))
def test_product_identity_matches_step_by_step_reference_property(data, sp, k1, k2, n, exact,
                                                                  stray):
    # the parent's path, one statistic and one Fraction operation at a time;
    # with ``stray`` one term lives on another measure
    f, g = data.draw(exact_kernels(sp, k1)), data.draw(exact_kernels(sp, k2))
    if not exact:
        f, g = f.as_float(), g.as_float()
    terms = product_formula_terms(f, g)
    if stray:
        other = uniform_space(sp.n_atoms + 1)
        key = data.draw(st.sampled_from(sorted(terms)))
        terms[key] = data.draw(exact_kernels(other, terms[key].arity))
    sample = data.draw(samples_of(sp, n))
    want = _outcome(_reference_product, f, g, sample, terms)
    _assert_same_outcome(_outcome(check_product_formula, f, g, sample, terms), want, exact)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(data=st.data(), sp=exact_spaces(), k=st.integers(0, 3), n=st.integers(0, 5),
       exact=st.sampled_from([True, True, False]),
       stray=st.sampled_from([False] * 3 + [True]))
def test_canonical_identity_matches_step_by_step_reference_property(data, sp, k, n, exact, stray):
    f = canonical_project(data.draw(exact_kernels(sp, k)))
    if not exact:
        f = f.as_float()
    sample = data.draw(samples_of(uniform_space(sp.n_atoms + 1) if stray else sp, n))
    want = _outcome(_reference_canonical, f, sample)
    _assert_same_outcome(_outcome(check_canonical_ustat_identity, f, sample), want, exact)


def _table_readers(functions) -> set[str]:
    """``_evaluate`` and every function that hands its own ``table``
    parameter to it, whatever the function is named."""
    return {"_evaluate"} | {
        fn.name for fn in functions if "table" in [a.arg for a in fn.args.args]
        and any(isinstance(node, ast.Call) and ast.unparse(node.func) == "_evaluate"
                and "table" in map(ast.unparse, [*node.args, *(kw.value for kw in node.keywords)])
                for node in ast.walk(fn))}


def _second_evaluators(source: str) -> list[str]:
    """Where ``integrals``' source evaluates a count polynomial outside the
    one evaluator: a read of ``.blocks`` outside ``_evaluate``, a call of
    ``math.perm``, a table bound to anything but ``_falling_table`` or
    ``_checked_table``, or a table handed to a ``_table_readers`` function
    under another name."""
    builders = {"_falling_table", "_checked_table"}
    functions = [fn for fn in ast.walk(ast.parse(source)) if isinstance(fn, ast.FunctionDef)]
    readers = _table_readers(functions)
    found = []
    for fn in functions:
        for node in ast.walk(fn):
            where = f"{fn.name}:{getattr(node, 'lineno', '?')}"
            if isinstance(node, ast.Attribute) and node.attr == "blocks" and fn.name != "_evaluate":
                found.append(f"{where}: reads .blocks")
            if not isinstance(node, (ast.Call, ast.Assign)):
                continue
            if isinstance(node, ast.Assign):
                built = isinstance(node.value, ast.Call) and ast.unparse(node.value.func) in builders
                if "table" in map(ast.unparse, node.targets) and not built \
                        and fn.name != "_falling_table":
                    found.append(f"{where}: builds a table: {ast.unparse(node)}")
                continue
            name = ast.unparse(node.func)
            if name == "math.perm":
                found.append(f"{where}: calls math.perm")
            if name in readers:
                table = node.args[2] if len(node.args) > 2 else next(
                    (kw.value for kw in node.keywords if kw.arg == "table"), None)
                if not (ast.unparse(table) == "table" or isinstance(table, ast.Call)
                        and ast.unparse(table.func) in builders):
                    found.append(f"{where}: evaluates at {ast.unparse(table)}")
    return found


_SECOND_EVALUATORS = [
    # its own loop over the blocks
    """
def _eval_again(f, counts):
    poly = _count_polynomial(f)
    return sum(c * math.prod(math.perm(counts[a], m) for a, m in pairs)
               for block in poly.blocks for c, pairs in block)
""",
    # the one loop at a table of its own
    """
def _eval_again(f, counts):
    falling = [[math.perm(c, m) for c in counts] for m in range(f.arity + 1)]
    return _evaluate(_count_polynomial(f), sum(counts), falling)
""",
    # the helper at an unchecked table under another name
    """
def _eval_again(f, counts):
    falling = _falling_table(counts, f.arity)
    return _statistic(f, sum(counts), falling)
""",
]


def test_one_evaluator_for_the_statistic():
    """Only ``_evaluate`` walks a count polynomial, always at a table built
    by ``_falling_table``; the guard notices a second evaluator, and it
    finds ``_statistic``, which hands a table to ``_evaluate``, by what it
    does and not by its name."""
    source = inspect.getsource(integrals)
    functions = [fn for fn in ast.walk(ast.parse(source)) if isinstance(fn, ast.FunctionDef)]
    assert _table_readers(functions) == {"_evaluate", "_statistic"}
    assert _second_evaluators(source) == []
    for second in _SECOND_EVALUATORS:
        assert _second_evaluators(source + second)


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


@settings(derandomize=True, max_examples=60, deadline=None)
@given(data=st.data(), sp=exact_spaces(max_atoms=3), k=st.integers(0, 3), n=st.integers(1, 5),
       t=st.integers(0, 5).map(lambda i: F(i, 5)))
def test_statistics_are_invariant_under_refinement_and_relabeling_property(data, sp, k, n, t):
    # f refined at one atom, or read on permuted atoms: at any sample of the
    # new space, both statistics are f's at the merged sample
    f = data.draw(exact_kernels(sp, k))
    atom = data.draw(st.integers(0, sp.n_atoms - 1))
    perm = data.draw(st.permutations(range(sp.n_atoms)))
    moved = [(refine(sp, f, atom, t), [*range(sp.n_atoms), atom]),
             (pull_back(f, make_space([sp.weights[a] for a in perm]), perm), perm)]
    for g, atoms in moved:
        s = data.draw(samples_of(g.space, n))
        merged = Sample(sp, tuple(atoms[p] for p in s.points))
        assert eval_integral(g, s) == eval_integral(f, merged)
        assert eval_ustat(g, s) == eval_ustat(f, merged)
