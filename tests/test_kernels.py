import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import _oracle
from _strategies import PROPERTY, exact_kernels, exact_spaces, json_values
from empint.diagrams import ColoredDiagram, contract
from empint.errors import (ArityMismatch, EmpintError, MalformedInput, NoSuchAxis, NotCanonical,
                           SpaceMismatch)
from empint.kernels import (Kernel, canonical_project, center_axis, compact_relabel,
                            constant_kernel, indicator_kernel, integrate_axis,
                            is_canonical, kernel_from_json, kernel_from_values,
                            kernel_to_json, l1_norm, l2_norm, l2_norm_sq, labeled_product,
                            random_kernel, require_canonical, sup_norm, symmetrize,
                            tensor_product)
from empint.integrals import eval_integral
from empint.scalars import _integer_numerators
from empint.space import Sample, make_space, uniform_space


@pytest.fixture
def sp2():
    return uniform_space(2)


def test_norms_hand_values(sp2):
    f = kernel_from_values(sp2, ["1/2", "-1/3"])
    assert sup_norm(f) == F(1, 2)
    assert l1_norm(f) == F(5, 12)
    assert l2_norm_sq(f) == F(13, 72)


def test_norms_weighted_space():
    sp = make_space(["1/4", "3/4"])
    f = kernel_from_values(sp, ["1", "-1"])
    assert l1_norm(f) == 1
    assert l2_norm_sq(f) == 1
    assert sup_norm(f) == 1


def test_arity_zero_kernel(sp2):
    c = constant_kernel(sp2, "3/4")
    assert c.arity == 0
    assert sup_norm(c) == F(3, 4)
    assert l2_norm_sq(c) == F(9, 16)
    assert c.value_at(()) == F(3, 4)
    assert is_canonical(c)


def test_tensor_product_labels_and_values(sp2):
    f = kernel_from_values(sp2, ["1", "2"])
    g = kernel_from_values(sp2, ["3", "5"])
    fg = tensor_product(f, g)
    assert fg.axis_labels == (1, 2)
    assert fg.value_at((1, 0)) == 6
    h = tensor_product(fg, g)
    assert h.axis_labels == (1, 2, 3)


@pytest.mark.parametrize("atom", [-1, 2, True, 1.0, np.True_])
def test_atom_indices_are_checked(sp2, atom):
    # no wrap-around from the end, no boolean mask, no bare IndexError
    f = kernel_from_values(sp2, [["1", "2"], ["3", "5"]])
    for read in (lambda: f.value_at((0, atom)), lambda: indicator_kernel(sp2, atom)):
        with pytest.raises(ValueError, match="out of range"):
            read()
    assert f.value_at((np.int64(1), 0)) == 3
    assert indicator_kernel(sp2, np.int64(1)).value_at((1,)) == 1


def test_integrate_axis_indicator(sp2):
    f = indicator_kernel(sp2, 0)
    m = integrate_axis(f, 1)
    assert m.arity == 0
    assert m.value_at(()) == F(1, 2)


def test_integrate_axis_keeps_other_labels(sp2):
    f = kernel_from_values(sp2, [["1", "2"], ["3", "4"]])
    m1 = integrate_axis(f, 1)
    assert m1.axis_labels == (2,)
    assert m1.value_at((0,)) == 2  # (1 + 3) / 2
    m2 = integrate_axis(f, 2)
    assert m2.axis_labels == (1,)
    assert m2.value_at((0,)) == F(3, 2)


def test_substitute_axis_errors(sp2):
    f = kernel_from_values(sp2, [["1", "2"], ["3", "4"]])
    with pytest.raises(NoSuchAxis):
        _oracle.substitute_axis(f, 1, 9)
    with pytest.raises(NoSuchAxis):
        integrate_axis(f, 9)


def test_substitute_axis_is_diagonal(sp2):
    f = kernel_from_values(sp2, ["1", "2"])
    g = kernel_from_values(sp2, ["3", "5"])
    fg = tensor_product(f, g)
    d = _oracle.substitute_axis(fg, keep=1, drop=2)
    assert d.axis_labels == (1,)
    assert d.value_at((0,)) == 3
    assert d.value_at((1,)) == 10


def test_center_axis_and_canonical_project(sp2):
    rng = np.random.default_rng(3)
    f = random_kernel(sp2, 3, rng)
    c = canonical_project(f)
    assert is_canonical(c)
    # projection is idempotent
    cc = canonical_project(c)
    assert all(a == b for a, b in zip(cc.values.flat, c.values.flat))
    g = center_axis(f, 2)
    assert all(x == 0 for x in integrate_axis(g, 2).values.flat)


def test_require_canonical_raises(sp2):
    f = indicator_kernel(sp2, 0)
    with pytest.raises(NotCanonical):
        require_canonical(f)


def test_symmetrize(sp2):
    rng = np.random.default_rng(4)
    f = random_kernel(sp2, 2, rng)
    s = symmetrize(f)
    assert s.value_at((0, 1)) == s.value_at((1, 0))
    ss = symmetrize(s)
    assert all(a == b for a, b in zip(ss.values.flat, s.values.flat))
    # averaging cannot grow the L2 norm
    assert l2_norm_sq(s) <= l2_norm_sq(f)


def test_operator_commutation_disjoint_axes():
    sp = uniform_space(3)
    rng = np.random.default_rng(5)
    f = random_kernel(sp, 4, rng)
    a = integrate_axis(_oracle.substitute_axis(f, 1, 2), 3)
    b = _oracle.substitute_axis(integrate_axis(f, 3), 1, 2)
    assert a.axis_labels == b.axis_labels
    assert all(x == y for x, y in zip(a.values.flat, b.values.flat))


def test_norm_inequalities_random_sweep():
    rng = np.random.default_rng(6)
    for A in (2, 3):
        sp = uniform_space(A)
        for k in (1, 2, 3):
            for _ in range(10):
                f = random_kernel(sp, k, rng)
                assert l2_norm_sq(f) <= sup_norm(f) * l1_norm(f)
                m = integrate_axis(f, 1)
                assert sup_norm(m) <= sup_norm(f)
                assert l1_norm(m) <= l1_norm(f)
                assert l2_norm_sq(m) <= l2_norm_sq(f)


def test_random_kernel_respects_bounds(sp2):
    rng = np.random.default_rng(7)
    f = random_kernel(sp2, 2, rng, max_den=4)
    assert sup_norm(f) <= 1
    assert all(x.denominator <= 4 for x in f.values.flat)


def test_kernel_json_round_trip(sp2):
    rng = np.random.default_rng(8)
    f = random_kernel(sp2, 2, rng)
    doc = kernel_to_json(f)
    assert doc["arity"] == 2
    g = kernel_from_json(sp2, doc)
    assert g.exact
    assert all(a == b for a, b in zip(f.values.flat, g.values.flat))
    with pytest.raises(ArityMismatch):
        kernel_from_json(sp2, {"arity": 2, "values": ["1"]})
    for arity in ("x", "1", 1.5, -1, True):
        with pytest.raises(MalformedInput):
            kernel_from_json(sp2, {"arity": arity, "values": ["1", "0"]})
    for bad in ("1/0", float("inf")):
        with pytest.raises(MalformedInput):
            kernel_from_json(sp2, {"arity": 1, "values": [bad, "0"]})
    for doc in (["1", "0"], {"arity": 1}, {"arity": 1, "values": "10"},
                {"arity": 1, "values": [10**400, "0"]}, {"arity": 33, "values": ["1"] * 2}):
        with pytest.raises(MalformedInput):
            kernel_from_json(sp2, doc)


@PROPERTY
@given(sp=exact_spaces(), doc=json_values() | st.fixed_dictionaries(
    {"arity": st.integers(0, 3) | json_values(), "values": st.lists(
        st.integers(-3, 3) | st.sampled_from(["1/2", "-2/3"]) | json_values(), max_size=9)}))
def test_kernel_from_json_returns_or_raises_typed_property(sp, doc):
    try:
        f = kernel_from_json(sp, doc)
    except EmpintError:
        return
    assert f.arity == doc["arity"] and f.values.size == len(doc["values"])


@pytest.mark.parametrize("shape, labels, error, message", [
    ((2, 2), (1,), ArityMismatch, "2 tensor axes for 1 labels"),
    ((), (1,), ArityMismatch, "0 tensor axes for 1 labels"),
    ((2, 3), (1, 2), ArityMismatch, "tensor shape (2, 3) does not match 2 atoms"),
    ((2, 2), (1, 1), ValueError, "axis labels must be strictly increasing, got (1, 1)"),
    ((2, 2), (2, 1), ValueError, "axis labels must be strictly increasing, got (2, 1)"),
    ((2, 2, 2), (1, 3, 3), ValueError, "axis labels must be strictly increasing, got (1, 3, 3)"),
])
def test_kernel_validation_paths(sp2, shape, labels, error, message):
    with pytest.raises(error) as info:
        Kernel(sp2, np.zeros(shape, dtype=object), labels)
    assert type(info.value) is error and str(info.value) == message


def test_kernel_accepts_arity_zero_and_increasing_labels(sp2):
    assert Kernel(sp2, np.array(F(3), dtype=object), ()).arity == 0
    assert Kernel(sp2, np.zeros((2, 2, 2), dtype=object), (1, 4, 9)).axis_labels == (1, 4, 9)


def test_relabel_rules(sp2):
    f = kernel_from_values(sp2, [["1", "2"], ["3", "4"]])
    g = Kernel(sp2, f.values, (3, 5))
    assert compact_relabel(g).axis_labels == (1, 2)


def test_space_mismatch(sp2):
    other = uniform_space(3)
    f = indicator_kernel(sp2, 0)
    g = indicator_kernel(other, 0)
    with pytest.raises(SpaceMismatch):
        tensor_product(f, g)


def test_kernel_scale_add(sp2):
    f = kernel_from_values(sp2, ["1/2", "-1/2"])
    g = f.scale(F(1, 2)).add(f.scale(F(1, 2)))
    assert all(a == b for a, b in zip(f.values.flat, g.values.flat))


@pytest.mark.parametrize("value", [7, 2**70])
def test_arity_zero_python_int_stays_exact(value):
    # object arithmetic on a 0-d array returns a bare int, which must not
    # turn into an int64 when the result kernel is built
    sp = make_space(["1/3", "2/3"])
    c = Kernel(sp, np.array(value, dtype=object), ())
    for h, want in ((c.add(c), 2 * value), (c.scale(2), 2 * value)):
        assert h.exact and h.values.dtype == object
        assert type(h.values[()]) is int and h.values[()] == want


def test_float_mode_paths(sp2):
    f = kernel_from_values(sp2, ["1/2", "-1/3"]).as_float()
    assert not f.exact
    assert sup_norm(f) == pytest.approx(0.5)
    assert l2_norm_sq(f) == pytest.approx(13 / 72)
    assert is_canonical(canonical_project(f))


@pytest.mark.parametrize("combine", [
    lambda f, g: f.add(g), lambda f, g: f.scale(g.values[0] * 2),
    lambda f, g: contract(f, g, ColoredDiagram(1, 1, ())),
], ids=["add", "scale", "contract"])
def test_floats_meeting_fractions_give_a_float_kernel(combine):
    # numpy keeps the floats of a Fraction-float operation in an object
    # array; the kernel reads them as a float kernel, not an exact one
    sp = make_space(["1/3", "2/3"])
    f = kernel_from_values(sp, ["1/2", "-1/3"])
    h = combine(f, kernel_from_values(sp, [0.25, 0.5]))
    want = combine(f, kernel_from_values(sp, ["1/4", "1/2"]))
    assert not h.exact and h.values.dtype == float and want.exact
    assert l2_norm_sq(h) == pytest.approx(float(l2_norm_sq(want)))
    sample = Sample(sp, (0, 1, 1))
    assert eval_integral(h, sample).value == pytest.approx(eval_integral(want, sample).value)


def test_l2_norm_past_float_range_is_inf(sp2):
    f = kernel_from_values(sp2, ["1e200", "0"])
    assert f.exact and l2_norm(f) == math.inf


def test_values_are_read_only(sp2):
    f = kernel_from_values(sp2, ["1", "2"])
    with pytest.raises(ValueError):
        f.values[0] = F(5)


def test_labeled_product_identifies_and_integrates():
    sp = make_space(["1/4", "3/4"])
    f = kernel_from_values(sp, [["1", "2"], ["3", "4"]])
    g = kernel_from_values(sp, ["5", "7"])
    # the shared label 2 glues g onto f's second argument, which is integrated
    h = labeled_product(sp, [(f, (1, 2)), (g, (2,))], (1,), [2])
    assert h.axis_labels == (1,)
    assert list(h.values) == [F(1, 4) * 5 + F(3, 4) * 14, F(1, 4) * 15 + F(3, 4) * 28]
    # output axes follow the requested labels
    t = labeled_product(sp, [(f, (2, 1))], (1, 2))
    assert t.values[0, 1] == f.values[1, 0]
    # a full contraction is a 0-d kernel holding a Fraction
    full = labeled_product(sp, [(f, (1, 2))], (), [1, 2])
    assert full.values.shape == () and type(full.values[()]) is F
    assert full.values[()] == l1_norm(f)


@pytest.mark.parametrize("labels, out, integrate", [
    ((1, 2), (1,), []),  # label 2 neither kept nor integrated
    ((1, 2), (1, 2), [2]),  # kept and integrated: read as f times w, [[1/4, 3/2], [3/4, 3]]
    ((1, 2), (1,), [2, 2]),  # integrated twice: read 19/16 where 7/4 is right
    ((1,), (1,), []),  # fewer labels than axes: numpy's bare ValueError
    ((1, 2, 3), (1, 2, 3), []),
])
def test_labeled_product_refuses_bad_label_sets(labels, out, integrate):
    sp = make_space(["1/4", "3/4"])
    f = kernel_from_values(sp, [["1", "2"], ["3", "4"]])
    assert list(labeled_product(sp, [(f, (1, 2))], (1,), [2]).values) == [F(7, 4), F(15, 4)]
    with pytest.raises(ArityMismatch):
        labeled_product(sp, [(f, labels)], out, integrate)


def test_numerators_are_cached_and_read_only():
    sp = make_space(["1/4", "3/4"])
    for g in (kernel_from_values(sp, [["1/2", "2"], ["3", "-1/3"]]),
              kernel_from_values(sp, [[0.5, 2.0], [3.0, -1.0]])):
        nums, d = g.numerators
        assert g.numerators is g.numerators and nums.shape == (2, 2)
        with pytest.raises(ValueError):
            nums[0, 0] = 0
    assert sp.numerators is sp.numerators
    assert sp.numerators[1] == 4 and list(sp.numerators[0]) == [1, 3]
    with pytest.raises(ValueError):
        sp.numerators[0][0] = 0


def test_numpy_integers_in_an_exact_kernel_are_python_ints():
    # numpy integers register as rationals; multiplied in int64 they wrapped
    sp = make_space(["1/2", "1/2"])
    f = Kernel(sp, np.array([np.int64(2**62), np.int64(3)], dtype=object), (1,))
    assert f.exact and all(type(x) is int for x in f.values)
    assert l2_norm_sq(f) == F(2**124 + 9, 2)
    sq = labeled_product(sp, [(f, (1,)), (f, (1,))], (), [1])
    assert sq.values[()] == F(2**124 + 9, 2)


def _is_exact_rational(x):
    return type(x) is F and type(x.numerator) is int and type(x.denominator) is int


@settings(derandomize=True, max_examples=60, deadline=None)
@given(data=st.data(), sp=exact_spaces(), k=st.integers(0, 4))
def test_norms_and_canonical_test_match_fraction_oracle_property(data, sp, k):
    f = data.draw(exact_kernels(sp, k))
    for g in (f, canonical_project(f), f.as_float(), canonical_project(f).as_float()):
        got = (sup_norm(g), l1_norm(g), l2_norm_sq(g))
        assert got == (_oracle.sup_norm(g), _oracle.l1_norm(g), _oracle.l2_norm_sq(g))
        assert is_canonical(g) == _oracle.is_canonical(g)
        if g.exact:
            assert all(_is_exact_rational(x) for x in got)
        else:
            assert all(type(x) in (float, np.float64) for x in got)
    assert is_canonical(canonical_project(f))


def test_norms_keep_python_ints_at_arity_zero():
    # object-dtype arithmetic on a 0-d array returns a bare int, which an
    # np.asarray without dtype=object would turn into an int64
    sp = make_space(["1/3", "2/3"])
    c = constant_kernel(sp, F(3**50, 7))
    for value in (sup_norm(c), l1_norm(c), l2_norm_sq(c)):
        assert _is_exact_rational(value)
    assert l2_norm_sq(c) == F(3**100, 49)
    full = labeled_product(sp, [(Kernel(sp, np.array(7, dtype=object), ()), ())], ())
    assert full.values.dtype == object and type(full.values[()]) is int


def _operand(data, sp, labels):
    shape = (sp.n_atoms,) * len(labels)
    ints, fractions = st.integers(-6, 6), st.builds(F, st.integers(-6, 6), st.integers(1, 6))
    entries = data.draw(st.sampled_from([ints, fractions, ints | fractions]))
    values = data.draw(st.lists(entries, min_size=math.prod(shape), max_size=math.prod(shape)))
    return Kernel(sp, np.array(values, dtype=object).reshape(shape),
                  tuple(range(1, len(labels) + 1))), labels


@settings(derandomize=True, max_examples=120, deadline=None)
@given(data=st.data(), sp=exact_spaces())
def test_exact_labeled_product_matches_fraction_einsum_property(data, sp):
    arities = data.draw(st.lists(st.integers(0, 3), min_size=1, max_size=3))
    factors = [_operand(data, sp, data.draw(st.lists(st.integers(1, 4), min_size=k, max_size=k,
                                                     unique=True)))
               for k in arities]
    used = sorted(set().union(*(labels for _, labels in factors)))
    drawn = data.draw(st.lists(st.sampled_from(used), unique=True)) if used else []
    for integrate in ([], drawn):  # a pure product every time
        out = [j for j in used if j not in integrate]
        got = labeled_product(sp, factors, out, integrate)
        want = _oracle.labeled_product(sp, [(f.values, labels) for f, labels in factors],
                                       out, integrate)
        assert got.exact and got.values.shape == want.shape and (got.values == want).all()
        assert all(type(x) is int or _is_exact_rational(x) for x in got.values.flat)
        # integer operands with nothing integrated give integers, at arity 0 too
        if not integrate and all(type(x) is int for f, _ in factors for x in f.values.flat):
            assert all(type(x) is int for x in got.values.flat)
    # a float operand meeting exact ones gives a float kernel
    (f, labels), *rest = factors
    h = labeled_product(sp, [(f.as_float(), labels), *rest], out, integrate)
    assert not h.exact and h.values.dtype == float
    assert np.allclose(h.values, want.astype(float), rtol=1e-12, atol=1e-12)


def _built_as_kernel_builds(h, values, same_entries=True):
    """h, an operator's result, against ``Kernel`` built on the values it
    computed: the same mode, dtype and shape, never an exact kernel holding
    floats, and the same entries, their types and float bits included (with
    ``same_entries`` off, equal values, floats to rounding)."""
    want = Kernel(h.space, values, h.axis_labels)
    assert h.exact == want.exact and h.values.dtype == want.values.dtype
    assert h.values.shape == want.values.shape
    assert not h.exact or all(type(x) in (int, F) for x in h.values.flat)
    if same_entries:
        assert repr(h.values.tolist()) == repr(want.values.tolist())
    elif h.exact:
        assert (h.values == want.values).all()
    else:
        assert np.allclose(h.values, want.values, rtol=1e-12, atol=1e-12)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(data=st.data(), sp=exact_spaces(max_atoms=3), k=st.integers(0, 3))
def test_operators_build_what_kernel_builds_property(data, sp, k):
    # the four operators take their result in the mode of their operands
    # without reading its entries; Kernel reads every entry, and the two
    # must agree on exact, float and mixed operands, at arity 0 too
    forms = st.sampled_from([lambda f: f, Kernel.as_float,  # exact, its float form
                             lambda f: Kernel(f.space, f.values.astype(float), f.axis_labels)])
    f, g = (data.draw(forms)(_operand(data, sp, range(1, k + 1))[0]) for _ in range(2))
    c = data.draw(st.sampled_from([F(-2, 3), 3, 2**70, 0.75, np.float64(-1.5), np.int64(3)]))
    _built_as_kernel_builds(f.scale(c), f.values * c)
    _built_as_kernel_builds(f.add(g), f.values + g.values)
    _built_as_kernel_builds(f.add(f.as_float()), f.values + f.as_float().values)
    labels = sorted(data.draw(st.lists(st.integers(1, 6), min_size=k, max_size=k, unique=True)))
    _built_as_kernel_builds(compact_relabel(Kernel(f.space, f.values, tuple(labels))), f.values)
    # f and g glued on shared labels; with every label integrated, 0-d
    g_labels = data.draw(st.lists(st.integers(1, 6), min_size=k, max_size=k, unique=True))
    used = sorted({*labels, *g_labels})
    integrate = data.draw(st.lists(st.sampled_from(used), unique=True)) if used else []
    out = [j for j in used if j not in integrate]
    h = labeled_product(sp, [(f, labels), (g, g_labels)], out, integrate)
    _built_as_kernel_builds(h, _oracle.labeled_product(
        sp, [(f.values, labels), (g.values, g_labels)], out, integrate), same_entries=False)


@settings(derandomize=True, max_examples=120, deadline=None)
@given(data=st.data(), sp=exact_spaces(max_atoms=3), k=st.integers(0, 3),
       seed=st.integers(0, 2**32 - 1))
def test_exact_results_hold_their_numerators_property(data, sp, k, seed):
    # a labeled product holds N / d in lowest terms, the pair its values
    # give, and builds values equal to the Fraction einsum's: ints when
    # every operand's denominator is 1, Fractions otherwise
    factors = [_operand(data, sp, data.draw(st.lists(st.integers(1, 4), min_size=j, max_size=j,
                                                     unique=True)))
               for j in data.draw(st.lists(st.integers(0, 3), min_size=1, max_size=3))]
    used = sorted(set().union(*(labels for _, labels in factors)))
    integrate = data.draw(st.lists(st.sampled_from(used), unique=True)) if used else []
    out = [j for j in used if j not in integrate]
    h = labeled_product(sp, factors, out, integrate)
    nums, d = pair = h.numerators
    relabeled = compact_relabel(h)  # copies the pair, and builds no values
    assert "values" not in vars(relabeled)
    assert relabeled.numerators is pair and relabeled.axis_labels == tuple(range(1, len(out) + 1))
    want_nums, want_d = _integer_numerators(h.values)
    assert d == want_d and nums.shape == want_nums.shape and (nums == want_nums).all()
    assert all(type(x) is int for x in nums.flat)
    want = _oracle.labeled_product(sp, [(f.values, labels) for f, labels in factors],
                                   out, integrate)
    assert h.values.shape == want.shape and (h.values == want).all()
    dens = [f.numerators[1] for f, _ in factors] + [sp.numerators[1]] * len(integrate)
    assert {type(x) for x in h.values.flat} == {int if math.prod(dens) == 1 else F}
    # random_kernel draws what a Fraction(num, den) per entry drew, in row-major order
    f = random_kernel(sp, k, drawing := np.random.default_rng(seed))
    rng = np.random.default_rng(seed)
    drawn = np.empty((sp.n_atoms,) * k, dtype=object)
    for idx in np.ndindex(drawn.shape):
        den = int(rng.integers(1, 7))
        drawn[idx] = F(int(rng.integers(-den, den + 1)), den)
    assert [(type(x), x) for x in f.values.flat] == [(F, x) for x in drawn.flat]
    assert drawing.integers(2**62) == rng.integers(2**62)  # no draw more or less
    nums, d = f.numerators
    want_nums, want_d = _integer_numerators(drawn)
    assert d == want_d and (nums == want_nums).all()


def _same_kernel(g, h):
    return (g.space == h.space and g.axis_labels == h.axis_labels
            and g.values.shape == h.values.shape
            and all(a == b for a, b in zip(g.values.flat, h.values.flat)))


@settings(derandomize=True, max_examples=80, deadline=None)
@given(data=st.data(), sp=exact_spaces(max_atoms=3), k=st.integers(0, 3),
       t=st.integers(0, 5).map(lambda i: F(i, 5)))
def test_projections_commute_with_refinement_and_relabeling_property(data, sp, k, t):
    # refining f at one atom, or reading it on permuted atoms, then
    # projecting, equals projecting f, then moving the result
    f = data.draw(exact_kernels(sp, k))
    atom = data.draw(st.integers(0, sp.n_atoms - 1))
    perm = data.draw(st.permutations(range(sp.n_atoms)))
    sp_perm = make_space([sp.weights[a] for a in perm])
    for move in (lambda h: _oracle.refine(sp, h, atom, t),
                 lambda h: _oracle.pull_back(h, sp_perm, perm)):
        for project in (canonical_project, symmetrize):
            assert _same_kernel(project(move(f)), move(project(f)))
