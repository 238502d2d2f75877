import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from _oracle import diagram_count, pull_back, refine, substitute_axis
from _strategies import PROPERTY, exact_kernels, exact_spaces, json_values
from empint.diagrams import (ColoredDiagram, DiagramClass, contract,
                             contract_class_average, enumerate_diagrams,
                             format_diagram, is_gaussian, parse_diagram,
                             product_formula_coefficient)
from empint.errors import EmpintError, InvalidClass, InvalidDiagram
from empint.kernels import (integrate_axis, kernel_from_values, l1_norm, l2_norm_sq,
                            labeled_product, random_kernel, sup_norm, tensor_product)
from empint.space import make_space, uniform_space


def test_class_validation():
    DiagramClass(2, 2, 2, 2)
    with pytest.raises(InvalidClass):
        DiagramClass(2, 2, 3, 0)
    with pytest.raises(InvalidClass):
        DiagramClass(2, 2, 1, 2)
    with pytest.raises(InvalidClass):
        DiagramClass(-1, 1, 0, 0)
    with pytest.raises(InvalidClass):
        DiagramClass(0, 1, 1, 0)
    assert [format_diagram(d) for d in enumerate_diagrams(DiagramClass(0, 2, 0, 0))] == ["B(0,2;)"]


def test_diagram_validation():
    # second-row endpoints carry global labels k1+1 .. k1+k2
    ColoredDiagram(2, 2, ((1, 3), (2, 4)), frozenset({1}))
    with pytest.raises(InvalidDiagram):
        ColoredDiagram(2, 2, ((2, 3), (1, 4)), frozenset())  # first row not increasing
    with pytest.raises(InvalidDiagram):
        ColoredDiagram(2, 2, ((1, 3), (2, 3)), frozenset())  # second row repeats
    with pytest.raises(InvalidDiagram):
        ColoredDiagram(2, 2, ((1, 3),), frozenset({2}))  # colors a missing edge
    with pytest.raises(InvalidDiagram):
        ColoredDiagram(1, 1, ((1, 3),), frozenset())  # label out of range


def test_counts_hand_values():
    assert diagram_count(DiagramClass(2, 2, 1, 0)) == 4
    assert diagram_count(DiagramClass(2, 2, 2, 1)) == 4
    assert diagram_count(DiagramClass(2, 2, 2, 2)) == 2
    assert diagram_count(DiagramClass(3, 2, 0, 0)) == 1


def test_enumeration_matches_count():
    for k1 in (1, 2, 3):
        for k2 in (1, 2, 3):
            for l in range(min(k1, k2) + 1):
                for p in range(l + 1):
                    cls = DiagramClass(k1, k2, l, p)
                    ds = list(enumerate_diagrams(cls))
                    assert len(ds) == diagram_count(cls)
                    assert len(set(ds)) == len(ds)
                    for d in ds:
                        assert len(d.edges) == l
                        assert sum(1 for i, _ in enumerate(d.edges, 1)
                                   if i in d.colored) == p


def test_is_gaussian():
    full = ColoredDiagram(2, 2, ((1, 3), (2, 4)), frozenset({1, 2}))
    assert is_gaussian(full)
    assert not is_gaussian(ColoredDiagram(2, 2, ((1, 3), (2, 4)), frozenset({1})))
    assert is_gaussian(ColoredDiagram(1, 1, (), frozenset()))  # vacuous


def test_coefficient_hand_values():
    # k1 = k2 = 1: (l, p) -> (0,0): 2, (1,0): 1, (1,1): 1
    assert product_formula_coefficient(1, 1, 0, 0) == 2
    assert product_formula_coefficient(1, 1, 1, 0) == 1
    assert product_formula_coefficient(1, 1, 1, 1) == 1
    assert product_formula_coefficient(2, 2, 1, 0) == 6


def test_coefficient_against_count():
    # coefficient times k1! k2! splits as count(class) times (k1+k2-l-p)!
    for k1 in (1, 2, 3):
        for k2 in (1, 2, 3):
            for l in range(min(k1, k2) + 1):
                for p in range(l + 1):
                    cls = DiagramClass(k1, k2, l, p)
                    c = product_formula_coefficient(k1, k2, l, p)
                    expected = F(diagram_count(cls)
                                 * math.factorial(k1 + k2 - l - p),
                                 math.factorial(k1) * math.factorial(k2))
                    assert c == expected


def test_contract_single_plain_edge():
    sp = uniform_space(2)
    f = kernel_from_values(sp, ["1", "2"])
    g = kernel_from_values(sp, ["3", "5"])
    d = ColoredDiagram(1, 1, ((1, 2),), frozenset())
    h = contract(f, g, d)
    # plain edge glues the two axes: pointwise product
    assert h.arity == 1
    assert h.value_at((0,)) == 3
    assert h.value_at((1,)) == 10


def test_contract_single_colored_edge():
    sp = uniform_space(2)
    f = kernel_from_values(sp, ["1", "2"])
    g = kernel_from_values(sp, ["3", "5"])
    d = ColoredDiagram(1, 1, ((1, 2),), frozenset({1}))
    h = contract(f, g, d)
    # colored edge integrates the glued product: arity drops to zero
    assert h.arity == 0
    assert h.value_at(()) == F(13, 2)


def test_contract_arity_bookkeeping():
    sp = uniform_space(2)
    rng = np.random.default_rng(11)
    f = random_kernel(sp, 3, rng)
    g = random_kernel(sp, 2, rng)
    for l in range(3):
        for p in range(l + 1):
            cls = DiagramClass(3, 2, l, p)
            for d in enumerate_diagrams(cls):
                h = contract(f, g, d)
                assert h.arity == 5 - l - p
            avg = contract_class_average(f, g, cls)
            assert avg.arity == 5 - l - p
            assert avg.axis_labels == tuple(range(1, avg.arity + 1))


def test_class_average_is_mean_of_members():
    from empint.kernels import compact_relabel

    sp = uniform_space(3)
    rng = np.random.default_rng(12)
    f = random_kernel(sp, 2, rng)
    g = random_kernel(sp, 2, rng)
    cls = DiagramClass(2, 2, 1, 0)
    avg = contract_class_average(f, g, cls)
    members = [compact_relabel(contract(f, g, d)).values
               for d in enumerate_diagrams(cls)]
    count = len(members)
    for idx in np.ndindex(avg.values.shape):
        want = sum(m[idx] for m in members) / count
        assert avg.values[idx] == want


def test_contraction_norm_bounds_random():
    rng = np.random.default_rng(13)
    for A in (2, 3):
        sp = uniform_space(A)
        for _ in range(5):
            f = random_kernel(sp, 2, rng)
            g = random_kernel(sp, 2, rng)
            for l in range(3):
                for p in range(l + 1):
                    cls = DiagramClass(2, 2, l, p)
                    for d in enumerate_diagrams(cls):
                        h = contract(f, g, d)
                        assert sup_norm(h) <= sup_norm(f) * sup_norm(g)
                        assert l2_norm_sq(h) <= l2_norm_sq(f) * l2_norm_sq(g) \
                            or sup_norm(f) * sup_norm(g) >= 0  # sup bound always applies


def test_format_parse_round_trip():
    for cls in (DiagramClass(2, 2, 2, 1), DiagramClass(3, 3, 2, 2),
                DiagramClass(3, 1, 1, 0)):
        for d in enumerate_diagrams(cls):
            text = format_diagram(d)
            assert parse_diagram(text) == d


def test_parse_rejects_garbage():
    with pytest.raises(InvalidDiagram):
        parse_diagram("not a diagram")
    with pytest.raises(InvalidDiagram):
        parse_diagram("B(2,2; (3,1)+)")
    with pytest.raises(InvalidDiagram):
        parse_diagram("B(2,2; (1,3)x (2,4)?)")
    for bad in ("B(\u0661,1;)", "B(2,2; (1,\u0663)+)", 5, None, "B(" + "9" * 5000 + ",1;)"):
        with pytest.raises(InvalidDiagram):
            parse_diagram(bad)


_NUMBERS = st.integers(0, 5).map(str) | st.sampled_from(["\u0661", "\u0663", "07"])
_EDGES = st.builds("({},{}){}".format, _NUMBERS, _NUMBERS, st.sampled_from("+-"))
_DIAGRAM_TEXTS = st.builds(lambda k1, k2, edges: f"B({k1},{k2}; {' '.join(edges)})",
                           _NUMBERS, _NUMBERS, st.lists(_EDGES, max_size=3))


@PROPERTY
@given(text=_DIAGRAM_TEXTS | st.text(max_size=20) | json_values())
def test_parse_diagram_returns_or_raises_typed_property(text):
    try:
        d = parse_diagram(text)
    except EmpintError:
        return
    assert parse_diagram(format_diagram(d)) == d


def test_contract_factorizes_over_tensor_structure():
    # gluing the lone axis of f against axis 1 of g1 (x) g2 leaves g2 intact
    sp = uniform_space(2)
    f = kernel_from_values(sp, ["1", "-1"])
    g1 = kernel_from_values(sp, ["2", "3"])
    g2 = kernel_from_values(sp, ["5", "7"])
    g = tensor_product(g1, g2)
    d = ColoredDiagram(1, 2, ((1, 2),), frozenset({1}))
    h = contract(f, g, d)
    assert h.arity == 1
    inner = (F(1) * 2 - F(1) * 3) / 2
    assert h.value_at((0,)) == inner * 5
    assert h.value_at((1,)) == inner * 7


def _chain_contract(f, g, d):
    """Reference contraction, one operator per step: tensor the pair,
    identify every edge, integrate every colored first endpoint."""
    out = tensor_product(f, g)
    for j, j2 in d.edges:
        out = substitute_axis(out, keep=j, drop=j2)
    for j, _ in d.colored_edges():
        out = integrate_axis(out, j)
    return out


def test_contract_matches_operator_chain():
    rng = np.random.default_rng(14)
    spaces = (make_space(["1/3", "2/3"]), make_space(["1/6", "1/3", "1/2"]))
    shapes = [(k1, k2, l, p) for k1 in (1, 2, 3) for k2 in (1, 2, 3)
              for l in range(min(k1, k2) + 1) for p in range(l + 1)]
    checked = 0
    for sp in spaces:
        kernels = {k: random_kernel(sp, k, rng) for k in (1, 2, 3)}
        for k1, k2, l, p in shapes:
            f, g = kernels[k1], kernels[k2]
            for d in enumerate_diagrams(DiagramClass(k1, k2, l, p)):
                got, want = contract(f, g, d), _chain_contract(f, g, d)
                assert got.axis_labels == want.axis_labels
                assert got.values.shape == want.values.shape
                for a, b in zip(got.values.flat, want.values.flat):
                    assert type(a) is F and a == b
                checked += 1
    assert checked == 2 * sum(diagram_count(DiagramClass(*s)) for s in shapes)


def _all_diagrams(k1, k2):
    return [d for l in range(min(k1, k2) + 1) for p in range(l + 1)
            for d in enumerate_diagrams(DiagramClass(k1, k2, l, p))]


@settings(derandomize=True, max_examples=60, deadline=None)
@given(data=st.data(), sp=exact_spaces(max_atoms=3), k1=st.integers(1, 2), k2=st.integers(1, 2),
       t=st.integers(0, 5).map(lambda i: F(i, 5)))
def test_contraction_norms_are_invariant_under_refinement_property(data, sp, k1, k2, t):
    # splitting an atom and reading f, g on both halves changes no integral
    f, g = data.draw(exact_kernels(sp, k1)), data.draw(exact_kernels(sp, k2))
    atom = data.draw(st.integers(0, sp.n_atoms - 1))
    f_ref, g_ref = refine(sp, f, atom, t), refine(sp, g, atom, t)
    for d in _all_diagrams(k1, k2):
        h, h_ref = contract(f, g, d), contract(f_ref, g_ref, d)
        assert l1_norm(h_ref) == l1_norm(h) and l2_norm_sq(h_ref) == l2_norm_sq(h)
        assert (h_ref.values == refine(sp, h, atom, t).values).all()


@settings(derandomize=True, max_examples=60, deadline=None)
@given(data=st.data(), sp=exact_spaces(max_atoms=3), k1=st.integers(1, 2), k2=st.integers(1, 2))
def test_atom_permutation_commutes_with_contraction_property(data, sp, k1, k2):
    f, g = data.draw(exact_kernels(sp, k1)), data.draw(exact_kernels(sp, k2))
    perm = data.draw(st.permutations(range(sp.n_atoms)))
    sp_perm = make_space([sp.weights[a] for a in perm])
    f_perm, g_perm = pull_back(f, sp_perm, perm), pull_back(g, sp_perm, perm)
    for d in _all_diagrams(k1, k2):
        h, h_perm = contract(f, g, d), contract(f_perm, g_perm, d)
        assert (h_perm.values == pull_back(h, sp_perm, perm).values).all()
    # and with any labeled product of the two, shared labels included
    g_labels = data.draw(st.lists(st.integers(1, 3), min_size=k2, max_size=k2, unique=True))
    used = sorted({*range(1, k1 + 1), *g_labels})
    integrate = data.draw(st.lists(st.sampled_from(used), unique=True))
    out = [j for j in used if j not in integrate]
    h = labeled_product(sp, [(f, range(1, k1 + 1)), (g, g_labels)], out, integrate)
    h_perm = labeled_product(sp_perm, [(f_perm, range(1, k1 + 1)), (g_perm, g_labels)], out,
                             integrate)
    assert (h_perm.values == pull_back(h, sp_perm, perm).values).all()
