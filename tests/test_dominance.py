from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import _oracle
from _oracle import pull_back, refine
from _strategies import exact_spaces
from empint import dominance, kernels
from empint.diagrams import ColoredDiagram, DiagramClass, contract, enumerate_diagrams
from empint.dominance import (DominanceCertificate, collapse_certificate,
                              contract_certificate, random_dominated_pair, relax_sigma,
                              verify_certificate)
from empint.errors import BlockMismatch, RankTooSmall, SigmaMismatch, SpaceMismatch
from empint.kernels import (Kernel, compact_relabel, constant_kernel, kernel_from_values,
                            l2_norm_sq, random_kernel, tensor_product)
from empint.space import make_space, uniform_space


@pytest.fixture
def sp():
    return uniform_space(3)


def _random_cert(space, blocks, seed):
    return random_dominated_pair(space, blocks, np.random.default_rng(seed))


def _all_diagrams(k1, k2):
    for l in range(min(k1, k2) + 1):
        for p in range(l + 1):
            yield from enumerate_diagrams(DiagramClass(k1, k2, l, p))


def _check_transport(f, cf, g, cg, d):
    """The transformed certificate verifies at rank r1 + r2 - (l - p) or is
    refused with RankTooSmall, and the rank-1 fallback verifies."""
    sig = max(cf.sigma_sq, cg.sigma_sq)
    cf, cg = relax_sigma(cf, sig), relax_sigma(cg, sig)
    h = compact_relabel(contract(f, g, d))
    target = cf.rank + cg.rank - (d.l - d.p)
    if target < 1:
        with pytest.raises(RankTooSmall):
            contract_certificate(cf, cg, d)
    else:
        out = contract_certificate(cf, cg, d)
        assert out.rank == target
        assert verify_certificate(h, out)
    assert verify_certificate(h, collapse_certificate(h, cf, cg))


def test_certificate_structural_validation(sp):
    # blocks are read off the factors' labels, so they cannot disagree
    h = Kernel(sp, kernel_from_values(sp, ["1/2", "1/2", "0"]).values, (2,))
    assert DominanceCertificate(F(1, 2), (h,)).blocks == ((2,),)
    with pytest.raises(RankTooSmall):
        DominanceCertificate(F(1, 2), ())


def _unit_cert(f):
    """The rank-1 certificate with |f| as its factor and f's own squared L2
    norm as the budget; valid whenever sup|f| <= 1."""
    return DominanceCertificate(l2_norm_sq(f), (f.abs(),))


def test_unit_certificate_round_trip(sp):
    rng = np.random.default_rng(41)
    f = random_kernel(sp, 2, rng)
    cert = _unit_cert(f)
    assert cert.rank == 1
    assert verify_certificate(f, cert)


def test_verify_rejects_wrong_partition(sp):
    f = kernel_from_values(sp, ["1", "0", "0"])
    cert = _unit_cert(f)
    g = tensor_product(f, f)
    with pytest.raises(BlockMismatch):
        verify_certificate(g, cert)


def test_verify_numeric_clauses(sp):
    f = kernel_from_values(sp, ["1/2", "0", "0"])
    good = _unit_cert(f)
    assert verify_certificate(f, good)
    # budget larger than 1 fails the sigma clause
    assert not verify_certificate(f, DominanceCertificate(F(3, 2), good.factors))
    # envelope too small pointwise
    small = kernel_from_values(sp, ["1/4", "0", "0"])
    bad = DominanceCertificate(F(1, 2), (small,))
    assert not verify_certificate(f, bad)
    # negative factor values are rejected even if the product still dominates
    signed = kernel_from_values(sp, ["-1/2", "1/2", "1/2"])
    assert not verify_certificate(f, DominanceCertificate(F(1, 2), (signed,)))
    # factor sup above 1
    tall = kernel_from_values(sp, ["2", "0", "0"])
    assert not verify_certificate(f, DominanceCertificate(F(1), (tall,)))
    # factor L2 mass above the budget
    wide = kernel_from_values(sp, ["1", "1", "1"])
    assert not verify_certificate(f, DominanceCertificate(F(1, 2), (wide,)))


def test_random_dominated_pair_various_shapes(sp):
    for seed, blocks in enumerate([((1,),), ((1,), (2,)), ((1, 2),),
                                   ((1, 3), (2,)), ((1,), (2,), (3,)), ((1, 2), (3,))]):
        f, cert = _random_cert(sp, blocks, 100 + seed)
        assert verify_certificate(f, cert)
        assert cert.rank == len(blocks)


def test_relax_sigma(sp):
    f, cert = _random_cert(sp, ((1,), (2,)), 43)
    relaxed = relax_sigma(cert, F(1))
    assert verify_certificate(f, relaxed)
    with pytest.raises(SigmaMismatch):
        relax_sigma(cert, cert.sigma_sq / 2)


def test_collapse_budget_hand_value(sp):
    # two rank-1 certificates with sigma^2 = 1/4 collapse to budget
    # sigma^{1+1} = 1/4, kept exact because the total rank is even
    env = kernel_from_values(sp, ["1/2", "0", "0"])
    f = kernel_from_values(sp, ["1/2", "0", "0"])
    g = kernel_from_values(sp, ["-1/4", "0", "0"])
    cf = DominanceCertificate(F(1, 4), (env,))
    cg = DominanceCertificate(F(1, 4), (env,))
    assert verify_certificate(f, cf) and verify_certificate(g, cg)
    d = ColoredDiagram(1, 1, ((1, 2),), frozenset({1}))
    h = contract(f, g, d)
    out = collapse_certificate(h, cf, cg)
    assert out.sigma_sq == F(1, 4)
    assert out.rank == 1
    assert verify_certificate(h, out)
    with pytest.raises(SigmaMismatch):
        collapse_certificate(h, cf, relax_sigma(cg, F(1, 2)))


def test_contract_certificate_plain_edge(sp):
    f, cf = _random_cert(sp, ((1,), (2,)), 48)
    g, cg = _random_cert(sp, ((1,), (2,)), 49)
    sig = max(cf.sigma_sq, cg.sigma_sq)
    cf, cg = relax_sigma(cf, sig), relax_sigma(cg, sig)
    d = ColoredDiagram(2, 2, ((1, 3),), frozenset())
    h = compact_relabel(contract(f, g, d))
    out = contract_certificate(cf, cg, d)
    # target rank r1 + r2 - (l - p) = 2 + 2 - 1
    assert out.rank == 3
    assert verify_certificate(h, out)


def test_contract_certificate_colored_edge(sp):
    f, cf = _random_cert(sp, ((1, 2),), 50)
    g, cg = _random_cert(sp, ((1, 2),), 51)
    sig = max(cf.sigma_sq, cg.sigma_sq)
    cf, cg = relax_sigma(cf, sig), relax_sigma(cg, sig)
    d = ColoredDiagram(2, 2, ((1, 3),), frozenset({1}))
    h = compact_relabel(contract(f, g, d))
    out = contract_certificate(cf, cg, d)
    # colored edges do not reduce the target rank
    assert out.rank == 2
    assert verify_certificate(h, out)


def test_contract_certificate_rank_too_small(sp):
    # single-block certificates with two plain edges would need rank zero
    f, cf = _random_cert(sp, ((1, 2),), 52)
    g, cg = _random_cert(sp, ((1, 2),), 53)
    sig = max(cf.sigma_sq, cg.sigma_sq)
    cf, cg = relax_sigma(cf, sig), relax_sigma(cg, sig)
    d = ColoredDiagram(2, 2, ((1, 3), (2, 4)), frozenset())
    with pytest.raises(RankTooSmall):
        contract_certificate(cf, cg, d)
    # differing budgets are reported first
    with pytest.raises(SigmaMismatch):
        contract_certificate(cf, relax_sigma(cg, F(1)), d)


def test_contract_certificate_full_sweep_small():
    # every diagram with k1, k2 <= 2 and compatible block shapes verifies
    space = uniform_space(2)
    shapes = {1: [((1,),)], 2: [((1, 2),), ((1,), (2,))]}
    seed = 60
    for k1 in (1, 2):
        for k2 in (1, 2):
            for bf in shapes[k1]:
                for bg in shapes[k2]:
                    for d in _all_diagrams(k1, k2):
                        seed += 1
                        f, cf = _random_cert(space, bf, seed)
                        g, cg = _random_cert(space, bg, seed + 7000)
                        _check_transport(f, cf, g, cg, d)


@st.composite
def block_partitions(draw):
    """Blocks partitioning the labels 1..k for k <= 3, sometimes with an
    extra empty block."""
    k = draw(st.integers(1, 3))
    owner = draw(st.lists(st.integers(0, k - 1), min_size=k, max_size=k))
    blocks = tuple(tuple(j + 1 for j in range(k) if owner[j] == b) for b in sorted(set(owner)))
    return blocks + ((),) * draw(st.integers(0, 1))


small_spaces = st.lists(st.integers(0, 4), min_size=1, max_size=3).filter(any).map(
    lambda parts: make_space([F(x, sum(parts)) for x in parts]))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(sp=small_spaces, bf=block_partitions(), bg=block_partitions(),
       seed=st.integers(0, 2**32 - 1))
def test_certificate_transport_property(sp, bf, bg, seed):
    f, cf = _random_cert(sp, bf, seed)
    g, cg = _random_cert(sp, bg, seed + 1)
    for d in _all_diagrams(f.arity, g.arity):
        _check_transport(f, cf, g, cg, d)


def _float_form(cert):
    return DominanceCertificate(float(cert.sigma_sq), tuple(h.as_float() for h in cert.factors))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(weights=st.lists(st.integers(0, 4), min_size=2, max_size=3).filter(any),
       bf=block_partitions(), bg=block_partitions(), seed=st.integers(0, 2**32 - 1),
       float_inputs=st.booleans())
def test_transport_matches_kernel_by_kernel_oracle_property(weights, bf, bg, seed,
                                                             float_inputs):
    """The transport on float operands gives the factors of the oracle,
    which builds a kernel at every step, bit for bit."""
    sp = make_space([F(x, sum(weights)) for x in weights])
    _, cf = _random_cert(sp, bf, seed)
    _, cg = _random_cert(sp, bg, seed + 1)
    sig = max(cf.sigma_sq, cg.sigma_sq)
    cf, cg = relax_sigma(cf, sig), relax_sigma(cg, sig)
    if float_inputs:
        cf, cg = _float_form(cf), _float_form(cg)
    for d in _all_diagrams(sum(map(len, bf)), sum(map(len, bg))):
        if cf.rank + cg.rank - (d.l - d.p) < 1:
            continue
        got, want = contract_certificate(cf, cg, d), _oracle.contract_certificate(cf, cg, d)
        assert got.sigma_sq == want.sigma_sq and got.blocks == want.blocks
        for h, w in zip(got.factors, want.factors):
            assert h.space == w.space and h.values.dtype == w.values.dtype == float
            assert np.array_equal(h.values, w.values)


@pytest.mark.parametrize("sigma_sq, float_h, r1, budget", [
    (F(1, 4), False, 1, F(1, 4)),  # even total, exact: sigma^2 itself
    (F(1, 4), False, 2, 0.125),    # odd total: a square root, so a float
    (0.25, True, 1, 0.25),
    (0.25, True, 2, 0.125),
    (F(1, 4), True, 1, 0.25),      # exact budget, float kernel
])
def test_collapse_budget_value_and_type(sp, sigma_sq, float_h, r1, budget):
    env = kernel_from_values(sp, ["1/2", "0", "0"])
    h = kernel_from_values(sp, ["1/8", "0", "0"])
    if float_h:
        env, h = env.as_float(), h.as_float()
    factors = tuple(Kernel(env.space, env.values, (j,)) for j in range(1, r1 + 1))
    out = collapse_certificate(h, DominanceCertificate(sigma_sq, factors),
                               DominanceCertificate(sigma_sq, (env,)))
    assert out.sigma_sq == budget and type(out.sigma_sq) is type(budget)


def test_collapse_certificate_float_budget_odd_rank(sp):
    f, cf = _random_cert(sp, ((1,), (2,)), 70)
    g, cg = _random_cert(sp, ((1,),), 71)
    sig = max(cf.sigma_sq, cg.sigma_sq)
    cf, cg = relax_sigma(cf, sig), relax_sigma(cg, sig)
    d = ColoredDiagram(2, 1, ((1, 3),), frozenset())
    h = contract(f, g, d)
    out = collapse_certificate(h, cf, cg)
    # odd total rank forces a float budget sigma^3
    assert out.sigma_sq == pytest.approx(float(sig) ** 1.5)
    assert verify_certificate(h, out)


def test_a_factor_on_another_space_is_refused():
    # the L2 clause is measured against f's weights, not the factor's own
    f = kernel_from_values(make_space(["1/2", "1/2"]), ["1", "1/2"])
    assert not verify_certificate(f, DominanceCertificate(F(13, 40), (f,)))
    skewed = kernel_from_values(make_space(["1/10", "9/10"]), ["1", "1/2"])
    with pytest.raises(SpaceMismatch):
        verify_certificate(f, DominanceCertificate(F(13, 40), (skewed,)))
    # the float form of f's space is the same measure
    assert verify_certificate(f, DominanceCertificate(F(5, 8), (f.as_float(),)))


def _certificates_on_two_measures():
    # f's factor on (1/2, 1/2), g's on (1/10, 9/10), one shared budget
    f = kernel_from_values(make_space(["1/2", "1/2"]), ["1", "1/2"])
    g = kernel_from_values(make_space(["1/10", "9/10"]), ["1", "1/2"])
    return f, DominanceCertificate(F(5, 8), (f,)), DominanceCertificate(F(5, 8), (g,))


def test_contract_certificate_refuses_factors_on_two_measures():
    # with the colored edge, g's factor would become its Schwarz marginal
    # taken against (1/10, 9/10), sqrt(13/40), in a certificate on (1/2, 1/2)
    f, cf, cg = _certificates_on_two_measures()
    d = ColoredDiagram(1, 1, ((1, 2),), {1})
    with pytest.raises(SpaceMismatch):
        contract_certificate(cf, cg, d)
    # the float form of f's space is the same measure
    cf_float = DominanceCertificate(F(5, 8), (f.as_float(),))
    h = compact_relabel(contract(f, f, d))
    assert verify_certificate(h, contract_certificate(cf, cf_float, d))


def test_collapse_certificate_refuses_factors_on_two_measures():
    f, cf, cg = _certificates_on_two_measures()
    h = contract(f, f, ColoredDiagram(1, 1, ((1, 2),), {1}))
    with pytest.raises(SpaceMismatch):
        collapse_certificate(h, cf, cg)
    with pytest.raises(SpaceMismatch):
        collapse_certificate(h.as_float(), cg, cg)
    assert verify_certificate(h, collapse_certificate(h.as_float(), cf, cf))


def test_a_certificate_failing_each_clause_is_refused_in_both_modes():
    # a zero-weight atom, a two-block certificate and an empty block's constant
    sp = make_space(["1/3", "2/3", "0"])
    f = kernel_from_values(sp, [["1/2", "0", "0"], ["0", "-1/4", "0"], ["0", "0", "1"]])
    row = Kernel(sp, kernel_from_values(sp, ["1", "1/2", "1"]).values, (1,))
    col = Kernel(sp, kernel_from_values(sp, ["1/2", "1/2", "1"]).values, (2,))
    good = DominanceCertificate(F(1, 2), (row, col))
    failing = {
        "sigma above 1": DominanceCertificate(F(3, 2), (row, col)),
        "sigma zero": DominanceCertificate(F(0), (row, col)),
        # two nonpositive factors: their product still dominates
        "negative entry": DominanceCertificate(F(1, 2), (row.scale(-1), col.scale(-1))),
        # 3/2 sits on the zero-weight atom: only the sup clause sees it
        "sup above 1": DominanceCertificate(
            F(1, 2), (Kernel(sp, kernel_from_values(sp, ["1", "1/2", "3/2"]).values, (1,)), col)),
        "L2 above budget": DominanceCertificate(F(1, 5), (row, col)),
        "product below |f|": DominanceCertificate(
            F(1, 2), (row, col.scale(F(1, 2)), constant_kernel(sp, "1/2"))),
    }
    assert verify_certificate(f, good) and _oracle.verify_certificate(f, good)
    for clause, cert in failing.items():
        for mode in ("exact", "float"):
            g, c = f, cert
            if mode == "float":
                g = f.as_float()
                c = DominanceCertificate(float(cert.sigma_sq), tuple(h.as_float() for h in cert.factors))
            assert not verify_certificate(g, c), (clause, mode)
            assert not _oracle.verify_certificate(g, c), (clause, mode)
    assert verify_certificate(f.as_float(), DominanceCertificate(
        0.5, tuple(h.as_float() for h in good.factors)))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(sp=small_spaces, blocks=block_partitions(), seed=st.integers(0, 2**32 - 1),
       scale=st.sampled_from([F(1), F(3, 2), F(1, 2)]))
def test_verify_matches_fraction_oracle_property(sp, blocks, seed, scale):
    f, cert = _random_cert(sp, blocks, seed)
    f = f.scale(scale)
    for budget in (cert.sigma_sq, cert.sigma_sq / 2):
        c = DominanceCertificate(budget, cert.factors)
        assert verify_certificate(f, c) == _oracle.verify_certificate(f, c)
        fc = DominanceCertificate(float(budget), tuple(h.as_float() for h in c.factors))
        assert verify_certificate(f.as_float(), fc) == _oracle.verify_certificate(f.as_float(), fc)


def test_verify_takes_the_factor_product_straight_from_the_einsum(monkeypatch):
    """The product clause reads the einsum's numerators over their
    denominator: it never builds the product kernel, and its verdicts are
    the entry-by-entry oracle's."""
    cases = []
    for seed, blocks in enumerate([((1,),), ((1,), (2,)), ((1, 2),), ((1,), (2, 3), ()), ((),)]):
        f, cert = _random_cert(uniform_space(3), blocks, seed)
        for scale in (F(1), F(3, 2), F(-1, 2)):
            g = f.scale(scale)
            cases += [(g, cert), (g, relax_sigma(cert, 1)), (g.as_float(), DominanceCertificate(
                float(cert.sigma_sq), tuple(h.as_float() for h in cert.factors)))]
    want = [_oracle.verify_certificate(f, c) for f, c in cases]
    assert True in want and False in want

    def refuse(*args, **kwargs):
        raise AssertionError("the factor product was built as a kernel")

    monkeypatch.setattr(kernels, "labeled_product", refuse)
    monkeypatch.setattr(dominance, "labeled_product", refuse)
    assert [verify_certificate(f, c) for f, c in cases] == want


def test_verify_arity_zero_certificate():
    sp = make_space(["1/2", "1/2"])
    f = constant_kernel(sp, F(1, 3))
    assert verify_certificate(f, DominanceCertificate(F(1, 2), (constant_kernel(sp, "1/2"),)))
    assert not verify_certificate(f, DominanceCertificate(F(1, 2), (constant_kernel(sp, "1/4"),)))
    # numerators that fit an int64 while their cross products do not
    h = constant_kernel(sp, F(2**40 - 1, 2**40))
    g = constant_kernel(sp, F(2**39, 2**40 + 7))
    assert verify_certificate(g, DominanceCertificate(F(1), (h,)))
    assert not verify_certificate(h, DominanceCertificate(F(1), (g,)))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(data=st.data(), sp=exact_spaces(max_atoms=3), blocks=block_partitions(),
       seed=st.integers(0, 2**32 - 1), scale=st.sampled_from([F(1), F(3, 2)]),
       t=st.integers(0, 5).map(lambda i: F(i, 5)))
def test_verdict_is_invariant_under_refinement_and_relabeling_property(data, sp, blocks, seed,
                                                                       scale, t):
    # f and its factors refined at one atom, or read on permuted atoms
    f, cert = _random_cert(sp, blocks, seed)
    f = f.scale(scale)
    atom = data.draw(st.integers(0, sp.n_atoms - 1))
    perm = data.draw(st.permutations(range(sp.n_atoms)))
    sp_perm = make_space([sp.weights[a] for a in perm])
    for move in (lambda h: refine(sp, h, atom, t), lambda h: pull_back(h, sp_perm, perm)):
        for budget in (cert.sigma_sq, cert.sigma_sq / 2):
            moved = DominanceCertificate(budget, tuple(map(move, cert.factors)))
            assert verify_certificate(move(f), moved) == verify_certificate(
                f, DominanceCertificate(budget, cert.factors))


def _transport_verdicts(h, cf, cg, d):
    """Whether contract_certificate's output along d (None below rank 1)
    and collapse_certificate's verify against h."""
    transported = None
    if cf.rank + cg.rank - (d.l - d.p) >= 1:
        transported = verify_certificate(h, contract_certificate(cf, cg, d))
    return transported, verify_certificate(h, collapse_certificate(h, cf, cg))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(data=st.data(), sp=exact_spaces(max_atoms=3), bf=block_partitions(),
       bg=block_partitions(), seed=st.integers(0, 2**32 - 1),
       t=st.integers(0, 5).map(lambda i: F(i, 5)))
def test_transport_is_invariant_under_refinement_and_relabeling_property(data, sp, bf, bg,
                                                                         seed, t):
    # the certificates' factors refined at one atom, or read on permuted
    # atoms, transport to certificates of the contraction moved alike
    f, cf = _random_cert(sp, bf, seed)
    g, cg = _random_cert(sp, bg, seed + 1)
    sig = max(cf.sigma_sq, cg.sigma_sq)
    cf, cg = relax_sigma(cf, sig), relax_sigma(cg, sig)
    atom = data.draw(st.integers(0, sp.n_atoms - 1))
    perm = data.draw(st.permutations(range(sp.n_atoms)))
    sp_perm = make_space([sp.weights[a] for a in perm])
    moves = (lambda h: refine(sp, h, atom, t), lambda h: pull_back(h, sp_perm, perm))
    for d in _all_diagrams(f.arity, g.arity):
        h = compact_relabel(contract(f, g, d))
        verdicts = _transport_verdicts(h, cf, cg, d)
        assert verdicts in ((True, True), (None, True))
        for move in moves:
            mcf, mcg = (DominanceCertificate(c.sigma_sq, tuple(map(move, c.factors)))
                        for c in (cf, cg))
            assert _transport_verdicts(move(h), mcf, mcg, d) == verdicts
