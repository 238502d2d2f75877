"""Dominance certificates: product-form envelopes of kernels, and how they
transform under diagram contraction.

A kernel f of arity k is (r, sigma^2)-dominated when its argument labels
split into r blocks (some possibly empty) with one factor per block such
that |f| <= product of the factors pointwise, every factor is nonnegative
with sup norm at most 1, and every factor has squared L2 norm at most
sigma^2 <= 1.  An empty block's factor is a constant in [0, sigma].

A certificate is just (sigma^2, factors): each factor's axis labels are its
block, so an empty block is an arity-0 factor and the rank is the number
of factors.

The point of the calculus: contracting two dominated kernels along a
diagram with l edges, p colored, yields a kernel dominated at rank exactly
r1 + r2 - (l - p) with the *same* variance budget.  The transform below
builds that certificate constructively:

* each colored edge replaces the two touched factors by the square roots
  of their squared marginals (a Schwarz step; blocks lose the endpoint),
* uncolored edges identify their second endpoint with their first, and the
  factors they join (directly or through other edges) merge into one
  edge-identified product; a group of m factors costs m - 1 ranks, at most
  one per uncolored edge,
* if fewer than l - p ranks were spent, the groups with the smallest least
  labels are merged outright until the rank target is met (sound because
  sigma <= 1).

Colored steps need square roots, so transformed certificates are float
mode; rank bookkeeping stays exact.  The transport runs on float operands:
each factor's float form is read once, and every Schwarz step and group
product is one ``np.einsum`` on (values, labels) pairs, in the order the
factors come in, so only the returned factors are built as kernels.
Factors and kernels must live on one measure
(``scalars.require_one_measure``), and a check reads them in the joint
mode (``Arithmetic.form``): a float certificate is checked in float.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .diagrams import ColoredDiagram
from .errors import BlockMismatch, RankTooSmall, SigmaMismatch
from .kernels import (Kernel, _einsum_numerators, constant_kernel, l2_norm_sq,
                      labeled_product, random_kernel)
from .scalars import FLOAT, Scalar, is_exact, mode_of, require_one_measure

__all__ = [
    "DominanceCertificate", "verify_certificate", "relax_sigma", "contract_certificate",
    "collapse_certificate", "random_dominated_pair",
]

POINTWISE_TOL = 1e-10


@dataclass(frozen=True)
class DominanceCertificate:
    """factors[i] is the envelope factor on block i, and block i is the
    labels that factor depends on (an empty block's factor has arity 0)."""

    sigma_sq: Scalar
    factors: tuple[Kernel, ...]

    def __post_init__(self):
        if not self.factors:
            raise RankTooSmall("a certificate needs at least one block")

    @property
    def blocks(self) -> tuple[tuple[int, ...], ...]:
        return tuple(h.axis_labels for h in self.factors)

    @property
    def rank(self) -> int:
        return len(self.factors)

    @property
    def exact(self) -> bool:
        return is_exact(self.sigma_sq) and all(h.exact for h in self.factors)


def verify_certificate(f: Kernel, cert: DominanceCertificate) -> bool:
    """Check every clause of the dominance definition against f, up to
    POINTWISE_TOL in float mode.

    Structural violations raise: BlockMismatch for blocks not partitioning
    f's labels, SpaceMismatch for a factor on another measure than f's.
    Numeric clauses return False.  Every clause reads the joint mode's numerators (Python
    ints over one denominator in exact mode) and compares by cross-multiplying,
    so exact certificates are checked exactly: a factor N / d is
    nonnegative when N >= 0 and has sup norm at most 1 when max |N| <= d,
    and |F| / d_f <= P / D, with P / D the product of the factors, is
    |F| D <= P d_f.
    """
    flat = [j for block in cert.blocks for j in block]
    if sorted(flat) != sorted(f.axis_labels) or len(flat) != len(set(flat)):
        raise BlockMismatch(f"blocks {cert.blocks} do not partition labels {f.axis_labels}")
    require_one_measure(f.space, *(h.space for h in cert.factors))
    mode = mode_of(cert, f)
    slack = mode.slack(POINTWISE_TOL)
    if not 0 < cert.sigma_sq <= 1 + slack:
        return False
    factors = [mode.form(h) for h in cert.factors]
    for h in factors:
        nums, d = h.numerators
        # 0 <= h <= 1, so the sup norm is at most 1
        if not -slack * d <= nums.min() <= nums.max() <= (1 + slack) * d:
            return False
        if l2_norm_sq(h) > cert.sigma_sq + slack:
            return False
    # the blocks partition f's labels and share its measure: checked above
    prod, den = _einsum_numerators(mode, f.space, [(h, list(h.axis_labels)) for h in factors],
                                   f.axis_labels)
    nums, d_f = mode.form(f).numerators
    # flat arrays: arithmetic on 0-d object arrays returns bare scalars
    gap = np.abs(nums.reshape(-1)) * den - prod.reshape(-1) * d_f
    return gap.max() <= slack * d_f * den


def relax_sigma(cert: DominanceCertificate, sigma_sq: Scalar) -> DominanceCertificate:
    if sigma_sq < cert.sigma_sq:
        raise SigmaMismatch(f"cannot shrink budget {cert.sigma_sq} to {sigma_sq}")
    return DominanceCertificate(sigma_sq, cert.factors)


def contract_certificate(cf: DominanceCertificate, cg: DominanceCertificate,
                         d: ColoredDiagram) -> DominanceCertificate:
    """Certificate for the compact-relabeled contraction of two dominated
    kernels along ``d``, at rank exactly r1 + r2 - (l - p) with the shared
    variance budget.  Raises SigmaMismatch when the budgets differ,
    SpaceMismatch when the factors live on different measures, and
    RankTooSmall when that target is below one.
    """
    if cf.sigma_sq != cg.sigma_sq:
        raise SigmaMismatch(f"budgets differ: {cf.sigma_sq} vs {cg.sigma_sq}")
    require_one_measure(*(h.space for h in cf.factors + cg.factors))
    target = cf.rank + cg.rank - (d.l - d.p)
    if target < 1:
        raise RankTooSmall(f"rank {cf.rank}+{cg.rank} cannot absorb {d.l - d.p} merges")

    # Each factor as an einsum operand (float values, labels); g's factors
    # take g's labels in the pair, shifted past f's k1.
    pair = [(FLOAT.form(h).numerators[0], list(h.axis_labels)) for h in cf.factors]
    pair += [(FLOAT.form(h).numerators[0], [j + d.k1 for j in h.axis_labels])
             for h in cg.factors]
    space = FLOAT.form(cf.factors[0].space)
    weights = space.numerators[0]

    # Schwarz step: a factor holding colored endpoints becomes the square
    # root of its squared marginal over them.
    colored = {j for edge in d.colored_edges() for j in edge}
    factors = []
    for values, labels in pair:
        drop = [j for j in labels if j in colored]
        if drop:
            keep = [j for j in labels if j not in colored]
            sq = np.einsum(values, labels, values, labels,
                           *[x for j in drop for x in (weights, [j])], keep)
            values, labels = np.sqrt(np.maximum(sq, 0.0)), keep
        factors.append((values, labels))

    # Each uncolored edge's second endpoint is renamed to its first, so the
    # factors an edge joins share a label: group (labels, operands) by that.
    rename = {j2: j for j, j2 in d.uncolored_edges()}
    groups: list[tuple[set[int], list]] = []
    for values, labels in factors:
        labels = [rename.get(j, j) for j in labels]
        joined = [g for g in groups if g[0].intersection(labels)]
        groups = [g for g in groups if not g[0].intersection(labels)]
        groups.append((set(labels).union(*(g[0] for g in joined)),
                       [(values, labels)] + [op for g in joined for op in g[1]]))

    # Spare merges down to the exact rank target (sound since sigma <= 1).
    while len(groups) > target:
        groups.sort(key=lambda g: min(g[0], default=0))
        (l1, o1), (l2, o2) = groups[:2]
        groups[:2] = [(l1 | l2, o1 + o2)]

    # One product per group, relabeled to the compact 1..arity frame: the
    # only kernels built.
    frame = {j: i + 1 for i, j in enumerate(sorted(set().union(*(g[0] for g in groups))))}
    products = []
    for labels, ops in groups:
        out = sorted(frame[j] for j in labels)
        nums = np.einsum(*[x for v, ls in ops for x in (v, [frame[j] for j in ls])], out)
        products.append(Kernel(space, nums, tuple(out)))
    return DominanceCertificate(float(cf.sigma_sq), tuple(products))


def collapse_certificate(h: Kernel, cf: DominanceCertificate,
                         cg: DominanceCertificate) -> DominanceCertificate:
    """The rank-1 fallback for a contraction h of two dominated kernels:
    |h| itself is the factor, with the enlarged budget sigma^{r1+r2}.

    (The Schwarz bound gives L2(h)^2 <= L2(f) L2(g) <= sigma^{r1+r2}; the
    budget uses that exponent, so the certificate stays checkable.)  Raises
    SigmaMismatch and SpaceMismatch as contract_certificate does, h included.
    """
    if cf.sigma_sq != cg.sigma_sq:
        raise SigmaMismatch(f"budgets differ: {cf.sigma_sq} vs {cg.sigma_sq}")
    require_one_measure(h.space, *(k.space for k in cf.factors + cg.factors))
    r_total = cf.rank + cg.rank
    # an odd total makes the budget a square root, so a float
    mode = mode_of(cf.sigma_sq, h) if r_total % 2 == 0 else FLOAT
    return DominanceCertificate(mode.cast(cf.sigma_sq) ** mode.ratio(r_total, 2), (h.abs(),))


def random_dominated_pair(space, blocks: tuple[tuple[int, ...], ...],
                          rng: np.random.Generator):
    """A random exact kernel together with a valid certificate on the given
    blocks: factors are random nonnegative kernels with sup <= 1, and the
    kernel is their product damped by a random sign pattern in [-1, 1]."""
    labels = tuple(sorted(j for b in blocks for j in b))
    drawn = {b: Kernel(space, random_kernel(space, len(b), rng).abs().values,
                       tuple(sorted(b))) for b in blocks if b}
    sigma_sq = max((l2_norm_sq(h) for h in drawn.values()), default=Fraction(0))
    if sigma_sq == 0:
        sigma_sq = Fraction(1, 6)  # random_kernel's bound on denominators
    # an empty block's factor is the constant sigma^2 <= sigma
    factors = tuple(drawn[b] if b else constant_kernel(space, sigma_sq) for b in blocks)
    cert = DominanceCertificate(sigma_sq, factors)
    damp = random_kernel(space, len(labels), rng)
    prod = labeled_product(space, [(h, h.axis_labels) for h in factors], labels)
    return Kernel(space, prod.values * damp.values, labels), cert
