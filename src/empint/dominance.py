"""Dominance certificates: product-form envelopes of kernels, and how they
transform under diagram contraction.

A kernel f of arity k is (r, sigma^2)-dominated when its argument labels
split into r blocks (some possibly empty) with one factor per block such
that |f| <= product of the factors pointwise, every factor is nonnegative
with sup norm at most 1, and every factor has squared L2 norm at most
sigma^2 <= 1.  An empty block's factor is a constant in [0, sigma].

A certificate is (sigma^2, factors), each factor held as its square
S = phi^2, so that every clause is rational: 0 <= S <= 1, the integral of
S is at most sigma^2, and f^2 <= the product of the S's pointwise.  Each
factor's axis labels are its block, so an empty block is an arity-0 factor
(a constant in [0, sigma^2]) and the rank is the number of factors.

The point of the calculus: contracting two dominated kernels along a
diagram with l edges, p colored, yields a kernel dominated at rank exactly
r1 + r2 - (l - p) with the *same* variance budget.  The transform below
builds that certificate constructively, each step one ``labeled_product``:

* each colored edge replaces the two touched factors by their integrals
  over the colored endpoints (a Schwarz step, in squares; blocks lose the
  endpoint),
* uncolored edges identify their second endpoint with their first, and the
  factors they join (directly or through other edges) merge into one
  edge-identified product; a group of m factors costs m - 1 ranks, at most
  one per uncolored edge,
* if fewer than l - p ranks were spent, the groups with the smallest least
  labels are merged outright until the rank target is met (sound because
  sigma <= 1).

So an exact pair's certificate is exact, and is checked exactly.  Factors
and kernels must live on one measure (``scalars.require_one_measure``),
and a check reads them in the joint mode (``Arithmetic.form``): a float
certificate is checked in float, up to POINTWISE_TOL.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .diagrams import ColoredDiagram
from .errors import BlockMismatch, RankTooSmall, SigmaMismatch
from .kernels import (Kernel, _Held, _einsum_numerators, constant_kernel, l1_norm,
                      labeled_product, random_kernel)
from .scalars import Scalar, is_exact, mode_of, require_one_measure

__all__ = [
    "DominanceCertificate", "verify_certificate", "relax_sigma", "contract_certificate",
    "collapse_certificate", "random_dominated_pair",
]

POINTWISE_TOL = 1e-10


@dataclass(frozen=True)
class DominanceCertificate:
    """factors[i] is the square of the envelope factor on block i, and
    block i is the labels that factor depends on (an empty block's factor
    has arity 0)."""

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
    and F^2 / d_f^2 <= P / D, with P / D the product of the factors, is
    F^2 D <= P d_f^2.
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
        # 0 <= h <= 1, so the sup norm is at most 1, and h's integral is its L1 norm
        if not -slack * d <= nums.min() <= nums.max() <= (1 + slack) * d:
            return False
        if l1_norm(h) > cert.sigma_sq + slack:
            return False
    # the blocks partition f's labels and share its measure: checked above
    prod, den = _einsum_numerators(mode, f.space, [(h, list(h.axis_labels)) for h in factors],
                                   f.axis_labels)
    nums, d_f = mode.form(f).numerators
    # flat arrays: arithmetic on 0-d object arrays returns bare scalars
    gap = np.square(nums.reshape(-1)) * den - prod.reshape(-1) * d_f**2
    return gap.max() <= slack * d_f**2 * den


def relax_sigma(cert: DominanceCertificate, sigma_sq: Scalar) -> DominanceCertificate:
    if sigma_sq < cert.sigma_sq:
        raise SigmaMismatch(f"cannot shrink budget {cert.sigma_sq} to {sigma_sq}")
    return DominanceCertificate(sigma_sq, cert.factors)


def contract_certificate(cf: DominanceCertificate, cg: DominanceCertificate,
                         d: ColoredDiagram) -> DominanceCertificate:
    """Certificate for the compact-relabeled contraction of two dominated
    kernels along ``d``, at rank exactly r1 + r2 - (l - p) with the shared
    variance budget, in the pair's joint mode.  Raises SigmaMismatch when
    the budgets differ, SpaceMismatch when the factors live on different
    measures, and RankTooSmall when that target is below one.
    """
    if cf.sigma_sq != cg.sigma_sq:
        raise SigmaMismatch(f"budgets differ: {cf.sigma_sq} vs {cg.sigma_sq}")
    require_one_measure(*(h.space for h in cf.factors + cg.factors))
    target = cf.rank + cg.rank - (d.l - d.p)
    if target < 1:
        raise RankTooSmall(f"rank {cf.rank}+{cg.rank} cannot absorb {d.l - d.p} merges")
    mode = mode_of(cf, cg)
    space = mode.form(cf.factors[0].space)

    # Schwarz step: a factor holding colored endpoints is integrated over
    # them.  g's factors take g's labels in the pair, shifted past f's k1.
    colored = {j for edge in d.colored_edges() for j in edge}
    factors = []
    for h, shift in [(h, 0) for h in cf.factors] + [(h, d.k1) for h in cg.factors]:
        labels = [j + shift for j in h.axis_labels]
        keep = [j for j in labels if j not in colored]
        if keep != labels:
            h = labeled_product(space, [(h, labels)], keep, [j for j in labels if j in colored])
        factors.append((h, keep))

    # Each uncolored edge's second endpoint is renamed to its first, so the
    # factors an edge joins share a label: group (labels, factors) by that.
    rename = {j2: j for j, j2 in d.uncolored_edges()}
    groups: list[tuple[set[int], list]] = []
    for h, labels in factors:
        labels = [rename.get(j, j) for j in labels]
        joined = [g for g in groups if g[0].intersection(labels)]
        groups = [g for g in groups if not g[0].intersection(labels)]
        groups.append((set(labels).union(*(g[0] for g in joined)),
                       [(h, labels)] + [op for g in joined for op in g[1]]))

    # Spare merges down to the exact rank target (sound since sigma <= 1).
    while len(groups) > target:
        groups.sort(key=lambda g: min(g[0], default=0))
        (l1, o1), (l2, o2) = groups[:2]
        groups[:2] = [(l1 | l2, o1 + o2)]

    # One product per group, relabeled to the compact 1..arity frame.
    frame = {j: i + 1 for i, j in enumerate(sorted(set().union(*(g[0] for g in groups))))}
    return DominanceCertificate(mode.cast(cf.sigma_sq), tuple(
        labeled_product(space, [(h, [frame[j] for j in ls]) for h, ls in ops],
                        sorted(frame[j] for j in labels))
        for labels, ops in groups))


def _square(h: Kernel) -> Kernel:
    return labeled_product(h.space, [(h, h.axis_labels)] * 2, h.axis_labels)


def collapse_certificate(h: Kernel, cf: DominanceCertificate,
                         cg: DominanceCertificate) -> DominanceCertificate:
    """The rank-1 fallback for a contraction h of two dominated kernels:
    h^2 itself is the factor, with the budget sigma_sq^floor((r1+r2)/2).

    (The Schwarz bound gives L2(h)^2 <= L2(f) L2(g) <= sigma^{r1+r2}, and
    sigma^{r1+r2} is at most that rational budget since sigma <= 1.)  Raises
    SigmaMismatch and SpaceMismatch as contract_certificate does, h included.
    """
    if cf.sigma_sq != cg.sigma_sq:
        raise SigmaMismatch(f"budgets differ: {cf.sigma_sq} vs {cg.sigma_sq}")
    require_one_measure(h.space, *(k.space for k in cf.factors + cg.factors))
    sigma_sq = mode_of(cf.sigma_sq, h).cast(cf.sigma_sq)
    return DominanceCertificate(sigma_sq ** ((cf.rank + cg.rank) // 2), (_square(h),))


def random_dominated_pair(space, blocks: tuple[tuple[int, ...], ...],
                          rng: np.random.Generator):
    """A random exact kernel together with a valid certificate on the given
    blocks: envelope factors are random nonnegative kernels with sup <= 1,
    the certificate holds their squares, and the kernel is their product
    damped by a random sign pattern in [-1, 1]."""
    labels = tuple(sorted(j for b in blocks for j in b))
    drawn = {b: _Held(space, tuple(sorted(b)), np.abs(nums), d, True) for b in blocks if b
             for nums, d in [random_kernel(space, len(b), rng).numerators]}
    squares = {b: _square(h) for b, h in drawn.items()}
    sigma_sq = max(map(l1_norm, squares.values()), default=Fraction(0))
    if sigma_sq == 0:
        sigma_sq = Fraction(1, 6)  # random_kernel's bound on denominators
    # an empty block's envelope factor is the constant sigma^2 <= sigma
    drawn[()] = constant_kernel(space, sigma_sq)
    squares[()] = _square(drawn[()])
    damp = random_kernel(space, len(labels), rng)
    prod = labeled_product(space, [(drawn[b], drawn[b].axis_labels) for b in blocks], labels)
    (p, d_p), (q, d_q) = prod.numerators, damp.numerators
    return _Held(space, labels, mode_of(space).array(p * q), d_p * d_q, True), \
        DominanceCertificate(sigma_sq, tuple(squares[b] for b in blocks))
