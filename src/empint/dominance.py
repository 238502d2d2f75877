"""Dominance certificates: product-form envelopes of kernels, and how they
transform under diagram contraction.

A kernel f of arity k is (r, sigma^2)-dominated when its argument labels
split into r blocks (some possibly empty) with one factor per block such
that |f| <= product of the factors pointwise, every factor is nonnegative
with sup norm at most 1, and every factor has squared L2 norm at most
sigma^2 <= 1.  An empty block's factor is a constant in [0, sigma].

The point of the calculus: contracting two dominated kernels along a
diagram with l edges, p colored, yields a kernel dominated at rank exactly
r1 + r2 - (l - p) with the *same* variance budget.  The transform below
builds that certificate constructively:

* each colored edge replaces the two touched factors by the square roots
  of their squared marginals (a Schwarz step; blocks lose the endpoint),
* uncolored edges are consumed in rounds: all edges between one pair of
  blocks merge those blocks into one whose factor is the edge-identified
  product, costing one rank per round,
* if fewer rounds than l - p were needed, spare block pairs are merged
  outright until the rank target is met (sound because sigma <= 1).

Colored steps need square roots, so transformed certificates are float
mode; rank bookkeeping stays exact.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .diagrams import ColoredDiagram
from .errors import BlockMismatch, RankTooSmall, SigmaMismatch
from .kernels import Kernel, constant_kernel, l2_norm_sq, labeled_product, sup_norm
from .scalars import Scalar, is_exact, mode_of

__all__ = [
    "DominanceCertificate", "verify_certificate", "unit_certificate",
    "product_certificate", "tensor_certificate", "contract_certificate",
    "collapse_certificate", "random_dominated_pair",
]

POINTWISE_TOL = 1e-10


@dataclass(frozen=True)
class DominanceCertificate:
    """Blocks partition the dominated kernel's labels; factors[i] is the
    envelope factor on blocks[i] (an empty block has an arity-0 factor)."""

    sigma_sq: Scalar
    blocks: tuple[tuple[int, ...], ...]
    factors: tuple[Kernel, ...]

    def __post_init__(self):
        if len(self.blocks) != len(self.factors):
            raise BlockMismatch(f"{len(self.blocks)} blocks for {len(self.factors)} factors")
        if len(self.blocks) < 1:
            raise RankTooSmall("a certificate needs at least one block")
        for block, h in zip(self.blocks, self.factors):
            if tuple(sorted(block)) != h.axis_labels:
                raise BlockMismatch(f"factor labels {h.axis_labels} do not match block {block}")

    @property
    def rank(self) -> int:
        return len(self.blocks)

    @property
    def exact(self) -> bool:
        return is_exact(self.sigma_sq) and all(h.exact for h in self.factors)


def _expanded_product(cert: DominanceCertificate, labels: tuple[int, ...]) -> np.ndarray:
    """The pointwise product of all factors as a tensor over ``labels``;
    a label no factor depends on gets a constant-one operand."""
    space = cert.factors[0].space
    mode = mode_of(cert)
    ones = np.full(space.n_atoms, mode.one, dtype=mode.dtype)
    covered = {j for h in cert.factors for j in h.axis_labels}
    operands = [(h.values, h.axis_labels) for h in cert.factors]
    operands += [(ones, (j,)) for j in labels if j not in covered]
    return labeled_product(space, operands, labels).values


def verify_certificate(f: Kernel, cert: DominanceCertificate,
                       tol: float = POINTWISE_TOL) -> bool:
    """Check every clause of the dominance definition against f.

    Structural violations (blocks not partitioning f's labels) raise
    BlockMismatch; numeric clauses return False.  Exact certificates are
    checked exactly except for the [0, sigma] clause on constants, which
    squares to stay rational.
    """
    flat = [j for block in cert.blocks for j in block]
    if sorted(flat) != sorted(f.axis_labels) or len(flat) != len(set(flat)):
        raise BlockMismatch(f"blocks {cert.blocks} do not partition labels {f.axis_labels}")
    slack = mode_of(cert, f).slack(tol)
    if not 0 < float(cert.sigma_sq) <= 1 + slack:
        return False
    for h in cert.factors:
        if any(x < -slack for x in h.values.flat):
            return False
        if sup_norm(h) > 1 + slack:
            return False
        if l2_norm_sq(h) > cert.sigma_sq + slack:
            return False
    prod = _expanded_product(cert, f.axis_labels)
    gap = np.asarray(np.abs(f.values) - prod)
    return all(x <= slack for x in gap.flat)


def unit_certificate(f: Kernel, sigma_sq: Scalar | None = None) -> DominanceCertificate:
    """The rank-1 certificate with |f| itself as the only factor; valid
    whenever sup|f| <= 1.  Default budget: the squared L2 norm of f."""
    if sigma_sq is None:
        sigma_sq = l2_norm_sq(f)
    return DominanceCertificate(sigma_sq, (f.axis_labels,), (f.abs(),))


def product_certificate(factors: list[Kernel], sigma_sq: Scalar | None = None) -> DominanceCertificate:
    """A certificate whose blocks are the factors' own label sets."""
    if sigma_sq is None:
        sigma_sq = max(l2_norm_sq(h) for h in factors)
    return DominanceCertificate(sigma_sq, tuple(h.axis_labels for h in factors), tuple(factors))


def tensor_certificate(cf: DominanceCertificate, cg: DominanceCertificate,
                       shift: int) -> DominanceCertificate:
    """Certificate for a tensor product: g-side labels shift past f's.
    The variance budgets must agree (relax one first if needed)."""
    if cf.sigma_sq != cg.sigma_sq:
        raise SigmaMismatch(f"budgets differ: {cf.sigma_sq} vs {cg.sigma_sq}")
    blocks = cf.blocks + tuple(tuple(j + shift for j in b) for b in cg.blocks)
    factors = cf.factors + tuple(
        Kernel(h.space, h.values, tuple(j + shift for j in h.axis_labels)) for h in cg.factors)
    return DominanceCertificate(cf.sigma_sq, blocks, factors)


def relax_sigma(cert: DominanceCertificate, sigma_sq: Scalar) -> DominanceCertificate:
    if sigma_sq < cert.sigma_sq:
        raise SigmaMismatch(f"cannot shrink budget {cert.sigma_sq} to {sigma_sq}")
    return DominanceCertificate(sigma_sq, cert.blocks, cert.factors)


def _merge_kernels(h1: Kernel, h2: Kernel, edges=()) -> Kernel:
    """Float pointwise product of two factors, labels sorted; each edge
    (j, j2) identifies argument j2 with argument j."""
    h1, h2 = h1.as_float(), h2.as_float()
    rename = {j2: j for j, j2 in edges}
    l1 = [rename.get(j, j) for j in h1.axis_labels]
    l2 = [rename.get(j, j) for j in h2.axis_labels]
    return labeled_product(h1.space, [(h1.values, l1), (h2.values, l2)], sorted(set(l1 + l2)))


def contract_certificate(cf: DominanceCertificate, cg: DominanceCertificate,
                         d: ColoredDiagram) -> DominanceCertificate:
    """Certificate for the compact-relabeled contraction of two dominated
    kernels along ``d``, at rank exactly r1 + r2 - (l - p) with the shared
    variance budget.  Raises RankTooSmall when that target is below one,
    and SigmaMismatch when the budgets differ.
    """
    if cf.sigma_sq != cg.sigma_sq:
        raise SigmaMismatch(f"budgets differ: {cf.sigma_sq} vs {cg.sigma_sq}")
    target = cf.rank + cg.rank - (d.l - d.p)
    if target < 1:
        raise RankTooSmall(f"rank {cf.rank}+{cg.rank} cannot absorb {d.l - d.p} merges")
    combined = tensor_certificate(cf, cg, d.k1)
    blocks = [set(b) for b in combined.blocks]
    factors = list(combined.factors)

    def owner(label: int) -> int:
        for i, b in enumerate(blocks):
            if label in b:
                return i
        raise BlockMismatch(f"label {label} not covered by any block")

    def merge(i1: int, i2: int, edges=()):
        """Replace blocks i1 and i2 by their union minus the edges' second
        endpoints, with the merged factor."""
        keep = [i for i in range(len(blocks)) if i not in (i1, i2)]
        new_block = (blocks[i1] | blocks[i2]) - {e[1] for e in edges}
        merged = _merge_kernels(factors[i1], factors[i2], edges)
        blocks[:] = [blocks[i] for i in keep] + [new_block]
        factors[:] = [factors[i] for i in keep] + [merged]

    # Schwarz step per colored edge: both endpoint factors lose their
    # endpoint and become square roots of squared marginals.
    for j, j2 in d.colored_edges():
        for endpoint in (j, j2):
            i = owner(endpoint)
            h = factors[i].as_float()
            rest = [a for a in h.axis_labels if a != endpoint]
            sq = labeled_product(h.space, [(h.values, h.axis_labels)] * 2, rest, [endpoint])
            factors[i] = Kernel(sq.space, np.sqrt(np.maximum(sq.values, 0.0)), sq.axis_labels)
            blocks[i].discard(endpoint)

    # Merge rounds: all uncolored edges between one block pair at a time.
    remaining = list(d.uncolored_edges())
    while remaining:
        j, j2 = remaining[0]
        i1, i2 = owner(j), owner(j2)
        if i1 == i2:
            raise BlockMismatch("edge endpoints collapsed into one block; "
                                "rounds must consume all edges between a pair")
        batch = [e for e in remaining
                 if {owner(e[0]), owner(e[1])} == {i1, i2}]
        merge(i1, i2, batch)
        remaining = [e for e in remaining if e not in batch]

    # Spare merges down to the exact rank target (sound since sigma <= 1).
    while len(blocks) > target:
        order = sorted(range(len(blocks)), key=lambda i: min(blocks[i], default=-1))
        merge(order[0], order[1])

    # Rename surviving labels to the compact 1..arity frame.
    survivors = sorted({j for b in blocks for j in b})
    rename = {j: i + 1 for i, j in enumerate(survivors)}
    new_blocks = tuple(tuple(sorted(rename[j] for j in b)) for b in blocks)
    new_factors = tuple(
        Kernel(h.space, h.values, tuple(rename[j] for j in h.axis_labels)) for h in factors)
    return DominanceCertificate(float(combined.sigma_sq), new_blocks, new_factors)


def collapse_certificate(h: Kernel, cf: DominanceCertificate,
                         cg: DominanceCertificate) -> DominanceCertificate:
    """The rank-1 fallback for a contraction h of two dominated kernels:
    |h| itself is the factor, with the enlarged budget sigma^{r1+r2}.

    (The Schwarz bound gives L2(h)^2 <= L2(f) L2(g) <= sigma^{r1+r2}; the
    budget uses that exponent, so the certificate stays checkable.)
    """
    if cf.sigma_sq != cg.sigma_sq:
        raise SigmaMismatch(f"budgets differ: {cf.sigma_sq} vs {cg.sigma_sq}")
    r_total = cf.rank + cg.rank
    if is_exact(cf.sigma_sq) and r_total % 2 == 0 and h.exact:
        budget: Scalar = Fraction(cf.sigma_sq) ** (r_total // 2)
    else:
        budget = float(cf.sigma_sq) ** (r_total / 2)
    return DominanceCertificate(budget, (h.axis_labels,), (h.abs(),))


def random_dominated_pair(space, blocks: tuple[tuple[int, ...], ...],
                          rng: np.random.Generator, max_den: int = 6):
    """A random exact kernel together with a valid certificate on the given
    blocks: factors are random nonnegative kernels with sup <= 1, and the
    kernel is their product damped by a random sign pattern in [-1, 1]."""
    from .kernels import random_kernel  # local to avoid cycle at import time

    labels = tuple(sorted(j for b in blocks for j in b))
    drawn = {b: Kernel(space, random_kernel(space, len(b), rng, max_den=max_den).abs().values,
                       tuple(sorted(b))) for b in blocks if b}
    sigma_sq = max((l2_norm_sq(h) for h in drawn.values()), default=Fraction(0))
    if sigma_sq == 0:
        sigma_sq = Fraction(1, max_den)
    # an empty block's factor is the constant sigma^2 <= sigma
    factors = tuple(drawn[b] if b else constant_kernel(space, sigma_sq) for b in blocks)
    cert = DominanceCertificate(sigma_sq, tuple(tuple(sorted(b)) for b in blocks), factors)
    damp = random_kernel(space, len(labels), rng, max_den=max_den)
    f_vals = _expanded_product(cert, labels) * damp.values
    f = Kernel(space, f_vals, labels)
    return f, cert
