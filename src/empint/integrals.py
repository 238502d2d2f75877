"""Exact evaluation of multiple integrals against the centered and scaled
empirical measure, and of the matching U-statistics.

For a kernel f of arity k and a sample of size n, the statistic of interest
is the k-fold integral of f against (empirical - base measure), off the
diagonals, normalized by n^{k/2} / k!.  We carry it *descaled*: values here
are the coefficient q with statistic = q * n^{k/2}, which keeps everything
inside the rationals in exact mode (n^{k/2} is irrational for odd k).

Expanding the k-fold product measure over which factor each coordinate
takes gives, for a subset S of coordinates assigned to the empirical
measure (the rest to the negated base measure):

    q = (1/k!) * sum_S (-1)^{k-|S|} n^{-|S|}
        * sum over injective maps of S into sample positions
          of f with the S-coordinates pinned and the rest integrated out.

The injective sum runs over *positions*, so it only depends on the sample's
occupation counts c: grouping its slots by atom turns it into a polynomial
in falling factorials (c_a)_m of the counts, one block of monomials per
subset size.  Which monomial each table entry feeds depends only on the
table's shape, so that plan is built once per (atoms, axes) and only an
``np.add.at`` runs per kernel.  Each polynomial is memoized on its kernel
and evaluated by one loop (``_evaluate``, Horner in n) that only
multiplies and adds.  In exact mode the coefficients are integers over one
common denominator, so ``eval_integral`` and ``eval_ustat`` run the loop in
Python ints and divide once; ``eval_batch`` runs it on float count arrays,
one entry per sample, reading each sample's size n from its counts, to
evaluate many samples at once for Monte Carlo.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import groupby
from weakref import WeakKeyDictionary

import numpy as np

from . import diagrams
from .errors import EmptySample, SpaceMismatch
from .kernels import Kernel, require_canonical
from .scalars import FLOAT_TOL, Scalar, mode_of
from .space import Sample

__all__ = [
    "ScaledValue", "eval_integral", "eval_ustat", "eval_batch", "CheckResult",
    "check_canonical_ustat_identity", "check_product_formula", "product_formula_terms",
]


@dataclass(frozen=True)
class ScaledValue:
    """coeff * n^{k/2}, kept factored so exact mode stays rational."""

    coeff: Scalar
    k: int
    n: int

    @property
    def value(self) -> float:
        """The statistic itself, as a float."""
        return float(self.coeff) * float(self.n) ** (self.k / 2)


@dataclass(frozen=True, slots=True)
class _CountPolynomial:
    """The statistic of an arity-k kernel at the counts c of a size-n
    sample, with (c_a)_m the falling factorial:

        q(c) = sum_s n^{k-s} N_s(c) / (den * n^k),   U(c) = N_k(c) / den,
        N_s(c) = sum over (coeff, pairs) in blocks[s] of coeff * prod_{(a, m) in pairs} (c_a)_m.

    Exact mode keeps coeff and den as Python ints.  Holds no reference to
    its kernel, so the memo never keeps a kernel alive."""

    blocks: tuple[tuple[tuple[Scalar, tuple[tuple[int, int], ...]], ...], ...]
    den: int


_polynomials: "WeakKeyDictionary[Kernel, _CountPolynomial]" = WeakKeyDictionary()


@functools.lru_cache(maxsize=64)
def _monomial_plan(atoms: int, s: int) -> tuple[np.ndarray, tuple]:
    """Entry i of a flat s-axis table feeds monomial which[i], with factors
    pairs[which[i]]: slot tuples that fill each atom equally often share one,
    keyed by the flat index of the tuple with its atoms sorted."""
    shape = (atoms,) * s
    slots = np.sort(np.indices(shape).reshape(s, atoms**s), axis=0)
    keys = np.ravel_multi_index(slots, shape).reshape(atoms**s)
    _, first, which = np.unique(keys, return_index=True, return_inverse=True)
    which.flags.writeable = False  # shared by every caller
    return which, tuple(tuple((a, len(list(run))) for a, run in groupby(row))
                        for row in slots[:, first].T.tolist())


def _monomials(table: np.ndarray, scale: int, atoms: int) -> tuple:
    """The injective sum of a table as (coeff, ((atom, m), ...)) terms."""
    which, pairs = _monomial_plan(atoms, table.ndim)
    coeffs = np.zeros(len(pairs), dtype=table.dtype)
    np.add.at(coeffs, which, table.ravel())
    return tuple((c * scale, key) for key, c in zip(pairs, coeffs.tolist()) if c)


def _count_polynomial(f: Kernel) -> _CountPolynomial:
    """The count polynomial of f, built once.  With f = F/d_f and weights
    W/d_w, block s sums, over every set S of s axes, F integrated against W
    over the axes outside S; scaling it by d_w^s puts all blocks over
    den = k! d_f d_w^k.  Block s reuses the plan of shape (atoms, s)."""
    if f in _polynomials:
        return _polynomials[f]
    mode = mode_of(f)
    k = f.arity
    values, d_f = mode.numerators(f.values)
    w, d_w = mode.numerators(f.space.weight_vector)
    sums = [values]  # sums[s]: s of the axes seen so far kept, in order, the rest integrated
    for _ in range(k):
        integrated = [np.tensordot(t, w, axes=([s], [0])) for s, t in enumerate(sums)]
        sums = [integrated[0], *(a + b for a, b in zip(integrated[1:], sums)), sums[-1]]
    blocks = tuple(_monomials(t, (-1) ** (k - s) * d_w**s, len(w)) for s, t in enumerate(sums))
    _polynomials[f] = poly = _CountPolynomial(blocks, math.factorial(k) * d_f * d_w**k)
    return poly


def _evaluate(blocks, n, falling, ustat: bool):
    """sum_s n^{k-s} N_s, or with ``ustat`` N_k alone, by Horner in n, with
    falling[m][a] = (c_a)_m.  Only ``*`` and ``+``, so Python ints stay
    exact and numpy rows (one entry per sample) evaluate all at once."""
    total = 0
    for block in blocks[-1:] if ustat else blocks:
        acc = 0
        for term, pairs in block:
            for a, m in pairs:
                term = term * falling[m][a]
            acc = acc + term
        total = total * n + acc
    return total


def _count_fraction(f: Kernel, counts, ustat: bool = False) -> tuple[Scalar, int]:
    """(N, D) with N / D the descaled centered integral q of f, or with
    ``ustat`` the U-statistic, at a sample with these occupation counts.
    N is a Python int when f and the space are exact; D depends only on f,
    the sample size and the target."""
    if len(counts) != f.space.n_atoms:
        raise SpaceMismatch(f"counts over {len(counts)} atoms for a kernel on {f.space.n_atoms}")
    poly = _count_polynomial(f)
    k = f.arity
    n = sum(counts)
    if not n and k and not ustat:
        raise EmptySample(f"the arity-{k} integral of an empty sample divides by zero")
    falling = [[math.perm(c, m) for c in counts] for m in range(k + 1)]
    return _evaluate(poly.blocks, n, falling, ustat), poly.den * n ** (0 if ustat else k)


def _eval_counts(f: Kernel, counts, ustat: bool = False) -> Scalar:
    """The statistic of ``_count_fraction``, divided once."""
    return mode_of(f).ratio(*_count_fraction(f, counts, ustat))


def eval_integral(f: Kernel, sample: Sample) -> ScaledValue:
    """The descaled k-fold integral of f against the centered empirical
    measure, off the diagonals.  Exact when f and the space are exact.
    Raises EmptySample for an empty sample and arity k >= 1."""
    if f.space != sample.space:
        raise SpaceMismatch("kernel and sample live on different spaces")
    return ScaledValue(_eval_counts(f, sample.counts), f.arity, sample.n)


def eval_ustat(f: Kernel, sample: Sample) -> Scalar:
    """The U-statistic: (1/k!) * sum of f over ordered tuples of distinct
    sample positions.  Zero when the sample is smaller than the arity."""
    if f.space != sample.space:
        raise SpaceMismatch("kernel and sample live on different spaces")
    return _eval_counts(f, sample.counts, ustat=True)


def eval_batch(f: Kernel, counts: np.ndarray, ustat: bool = False) -> np.ndarray:
    """The float statistic for every row of an (R, n_atoms) matrix of
    occupation counts: ``eval_integral(...).value``, or with ``ustat`` the
    U-statistic over n^{k/2}, where each row's n is its own sum.  Rows are
    evaluated with elementwise operations only, so a row's value depends on
    that row alone, never on R or on how the rows were batched."""
    if f.space.n_atoms != counts.shape[1]:
        raise SpaceMismatch(f"counts over {counts.shape[1]} atoms for a kernel on {f.space.n_atoms}")
    poly = _count_polynomial(f)
    k = f.arity
    c = counts.T.astype(float)
    n = c.sum(axis=0)
    if k and not n.all():
        raise EmptySample(f"the arity-{k} statistic of an empty sample divides by zero")
    falling = [np.ones_like(c)]  # falling[m][a] = (c_a)_m
    for m in range(k):
        falling.append(falling[-1] * (c - m))
    # dividing first keeps every coefficient a float however large den grows
    blocks = [[(coeff / poly.den, pairs) for coeff, pairs in block] for block in poly.blocks]
    return _evaluate(blocks, n, falling, ustat) * n ** (-k / 2)


@dataclass(frozen=True, slots=True)
class CheckResult:
    """Two sides of an identity plus the verdict (exact in exact mode)."""

    lhs: Scalar
    rhs: Scalar
    ok: bool

    @property
    def discrepancy(self) -> float:
        return abs(float(self.lhs) - float(self.rhs))


def check_canonical_ustat_identity(f: Kernel, sample: Sample) -> CheckResult:
    """For canonical f the U-statistic and the centered integral agree path
    by path: q * n^k equals the U-statistic.  Raises NotCanonical otherwise."""
    require_canonical(f)
    n = sample.n
    mode = mode_of(f)
    lhs = eval_integral(f, sample).coeff * mode.cast(n) ** f.arity
    rhs = eval_ustat(f, sample)
    return CheckResult(lhs, rhs, abs(lhs - rhs) <= mode.slack(FLOAT_TOL))


def product_formula_terms(f: Kernel, g: Kernel) -> dict[tuple[int, int], Kernel]:
    """Class-averaged contraction kernels for every (l, p); computed once
    per pair and reusable across samples."""
    k1, k2 = f.arity, g.arity
    terms = {}
    for l in range(min(k1, k2) + 1):
        for p in range(l + 1):
            cls = diagrams.DiagramClass(k1, k2, l, p)
            terms[(l, p)] = diagrams.contract_class_average(f, g, cls)
    return terms


def check_product_formula(f: Kernel, g: Kernel, sample: Sample,
                          terms: dict[tuple[int, int], Kernel]) -> CheckResult:
    """The product of two centered integrals expands over contraction
    classes:

        q_f * q_g = sum over (l, p) of
            coeff(k1, k2, l, p) * n^{-l} * q of the class-averaged kernel.

    Exact equality in exact mode; the kernels need not be symmetric or
    canonical.  ``terms`` is ``product_formula_terms(f, g)``, computed once
    for every sample checked.
    """
    mode = mode_of(f, g)
    lhs = eval_integral(f, sample).coeff * eval_integral(g, sample).coeff
    rhs = mode.zero
    inv_n = mode.inv(sample.n)
    for (l, p), h in terms.items():
        c = mode.cast(diagrams.product_formula_coefficient(f.arity, g.arity, l, p))
        rhs = rhs + c * inv_n**l * eval_integral(h, sample).coeff
    return CheckResult(lhs, rhs, abs(lhs - rhs) <= mode.slack(FLOAT_TOL))
