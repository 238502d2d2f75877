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
occupation counts: pinning an atom a consumes one of its count(a) positions.
Both facts are exploited below; the per-subset marginal tables are memoized
on the kernel.  For Monte Carlo, ``eval_batch`` evaluates many samples at
once from their counts alone, in float: grouping the slots of an injective
sum by atom turns the statistic into a polynomial in falling factorials of
the counts.  Exact mode keeps the recursive evaluator, whose pruning of
exhausted counts is what keeps it fast on single samples.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from weakref import WeakKeyDictionary

import numpy as np

from . import diagrams
from .errors import SpaceMismatch
from .kernels import Kernel, require_canonical
from .scalars import Scalar, close, mode_of
from .space import Sample

__all__ = [
    "ScaledValue", "eval_integral", "eval_ustat", "eval_batch", "CheckResult",
    "check_canonical_ustat_identity", "check_product_formula",
    "product_formula_terms",
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


# Marginal tables: kernel -> {subset of axis positions: tensor over subset}.
_marginal_tables: "WeakKeyDictionary[Kernel, dict]" = WeakKeyDictionary()


def _subset_tables(f: Kernel) -> dict[tuple[int, ...], np.ndarray]:
    """For every subset S of axis positions, f with the complement of S
    integrated out against the base measure.  Axes of the table follow S in
    increasing position order."""
    tables = _marginal_tables.get(f)
    if tables is not None:
        return tables
    w = f.space.weight_vector
    k = f.arity
    tables = {}
    for s_size in range(k, -1, -1):
        for S in itertools.combinations(range(k), s_size):
            if s_size == k:
                tables[S] = f.values
                continue
            # integrate one more axis out of a size s+1 table
            missing = sorted(set(range(k)) - set(S))
            parent = tuple(sorted(S + (missing[0],)))
            pos_in_parent = parent.index(missing[0])
            tables[S] = np.tensordot(tables[parent], w, axes=([pos_in_parent], [0]))
    _marginal_tables[f] = tables
    return tables


def _injection_sum(table: np.ndarray, counts: list[int], zero: Scalar) -> Scalar:
    """Sum of table[a_1,...,a_s] over injective assignments of sample
    positions to the s slots, grouped by atom: each slot holding atom a
    contributes a factor of the positions still unused for a."""
    if table.ndim == 0:
        return table[()]
    A = len(counts)
    rem = list(counts)

    def rec(sub: np.ndarray) -> Scalar:
        acc = zero
        if sub.ndim == 1:
            for a in range(A):
                m = rem[a]
                if m:
                    acc = acc + m * sub[a]
            return acc
        for a in range(A):
            m = rem[a]
            if m == 0:
                continue
            rem[a] = m - 1
            acc = acc + m * rec(sub[a])
            rem[a] = m
        return acc

    return rec(table)


def eval_integral(f: Kernel, sample: Sample) -> ScaledValue:
    """The descaled k-fold integral of f against the centered empirical
    measure, off the diagonals.  Exact when f and the space are exact."""
    if f.space != sample.space:
        raise SpaceMismatch("kernel and sample live on different spaces")
    k = f.arity
    n = sample.n
    mode = mode_of(f)
    inv_n = mode.inv(n)
    counts = list(sample.counts)
    total = mode.zero
    for S, table in _subset_tables(f).items():
        s = len(S)
        inner = _injection_sum(table, counts, mode.zero)
        if inner == 0:
            continue
        sign = 1 if (k - s) % 2 == 0 else -1
        total = total + sign * inv_n**s * inner
    return ScaledValue(total * mode.inv_factorial(k), k, n)


def eval_ustat(f: Kernel, sample: Sample) -> Scalar:
    """The U-statistic: (1/k!) * sum of f over ordered tuples of distinct
    sample positions.  Zero when the sample is smaller than the arity."""
    if f.space != sample.space:
        raise SpaceMismatch("kernel and sample live on different spaces")
    mode = mode_of(f)
    inner = _injection_sum(f.values, list(sample.counts), mode.zero)
    return inner / mode.cast(math.factorial(f.arity))


def _count_polynomial(f: Kernel, n: int, ustat: bool) -> tuple[np.ndarray, np.ndarray]:
    """The float statistic of samples of size n as a polynomial in their
    counts c: rows M (terms, atoms) and coefficients w with

        statistic(c) = sum_t w[t] * prod_atoms (c_atom)_{M[t, atom]},

    (c)_m the falling factorial.  An injective sum of a table only sees how
    often each atom fills a slot, which gives the monomial; slot tuples with
    the same multiplicities share it, so their coefficients are summed."""
    k, A = f.arity, f.space.n_atoms
    if ustat:
        scaled = [(f.values, float(n) ** (-k / 2))]
    else:
        scaled = [(table, (-1) ** (k - len(S)) * float(n) ** (k / 2 - len(S)))
                  for S, table in _subset_tables(f).items()]
    mults, coeffs = [], []
    for table, scale in scaled:
        slots = np.indices(table.shape).reshape(table.ndim, A**table.ndim)
        mults.append((slots[:, :, None] == np.arange(A)).sum(axis=0))
        coeffs.append(np.asarray(table, dtype=float).ravel() * (scale / math.factorial(k)))
    rows, which = np.unique(np.concatenate(mults), axis=0, return_inverse=True)
    return rows, np.bincount(which.ravel(), weights=np.concatenate(coeffs), minlength=len(rows))


def eval_batch(f: Kernel, n: int, counts: np.ndarray, ustat: bool = False) -> np.ndarray:
    """The float statistic for every row of an (R, n_atoms) matrix of
    occupation counts of size-n samples: ``eval_integral(...).value``, or
    with ``ustat`` the U-statistic over n^{k/2}.  Rows are evaluated with
    elementwise operations only, so a row's value depends on that row alone,
    never on R or on how the rows were batched."""
    f = f.as_float()
    if f.space.n_atoms != counts.shape[1]:
        raise SpaceMismatch(f"counts over {counts.shape[1]} atoms for a kernel on {f.space.n_atoms}")
    c = counts.T.astype(float)
    falling = [np.ones_like(c)]  # falling[m][a] = (c_a)_m
    for m in range(f.arity):
        falling.append(falling[-1] * (c - m))
    out = np.zeros(len(counts))
    for mult, w in zip(*_count_polynomial(f, n, ustat)):
        term = np.full(len(counts), w)
        for a in np.flatnonzero(mult):
            term *= falling[mult[a]][a]
        out += term
    return out


@dataclass(frozen=True)
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
    q = eval_integral(f, sample).coeff
    lhs = q * mode_of(q).cast(n) ** f.arity
    rhs = eval_ustat(f, sample)
    return CheckResult(lhs, rhs, close(lhs, rhs))


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
                          terms: dict[tuple[int, int], Kernel] | None = None) -> CheckResult:
    """The product of two centered integrals expands over contraction
    classes:

        q_f * q_g = sum over (l, p) of
            coeff(k1, k2, l, p) * n^{-l} * q of the class-averaged kernel.

    Exact equality in exact mode; the kernels need not be symmetric or
    canonical.
    """
    if terms is None:
        terms = product_formula_terms(f, g)
    mode = mode_of(f, g)
    lhs = eval_integral(f, sample).coeff * eval_integral(g, sample).coeff
    rhs = mode.zero
    inv_n = mode.inv(sample.n)
    for (l, p), h in terms.items():
        c = mode.cast(diagrams.product_formula_coefficient(f.arity, g.arity, l, p))
        rhs = rhs + c * inv_n**l * eval_integral(h, sample).coeff
    return CheckResult(lhs, rhs, close(lhs, rhs))
