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
multiplies and adds, at a table of the falling factorials of the counts
built by one function (``_falling_table``).  Every statistic takes one
checked path from a sample's counts: ``_checked_table`` makes the checks
of a whole call once (one ``require_one_measure`` over all its kernels and
the sample's space, one count per atom, no empty sample under a positive
arity unless the target is the U-statistic) and builds the table up to
the largest arity, and ``_statistic`` reads each kernel's statistic N / D
at it.  In exact mode the coefficients are integers over one common
denominator, so the loop runs in Python ints and each statistic, or each
side of an identity, divides once; ``eval_batch`` runs it on float count
arrays, one entry per sample, reading each sample's size n from its
counts, to evaluate many samples at once for Monte Carlo.
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
from .scalars import FLOAT_TOL, Scalar, mode_of, require_one_measure
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


@functools.cache
def _axis_last(ndim: int, axis: int) -> tuple[int, ...]:
    """The transpose that moves ``axis`` of an ndim-axis table last."""
    return (*range(axis), *range(axis + 1, ndim), axis)


def _integrate(t: np.ndarray, axis: int, column: np.ndarray) -> np.ndarray:
    """``np.tensordot(t, w, axes=([axis], [0]))`` for ``column`` = w as an
    (atoms, 1) array, by the transpose, reshape and ``np.dot`` that
    tensordot runs, without its per-call axis bookkeeping: float results
    are tensordot's bit for bit."""
    kept = t.shape[:axis] + t.shape[axis + 1:]
    flat = t.transpose(_axis_last(t.ndim, axis)).reshape(math.prod(kept), len(column))
    return np.dot(flat, column).reshape(kept)


def _count_polynomial(f: Kernel) -> _CountPolynomial:
    """The count polynomial of f, built once.  With f = F/d_f and weights
    W/d_w, block s sums, over every set S of s axes, F integrated against W
    over the axes outside S; scaling it by d_w^s puts all blocks over
    den = k! d_f d_w^k.  Block s reuses the plan of shape (atoms, s)."""
    poly = _polynomials.get(f)
    if poly is not None:
        return poly
    mode = mode_of(f)
    k = f.arity
    values, d_f = f.numerators
    w, d_w = mode.form(f.space).numerators
    column = w.reshape(-1, 1)
    sums = [values]  # sums[s]: s of the axes seen so far kept, in order, the rest integrated
    for _ in range(k):
        integrated = [_integrate(t, s, column) for s, t in enumerate(sums)]
        sums = [integrated[0], *(a + b for a, b in zip(integrated[1:], sums)), sums[-1]]
    blocks = tuple(_monomials(t, (-1) ** (k - s) * d_w**s, len(w)) for s, t in enumerate(sums))
    _polynomials[f] = poly = _CountPolynomial(blocks, math.factorial(k) * d_f * d_w**k)
    return poly


def _falling_table(counts, k: int) -> list[list]:
    """table[m][a] = (c_a)_m = c_a (c_a - 1) ... (c_a - m + 1) for m = 0..k,
    from one count per atom: Python ints stay exact, and a float array of
    counts, one entry per sample, gives an array per entry."""
    table = [[c**0 for c in counts]]
    for m in range(k):
        table.append([t * (c - m) for t, c in zip(table[-1], counts)])
    return table


def _evaluate(poly: _CountPolynomial, n, table, ustat: bool = False, over_den: bool = False):
    """sum_s n^{k-s} N_s, or with ``ustat`` N_k alone, by Horner in n, at a
    falling-factorial table that reaches the polynomial's arity.  Only ``*``
    and ``+``, so Python ints stay exact and numpy rows (one entry per
    sample) evaluate all at once.  With ``over_den`` every coefficient is
    divided by den first, which keeps it a float however large den grows,
    and the sum comes out over den."""
    blocks = poly.blocks[-1:] if ustat else poly.blocks
    if over_den:
        blocks = [[(coeff / poly.den, pairs) for coeff, pairs in block] for block in blocks]
    total = 0
    for block in blocks:
        acc = 0
        for term, pairs in block:
            for a, m in pairs:
                term = term * table[m][a]
            acc = acc + term
        total = total * n + acc
    return total


def _checked_table(kernels, counts, *spaces, ustat: bool = False) -> list[list]:
    """The falling-factorial table of the counts up to the kernels' largest
    arity k, after every check of the call's statistics, made once: the
    kernels and ``spaces`` are one measure, with one count (or one array of
    counts, an entry per sample) per atom, and, unless ``ustat``, k = 0 or
    no sample is empty."""
    require_one_measure(*[f.space for f in kernels], *spaces)
    k = max([f.arity for f in kernels])
    atoms = kernels[0].space.n_atoms
    if len(counts) != atoms:
        raise SpaceMismatch(f"counts over {len(counts)} atoms for a kernel on {atoms}")
    n = sum(counts)
    if k and not ustat and not (n.all() if isinstance(n, np.ndarray) else n):
        raise EmptySample(f"the arity-{k} statistic of an empty sample divides by zero")
    return _falling_table(counts, k)


def _statistic(f: Kernel, n: int, table, ustat: bool = False) -> tuple[Scalar, int]:
    """(N, D) with N / D the descaled centered integral q of f, or with
    ``ustat`` the U-statistic, at a size-n sample with this falling-factorial
    table.  N is a Python int when f and the space are exact; D depends only
    on f, n and the target."""
    poly = _count_polynomial(f)
    return _evaluate(poly, n, table, ustat), poly.den * n ** (0 if ustat else f.arity)


def eval_integral(f: Kernel, sample: Sample) -> ScaledValue:
    """The descaled k-fold integral of f against the centered empirical
    measure, off the diagonals.  Exact when f and the space are exact.
    Raises EmptySample for an empty sample and arity k >= 1."""
    table = _checked_table((f,), sample.counts, sample.space)
    return ScaledValue(mode_of(f).ratio(*_statistic(f, sample.n, table)), f.arity, sample.n)


def eval_ustat(f: Kernel, sample: Sample) -> Scalar:
    """The U-statistic: (1/k!) * sum of f over ordered tuples of distinct
    sample positions.  Zero when the sample is smaller than the arity."""
    table = _checked_table((f,), sample.counts, sample.space, ustat=True)
    return mode_of(f).ratio(*_statistic(f, sample.n, table, ustat=True))


def eval_batch(f: Kernel, counts: np.ndarray, ustat: bool = False) -> np.ndarray:
    """The float statistic for every row of an (R, n_atoms) matrix of
    occupation counts: ``eval_integral(...).value``, or with ``ustat`` the
    U-statistic over n^{k/2}, where each row's n is its own sum.  Rows are
    evaluated with elementwise operations only, so a row's value depends on
    that row alone, never on R or on how the rows were batched.  An empty
    row raises EmptySample for either target: both divide by n^{k/2}."""
    c = counts.T.astype(float)
    table = _checked_table((f,), c)
    n = c.sum(axis=0)
    return _evaluate(_count_polynomial(f), n, table, ustat, over_den=True) * n ** (-f.arity / 2)


@dataclass(frozen=True, slots=True)
class CheckResult:
    """Two sides of an identity plus the verdict (exact in exact mode)."""

    lhs: Scalar
    rhs: Scalar
    ok: bool

    @property
    def discrepancy(self) -> float:
        """|lhs - rhs| as a float, taken after the subtraction, so exact
        sides that agree read 0.0 however large they are; inf past float
        range."""
        try:
            return float(abs(self.lhs - self.rhs))
        except OverflowError:
            return math.inf


def check_canonical_ustat_identity(f: Kernel, sample: Sample) -> CheckResult:
    """For canonical f the U-statistic and the centered integral agree path
    by path: q * n^k equals the U-statistic.  Raises NotCanonical otherwise.
    Both sides are f's count polynomial at one falling-factorial table, over
    its den: q n^k = sum_s n^{k-s} N_s / den and U = N_k / den."""
    require_canonical(f)
    mode = mode_of(f)
    poly = _count_polynomial(f)
    table = _checked_table((f,), sample.counts, sample.space)
    lhs = mode.ratio(_evaluate(poly, sample.n, table), poly.den)
    rhs = mode.ratio(_evaluate(poly, sample.n, table, ustat=True), poly.den)
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
    for every sample checked.  Every kernel is evaluated at one
    falling-factorial table of the sample, in the joint mode, as (N, D) with
    q = N / D; each side is summed as one integer numerator over one
    integer denominator and divided once.
    """
    kernels = (f, g, *terms.values())
    table = _checked_table(kernels, sample.counts, sample.space)
    mode = mode_of(*kernels)
    n = sample.n
    (n_f, d_f), (n_g, d_g), *stats = (_statistic(mode.form(h), n, table) for h in kernels)
    lhs = mode.ratio(n_f * n_g, d_f * d_g)
    num, den = 0, 1
    for (l, p), (n_h, d_h) in zip(terms, stats):
        c = diagrams.product_formula_coefficient(f.arity, g.arity, l, p)
        d = c.denominator * n**l * d_h
        num, den = num * d + c.numerator * n_h * den, den * d
    rhs = mode.ratio(num, den)
    return CheckResult(lhs, rhs, abs(lhs - rhs) <= mode.slack(FLOAT_TOL))
