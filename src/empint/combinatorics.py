"""Set-partition combinatorics, exact expectation/moment oracles, and the
constant tables used by the moment recursion.

Everything here is exact.  The expectation constant r(n, k) comes from
the subset expansion of the statistic (see ``integrals``): a subset of s
coordinates contributes C(k, s) (-1)^{k-s} (n falling s) n^{k-s}, over
k! n^k.  The set-partition sum ``expectation_coefficient_bruteforce`` stays
as its oracle, because it derives the same constant another way.

The oracles enumerate occupation-count vectors with multinomial
probabilities, which agrees with enumerating ordered samples because the
statistics only read counts; tests cross-check the two enumerations on
small cases.  The counts oracles sum integer numerators and divide once.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator

from .errors import EnumerationTooLarge
from .integrals import _count_fraction, eval_integral
from .kernels import Kernel
from .scalars import mode_of
from .space import count_vectors, enumerate_samples

__all__ = [
    "set_partitions", "stirling2", "bell_number", "partition_count_bound",
    "expectation_coefficient", "expectation_coefficient_scaled",
    "expected_integral_oracle", "moment_oracle", "ustat_moment_oracle",
    "damping_factor", "cumulative_constant", "recursion_weight",
    "check_moment_recursion", "profile_weight", "profile_maximizer",
    "MomentConstantTable", "moment_constant_table",
]

PARTITION_CAP = 12


def set_partitions(k: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """All partitions of {1..k} as tuples of blocks; blocks are ascending
    and ordered by smallest element (restricted-growth enumeration)."""
    if k > PARTITION_CAP:
        raise EnumerationTooLarge(f"Bell({k}) partitions exceed the cap (k <= {PARTITION_CAP})")
    if k == 0:
        yield ()
        return

    def grow(prefix: list[int], n_blocks: int):
        if len(prefix) == k:
            blocks: list[list[int]] = [[] for _ in range(n_blocks)]
            for i, b in enumerate(prefix):
                blocks[b].append(i + 1)
            yield tuple(tuple(b) for b in blocks)
            return
        for b in range(n_blocks + 1):
            yield from grow(prefix + [b], max(n_blocks, b + 1))

    yield from grow([], 0)


@lru_cache(maxsize=None)
def stirling2(k: int, s: int) -> int:
    """Partitions of a k-set into exactly s blocks, by the recurrence
    S(k, s) = s S(k-1, s) + S(k-1, s-1)."""
    if k == s == 0:
        return 1
    if k == 0 or s == 0 or s > k:
        return 0
    return s * stirling2(k - 1, s) + stirling2(k - 1, s - 1)


def bell_number(k: int) -> int:
    return sum(stirling2(k, s) for s in range(k + 1))


def partition_count_bound(k: int, s: int) -> int:
    """2^k s^{k-s}, an elementary upper bound for stirling2(k, s): choose
    which elements are smallest in their block, then place the rest."""
    return 2**k * s ** (k - s)


# -- expectation of the centered integral -----------------------------------

def expectation_coefficient(n: int, k: int) -> Fraction:
    """The exact rational r(n, k) with E[q] = r(n, k) * integral of f over
    the k-fold product measure, q the descaled centered integral.

    It follows from the subset expansion ``integrals`` evaluates: the
    injective sum over s sample positions has mean (n falling s) times the
    integral, and there are C(k, s) subsets of size s, so

        r(n, k) = sum_s C(k, s) (-1)^{k-s} (n falling s) n^{k-s} / (k! n^k).
    """
    return Fraction(sum(math.comb(k, s) * (-1) ** (k - s) * math.perm(n, s) * n ** (k - s)
                        for s in range(k + 1)), math.factorial(k) * n**k)


def expectation_coefficient_bruteforce(n: int, k: int) -> Fraction:
    """r(n, k) again, as a sum over set partitions of the k coordinates: a
    partition with blocks D contributes (n falling |pi|) * prod over D of
    (-1)^{|D|-1}(|D|-1), all divided by k! n^k; partitions with singleton
    blocks vanish.  An independent derivation, kept to cross-check the
    subset form."""
    total = 0
    for blocks in set_partitions(k):
        weight = 1
        for block in blocks:
            weight *= (-1) ** (len(block) - 1) * (len(block) - 1)
        total += math.perm(n, len(blocks)) * weight
    return Fraction(total, math.factorial(k) * n**k)


def expectation_coefficient_scaled(n: int, k: int) -> float:
    """The coefficient on the statistic's own scale: E[statistic] equals
    this times the k-fold integral of f.  Equals r(n, k) * n^{k/2}."""
    return float(expectation_coefficient(n, k)) * float(n) ** (k / 2)


# -- exact oracles by enumeration -------------------------------------------

def _counts_moment(f: Kernel, n: int, order: int, ustat: bool) -> Fraction:
    """E[statistic^order], evaluated straight from every occupation-count
    vector c: with the statistic N(c) / D and the weights W / d_w, the sum
    of multinomial(c) prod W_a^c_a N(c)^order runs in integers and is
    divided once by d_w^n D^order."""
    if order < 1:
        raise ValueError("order must be a positive integer")
    mode = mode_of(f)
    w, d_w = mode.numerators(f.space.weight_vector)
    total, den = 0, 1
    for counts, p in count_vectors(w, n):
        num, den = _count_fraction(f, counts, ustat)
        total = total + p * num**order
    return mode.ratio(total, d_w**n * den**order)


def expected_integral_oracle(f: Kernel, n: int, method: str = "counts") -> Fraction:
    """E[q] for a size-n sample, by exhaustive enumeration of occupation
    counts, or with method="samples" of every ordered sample."""
    if method == "counts":
        return moment_oracle(f, n, 1)
    if method != "samples":
        raise ValueError(f"unknown method {method!r}")
    total = Fraction(0)
    for sample, w in enumerate_samples(f.space, n):
        total += w * eval_integral(f, sample).coeff
    return total


def moment_oracle(f: Kernel, n: int, order: int) -> Fraction:
    """E[q^order] by exhaustive enumeration over occupation counts."""
    return _counts_moment(f, n, order, ustat=False)


def ustat_moment_oracle(f: Kernel, n: int, order: int) -> Fraction:
    """E[(U-statistic)^order] by exhaustive enumeration."""
    return _counts_moment(f, n, order, ustat=True)


# -- constants of the moment recursion --------------------------------------

def damping_factor(m: int) -> Fraction:
    """D(m) = 1 + 2^{4-m}: the per-level inflation of the recursion, large
    at the first levels (D(0) = 17) and tending to one."""
    if m >= 4:
        return 1 + Fraction(1, 2 ** (m - 4))
    return Fraction(1 + 2 ** (4 - m))


@lru_cache(maxsize=None)
def cumulative_constant(k: int, m: int) -> Fraction:
    """The level-m constant: (product of D(0..m-1))^k, with level 0 equal
    to one."""
    prod = Fraction(1)
    for p in range(m):
        prod *= damping_factor(p)
    return prod**k


def recursion_weight(l: int, p: int, k: int, m: int) -> Fraction:
    """The exact weight in front of the lower-level constant when a product
    of two level-m moments is expanded:

        A(l, p, k, m) = 2^{2l(4-m)} (2k)^{2k-l+p} (2k-l-p)^{3l-p-2k} / (2l)^{2l}

    with the 0^0 = 1 convention for l = 0 and for 2k - l - p = 0, as
    Python's integer ``0 ** 0``.  Each factor goes into the integer
    numerator or denominator by the sign of its power, so one gcd reduces
    the result.
    """
    if not 0 <= p <= l <= k:
        raise ValueError(f"need 0 <= p <= l <= k, got l={l}, p={p}, k={k}")
    num = den = 1
    for base, power in ((2, 2 * l * (4 - m)), (2 * k, 2 * k - l + p),
                        (2 * k - l - p, 3 * l - p - 2 * k), (2 * l, -2 * l)):
        if power >= 0:
            num *= base**power
        else:
            den *= base**-power
    return Fraction(num, den)


def check_moment_recursion(k_max: int, m_max: int) -> list[tuple[int, int, int, int]]:
    """Verify, in exact arithmetic, that the level constants absorb the
    expansion weights:

        cumulative(k, m+1)^2 >= A(l, p, k, m) * cumulative(2k - l - p, m)

    for all 1 <= k <= k_max, 0 <= m <= m_max, 0 <= p <= l <= k.  Returns
    the list of violating (k, m, l, p); empty means the recursion closes.
    """
    bad = []
    for k in range(1, k_max + 1):
        for m in range(m_max + 1):
            lhs = cumulative_constant(k, m + 1) ** 2
            for l in range(k + 1):
                for p in range(l + 1):
                    rhs = recursion_weight(l, p, k, m) * cumulative_constant(2 * k - l - p, m)
                    if lhs < rhs:
                        bad.append((k, m, l, p))
    return bad


def profile_weight(k: int, m: int, v: float) -> float:
    """The continuous envelope of the expansion weights along the line
    l = p = v: 2^{2(4-m)v} (2k)^{2k} / ((2k-2v)^{2k-2v} (2v)^{2v}) for
    0 <= v <= k, with x^x -> 1 as x -> 0."""

    def xx(x: float) -> float:
        return 1.0 if x == 0 else x**x

    return 2.0 ** (2 * (4 - m) * v) * float(2 * k) ** (2 * k) / (xx(2 * k - 2 * v) * xx(2 * v))


def profile_maximizer(k: int, m: int) -> float:
    """Where profile_weight peaks: v = k / (2^{m-4} + 1); the peak value is
    damping_factor(m)^{2k}, which is what check_moment_recursion exploits."""
    return k / (2.0 ** (m - 4) + 1.0)


@dataclass(frozen=True)
class MomentConstantTable:
    """Rows (k, m, D(m), cumulative(k, m)) for reporting and CSV export."""

    k_max: int
    m_max: int
    rows: tuple[tuple[int, int, Fraction, Fraction], ...]


def moment_constant_table(k_max: int, m_max: int) -> MomentConstantTable:
    rows = []
    for k in range(1, k_max + 1):
        for m in range(m_max + 1):
            rows.append((k, m, damping_factor(m), cumulative_constant(k, m)))
    return MomentConstantTable(k_max, m_max, tuple(rows))
