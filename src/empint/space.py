"""Finite probability spaces, i.i.d. samples, and seeded randomness.

The measure space is a finite set of atoms with probability weights.  All
statistics downstream are computed for i.i.d. samples from that measure.
Two conventions are fixed here once and used everywhere:

* **Distinct-position convention.**  Sample points are identified by their
  position 1..n, not by their atom value.  Two positions holding the same
  atom still count as distinct points.  This is the finite-space stand-in
  for sampling from a non-atomic extension of the measure (atom times an
  auxiliary uniform coordinate): kernels only read the atom coordinate,
  while "off-diagonal" always means "different positions".

* **Counts at construction.**  A statistic of the empirical measure reads
  a sample only through its occupation counts, so a ``Sample`` validates
  and counts its points once, when it is built, and stores the counts.

* **Stream splitting.**  Replicate ``r`` of a run seeded with ``seed`` uses
  the child sequence ``SeedSequence(entropy=seed, spawn_key=(r,))`` feeding
  a ``PCG64``.  The replicate stream is therefore a pure function of
  ``(seed, r)`` and does not depend on scheduling or worker count.
  ``draw_counts`` computes the PCG64 starting state of every replicate at
  once with numpy's seeding arithmetic ported to whole arrays (O'Neill's
  ``seed_seq_fe`` hash, then PCG64's two LCG steps) and sets it on one
  reused generator: the same streams, bit for bit, without building a
  ``SeedSequence`` and a ``PCG64`` per replicate.  The tests hold the port
  to numpy's own ``Generator(PCG64(SeedSequence(seed, spawn_key=(r,))))``.
"""
from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from .errors import (EmptySpace, EnumerationTooLarge, MalformedInput, NegativeSeed,
                     NegativeWeight, NonfiniteWeight, WeightsNotNormalized)
from .scalars import FLOAT_TOL, Scalar, format_scalar, is_exact, mode_of, parse_scalar

__all__ = [
    "AtomSpace", "Sample", "make_space", "uniform_space",
    "draw_sample", "draw_counts", "enumerate_samples", "enumerate_counts",
]

ENUMERATION_CAP = 10**6


@dataclass(frozen=True)
class AtomSpace:
    """A finite measure space: atoms 0..len(weights)-1 with the given weights.

    ``exact`` is True when every weight is a rational; in that mode all
    integrals computed against the space stay in exact arithmetic.  Both it
    and ``weight_vector`` are computed once, on first use.
    """

    weights: tuple[Scalar, ...]

    @property
    def n_atoms(self) -> int:
        return len(self.weights)

    @cached_property
    def exact(self) -> bool:
        return all(is_exact(w) for w in self.weights)

    @cached_property
    def weight_vector(self) -> np.ndarray:
        """Weights as a read-only numpy vector: object dtype of Fractions
        when exact."""
        mode = mode_of(self)
        v = np.array([mode.cast(w) for w in self.weights], dtype=mode.dtype)
        v.flags.writeable = False
        return v

    def as_float(self) -> "AtomSpace":
        if not self.exact:
            return self
        return AtomSpace(tuple(float(w) for w in self.weights))

    def check_atom(self, atom) -> int:
        """atom, when it is an integer from 0 to n_atoms - 1 and not a bool;
        ValueError otherwise."""
        if isinstance(atom, bool) or not isinstance(atom, (int, np.integer)) or not (
                0 <= atom < self.n_atoms):
            raise ValueError(f"atom index {atom!r} out of range")
        return atom


def make_space(weights) -> AtomSpace:
    """Validate and build a space.  Weights may be Fractions, "p/q" strings,
    ints, or floats; a fully rational list yields an exact-mode space.

    Raises MalformedInput for a string or a non-iterable in place of the
    list and for a weight parse_scalar rejects; EmptySpace, NonfiniteWeight,
    NegativeWeight, or WeightsNotNormalized otherwise.
    """
    if isinstance(weights, (str, bytes)) or not hasattr(weights, "__iter__"):
        raise MalformedInput(f"weights must be a list of scalars, got {weights!r}")
    parsed = tuple(parse_scalar(w) for w in weights)
    if not parsed:
        raise EmptySpace("a space needs at least one atom")
    for w in parsed:
        if not -math.inf < w < math.inf:  # NaN or infinite; an exact weight is always finite
            raise NonfiniteWeight(f"weight {w} is not finite")
        if w < 0:
            raise NegativeWeight(f"weight {w} is negative")
        if w > 1 + FLOAT_TOL:  # keeps an exact weight too large for a float out of the sum
            raise WeightsNotNormalized(f"weight {w} exceeds 1")
    total = sum(parsed)
    if abs(total - 1) > mode_of(*parsed).slack(FLOAT_TOL):
        raise WeightsNotNormalized(f"weights sum to {format_scalar(total)}, expected 1")
    return AtomSpace(parsed)


def uniform_space(n_atoms: int) -> AtomSpace:
    """n_atoms atoms of weight 1/n_atoms; EmptySpace when n_atoms < 1."""
    return make_space([Fraction(1, n_atoms) for _ in range(n_atoms)])


@dataclass(frozen=True)
class Sample:
    """An ordered n-tuple of atom indices; positions are distinct points.
    ``counts`` holds the occupation number of every atom: the empirical
    measure is counts/n."""

    space: AtomSpace
    points: tuple[int, ...]
    counts: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        counts = [0] * self.space.n_atoms
        for p in self.points:
            counts[self.space.check_atom(p)] += 1
        object.__setattr__(self, "counts", tuple(counts))

    @property
    def n(self) -> int:
        return len(self.points)


def _cuts(space: AtomSpace) -> np.ndarray:
    """The inverse CDF as cut points: a uniform u in [0, 1) draws the atom
    numbered by how many cuts are <= u.  The cuts are the cumulative float
    weights up to the last positive-weight atom, so a u past a cumsum ending
    below one goes to that atom."""
    last = max(a for a, w in enumerate(space.weights) if w > 0)
    return np.cumsum([float(w) for w in space.weights[:last]])


def draw_sample(space: AtomSpace, n: int, rng: np.random.Generator) -> Sample:
    """Draw n i.i.d. atoms by inverse CDF over the cumulative weights."""
    idx = np.searchsorted(_cuts(space), rng.random(n), side="right")
    return Sample(space, tuple(idx.tolist()))


# numpy's SeedSequence (O'Neill's seed_seq_fe, pool of four uint32 words)
# and PCG64 seeding constants
_M32 = 0xFFFF_FFFF
_INIT_A, _MULT_A = 0x43B0_D7E5, 0x931E_8875
_INIT_B, _MULT_B = 0x8B51_F9DD, 0x58F3_8DED
_MIX_L, _MIX_R = 0xCA01_F9DD, 0x4973_F715
_PCG_MULT = 0x2360_ED05_1FC6_5DA4_4385_DF64_9FCC_F645
_M128 = (1 << 128) - 1


def _words(value: int) -> list[int]:
    """The uint32 words numpy reads from a non-negative int, low word first;
    zero is one word."""
    value = operator.index(value)
    words = [value & _M32]
    while value := value >> 32:
        words.append(value & _M32)
    return words


class _Hash:
    """seed_seq_fe's hash: xor the running constant in, step the constant,
    multiply by it, fold the high half down.  The constants do not depend on
    the data, so the same calls hash a Python int or a uint64 array of
    32-bit words alike."""

    def __init__(self, const: int, mult: int):
        self.const, self.mult = const, mult

    def __call__(self, value):
        value = value ^ self.const
        self.const = self.const * self.mult & _M32
        value = value * self.const & _M32
        return value ^ value >> 16


def _mix(x, y):
    r = (_MIX_L * x - _MIX_R * y) & _M32
    return r ^ r >> 16


def replicate_seeds(seed: int, keys: Sequence[int]) -> np.ndarray:
    """``SeedSequence(seed, spawn_key=(k,)).generate_state(4, np.uint64)``
    for every k in ``keys``, as one (len(keys), 4) uint64 array; NegativeSeed
    for a negative seed.

    The entropy is the seed's words padded to four, then k's words.  The
    seed's words are the same on every row, so they are mixed once in
    Python ints; k's words and the output hash run on whole columns."""
    if seed < 0:
        raise NegativeSeed(f"seed must be non-negative, got {seed}")
    entropy = _words(seed)
    entropy += [0] * (4 - len(entropy))
    hash_ = _Hash(_INIT_A, _MULT_A)
    pool = [hash_(w) for w in entropy[:4]]
    for s in range(4):
        for d in range(4):
            if s != d:
                pool[d] = _mix(pool[d], hash_(pool[s]))
    for w in entropy[4:]:
        for d in range(4):
            pool[d] = _mix(pool[d], hash_(w))
    pool = [np.full(len(keys), w, dtype=np.uint64) for w in pool]
    rest = np.array(keys, dtype=object)  # Python ints: any key size
    live = np.ones(len(keys), dtype=bool)
    while live.any():  # k's words, low first; a row stops after its last word
        w = (rest & _M32).astype(np.uint64)
        for d in range(4):
            pool[d] = np.where(live, _mix(pool[d], hash_(w)), pool[d])
        rest = rest >> 32
        live = rest > 0
    out = _Hash(_INIT_B, _MULT_B)
    h = [out(pool[i % 4]) for i in range(8)]
    return np.stack([h[i] | h[i + 1] << 32 for i in range(0, 8, 2)], axis=1)


def pcg64_state(words: list[int]) -> dict:
    """The state of ``PCG64`` seeded with the four generate_state words:
    two steps of its 128-bit LCG, as numpy's ``PCG64.state`` dict."""
    w0, w1, w2, w3 = words
    inc = ((w2 << 64 | w3) << 1 | 1) & _M128
    state = ((inc + (w0 << 64 | w1)) * _PCG_MULT + inc) & _M128
    return {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
            "has_uint32": 0, "uinteger": 0}


_CHUNK_UNIFORMS = 2**15  # uniforms buffered at once by draw_counts (256 KiB)


def draw_counts(space: AtomSpace, n: int, seed: int, replicates: int,
                base_offset: int = 0) -> np.ndarray:
    """The (replicates, n_atoms) occupation counts of size-n samples: row r
    equals ``draw_sample(space, n, rng).counts`` for the generator ``rng``
    on ``SeedSequence(seed, spawn_key=(base_offset + r,))``.  NegativeSeed
    for a negative seed or base_offset.

    Every row's PCG64 state comes from one ``replicate_seeds`` pass and is
    set on one reused generator.  Rather than locating every uniform, it
    counts the uniforms at or above each cut; consecutive differences of
    those tallies are the counts."""
    if base_offset < 0:
        raise NegativeSeed(f"base_offset must be non-negative, got {base_offset}")
    cuts = _cuts(space)
    seeds = replicate_seeds(seed, range(base_offset, base_offset + replicates))
    bitgen = np.random.PCG64(0)
    gen = np.random.Generator(bitgen)
    out = np.zeros((replicates, space.n_atoms), dtype=np.int64)
    buf = np.empty((max(1, min(replicates, _CHUNK_UNIFORMS // max(n, 1))), n))
    for start in range(0, replicates, len(buf)):
        rows = min(len(buf), replicates - start)
        for j, seed in enumerate(seeds[start:start + rows].tolist()):
            bitgen.state = pcg64_state(seed)
            gen.random(out=buf[j])
        at_or_above = np.zeros((rows, len(cuts) + 2), dtype=np.int64)
        at_or_above[:, 0] = n
        for a, cut in enumerate(cuts, start=1):
            at_or_above[:, a] = np.count_nonzero(buf[:rows] >= cut, axis=1)
        out[start:start + rows, :len(cuts) + 1] = -np.diff(at_or_above, axis=1)
    return out


def enumerate_samples(space: AtomSpace, n: int) -> Iterator[tuple[Sample, Scalar]]:
    """All atoms^n ordered samples with their product weights.

    The weights sum to exactly one in exact mode.  Raises EnumerationTooLarge
    when atoms^n exceeds ENUMERATION_CAP.
    """
    if space.n_atoms**n > ENUMERATION_CAP:
        raise EnumerationTooLarge(f"{space.n_atoms}^{n} samples exceeds cap {ENUMERATION_CAP}")
    one = mode_of(space).one
    for pts in itertools.product(range(space.n_atoms), repeat=n):
        w = one
        for p in pts:
            w = w * space.weights[p]
        yield Sample(space, pts), w


def count_vectors(w: np.ndarray, n: int) -> Iterator[tuple[tuple[int, ...], Scalar]]:
    """All occupation-number vectors c of size-n samples over len(w) atoms,
    each with n! / prod c_a! * prod w_a^c_a.  For the weights' integer
    numerators W over d that is the vector's probability times d^n, a
    Python int.  Raises EnumerationTooLarge when the C(n + A - 1, A - 1)
    vectors exceed ENUMERATION_CAP."""
    A = len(w)
    if math.comb(n + A - 1, A - 1) > ENUMERATION_CAP:
        raise EnumerationTooLarge(f"C({n + A - 1}, {A - 1}) count vectors exceeds cap "
                                  f"{ENUMERATION_CAP}")
    w = w.tolist()
    nfact = math.factorial(n)
    for cuts in itertools.combinations(range(n + A - 1), A - 1):
        counts = [b - a - 1 for a, b in zip((-1, *cuts), (*cuts, n + A - 1))]
        multinomial, p = nfact, 1
        for wa, c in zip(w, counts):
            multinomial //= math.factorial(c)
            p = p * wa**c
        yield tuple(counts), multinomial * p


def enumerate_counts(space: AtomSpace, n: int) -> Iterator[tuple[tuple[int, ...], Scalar]]:
    """All occupation-number vectors with their multinomial probabilities.

    Statistics of the empirical measure depend on a sample only through its
    counts, so expectation sums over this (much smaller) enumeration agree
    exactly with sums over enumerate_samples.  Exact mode runs on the
    weights' integer numerators and divides once per vector.  Raises
    EnumerationTooLarge as count_vectors does.
    """
    mode = mode_of(space)
    w, d = mode.numerators(space.weight_vector)
    for counts, p in count_vectors(w, n):
        yield counts, mode.ratio(p, d**n)


def sample_from_counts(space: AtomSpace, counts: tuple[int, ...]) -> Sample:
    """A canonical representative sample with the given occupation numbers."""
    pts: list[int] = []
    for a, c in enumerate(counts):
        pts.extend([a] * c)
    return Sample(space, tuple(pts))
