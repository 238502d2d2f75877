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
  the child sequence ``SeedSequence(entropy=seed, spawn_key=(r,))``.  The
  replicate stream is therefore a pure function of ``(seed, r)`` and does
  not depend on scheduling or worker count.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator

import numpy as np

from .errors import (EmptySpace, EnumerationTooLarge, NegativeWeight, NonfiniteWeight,
                     WeightsNotNormalized)
from .scalars import FLOAT_TOL, Scalar, is_exact, mode_of, parse_scalar

ENUMERATION_CAP = 10**6


@dataclass(frozen=True)
class AtomSpace:
    """A finite measure space: atoms 0..len(weights)-1 with the given weights.

    ``exact`` is True when every weight is a rational; in that mode all
    integrals computed against the space stay in exact arithmetic.
    """

    weights: tuple[Scalar, ...]

    @property
    def n_atoms(self) -> int:
        return len(self.weights)

    @property
    def exact(self) -> bool:
        return all(is_exact(w) for w in self.weights)

    @property
    def weight_vector(self) -> np.ndarray:
        """Weights as a numpy vector: object dtype of Fractions when exact."""
        mode = mode_of(self)
        return np.array([mode.cast(w) for w in self.weights], dtype=mode.dtype)

    def as_float(self) -> "AtomSpace":
        if not self.exact:
            return self
        return AtomSpace(tuple(float(w) for w in self.weights))


def make_space(weights) -> AtomSpace:
    """Validate and build a space.  Weights may be Fractions, "p/q" strings,
    ints, or floats; a fully rational list yields an exact-mode space.

    Raises EmptySpace, NonfiniteWeight, NegativeWeight, or WeightsNotNormalized.
    """
    parsed = tuple(parse_scalar(w) for w in weights)
    if not parsed:
        raise EmptySpace("a space needs at least one atom")
    for w in parsed:
        if isinstance(w, float) and not math.isfinite(w):
            raise NonfiniteWeight(f"weight {w} is not finite")
        if w < 0:
            raise NegativeWeight(f"weight {w} is negative")
    total = sum(parsed)
    if all(is_exact(w) for w in parsed):
        if total != 1:
            raise WeightsNotNormalized(f"weights sum to {total}, expected 1")
    else:
        if abs(float(total) - 1.0) > FLOAT_TOL:
            raise WeightsNotNormalized(f"weights sum to {float(total)!r}, expected 1")
    return AtomSpace(parsed)


def uniform_space(n_atoms: int) -> AtomSpace:
    return make_space([Fraction(1, n_atoms)] * n_atoms)


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
            try:
                counts[p] += 1  # TypeError for a non-integer, IndexError past the last atom
            except (IndexError, TypeError):
                raise ValueError(f"atom index {p!r} out of range") from None
            if p < 0:
                raise ValueError(f"atom index {p!r} out of range")
        object.__setattr__(self, "counts", tuple(counts))

    @property
    def n(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class RandomSource:
    """Seeded randomness with a deterministic, order-independent split rule."""

    seed: int
    spawn_key: tuple[int, ...] = ()

    def child(self, r: int) -> "RandomSource":
        """The stream for replicate r; depends only on (seed, spawn_key, r)."""
        return RandomSource(self.seed, self.spawn_key + (r,))

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=self.spawn_key)
        return np.random.Generator(np.random.PCG64(ss))


def draw_sample(space: AtomSpace, n: int, rng: RandomSource | np.random.Generator) -> Sample:
    """Draw n i.i.d. atoms by inverse CDF over the cumulative weights.  A draw
    past a float cumsum ending below one goes to the last positive-weight atom."""
    if isinstance(rng, RandomSource):
        rng = rng.generator()
    cum = np.cumsum([float(w) for w in space.weights])
    u = rng.random(n)
    idx = np.searchsorted(cum, u, side="right")
    last = max(a for a, w in enumerate(space.weights) if w > 0)
    idx = np.minimum(idx, last)
    return Sample(space, tuple(idx.tolist()))


def enumerate_samples(space: AtomSpace, n: int, cap: int = ENUMERATION_CAP) -> Iterator[tuple[Sample, Scalar]]:
    """All atoms^n ordered samples with their product weights.

    The weights sum to exactly one in exact mode.  Raises EnumerationTooLarge
    when atoms^n exceeds the cap.
    """
    if space.n_atoms**n > cap:
        raise EnumerationTooLarge(f"{space.n_atoms}^{n} samples exceeds cap {cap}")
    one = mode_of(space).one
    for pts in itertools.product(range(space.n_atoms), repeat=n):
        w = one
        for p in pts:
            w = w * space.weights[p]
        yield Sample(space, pts), w


def enumerate_counts(space: AtomSpace, n: int) -> Iterator[tuple[tuple[int, ...], Scalar]]:
    """All occupation-number vectors with their multinomial probabilities.

    Statistics of the empirical measure depend on a sample only through its
    counts, so expectation sums over this (much smaller) enumeration agree
    exactly with sums over enumerate_samples.
    """
    A = space.n_atoms
    one = mode_of(space).one
    nfact = math.factorial(n)
    for cuts in itertools.combinations(range(n + A - 1), A - 1):
        counts = []
        prev = -1
        for c in cuts:
            counts.append(c - prev - 1)
            prev = c
        counts.append(n + A - 2 - prev)
        coef = nfact
        w = one
        for a, c in enumerate(counts):
            coef //= math.factorial(c)
            w = w * space.weights[a] ** c
        yield tuple(counts), coef * w


def sample_from_counts(space: AtomSpace, counts: tuple[int, ...]) -> Sample:
    """A canonical representative sample with the given occupation numbers."""
    pts: list[int] = []
    for a, c in enumerate(counts):
        pts.extend([a] * c)
    return Sample(space, tuple(pts))
