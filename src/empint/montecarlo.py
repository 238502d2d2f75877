"""Seeded Monte Carlo for the tails of the empirical integrals.

Estimates are reproducible down to the byte: replicate r draws from
``SeedSequence(seed, spawn_key=(r,))`` for a plain integer seed, replicates
run serially in index order, and every reduction runs over the array.

A tails run is five stages, each a pure function of those before it:
draw (``space.draw_counts``, once), statistic (``integrals.eval_batch``:
all replicates at once, in float, as a polynomial in the counts), decide
(``exceedance``, inside ``estimate_tail``), fit (``tail_rows``) and
self-check (``self_check``: the centered indicator of one atom,
sqrt(n) (B/n - w) with B binomial (n, w), decided on the same counts by
the integer band ``binomial_band`` that also gives its exact tail).
Without a configured grid, ``auto_grid`` sets the levels before the draw,
from a canonical kernel's exact scale or else from a pilot run.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from statistics import NormalDist

import numpy as np

from .bounds import (BoundParams, bernstein_exponent, bernstein_tail_bound, levels,
                     two_regime_exponent, two_regime_tail_bound)
from .combinatorics import canonical_second_moment
from .errors import InsufficientTailData, NegativeSeed, RegimeViolation
from .integrals import eval_batch
from .kernels import Kernel, is_canonical, l2_norm
from .scalars import in_float_range
from .space import draw_counts

__all__ = [
    "McConfig", "TailEstimate", "exceedance", "estimate_tail", "binomial_band",
    "binomial_tail_oracle", "fit_constants", "tail_rows", "self_check", "auto_grid",
]

_PILOT_OFFSET = 10**9  # the first pilot stream, past every run of up to 10^9 replicates
PILOT_REPLICATES = 1000
_Z_LO, _Z_HI = (NormalDist().inv_cdf((1 + q) / 2) for q in (0.5, 0.999))  # |Z| quantiles


@dataclass(frozen=True)
class McConfig:
    replicates: int
    seed: int
    n: int
    target: str = "integral"

    def __post_init__(self):
        if self.target not in ("integral", "ustat"):
            raise ValueError(f"target must be 'integral' or 'ustat', got {self.target!r}")
        if self.replicates < 1:
            raise ValueError("need at least one replicate")
        if self.n < 1:
            raise ValueError(f"sample size n must be at least 1, got {self.n}")
        if self.seed < 0:
            raise NegativeSeed(f"seed must be non-negative, got {self.seed}")


@dataclass(frozen=True)
class TailEstimate:
    """Empirical exceedance of |statistic| over an ascending level grid;
    ``vanishes`` when the kernel is 0 wherever a sample lands (sigma, its
    float L2 norm, can also read 0.0 for a kernel that does not)."""

    x_grid: tuple[float, ...]
    p_hat: tuple[float, ...]
    stderr: tuple[float, ...]
    k: int
    n: int
    sigma: float
    vanishes: bool = False


def exceedance(values: np.ndarray, x_grid) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Empirical P(|value| > x) at every level, with binomial standard errors."""
    absvals = np.abs(values)
    R = len(values)
    p_hat = tuple(int(np.count_nonzero(absvals > x)) / R for x in x_grid)
    return p_hat, tuple(math.sqrt(p * (1.0 - p) / R) for p in p_hat)


def estimate_tail(f: Kernel, cfg: McConfig, counts: np.ndarray, x_grid) -> TailEstimate:
    """P(|statistic| > x) over the levels ``x_grid`` (checked by
    ``bounds.levels``) with binomial standard errors, read from the run's
    occupation counts ``draw_counts(f.space, cfg.n, cfg.seed, cfg.replicates)``."""
    xs = levels(x_grid)
    if counts.shape != (cfg.replicates, f.space.n_atoms) or np.any(counts.sum(axis=1) != cfg.n):
        raise ValueError(f"counts must be {cfg.replicates} rows of {f.space.n_atoms} atoms "
                         f"summing to n={cfg.n}, got shape {counts.shape}")
    p_hat, stderr = exceedance(eval_batch(f, counts, ustat=cfg.target == "ustat"), xs)
    landed = f.values[np.ix_(*[np.flatnonzero(f.space.weight_vector)] * f.arity)]  # exactly
    return TailEstimate(xs, p_hat, stderr, f.arity, cfg.n, l2_norm(f), not np.any(landed))


def binomial_band(weight, n: int, x) -> tuple[int, int]:
    """The counts b whose statistic sqrt(n) (b/n - w) does not exceed x in
    absolute value, as one integer interval [b_lo, b_hi] clipped to
    -1..n+1.  Decided in integers: with w = p/q and x read exactly as a/c,
    |sqrt(n)(b/n - w)| > x holds exactly when |b q - n p| > s, where
    s = isqrt(a^2 n q^2 // c^2)."""
    w, x = Fraction(weight), Fraction(x)
    p, q = w.numerator, w.denominator
    s = math.isqrt(x.numerator**2 * n * q * q // x.denominator**2)
    return max(-((s - n * p) // q), -1), min((n * p + s) // q, n + 1)


def binomial_tail_oracle(weight, n: int, x_grid) -> list[float]:
    """Closed form for the arity-1 centered indicator: with B binomial
    (n, w), the statistic is sqrt(n) (B/n - w), so the tail is the pmf
    outside ``binomial_band`` at each level.  Exact in rationals, returned
    as floats.

    With w = p/q each pmf term is t(b) / q^n, where t(0) = (q - p)^n and
    t(b + 1) = t(b) (n - b) p // ((b + 1) (q - p)) exactly (at w = 0 or 1
    all mass is at b = n w): O(n) integer steps, not a power per term.  One
    prefix sum gives each level's two tails; int / int rounds correctly."""
    w = Fraction(weight)
    p, q = w.numerator, w.denominator
    if p in (0, q):
        numer = [int(b == n * p) for b in range(n + 1)]
    else:
        numer = [t := (q - p) ** n]
        numer += [t := t * (n - b) * p // ((b + 1) * (q - p)) for b in range(n)]
    below = [0, *itertools.accumulate(numer)]  # below[b]: the mass at counts < b
    return [(below[max(lo, 0)] + below[-1] - below[min(hi + 1, n + 1)]) / q**n
            for lo, hi in (binomial_band(w, n, x) for x in x_grid)]


def fit_constants(est: TailEstimate, form: str = "two_regime") -> BoundParams:
    """Least-squares fit of log exceedance against the bound's exponent
    shape, then lift the constant so the bound dominates every empirical
    point.  Needs at least three grid points with nonzero exceedance and
    a decaying fit: a fitted exponent <= 0 would be a bound that grows
    with x.  The shapes hold for arity >= 1 and 0 < sigma <= 1; anything
    else raises RegimeViolation.
    """
    if est.k < 1 or not 0 < est.sigma <= 1:
        raise RegimeViolation(f"the bound shapes need arity >= 1 and 0 < sigma <= 1, "
                              f"got arity {est.k} and sigma {est.sigma}")
    pts = [(x, p) for x, p in zip(est.x_grid, est.p_hat) if p > 0]
    if len(pts) < 3:
        raise InsufficientTailData(f"only {len(pts)} nonzero tail points, need 3")
    shapes = {"two_regime": two_regime_exponent, "bernstein": bernstein_exponent}
    if form not in shapes:
        raise ValueError(f"unknown form {form!r}")
    zs = [shapes[form](x, est.k, est.sigma, est.n) for x, _ in pts]
    logs = [math.log(p) for _, p in pts]
    A = np.column_stack([np.ones(len(zs)), [-z for z in zs]])
    coef, *_ = np.linalg.lstsq(A, np.array(logs), rcond=None)
    log_c, alpha = float(coef[0]), float(coef[1])
    if alpha <= 0:
        raise InsufficientTailData(f"fitted exponent {alpha:.3g} <= 0: the tail does not decay")
    # dominate every point exactly
    log_c = max(lp + alpha * z for lp, z in zip(logs, zs))
    if form == "two_regime":
        return BoundParams(C=math.exp(log_c), alpha=alpha)
    return BoundParams(c1=math.exp(log_c), c2=alpha)


def tail_rows(est: TailEstimate) -> list[tuple[float, float, float, float, float]]:
    """(x, p_hat, stderr, bound13, bound16) at each level of ``est``, with
    both bound shapes fitted by ``fit_constants``, whose errors pass
    through.  A kernel that vanishes where samples land has a statistic
    that vanishes: its exact tail is zero, nothing is fitted and both bounds
    read 0.0.  Any other is fitted, so a sigma that underflows is refused."""
    rows = zip(est.x_grid, est.p_hat, est.stderr)
    if est.vanishes:
        return [(x, p, se, 0.0, 0.0) for x, p, se in rows]
    p13, p16 = fit_constants(est, "two_regime"), fit_constants(est, "bernstein")
    return [(x, p, se, two_regime_tail_bound(x, est.k, est.sigma, est.n, p13),
             bernstein_tail_bound(x, est.k, est.sigma, est.n, p16)) for x, p, se in rows]


def self_check(weight, n: int, b: np.ndarray) -> list[tuple[float, float, float, float, float]]:
    """(x, p_hat, p_exact, stderr, z) for the centered indicator of an atom
    of weight w, 0 < w < 1 (else ValueError), with count ``b`` in each
    replicate: at the levels sqrt(w (1 - w)) t, t in 0.5, 1, 1.5, 2 and 3,
    ``binomial_band`` decides p_hat on ``b`` and the exact tail alike.
    stderr is that of the exact tail, so a run that misses a rare level
    still scores."""
    w = Fraction(weight)
    if not 0 < w < 1:
        raise ValueError(f"the indicator of an atom of weight {w} does not vary")
    xs = [math.sqrt(w * (1 - w)) * t for t in (0.5, 1.0, 1.5, 2.0, 3.0)]
    rows = []
    for x, pe in zip(xs, binomial_tail_oracle(w, n, xs)):
        lo, hi = binomial_band(w, n, x)
        p = int(np.count_nonzero((b < lo) | (b > hi))) / len(b)
        se = math.sqrt(pe * (1.0 - pe) / len(b))
        rows.append((x, p, pe, se, abs(p - pe) / se if se > 0 else (0.0 if p == pe else math.inf)))
    return rows


def _off_pilot(x: float, attained: np.ndarray) -> float:
    """x, or when x is one of the sorted distinct pilot values, the
    midpoint between it and the nearest one above it (below it when there
    is none above), so float rounding of the statistic cannot decide a tie
    at that level."""
    i = int(np.searchsorted(attained, x))
    if i == len(attained) or attained[i] != x:
        return x
    other = attained[i + 1] if i + 1 < len(attained) else attained[max(i - 1, 0)]
    return float((x + other) / 2)


def auto_grid(f: Kernel, cfg: McConfig, points: int) -> tuple[tuple[float, ...], int]:
    """``points`` geometric levels and the pilot replicates drawn for them: for
    canonical f, sigma times the |Z| quantiles 0.5 to 0.999 with sigma^2 from
    ``canonical_second_moment``; else a pilot run's |statistic| quantiles, ends
    moved off its values, its streams from max(10^9, R) on, past the run's.
    RegimeViolation is raised for a canonical f whose scale a float cannot hold."""
    if is_canonical(f):
        m2 = canonical_second_moment(f, cfg.n)
        sigma = math.sqrt(m2) if in_float_range(m2) else math.inf
        if m2 == 0:
            raise InsufficientTailData(f"the statistic's scale sqrt(E[J^2]) is {sigma}")
        if not 0 < sigma < math.inf:
            raise RegimeViolation(f"the statistic's scale sqrt(E[J^2]) is {sigma} as a float, "
                                  f"{'below' if sigma == 0 else 'past'} float range: "
                                  "rescale the kernel")
        return tuple(np.geomspace(sigma * _Z_LO, sigma * _Z_HI, points).tolist()), 0
    pilot = draw_counts(f.space, cfg.n, cfg.seed, PILOT_REPLICATES,
                        max(_PILOT_OFFSET, cfg.replicates))
    values = np.abs(eval_batch(f, pilot, ustat=cfg.target == "ustat"))
    attained = np.unique(values)
    lo, hi = map(float, np.quantile(values, [0.5, 0.999]))  # the |statistic| quantiles spanned
    if lo <= 0:
        positive = values[values > 0]
        if positive.size == 0:
            raise InsufficientTailData("pilot run produced no nonzero statistics")
        lo = float(np.min(positive))
    lo, hi = _off_pilot(lo, attained), _off_pilot(hi, attained)
    if hi <= lo:  # at most two distinct values above the median
        hi = lo * 2.0
    return tuple(float(x) for x in np.geomspace(lo, hi, points)), PILOT_REPLICATES
