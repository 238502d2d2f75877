"""Seeded Monte Carlo for the tails of the empirical integrals.

Estimates are reproducible down to the byte: replicate r draws from
``SeedSequence(seed, spawn_key=(r,))`` for a plain integer seed, replicates
run serially in index order, and every reduction runs over the array.

A replicate is drawn as its occupation counts alone (``replicate_counts``,
over ``space.draw_counts``), and the statistic of all replicates is
evaluated at once, in float, as a polynomial in those counts
(``integrals.eval_batch(f, counts)``, which reads each replicate's n from
its counts); no resampling shortcuts.  The exact engine runs the same
evaluation loop over the same polynomial in integers.  Counts drawn once
can feed several statistics: ``estimate_tail`` takes them as an argument,
so a caller that also evaluates a check statistic on the run's replicates
draws them once.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .bounds import BoundParams, bernstein_exponent, levels, two_regime_exponent
from .errors import InsufficientTailData, NegativeSeed, RegimeViolation
from .integrals import eval_batch
from .kernels import Kernel, l2_norm
from .space import AtomSpace, draw_counts

__all__ = [
    "McConfig", "TailEstimate", "replicate_counts", "replicate_values", "exceedance",
    "estimate_tail", "binomial_tail_oracle", "fit_constants", "auto_grid",
]

_PILOT_OFFSET = 10**9  # pilot replicate streams never collide with the run's
PILOT_REPLICATES = 1000
_PILOT_LO_Q, _PILOT_HI_Q = 0.5, 0.999  # the |statistic| quantiles the auto grid spans


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
    """Empirical exceedance of |statistic| over an ascending level grid."""

    x_grid: tuple[float, ...]
    p_hat: tuple[float, ...]
    stderr: tuple[float, ...]
    k: int
    n: int
    sigma: float


def replicate_counts(space: AtomSpace, cfg: McConfig, base_offset: int = 0) -> np.ndarray:
    """The (replicates, n_atoms) occupation counts of every replicate,
    indexed by replicate number: row r is drawn from the stream of
    (cfg.seed, base_offset + r)."""
    return draw_counts(space, cfg.n, cfg.seed, cfg.replicates, base_offset)


def replicate_values(f: Kernel, cfg: McConfig, base_offset: int = 0) -> np.ndarray:
    """The statistic for every replicate, indexed by replicate number; a
    pure function of (kernel, cfg, base_offset)."""
    return eval_batch(f, replicate_counts(f.space, cfg, base_offset), ustat=cfg.target == "ustat")


def exceedance(values: np.ndarray, x_grid) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Empirical P(|value| > x) at every level, with binomial standard errors."""
    absvals = np.abs(values)
    R = len(values)
    p_hat = tuple(int(np.count_nonzero(absvals > x)) / R for x in x_grid)
    return p_hat, tuple(math.sqrt(p * (1.0 - p) / R) for p in p_hat)


def estimate_tail(f: Kernel, cfg: McConfig, counts: np.ndarray, x_grid) -> TailEstimate:
    """P(|statistic| > x) over the levels ``x_grid`` (checked by
    ``bounds.levels``) with binomial standard errors, read from the run's
    occupation counts ``replicate_counts(f.space, cfg)``."""
    xs = levels(x_grid)
    if counts.shape != (cfg.replicates, f.space.n_atoms) or np.any(counts.sum(axis=1) != cfg.n):
        raise ValueError(f"counts must be {cfg.replicates} rows of {f.space.n_atoms} atoms "
                         f"summing to n={cfg.n}, got shape {counts.shape}")
    p_hat, stderr = exceedance(eval_batch(f, counts, ustat=cfg.target == "ustat"), xs)
    return TailEstimate(xs, p_hat, stderr, f.arity, cfg.n, l2_norm(f))


def binomial_tail_oracle(weight, n: int, x_grid) -> list[float]:
    """Closed form for the arity-1 centered indicator: with B binomial
    (n, w), the statistic is sqrt(n) (B/n - w), so the tail is an explicit
    binomial sum.  Exact in rationals, returned as floats.

    With w = p/q every pmf term is C(n, b) p^b (q - p)^(n - b) / q^n, so the
    sum runs over integer numerators and divides once."""
    w = Fraction(weight)
    p, q = w.numerator, w.denominator
    numer = [math.comb(n, b) * p**b * (q - p) ** (n - b) for b in range(n + 1)]
    out = []
    for x in x_grid:
        # |sqrt(n)(b/n - w)| > x  <=>  (b q - n p)^2 > x^2 n q^2; square to stay exact
        x = Fraction(x)
        den_sq, bound = x.denominator**2, x.numerator**2 * n * q * q
        hits = sum(m for b, m in enumerate(numer) if (b * q - n * p) ** 2 * den_sq > bound)
        out.append(float(Fraction(hits, q**n)))
    return out


def binomial_levels(weight, n: int, sigma: float, ts) -> tuple[float, ...]:
    """Levels ``sigma * t`` for the statistic of binomial_tail_oracle, kept
    off the lattice it lives on.  With w = p/q the statistic only takes the
    values m / (q sqrt(n)), m in {|b q - n p| : b = 0..n}.  A level whose
    exact value sqrt(w (1 - w)) t is one of them (decided in integers:
    m^2 = t^2 p (q - p) n) moves to the midpoint between it and the next
    value up (m + 1 past the largest), so float rounding of the statistic
    cannot decide a tie.  Every other level is ``sigma * t`` as given."""
    w = Fraction(weight)
    p, q = w.numerator, w.denominator
    attained = sorted({abs(b * q - n * p) for b in range(n + 1)})
    levels = []
    for t in ts:
        m_sq = Fraction(t) ** 2 * p * (q - p) * n
        m = math.isqrt(int(m_sq))
        if m * m != m_sq or m not in attained:
            levels.append(sigma * t)
            continue
        up = next((v for v in attained if v > m), m + 1)
        levels.append((m + up) / (2 * q * math.sqrt(n)))
    return tuple(levels)


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


def auto_grid(f: Kernel, cfg: McConfig, points: int) -> tuple[float, ...]:
    """A geometric level grid of ``points`` levels spanning the pilot run's |statistic|
    quantiles, with each end moved off the values the pilot attained.
    Pilot streams are offset so they never reuse run streams."""
    pilot_cfg = replace(cfg, replicates=PILOT_REPLICATES)
    values = np.abs(replicate_values(f, pilot_cfg, base_offset=_PILOT_OFFSET))
    attained = np.unique(values)
    lo = float(np.quantile(values, _PILOT_LO_Q))
    hi = float(np.quantile(values, _PILOT_HI_Q))
    if lo <= 0:
        positive = values[values > 0]
        if positive.size == 0:
            raise InsufficientTailData("pilot run produced no nonzero statistics")
        lo = float(np.min(positive))
    lo, hi = _off_pilot(lo, attained), _off_pilot(hi, attained)
    if hi <= lo:  # at most two distinct values above the median
        hi = lo * 2.0
    return tuple(float(x) for x in np.geomspace(lo, hi, points))
