"""Seeded Monte Carlo for tails and moments of the empirical integrals.

Estimates are reproducible down to the byte: replicate r draws from the
child stream of (seed, r), replicates run serially in index order, and
every reduction runs over the replicate-indexed array.

The statistic per replicate is evaluated exactly in float mode through the
same evaluator the exact engine uses; no resampling shortcuts.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .bounds import BoundParams, bernstein_exponent, two_regime_exponent
from .errors import EmptyGrid, InsufficientTailData
from .integrals import eval_integral, eval_ustat
from .kernels import Kernel, l2_norm
from .space import RandomSource, draw_sample

__all__ = [
    "McConfig", "TailEstimate", "replicate_values", "exceedance", "estimate_tail",
    "estimate_moments", "binomial_tail_oracle", "fit_constants", "auto_grid",
]

_PILOT_OFFSET = 10**9  # pilot replicate streams never collide with the run's


@dataclass(frozen=True)
class McConfig:
    replicates: int
    seed: int
    n: int
    x_grid: tuple[float, ...] = ()
    target: str = "integral"

    def __post_init__(self):
        if self.target not in ("integral", "ustat"):
            raise ValueError(f"target must be 'integral' or 'ustat', got {self.target!r}")
        if self.replicates < 1:
            raise ValueError("need at least one replicate")
        if self.n < 1:
            raise ValueError(f"sample size n must be at least 1, got {self.n}")


@dataclass(frozen=True)
class TailEstimate:
    """Empirical exceedance of |statistic| over an ascending level grid."""

    x_grid: tuple[float, ...]
    p_hat: tuple[float, ...]
    stderr: tuple[float, ...]
    replicates: int
    k: int
    n: int
    sigma: float
    target: str


def _statistic(f: Kernel, sample, target: str) -> float:
    if target == "integral":
        return eval_integral(f, sample).value
    return eval_ustat(f, sample) / float(sample.n) ** (f.arity / 2)


def replicate_values(f: Kernel, cfg: McConfig, base_offset: int = 0) -> np.ndarray:
    """The statistic for every replicate, indexed by replicate number; a
    pure function of (kernel, cfg, base_offset)."""
    ff = f.as_float()
    root = RandomSource(cfg.seed)
    out = np.empty(cfg.replicates, dtype=float)
    for r in range(cfg.replicates):
        sample = draw_sample(ff.space, cfg.n, root.child(base_offset + r).generator())
        out[r] = _statistic(ff, sample, cfg.target)
    return out


def exceedance(values: np.ndarray, x_grid) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Empirical P(|value| > x) at every level, with binomial standard errors."""
    absvals = np.abs(values)
    R = len(values)
    p_hat = tuple(int(np.count_nonzero(absvals > x)) / R for x in x_grid)
    return p_hat, tuple(math.sqrt(p * (1.0 - p) / R) for p in p_hat)


def estimate_tail(f: Kernel, cfg: McConfig) -> TailEstimate:
    """P(|statistic| > x) over cfg.x_grid with binomial standard errors."""
    xs = tuple(float(x) for x in cfg.x_grid)
    if not xs:
        raise EmptyGrid("estimate_tail needs a nonempty x_grid")
    if any(b <= a for a, b in zip(xs, xs[1:])):
        raise ValueError("x_grid must be strictly ascending")
    p_hat, stderr = exceedance(replicate_values(f, cfg), xs)
    return TailEstimate(xs, p_hat, stderr, cfg.replicates, f.arity, cfg.n,
                        l2_norm(f), cfg.target)


def estimate_moments(f: Kernel, cfg: McConfig,
                     orders: tuple[int, ...]) -> list[tuple[int, float, float]]:
    """Rows (order, empirical mean of statistic^order, standard error)."""
    values = replicate_values(f, cfg)
    rows = []
    for order in orders:
        powered = values**order
        mean = float(np.mean(powered))
        se = float(np.std(powered, ddof=1) / math.sqrt(cfg.replicates))
        rows.append((order, mean, se))
    return rows


def binomial_tail_oracle(weight, n: int, x_grid) -> list[float]:
    """Closed form for the arity-1 centered indicator: with B binomial
    (n, w), the statistic is sqrt(n) (B/n - w), so the tail is an explicit
    binomial sum.  Exact in rationals, returned as floats."""
    w = Fraction(weight)
    pmf = [Fraction(math.comb(n, b)) * w**b * (1 - w) ** (n - b) for b in range(n + 1)]
    out = []
    for x in x_grid:
        # |sqrt(n)(b/n - w)| > x  <=>  |b - n w| > x sqrt(n); square to stay exact
        lim_sq = Fraction(x) ** 2 * n
        p = sum(pmf[b] for b in range(n + 1) if (b - n * w) ** 2 > lim_sq)
        out.append(float(p))
    return out


def fit_constants(est: TailEstimate, form: str = "two_regime") -> BoundParams:
    """Least-squares fit of log exceedance against the bound's exponent
    shape, then lift the constant so the bound dominates every empirical
    point.  Needs at least three grid points with nonzero exceedance.
    """
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
    # dominate every point exactly
    log_c = max(lp + alpha * z for lp, z in zip(logs, zs))
    if form == "two_regime":
        return BoundParams(C=math.exp(log_c), alpha=alpha)
    return BoundParams(c1=math.exp(log_c), c2=alpha)


def auto_grid(f: Kernel, cfg: McConfig, points: int = 12, pilot: int = 1000,
              lo_q: float = 0.5, hi_q: float = 0.999) -> tuple[float, ...]:
    """A geometric level grid spanning the pilot run's |statistic|
    quantiles.  Pilot streams are offset so they never reuse run streams."""
    pilot_cfg = McConfig(pilot, cfg.seed, cfg.n, (), cfg.target)
    values = np.abs(replicate_values(f, pilot_cfg, base_offset=_PILOT_OFFSET))
    lo = float(np.quantile(values, lo_q))
    hi = float(np.quantile(values, hi_q))
    if lo <= 0:
        positive = values[values > 0]
        if positive.size == 0:
            raise InsufficientTailData("pilot run produced no nonzero statistics")
        lo = float(np.min(positive))
    if hi <= lo:
        hi = lo * 2.0
    return tuple(float(x) for x in np.geomspace(lo, hi, points))
