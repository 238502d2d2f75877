"""Closed-form tail and moment bounds for the centered empirical integrals.

These are evaluators for the bound *shapes*; the universal constants in
front are free parameters (BoundParams), either fitted from Monte Carlo
data or frozen from previous runs.  Every function validates its regime
conditions and raises a specific error instead of silently extrapolating.

Scale conventions: x is the level for the statistic on its own scale
(q * n^{k/2}); sigma is an L2 bound for the kernel with sup norm <= 1, so
0 < sigma <= 1.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import BadM, EmptyGrid, NonpositiveX, OutOfRegime, RegimeViolation

__all__ = [
    "BoundParams", "two_regime_exponent", "bernstein_exponent", "two_regime_tail_bound",
    "gaussian_regime_tail_bound", "bernstein_tail_bound",
    "crossover_level", "moment_growth_bound", "regime_report", "crude_sup_bound",
]


@dataclass(frozen=True)
class BoundParams:
    """Constants in front of the bound shapes.  C, alpha parameterize the
    two-regime form; c1, c2 the Bernstein form."""

    C: float = 1.0
    alpha: float = 1.0
    c1: float = 1.0
    c2: float = 1.0


def _validate(x: float, k: int, sigma: float, n: int):
    if x <= 0:
        raise NonpositiveX(f"level x must be positive, got {x}")
    if k < 1:
        raise RegimeViolation(f"arity must be >= 1, got {k}")
    if not 0 < sigma <= 1:
        raise RegimeViolation(f"need 0 < sigma <= 1, got {sigma}")
    if n < 1:
        raise RegimeViolation(f"sample size must be >= 1, got {n}")


def crossover_level(k: int, sigma: float, n: int) -> float:
    """n^{k/2} sigma^{k+1}: where the two exponents of the two-regime bound
    coincide.  Below it the Gaussian-type branch is active."""
    return float(n) ** (k / 2) * sigma ** (k + 1)


def two_regime_exponent(x: float, k: int, sigma: float, n: int) -> float:
    """min((x/sigma)^{2/k}, (n x^2)^{1/(k+1)}), the exponent alpha scales
    in the two-regime bound."""
    return min((x / sigma) ** (2.0 / k), (n * x * x) ** (1.0 / (k + 1)))


def bernstein_exponent(x: float, k: int, sigma: float, n: int) -> float:
    """x^{2/k} / (sigma^{2/k} + (x^{1/k} n^{-1/2})^{2/(k+1)}), the exponent
    c2 scales in the Bernstein form."""
    return x ** (2.0 / k) / (sigma ** (2.0 / k) + (x ** (1.0 / k) / math.sqrt(n)) ** (2.0 / (k + 1)))


def two_regime_tail_bound(x: float, k: int, sigma: float, n: int,
                          params: BoundParams = BoundParams()) -> float:
    """C * max(exp(-alpha (x/sigma)^{2/k}), exp(-alpha (n x^2)^{1/(k+1)})).

    The first branch matches the tail of a k-fold Gaussian integral with
    variance sigma^2; the second takes over past the crossover level, where
    a sample of size n can no longer mimic Gaussian behavior.
    """
    _validate(x, k, sigma, n)
    return params.C * math.exp(-params.alpha * two_regime_exponent(x, k, sigma, n))


def gaussian_regime_tail_bound(x: float, k: int, sigma: float, n: int,
                               params: BoundParams = BoundParams()) -> float:
    """The pure Gaussian-type branch C exp(-alpha (x/sigma)^{2/k}), valid
    only up to the crossover level; beyond it raises OutOfRegime."""
    _validate(x, k, sigma, n)
    xc = crossover_level(k, sigma, n)
    if x > xc:
        raise OutOfRegime(f"x={x} exceeds the regime boundary {xc}")
    return params.C * math.exp(-params.alpha * (x / sigma) ** (2.0 / k))


def bernstein_tail_bound(x: float, k: int, sigma: float, n: int,
                         params: BoundParams = BoundParams()) -> float:
    """The Bernstein-type form

        c1 * exp(-c2 x^{2/k} / (sigma^{2/k} + (x^{1/k} n^{-1/2})^{2/(k+1)}))

    whose denominator interpolates the same two regimes smoothly.
    """
    _validate(x, k, sigma, n)
    return params.c1 * math.exp(-params.c2 * bernstein_exponent(x, k, sigma, n))


def crude_sup_bound(k: int, n: int, sup: float = 1.0) -> float:
    """2^k n^{k/2} sup|f|: the statistic can never exceed this, whatever
    the sample (total variation of the centered measure is at most 2)."""
    return 2.0**k * float(n) ** (k / 2) * sup


def _is_power_of_two(M: int) -> bool:
    return M >= 1 and (M & (M - 1)) == 0


def moment_growth_bound(k: int, M: int, sigma: float, n: int, C: float,
                        r: int | None = None) -> float:
    """Even-moment bound E[statistic^{2M}], for M a power of two.

    Without r: (C sigma^2 M^k)^M * max(1, (M / (n sigma^2))^M).

    With a dominance rank r >= 1 the variance deficit only enters through
    sigma^{2/r} and the exponent saturates at min(k, r):

        (C M^k sigma^2 / k^k)^M * max(1, (k M / (n sigma^{2/r}))^{M min(k, r)})

    requiring k M <= n.
    """
    if not _is_power_of_two(M):
        raise BadM(f"moment order parameter M must be a power of two, got {M}")
    if not 0 < sigma <= 1:
        raise RegimeViolation(f"need 0 < sigma <= 1, got {sigma}")
    if r is None:
        if n < k:
            raise RegimeViolation(f"need n >= k, got n={n}, k={k}")
        main = (C * sigma**2 * float(M) ** k) ** M
        deficit = max(1.0, (M / (n * sigma**2))) ** M
        return main * deficit
    if r < 1:
        raise RegimeViolation(f"rank must be >= 1, got {r}")
    if k * M > n:
        raise RegimeViolation(f"need k*M <= n, got k*M={k * M}, n={n}")
    main = (C * float(M) ** k * sigma**2 / float(k) ** k) ** M
    deficit = max(1.0, k * M / (n * sigma ** (2.0 / r))) ** (M * min(k, r))
    return main * deficit


def regime_report(k: int, sigma: float, n: int, x_grid, params: BoundParams = BoundParams()):
    """Rows (x, two-regime bound, Bernstein bound, active branch, log ratio)
    over an ascending grid.  The active branch flips from 'gaussian' to
    'empirical' exactly once, at the crossover level."""
    xs = list(x_grid)
    if not xs:
        raise EmptyGrid("regime report needs at least one level")
    if any(b <= a for a, b in zip(xs, xs[1:])):
        raise ValueError("x_grid must be strictly ascending")
    xc = crossover_level(k, sigma, n)
    rows = []
    for x in xs:
        b13 = two_regime_tail_bound(x, k, sigma, n, params)
        b16 = bernstein_tail_bound(x, k, sigma, n, params)
        branch = "gaussian" if x <= xc else "empirical"
        rows.append((x, b13, b16, branch, math.log(b13) - math.log(b16)))
    return rows
