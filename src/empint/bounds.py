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

from .errors import BadM, MalformedInput, NonpositiveX, RegimeViolation

__all__ = [
    "BoundParams", "levels", "two_regime_exponent", "bernstein_exponent", "two_regime_tail_bound",
    "bernstein_tail_bound", "crossover_level", "moment_growth_bound", "regime_report",
]


@dataclass(frozen=True)
class BoundParams:
    """Constants in front of the bound shapes.  C, alpha parameterize the
    two-regime form; c1, c2 the Bernstein form."""

    C: float = 1.0
    alpha: float = 1.0
    c1: float = 1.0
    c2: float = 1.0


def levels(values) -> tuple[float, ...]:
    """The levels as floats; MalformedInput unless finite, positive and strictly ascending."""
    xs = tuple(float(x) for x in values)
    if not xs or not all(0 < x < math.inf for x in xs) or any(b <= a for a, b in zip(xs, xs[1:])):
        raise MalformedInput(f"grid levels must be positive and strictly ascending, got {xs}")
    return xs


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
    coincide.  Below it the Gaussian-type branch is active.  Raises
    RegimeViolation when n, n^{k/2} or the level leaves float range."""
    try:
        return float(n) ** (k / 2) * sigma ** (k + 1)
    except OverflowError:
        raise RegimeViolation(f"the crossover level n^(k/2) sigma^(k+1) leaves float range "
                              f"at k={k}, n={n}") from None


def _power(base: float, e: float) -> float:
    """base ** e, with a result past float range read as inf: the bounds
    built on an exponent that large are 0."""
    try:
        return base**e
    except OverflowError:
        return math.inf


def _gaussian_exponent(x: float, k: int, sigma: float) -> float:
    """(x/sigma)^{2/k}: the exponent of a k-fold Gaussian integral's tail."""
    return _power(x / sigma, 2.0 / k)


def two_regime_exponent(x: float, k: int, sigma: float, n: int) -> float:
    """min((x/sigma)^{2/k}, (n x^2)^{1/(k+1)}), the exponent alpha scales
    in the two-regime bound."""
    return min(_gaussian_exponent(x, k, sigma), (n * x * x) ** (1.0 / (k + 1)))


def bernstein_exponent(x: float, k: int, sigma: float, n: int) -> float:
    """x^{2/k} / (sigma^{2/k} + (x^{1/k} n^{-1/2})^{2/(k+1)}), the exponent
    c2 scales in the Bernstein form."""
    return _power(x, 2.0 / k) / (sigma ** (2.0 / k)
                                  + (x ** (1.0 / k) / math.sqrt(n)) ** (2.0 / (k + 1)))


def two_regime_tail_bound(x: float, k: int, sigma: float, n: int,
                          params: BoundParams = BoundParams()) -> float:
    """C * max(exp(-alpha (x/sigma)^{2/k}), exp(-alpha (n x^2)^{1/(k+1)})).

    The first branch matches the tail of a k-fold Gaussian integral with
    variance sigma^2; the second takes over past the crossover level, where
    a sample of size n can no longer mimic Gaussian behavior.
    """
    _validate(x, k, sigma, n)
    return params.C * math.exp(-params.alpha * two_regime_exponent(x, k, sigma, n))


def bernstein_tail_bound(x: float, k: int, sigma: float, n: int,
                         params: BoundParams = BoundParams()) -> float:
    """The Bernstein-type form

        c1 * exp(-c2 x^{2/k} / (sigma^{2/k} + (x^{1/k} n^{-1/2})^{2/(k+1)}))

    whose denominator interpolates the same two regimes smoothly.
    """
    _validate(x, k, sigma, n)
    return params.c1 * math.exp(-params.c2 * bernstein_exponent(x, k, sigma, n))


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


def _log_bound(bound: float, lead: float, rate: float, exponent: float) -> float:
    """log(bound) for bound = lead * exp(-rate * exponent), from the factors
    when the bound underflows to 0."""
    return math.log(bound) if bound > 0 else math.log(lead) - rate * exponent


def regime_report(k: int, sigma: float, n: int, x_grid, params: BoundParams = BoundParams()):
    """Rows (x, two-regime bound, Bernstein bound, active branch, log ratio)
    over ``levels(x_grid)``.  The active branch flips from 'gaussian' to
    'empirical' exactly once, at the crossover level."""
    xs = levels(x_grid)
    xc = crossover_level(k, sigma, n)
    rows = []
    for x in xs:
        b13 = two_regime_tail_bound(x, k, sigma, n, params)
        b16 = bernstein_tail_bound(x, k, sigma, n, params)
        branch = "gaussian" if x <= xc else "empirical"
        log13 = _log_bound(b13, params.C, params.alpha, two_regime_exponent(x, k, sigma, n))
        log16 = _log_bound(b16, params.c1, params.c2, bernstein_exponent(x, k, sigma, n))
        rows.append((x, b13, b16, branch, log13 - log16))
    return rows
