"""Scalar helpers for the two arithmetic modes.

Exact mode works in arbitrary-precision rationals (``fractions.Fraction``);
float mode works in IEEE doubles.  A container is "exact" when every scalar
in it is a Fraction (or int), and the two modes never mix silently: parsing
decides the mode once, and all downstream arithmetic preserves it.

The decision lives here alone: other modules ask ``mode_of`` once and use
the returned ``Arithmetic`` object instead of branching on exactness.  A
computation reads each kernel or space x as ``mode.form(x).numerators``:
x's cached Python-int numerators over one denominator in exact mode, its
float form's values over 1 otherwise.  It builds a scalar result with one
``ratio``; an exact kernel product stays integer numerators over one
denominator until its values are read, one ``ratio`` per entry, and only
the step-by-step kernel operators stay on ``Fraction``s, as the reference.
An operator's result is already in its operands' mode, so ``array`` takes
it as it is; only values from outside are read entry by entry
(``kernel_values``).
Scalars compare by one rule, ``abs(a - b) <= mode.slack(tol)``, and spaces
combine by one, ``require_one_measure``: equal spaces, or an exact space
and its float form, are one measure; two different exact spaces never are.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from typing import Callable

import numpy as np

from .errors import MalformedInput, SpaceMismatch

FLOAT_TOL = 1e-12

Scalar = Fraction | float


def is_exact(x) -> bool:
    return isinstance(x, Rational)


def parse_scalar(v) -> Scalar:
    """Parse a JSON-ish scalar: "p/q" strings and ints are exact, floats are
    not.  Raises MalformedInput for anything else, such as "abc" or "1/0"."""
    if isinstance(v, str):
        try:
            return Fraction(v)
        except (ValueError, ZeroDivisionError):
            raise MalformedInput(f"not a scalar: {v!r}") from None
    if isinstance(v, Rational) and not isinstance(v, bool):
        return Fraction(v)
    if isinstance(v, float):
        return v
    raise MalformedInput(f"not a scalar: {v!r}")


def in_float_range(x) -> bool:
    """Whether a scalar is finite and a float can hold it: not NaN, not
    infinite and, for an exact scalar, not too large to convert."""
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


def format_scalar(x: Scalar) -> str:
    """Render a scalar the way parse_scalar reads it back; exact stays exact."""
    if is_exact(x):
        return str(Fraction(x))
    return repr(float(x))


@dataclass(frozen=True)
class Arithmetic:
    """One arithmetic mode: its scalar type, array dtype and constants."""

    exact: bool
    cast: type
    dtype: type
    zero: Scalar
    one: Scalar
    ratio: Callable[[object, int], Scalar]  # (numerator, d) -> numerator / d, one division
    numerators: Callable[[np.ndarray], tuple[np.ndarray, int]]  # values -> (values * d, d)

    def inv(self, n: int) -> Scalar:
        return self.ratio(1, n)

    def inv_factorial(self, k: int) -> Scalar:
        return self.inv(math.factorial(k))

    def zeros(self, shape) -> np.ndarray:
        return np.full(shape, self.zero, dtype=self.dtype)

    def slack(self, tol: float) -> float:
        """The comparison tolerance: none in exact mode, tol in float mode."""
        return 0 if self.exact else tol

    def form(self, x):
        """x, a kernel or a space, in this mode: x itself or its float form."""
        return x if self.exact else x.as_float()

    def array(self, values) -> np.ndarray:
        """An operator's result, computed from operands in this mode, as
        this mode's array without reading its entries: object entries as
        they are (a bare rational becomes 0-d) in exact mode, float64
        otherwise.  Outside values go through ``kernel_values`` instead."""
        return np.asarray(values, dtype=self.dtype)


def read_only(values: np.ndarray) -> np.ndarray:
    values = values.view()
    values.flags.writeable = False
    return values


def _integer_numerators(values: np.ndarray) -> tuple[np.ndarray, int]:
    """Rationals as Python-int numerators over their least common denominator d."""
    d = math.lcm(*(x.denominator for x in values.flat))
    nums = [x.numerator * (d // x.denominator) for x in values.flat]
    return read_only(np.array(nums, dtype=object).reshape(values.shape)), d


EXACT = Arithmetic(True, Fraction, object, Fraction(0), Fraction(1), Fraction,
                   _integer_numerators)
FLOAT = Arithmetic(False, float, float, 0.0, 1.0, operator.truediv,
                   lambda values: (read_only(np.asarray(values, dtype=float)), 1))


def kernel_values(values, exact_space: bool) -> np.ndarray:
    """A kernel's values in one mode, told by the dtype alone: an object array
    stays exact on an exact space with every entry a rational, numpy
    integers turned into Python ints, and is float64 otherwise.  A bare
    Python rational, which object arithmetic on a 0-d array returns,
    becomes a 0-d object array; other values are kept as numpy reads them."""
    if is_exact(values) and not isinstance(values, np.generic):
        return np.array(values, dtype=object)
    values = np.asarray(values)
    if values.dtype != object:
        return values
    types = set(map(type, values.flat))
    if not (exact_space and all(issubclass(t, Rational) for t in types)):
        return values.astype(float)
    if any(issubclass(t, np.integer) for t in types):
        values = np.array([int(x) if isinstance(x, np.integer) else x for x in values.flat],
                          dtype=object).reshape(values.shape)
    return values


def mode_of(*items) -> Arithmetic:
    """Exact mode when every item (a space, kernel, certificate or scalar)
    is exact, float mode otherwise."""
    exact = all(x.exact if hasattr(type(x), "exact") else is_exact(x) for x in items)
    return EXACT if exact else FLOAT


def require_one_measure(*spaces) -> None:
    """SpaceMismatch unless each space equals the first exact one (or first) or its float form."""
    ref = next((sp for sp in spaces if sp.exact), spaces[0])
    for sp in spaces:
        if sp is not ref and sp != ref and (sp.exact or sp != ref.as_float()):
            raise SpaceMismatch("kernels, samples or factors live on different measures")
