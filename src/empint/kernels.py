"""Kernels: functions of several atom-valued arguments, as dense tensors.

A kernel of arity k on a space with A atoms is stored as an (A, ..., A)
tensor, one axis per argument.  Axes carry integer *labels* (strictly
increasing, 1..k from every constructor below); labels, not positions,
identify arguments across contraction steps, so an operation that drops
an argument leaves the remaining labels untouched.

Diagram contractions and the factor products of certificate checks are
single calls to ``labeled_product`` (the checks take its einsum undivided),
which takes kernels with a label per axis and hands the labels to
``np.einsum`` as subscripts; ``tensor_product`` and
``integrate_axis`` remain as the step-by-step operators.

Exact-mode kernels hold Python rationals in an object-dtype array on an
exact space (``Kernel`` reads the type of every value it is given and
turns any other object values into floats) and every operation below is
closed over the rationals.  So ``labeled_product``, ``Kernel.add``,
``Kernel.scale``, ``Kernel.abs`` and ``compact_relabel`` build their
result in the mode ``mode_of`` fixes for their operands (``_result``),
without reading its entries again.  Kernels and spaces cache their
Python-int numerators over one denominator (``numerators``).  Every exact
``labeled_product``, a pure product included, runs its ``einsum`` on them
and divides once per entry; the step-by-step operators stay on the
Fractions, as the reference.  The norms and ``is_canonical`` read the
numerators too and divide or compare once at the end.  Float-mode kernels
use IEEE doubles with the same code paths, over a denominator of 1,
reading an exact operand as its float form (``Arithmetic.form``), which a
kernel builds once and caches, as a space does.  Operands combine on one
measure only: an exact space and its float form are one, two different
exact spaces never are (``require_one_measure``).  A kernel's values are
read-only, so results memoized on a kernel can never go stale.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import ArityMismatch, MalformedInput, NoSuchAxis, NotCanonical
from .scalars import (FLOAT_TOL, Arithmetic, Scalar, format_scalar, in_float_range,
                      kernel_values, mode_of, parse_scalar, read_only, require_one_measure)
from .space import AtomSpace

__all__ = [
    "Kernel", "constant_kernel", "indicator_kernel", "kernel_from_values",
    "sup_norm", "l1_norm", "l2_norm_sq", "l2_norm",
    "labeled_product", "tensor_product", "integrate_axis", "center_axis",
    "symmetrize", "canonical_project", "is_canonical",
    "compact_relabel", "random_kernel", "kernel_to_json", "kernel_from_json",
]

MAX_ARITY = 32  # numpy 1.x's limit on array dimensions


@dataclass(frozen=True, eq=False)
class Kernel:
    """A dense kernel.  Identity-hashable so evaluators can memoize on it."""

    space: AtomSpace
    values: np.ndarray
    axis_labels: tuple[int, ...]

    def __post_init__(self):
        self._settle(kernel_values(self.values, self.space.exact))

    def _settle(self, values: np.ndarray) -> None:
        """Store the values read-only and check their shape and the labels."""
        v = read_only(values)
        object.__setattr__(self, "values", v)
        if v.ndim != len(self.axis_labels):
            raise ArityMismatch(f"{v.ndim} tensor axes for {len(self.axis_labels)} labels")
        if v.shape != (self.space.n_atoms,) * v.ndim:
            raise ArityMismatch(f"tensor shape {v.shape} does not match {self.space.n_atoms} atoms")
        if any(a >= b for a, b in zip(self.axis_labels, self.axis_labels[1:])):
            raise ValueError(f"axis labels must be strictly increasing, got {self.axis_labels}")

    @property
    def arity(self) -> int:
        return len(self.axis_labels)

    @property
    def exact(self) -> bool:
        return self.values.dtype == object

    @cached_property
    def numerators(self) -> tuple[np.ndarray, int]:
        """The values as read-only (numerators, d) in the kernel's mode, read
        once."""
        return mode_of(self).numerators(self.values)

    def axis_position(self, label: int) -> int:
        try:
            return self.axis_labels.index(label)
        except ValueError:
            raise NoSuchAxis(f"no axis labeled {label} in {self.axis_labels}") from None

    def value_at(self, atoms: tuple[int, ...]) -> Scalar:
        if len(atoms) != self.arity:
            raise ArityMismatch(f"{len(atoms)} arguments for arity {self.arity}")
        return self.values[tuple(self.space.check_atom(a) for a in atoms)]

    def scale(self, c: Scalar) -> "Kernel":
        return _result(mode_of(self, c), self.space, self.values * c, self.axis_labels)

    def add(self, other: "Kernel") -> "Kernel":
        require_one_measure(self.space, other.space)
        if self.axis_labels != other.axis_labels:
            raise ArityMismatch(f"axis labels differ: {self.axis_labels} vs {other.axis_labels}")
        return _result(mode_of(self, other), self.space, self.values + other.values,
                       self.axis_labels)

    def abs(self) -> "Kernel":
        return _result(mode_of(self), self.space, np.abs(self.values), self.axis_labels)

    @cached_property
    def _float_form(self) -> "Kernel":
        return Kernel(self.space.as_float(), self.values, self.axis_labels)

    def as_float(self) -> "Kernel":
        if not self.exact:
            return self
        return self._float_form


def _result(mode: Arithmetic, space: AtomSpace, values, labels: tuple[int, ...]) -> Kernel:
    """An operator's result kernel: its values, computed from operands in
    ``mode``, are taken in that mode by ``Arithmetic.array`` instead of
    being read entry by entry; the shape and labels are checked as
    ``Kernel`` checks them."""
    f = object.__new__(Kernel)
    object.__setattr__(f, "space", space)
    object.__setattr__(f, "axis_labels", labels)
    f._settle(mode.array(values))
    return f


def constant_kernel(space: AtomSpace, value) -> Kernel:
    return Kernel(space, np.array(parse_scalar(value), dtype=object), ())


def indicator_kernel(space: AtomSpace, atom: int) -> Kernel:
    """The arity-1 kernel 1{x = atom}, labeled 1."""
    mode = mode_of(space)
    v = mode.zeros((space.n_atoms,))
    v[space.check_atom(atom)] = mode.one
    return Kernel(space, v, (1,))


def kernel_from_values(space: AtomSpace, values) -> Kernel:
    """Build a kernel, labeled 1..k, from nested lists of scalars ("p/q" ok)."""
    arr = np.asarray(values, dtype=object)
    return Kernel(space, np.frompyfunc(parse_scalar, 1, 1)(arr), tuple(range(1, arr.ndim + 1)))


# -- norms ------------------------------------------------------------------

def sup_norm(f: Kernel) -> Scalar:
    nums, d = f.numerators
    return mode_of(f).ratio(max(abs(x) for x in nums.flat), d)


def l1_norm(f: Kernel) -> Scalar:
    """Integral of |f| against the product measure."""
    nums, d = f.numerators
    return _full_contraction(mode_of(f), np.abs(nums.reshape(-1)), d, f)


def l2_norm_sq(f: Kernel) -> Scalar:
    """Integral of f^2 against the product measure; rational in exact mode."""
    nums, d = f.numerators
    return _full_contraction(mode_of(f), np.square(nums.reshape(-1)), d * d, f)


def l2_norm(f: Kernel) -> float:
    """The square root of l2_norm_sq, inf past float range."""
    sq = l2_norm_sq(f)
    return math.sqrt(float(sq)) if in_float_range(sq) else math.inf


def _full_contraction(mode: Arithmetic, flat: np.ndarray, d: int, f: Kernel) -> Scalar:
    """The integral of flat / d, f's values flattened row-major, against
    the product measure: contract the last axis with the weight numerators
    W / d_w until one entry is left, then divide by d d_w^k."""
    w, d_w = mode.form(f.space).numerators
    column = w.reshape(-1, 1)
    for _ in range(f.arity):
        flat = np.dot(flat.reshape(-1, len(w)), column).reshape(-1)
    return mode.ratio(flat[0], d * d_w**f.arity)


# -- operators --------------------------------------------------------------

def labeled_product(space: AtomSpace, factors: Iterable[tuple[Kernel, Sequence[int]]],
                    out: Sequence[int], integrate: Iterable[int] = ()) -> Kernel:
    """Multiply labeled kernels and contract them in one ``np.einsum``.

    Each factor is (kernel, labels), one integer label per axis.  Axes that
    share a label are the same argument; every label in ``integrate`` is
    integrated against the base measure; the result is a kernel whose axes
    follow ``out`` (strictly increasing).  Every label must be kept or
    integrated, once, and every factor must live on ``space``'s measure.
    The einsum runs on the operands' numerators in the joint mode; in exact
    mode each entry is divided once by their denominators.
    """
    factors = [(f, list(labels)) for f, labels in factors]
    integrate = list(integrate)
    if any(len(labels) != f.arity for f, labels in factors) or sorted(
            [*out, *integrate]) != sorted(set().union(*(labels for _, labels in factors))):
        raise ArityMismatch(f"one label per axis, kept {tuple(out)} or integrated {integrate} once")
    require_one_measure(space, *(f.space for f, _ in factors))
    mode = mode_of(space, *(f for f, _ in factors))
    nums, den = _einsum_numerators(mode, space, factors, out, integrate)
    values = nums if den == 1 else np.frompyfunc(Fraction, 2, 1)(nums, den)
    return _result(mode, space, values, tuple(out))


def _einsum_numerators(mode: Arithmetic, space: AtomSpace,
                       factors: Sequence[tuple[Kernel, Sequence[int]]], out: Sequence[int],
                       integrate: Sequence[int] = ()) -> tuple[np.ndarray, int]:
    """``labeled_product``'s einsum, undivided and unchecked: (N, d) with the
    product N / d, N the einsum of the operands' numerators in ``mode``, the
    joint mode, and d the product of their denominators (1 in float mode).
    The caller has checked the labels and that every operand lives on
    ``space``'s measure."""
    read = [(mode.form(f).numerators, labels) for f, labels in factors]
    read += [(mode.form(space).numerators, [j]) for j in integrate]
    nums = np.einsum(*[x for (n, _), labels in read for x in (n, labels)], list(out))
    return np.asarray(nums, dtype=mode.dtype), math.prod(d for (_, d), _ in read)


def tensor_product(f: Kernel, g: Kernel) -> Kernel:
    """f and g as functions of disjoint argument groups; g's labels are
    shifted past f's so the product carries f's labels then g's."""
    require_one_measure(f.space, g.space)
    shift = max(f.axis_labels, default=0)
    new_labels = f.axis_labels + tuple(j + shift for j in g.axis_labels)
    vals = np.multiply.outer(f.values, g.values)
    return Kernel(f.space, vals, new_labels)


def integrate_axis(f: Kernel, label: int) -> Kernel:
    """Integrate the argument with this label against the base measure."""
    pos = f.axis_position(label)
    vals = np.tensordot(f.values, f.space.weight_vector, axes=([pos], [0]))
    labels = f.axis_labels[:pos] + f.axis_labels[pos + 1:]
    return Kernel(f.space, vals, labels)


def center_axis(f: Kernel, label: int) -> Kernel:
    """Subtract the one-argument marginal: (I - P) along this axis."""
    pos = f.axis_position(label)
    marg = np.tensordot(f.values, f.space.weight_vector, axes=([pos], [0]))
    return Kernel(f.space, f.values - np.expand_dims(marg, pos), f.axis_labels)


def symmetrize(f: Kernel) -> Kernel:
    """Average over all permutations of the arguments."""
    k = f.arity
    if k <= 1:
        return f
    mode = mode_of(f)
    acc = mode.zeros(f.values.shape)
    for perm in itertools.permutations(range(k)):
        acc = acc + np.transpose(f.values, perm)
    return Kernel(f.space, acc * mode.inv_factorial(k), f.axis_labels)


def canonical_project(f: Kernel) -> Kernel:
    """Apply (I - P) along every axis; the result has vanishing marginals."""
    out = f
    for j in f.axis_labels:
        out = center_axis(out, j)
    return out


def is_canonical(f: Kernel) -> bool:
    """True when integrating out any single argument yields the zero kernel:
    every marginal of the numerators N against the weight numerators W is
    compared with the slack scaled by the denominator d d_w."""
    mode = mode_of(f)
    nums, d = f.numerators
    w, d_w = mode.form(f.space).numerators
    bound = mode.slack(FLOAT_TOL) * d * d_w
    return all(abs(x) <= bound for pos in range(f.arity)
               for x in np.tensordot(nums, w, axes=([pos], [0])).flat)


def require_canonical(f: Kernel):
    if not is_canonical(f):
        raise NotCanonical("kernel has a nonvanishing single-argument marginal")


# -- relabeling -------------------------------------------------------------

def compact_relabel(f: Kernel) -> Kernel:
    """Rename surviving labels to 1..arity, preserving their order."""
    return _result(mode_of(f), f.space, f.values, tuple(range(1, f.arity + 1)))


# -- generation and serialization ------------------------------------------

def random_kernel(space: AtomSpace, arity: int, rng: np.random.Generator,
                  max_den: int = 6) -> Kernel:
    """A random exact kernel with |values| <= 1 and denominators <= max_den."""
    shape = (space.n_atoms,) * arity
    out = np.empty(shape, dtype=object)
    for idx in np.ndindex(*shape) if arity else [()]:
        den = int(rng.integers(1, max_den + 1))
        num = int(rng.integers(-den, den + 1))
        out[idx] = Fraction(num, den)
    return Kernel(space, out, tuple(range(1, arity + 1)))


def kernel_to_json(f: Kernel) -> dict:
    """Wire form: arity plus the row-major flat value list."""
    flat = f.values.reshape(-1) if f.arity else f.values.reshape(1)
    return {"arity": f.arity, "values": [format_scalar(x) for x in flat]}


def kernel_from_json(space: AtomSpace, doc: dict) -> Kernel:
    """Read the wire form.  Raises MalformedInput for a doc that is not an
    object with an ``arity`` and a ``values`` list, an arity that is not an
    integer from 0 to MAX_ARITY, a value parse_scalar rejects or a value
    that is not finite or lies outside float range."""
    if not (isinstance(doc, dict) and "arity" in doc and isinstance(doc.get("values"), list)):
        raise MalformedInput(f"a kernel needs an 'arity' and a 'values' list, got {doc!r}")
    arity = doc["arity"]
    if isinstance(arity, bool) or not isinstance(arity, int) or not 0 <= arity <= MAX_ARITY:
        raise MalformedInput(f"kernel arity must be an integer from 0 to {MAX_ARITY}, "
                             f"got {arity!r}")
    vals = [parse_scalar(v) for v in doc["values"]]
    if not all(in_float_range(v) for v in vals):
        raise MalformedInput(f"kernel values must be finite and in float range, "
                             f"got {doc['values']!r}")
    want = space.n_atoms**arity
    if len(vals) != want:
        raise ArityMismatch(f"expected {want} values for arity {arity}, got {len(vals)}")
    return Kernel(space, np.array(vals, dtype=object).reshape((space.n_atoms,) * arity),
                  tuple(range(1, arity + 1)))
