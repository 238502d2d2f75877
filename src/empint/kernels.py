"""Kernels: functions of several atom-valued arguments, as dense tensors.

A kernel of arity k on a space with A atoms is stored as an (A, ..., A)
tensor, one axis per argument.  Axes carry integer *labels* (strictly
increasing, by convention 1..k for standalone kernels); labels, not
positions, identify arguments across contraction steps, so an operation
that drops an argument leaves the remaining labels untouched.

Diagram contractions and certificate factor products are single calls to
``labeled_product``, which hands the integer labels to ``np.einsum`` as
subscripts; ``tensor_product``, ``substitute_axis`` and ``integrate_axis``
remain as the step-by-step operators.

Exact-mode kernels hold Fractions in an object-dtype array and every
operation below is closed over the rationals.  The operators that return
a kernel work on those Fractions.  The norms and ``is_canonical``, which
end in a scalar or a verdict, read the values as Python-int numerators
over one common denominator (``Arithmetic.numerators``) and divide or
compare once at the end.  Float-mode kernels use IEEE doubles with the
same code paths, over a denominator of 1.  A kernel's values are
read-only, so results memoized on a kernel can never go stale.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .errors import (ArityMismatch, MalformedInput, NoSuchAxis, NotCanonical, SameAxis,
                     SpaceMismatch)
from .scalars import FLOAT_TOL, Arithmetic, Scalar, format_scalar, mode_of, parse_scalar
from .space import AtomSpace

__all__ = [
    "Kernel", "constant_kernel", "indicator_kernel", "kernel_from_values",
    "sup_norm", "l1_norm", "l2_norm_sq", "l2_norm",
    "labeled_product", "tensor_product", "integrate_axis", "substitute_axis", "center_axis",
    "symmetrize", "canonical_project", "is_canonical", "require_canonical",
    "compact_relabel", "random_kernel", "kernel_to_json",
    "kernel_from_json",
]


@dataclass(frozen=True, eq=False)
class Kernel:
    """A dense kernel.  Identity-hashable so evaluators can memoize on it."""

    space: AtomSpace
    values: np.ndarray
    axis_labels: tuple[int, ...]

    def __post_init__(self):
        v = np.asarray(self.values).view()
        v.flags.writeable = False
        object.__setattr__(self, "values", v)
        if v.ndim != len(self.axis_labels):
            raise ArityMismatch(f"{v.ndim} tensor axes for {len(self.axis_labels)} labels")
        if any(d != self.space.n_atoms for d in v.shape):
            raise ArityMismatch(f"tensor shape {v.shape} does not match {self.space.n_atoms} atoms")
        if list(self.axis_labels) != sorted(set(self.axis_labels)):
            raise ValueError(f"axis labels must be strictly increasing, got {self.axis_labels}")

    @property
    def arity(self) -> int:
        return len(self.axis_labels)

    @property
    def exact(self) -> bool:
        return self.values.dtype == object and self.space.exact

    def axis_position(self, label: int) -> int:
        try:
            return self.axis_labels.index(label)
        except ValueError:
            raise NoSuchAxis(f"no axis labeled {label} in {self.axis_labels}") from None

    def value_at(self, atoms: tuple[int, ...]) -> Scalar:
        if len(atoms) != self.arity:
            raise ArityMismatch(f"{len(atoms)} arguments for arity {self.arity}")
        return self.values[atoms] if atoms else self.values[()]

    def scale(self, c: Scalar) -> "Kernel":
        return Kernel(self.space, self.values * c, self.axis_labels)

    def add(self, other: "Kernel") -> "Kernel":
        _check_same_frame(self, other)
        return Kernel(self.space, self.values + other.values, self.axis_labels)

    def abs(self) -> "Kernel":
        return Kernel(self.space, np.abs(self.values), self.axis_labels)

    def as_float(self) -> "Kernel":
        if not self.exact:
            return self
        return Kernel(self.space.as_float(), self.values.astype(float), self.axis_labels)


def _check_same_frame(f: Kernel, g: Kernel):
    if f.space != g.space:
        raise SpaceMismatch("kernels live on different spaces")
    if f.axis_labels != g.axis_labels:
        raise ArityMismatch(f"axis labels differ: {f.axis_labels} vs {g.axis_labels}")


def _from_flat(space: AtomSpace, flat: list, shape, labels: tuple[int, ...]) -> Kernel:
    """A kernel from row-major parsed scalars: exact only when the space and
    every value are."""
    mode = mode_of(space, *flat)
    vals = np.array([mode.cast(x) for x in flat], dtype=mode.dtype).reshape(shape)
    return Kernel(space, vals, labels)


def constant_kernel(space: AtomSpace, value) -> Kernel:
    return _from_flat(space, [parse_scalar(value)], (), ())


def indicator_kernel(space: AtomSpace, atom: int, label: int = 1) -> Kernel:
    """The arity-1 kernel 1{x = atom}."""
    mode = mode_of(space)
    v = mode.zeros((space.n_atoms,))
    v[atom] = mode.one
    return Kernel(space, v, (label,))


def kernel_from_values(space: AtomSpace, values, labels: tuple[int, ...] | None = None) -> Kernel:
    """Build a kernel from a nested list / array of scalars ("p/q" ok)."""
    arr = np.asarray(values, dtype=object)
    if labels is None:
        labels = tuple(range(1, arr.ndim + 1))
    return _from_flat(space, [parse_scalar(x) for x in arr.flat], arr.shape, labels)


# -- norms ------------------------------------------------------------------

def sup_norm(f: Kernel) -> Scalar:
    mode = mode_of(f)
    nums, d = mode.numerators(f.values)
    return mode.ratio(max(abs(x) for x in nums.flat), d)


def l1_norm(f: Kernel) -> Scalar:
    """Integral of |f| against the product measure."""
    mode = mode_of(f)
    nums, d = mode.numerators(f.values)
    return _full_contraction(mode, np.abs(nums.reshape(-1)), d, f)


def l2_norm_sq(f: Kernel) -> Scalar:
    """Integral of f^2 against the product measure; rational in exact mode."""
    mode = mode_of(f)
    nums, d = mode.numerators(f.values)
    flat = nums.reshape(-1)
    return _full_contraction(mode, flat * flat, d * d, f)


def l2_norm(f: Kernel) -> float:
    return math.sqrt(float(l2_norm_sq(f)))


def _full_contraction(mode: Arithmetic, flat: np.ndarray, d: int, f: Kernel) -> Scalar:
    """The integral of flat / d, f's values flattened row-major, against
    the product measure: contract the last axis with the weight numerators
    W / d_w until one entry is left, then divide by d d_w^k."""
    w, d_w = mode.numerators(f.space.weight_vector)
    column = w.reshape(-1, 1)
    for _ in range(f.arity):
        flat = np.dot(flat.reshape(-1, len(w)), column).reshape(-1)
    return mode.ratio(flat[0], d * d_w**f.arity)


# -- operators --------------------------------------------------------------

def labeled_product(space: AtomSpace, factors: Iterable[tuple[np.ndarray, Sequence[int]]],
                    out: Sequence[int], integrate: Iterable[int] = ()) -> Kernel:
    """Multiply labeled tensors and contract them in one ``np.einsum``.

    Each factor is (values, labels), one integer label per axis.  Axes that
    share a label are the same argument; every label in ``integrate`` is
    integrated against the base measure; the result is a kernel whose axes
    follow ``out`` (strictly increasing).  Every label must be kept or
    integrated.
    """
    factors = [(values, list(labels)) for values, labels in factors]
    integrate = list(integrate)
    if set().union(*(labels for _, labels in factors)) != set(out) | set(integrate):
        raise ArityMismatch(f"every label must be kept {tuple(out)} or integrated {integrate}")
    args = [x for pair in factors + [(space.weight_vector, [j]) for j in integrate] for x in pair]
    # a full contraction comes back as a bare scalar; keep the operands' dtype
    # so a Python int does not turn into an int64
    dtype = np.result_type(*args[::2])
    return Kernel(space, np.asarray(np.einsum(*args, list(out)), dtype=dtype), tuple(out))


def tensor_product(f: Kernel, g: Kernel) -> Kernel:
    """f and g as functions of disjoint argument groups; g's labels are
    shifted past f's so the product carries f's labels then g's."""
    if f.space != g.space:
        raise SpaceMismatch("kernels live on different spaces")
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


def substitute_axis(f: Kernel, keep: int, drop: int) -> Kernel:
    """Identify the 'drop' argument with the 'keep' argument (diagonal
    restriction); the result no longer depends on 'drop'."""
    if keep == drop:
        raise SameAxis(f"substitute needs two distinct axes, got {keep}")
    pk, pd = f.axis_position(keep), f.axis_position(drop)
    diag = np.diagonal(f.values, 0, pk, pd)
    labels = tuple(j for j in f.axis_labels if j != drop)
    new_pos = labels.index(keep)
    vals = np.moveaxis(diag, -1, new_pos)
    return Kernel(f.space, np.ascontiguousarray(vals), labels)


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


def is_canonical(f: Kernel, tol: float = FLOAT_TOL) -> bool:
    """True when integrating out any single argument yields the zero kernel:
    every marginal of the numerators N against the weight numerators W is
    compared with the slack scaled by the denominator d d_w."""
    mode = mode_of(f)
    nums, d = mode.numerators(f.values)
    w, d_w = mode.numerators(f.space.weight_vector)
    bound = mode.slack(tol) * d * d_w
    return all(abs(x) <= bound for pos in range(f.arity)
               for x in np.tensordot(nums, w, axes=([pos], [0])).flat)


def require_canonical(f: Kernel, tol: float = FLOAT_TOL):
    if not is_canonical(f, tol):
        raise NotCanonical("kernel has a nonvanishing single-argument marginal")


# -- relabeling -------------------------------------------------------------

def compact_relabel(f: Kernel) -> Kernel:
    """Rename surviving labels to 1..arity, preserving their order."""
    return Kernel(f.space, f.values, tuple(range(1, f.arity + 1)))


# -- generation and serialization ------------------------------------------

def random_kernel(space: AtomSpace, arity: int, rng: np.random.Generator,
                  max_den: int = 6, bound: Scalar = Fraction(1)) -> Kernel:
    """A random exact kernel with |values| <= bound and denominators <= max_den."""
    shape = (space.n_atoms,) * arity
    out = np.empty(shape, dtype=object)
    b = Fraction(bound)
    for idx in np.ndindex(*shape) if arity else [()]:
        den = int(rng.integers(1, max_den + 1))
        num = int(rng.integers(-den, den + 1))
        out[idx] = b * Fraction(num, den)
    return Kernel(space, out, tuple(range(1, arity + 1)))


def kernel_to_json(f: Kernel) -> dict:
    """Wire form: arity plus the row-major flat value list."""
    flat = f.values.reshape(-1) if f.arity else f.values.reshape(1)
    return {"arity": f.arity, "values": [format_scalar(x) for x in flat]}


def kernel_from_json(space: AtomSpace, doc: dict) -> Kernel:
    """Read the wire form.  Raises MalformedInput for an arity that is not a
    non-negative integer, a value parse_scalar rejects or a value that is
    not finite."""
    arity = doc["arity"]
    if isinstance(arity, bool) or not isinstance(arity, int) or arity < 0:
        raise MalformedInput(f"kernel arity must be a non-negative integer, got {arity!r}")
    vals = [parse_scalar(v) for v in doc["values"]]
    if not all(math.isfinite(v) for v in vals):
        raise MalformedInput(f"kernel values must be finite, got {doc['values']!r}")
    want = space.n_atoms**arity
    if len(vals) != want:
        raise ArityMismatch(f"expected {want} values for arity {arity}, got {len(vals)}")
    return _from_flat(space, vals, (space.n_atoms,) * arity, tuple(range(1, arity + 1)))
