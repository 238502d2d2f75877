"""Hypothesis strategies shared by the property tests: small exact spaces,
kernels on them, samples from them and arbitrary JSON values."""
from fractions import Fraction as F

import numpy as np
from hypothesis import settings, strategies as st

from empint.kernels import kernel_from_values
from empint.space import Sample, make_space


@st.composite
def exact_spaces(draw, max_atoms=4):
    """Exact spaces of 1 to max_atoms atoms; with two or more atoms, one may
    weigh zero."""
    parts = draw(st.lists(st.integers(1, 5), min_size=1, max_size=max_atoms))
    if len(parts) > 1 and draw(st.booleans()):
        parts[draw(st.integers(0, len(parts) - 1))] = 0
    return make_space([F(p, sum(parts)) for p in parts])


def exact_kernels(sp, arity):
    entries = st.builds(F, st.integers(-6, 6), st.integers(1, 6))
    return st.lists(entries, min_size=sp.n_atoms**arity, max_size=sp.n_atoms**arity).map(
        lambda vals: kernel_from_values(sp, np.array(vals, dtype=object).reshape((sp.n_atoms,) * arity)))


def samples_of(sp, n):
    return st.lists(st.integers(0, sp.n_atoms - 1), min_size=n, max_size=n).map(
        lambda pts: Sample(sp, tuple(pts)))


def json_values(floats=st.floats()):
    """Any JSON value: strings, booleans, floats drawn from ``floats``, null,
    ints up to 50 (negative ones included), ints past int64, and lists and
    objects of them.  Strings and object keys are often names the config
    readers look for, so valid values turn up too."""
    names = st.sampled_from(["weights", "arity", "values", "exact", "ustat", "norms", "1/2"])
    leaves = (names | st.text(max_size=6) | st.booleans() | floats | st.none()
              | st.integers(max_value=50) | st.integers(min_value=2**63))
    return leaves | st.recursive(leaves, lambda inner: st.lists(inner, max_size=4)
                                 | st.dictionaries(names | st.text(max_size=6), inner, max_size=3),
                                 max_leaves=8)


PROPERTY = settings(derandomize=True, max_examples=150, deadline=None)
