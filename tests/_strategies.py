"""Hypothesis strategies shared by the property tests: small exact spaces,
kernels on them and samples from them."""
from fractions import Fraction as F

import numpy as np
from hypothesis import settings, strategies as st

from empint.kernels import kernel_from_values
from empint.space import Sample, make_space


@st.composite
def exact_spaces(draw):
    """Exact spaces of 1-4 atoms; with two or more atoms, one may weigh zero."""
    parts = draw(st.lists(st.integers(1, 5), min_size=1, max_size=4))
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


PROPERTY = settings(derandomize=True, max_examples=150, deadline=None)
