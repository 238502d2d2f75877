import math
from fractions import Fraction as F

import numpy as np
import pytest

from empint.errors import (EmptySpace, EnumerationTooLarge, NegativeWeight, NonfiniteWeight,
                           WeightsNotNormalized)
from empint.space import (AtomSpace, RandomSource, Sample, draw_sample,
                          enumerate_counts, enumerate_samples, make_space,
                          sample_from_counts, uniform_space)


def test_make_space_exact():
    sp = make_space(["1/3", "2/3"])
    assert sp.exact
    assert sp.weights == (F(1, 3), F(2, 3))
    assert sp.n_atoms == 2


def test_make_space_float_mode():
    sp = make_space([0.25, 0.75])
    assert not sp.exact
    assert sp.weight_vector.dtype == float


def test_make_space_errors():
    with pytest.raises(EmptySpace):
        make_space([])
    with pytest.raises(NegativeWeight):
        make_space(["-1/2", "3/2"])
    with pytest.raises(WeightsNotNormalized):
        make_space(["1/2", "1/3"])
    with pytest.raises(WeightsNotNormalized):
        make_space([0.5, 0.5001])
    for bad in ([math.nan, 0.5], [math.inf, 0.5], [0.5, -math.inf, 0.5]):
        with pytest.raises(NonfiniteWeight):
            make_space(bad)
    # tiny float slack is accepted
    make_space([0.5, 0.5 + 1e-14])


def test_uniform_space():
    sp = uniform_space(4)
    assert sum(sp.weights) == 1
    assert sp.exact


def test_sample_validation():
    sp = uniform_space(2)
    with pytest.raises(ValueError):
        Sample(sp, (0, 2))
    s = Sample(sp, (0, 1, 1, 0, 1))
    assert s.n == 5
    assert s.counts == (2, 3)


def test_enumerate_samples_weights_sum_to_one():
    for A in (2, 3, 4):
        for n in (1, 3, 5):
            sp = uniform_space(A)
            pairs = list(enumerate_samples(sp, n))
            assert len(pairs) == A**n
            assert sum(w for _, w in pairs) == 1


def test_enumerate_samples_cap():
    with pytest.raises(EnumerationTooLarge):
        list(enumerate_samples(uniform_space(10), 7))


def test_enumerate_counts_matches_sample_grouping():
    sp = make_space(["1/6", "1/3", "1/2"])
    n = 4
    by_counts = {}
    for s, w in enumerate_samples(sp, n):
        by_counts[s.counts] = by_counts.get(s.counts, F(0)) + w
    listed = dict(enumerate_counts(sp, n))
    assert listed == by_counts
    assert sum(listed.values()) == 1


def test_sample_from_counts():
    sp = uniform_space(3)
    s = sample_from_counts(sp, (2, 0, 1))
    assert s.counts == (2, 0, 1)
    assert s.n == 3


def test_draw_sample_deterministic():
    sp = make_space(["1/4", "3/4"])
    a = draw_sample(sp, 50, RandomSource(99))
    b = draw_sample(sp, 50, RandomSource(99))
    assert a.points == b.points
    c = draw_sample(sp, 50, RandomSource(100))
    assert c.points != a.points


def test_child_streams_are_order_independent():
    root = RandomSource(7)
    direct = root.child(5).generator().random(3)
    again = RandomSource(7).child(5).generator().random(3)
    assert np.array_equal(direct, again)
    # sibling streams differ
    other = root.child(6).generator().random(3)
    assert not np.array_equal(direct, other)


def test_law_of_large_numbers_fixed_seed():
    sp = make_space(["1/4", "3/4"])
    s = draw_sample(sp, 100_000, RandomSource(2718))
    freq = s.counts[0] / s.n
    # 4 sigma band around 1/4
    band = 4 * math.sqrt(0.25 * 0.75 / s.n)
    assert abs(freq - 0.25) < band


def test_space_as_float():
    sp = make_space(["1/3", "2/3"])
    spf = sp.as_float()
    assert not spf.exact
    assert spf.weights == (pytest.approx(1 / 3), pytest.approx(2 / 3))


def test_labels_default_and_custom():
    sp = AtomSpace((F(1, 2), F(1, 2)), ("heads", "tails"))
    assert sp.labels == ("heads", "tails")
    assert uniform_space(2).labels == ("a0", "a1")


class _FixedUniforms:
    """A stand-in generator that returns the given uniforms."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=float)

    def random(self, n):
        return self.u[:n]


def test_draw_sample_never_draws_trailing_zero_weight_atom():
    sp = make_space([0.1] * 10 + [0.0])
    u = np.nextafter(1.0, 0.0)
    assert np.cumsum([0.1] * 10)[-1] <= u  # the float cumsum ends below one
    s = draw_sample(sp, 2, _FixedUniforms([u, 0.0]))
    assert s.points == (9, 0)
