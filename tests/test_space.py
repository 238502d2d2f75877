import ast
import hashlib
import math
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import empint
from _oracle import replicate_generator
from _strategies import PROPERTY, json_values
from empint.errors import (EmpintError, EmptySpace, EnumerationTooLarge, MalformedInput,
                           NegativeSeed, NegativeWeight, NonfiniteWeight, WeightsNotNormalized)
from empint import space as space_mod
from empint.space import (Sample, draw_counts, draw_sample,
                          enumerate_counts, enumerate_samples, make_space, pcg64_state,
                          replicate_seeds, sample_from_counts, uniform_space)


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
    for empty in (lambda: make_space([]), lambda: uniform_space(0), lambda: uniform_space(-1)):
        with pytest.raises(EmptySpace):
            empty()
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
    for bad in ("1", b"\x01", 5, None):
        with pytest.raises(MalformedInput):
            make_space(bad)
    with pytest.raises(WeightsNotNormalized):
        make_space([10**400, 0.5])  # no float sum that overflows


@pytest.mark.parametrize("weights, total", [
    (["1/2", "1/3"], "5/6"), ([0.5, 0.5001], "1.0001"), (["1/2", 0.6], "1.1")])
def test_weights_not_normalized_message(weights, total):
    # the total prints in its own mode: a fraction when exact, a float repr otherwise
    with pytest.raises(WeightsNotNormalized) as info:
        make_space(weights)
    assert str(info.value) == f"weights sum to {total}, expected 1"


@PROPERTY
@given(weights=json_values() | st.lists(json_values() | st.sampled_from(["1/2", "1/3", 0.5]),
                                        max_size=4))
def test_make_space_returns_or_raises_typed_property(weights):
    try:
        sp = make_space(weights)
    except EmpintError:
        return
    assert sp.n_atoms == len(weights)


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


@pytest.mark.parametrize("points", [(0, 1.5), (0, "1"), (0, -1), (True, False),
                                    (0, np.True_)])
def test_sample_rejects_non_atoms(points):
    with pytest.raises(ValueError, match="out of range"):
        Sample(uniform_space(2), points)


def test_sample_counts_are_stored_at_construction():
    sp = uniform_space(3)
    assert Sample(sp, ()).counts == (0, 0, 0)
    assert "counts" in Sample.__dataclass_fields__  # a field, not a property


def test_only_space_reads_sample_points():
    """Statistics read a sample through its stored counts; walking the
    points again is left to space.py, which builds the counts."""
    offenders = []
    for path in sorted(Path(empint.__file__).parent.glob("*.py")):
        if path.name == "space.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr == "points":
                offenders.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    assert not offenders, offenders


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


def test_enumerate_counts_cap():
    # C(n + 2, 2) count vectors on three atoms: 496 at n = 30, about
    # 5 * 10^11 at n = 10^6, which the cap refuses before the first one
    sp = uniform_space(3)
    assert sum(1 for _ in enumerate_counts(sp, 30)) == math.comb(32, 2)
    with pytest.raises(EnumerationTooLarge):
        next(enumerate_counts(sp, 10**6))


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
    a = draw_sample(sp, 50, np.random.default_rng(99))
    b = draw_sample(sp, 50, np.random.default_rng(99))
    assert a.points == b.points
    c = draw_sample(sp, 50, np.random.default_rng(100))
    assert c.points != a.points


def test_child_streams_are_order_independent():
    # replicate 5 draws the same counts alone or as row 5 of a run
    sp = make_space(["1/4", "3/4"])
    run = draw_counts(sp, 40, 7, 8)
    assert np.array_equal(draw_counts(sp, 40, 7, 1, base_offset=5)[0], run[5])
    # sibling streams differ
    assert not np.array_equal(run[5], run[6])


def test_law_of_large_numbers_fixed_seed():
    sp = make_space(["1/4", "3/4"])
    s = draw_sample(sp, 100_000, np.random.default_rng(2718))
    freq = s.counts[0] / s.n
    # 4 sigma band around 1/4
    band = 4 * math.sqrt(0.25 * 0.75 / s.n)
    assert abs(freq - 0.25) < band


def test_space_as_float():
    sp = make_space(["1/3", "2/3"])
    spf = sp.as_float()
    assert not spf.exact
    assert spf.weights == (pytest.approx(1 / 3), pytest.approx(2 / 3))


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


@pytest.mark.parametrize("weights", [
    ["1/6", "1/3", "1/2"], ["1/10", "2/5", "0", "1/2"], [0.1] * 10 + [0.0],
    ["1/4", "3/4", "0", "0"], ["1"],
])
def test_draw_counts_rows_are_draw_sample_counts(weights):
    sp = make_space(weights)
    for n in (1, 7, 40):
        counts = draw_counts(sp, n, 31, 60, base_offset=5)
        assert counts.shape == (60, sp.n_atoms)
        for r, row in enumerate(counts):
            assert tuple(row.tolist()) == draw_sample(sp, n, replicate_generator(31, 5 + r)).counts


def test_draw_counts_do_not_depend_on_the_chunk_size(monkeypatch):
    sp = make_space(["1/10", "2/5", "0", "1/2"])
    whole = draw_counts(sp, 20, 4, 50)
    monkeypatch.setattr(space_mod, "_CHUNK_UNIFORMS", 3 * 20)  # three rows a chunk
    assert np.array_equal(draw_counts(sp, 20, 4, 50), whole)


def _numpy_seed(seed, key):
    ss = np.random.SeedSequence(seed, spawn_key=(key,))
    return ss.generate_state(4, np.uint64), np.random.PCG64(ss).state


def _port_uniforms(seed_words, n):
    bitgen = np.random.PCG64(0)
    bitgen.state = pcg64_state(seed_words)
    return np.random.Generator(bitgen).random(n)


# seeds and keys of one to five uint32 words, and the edges between them
PIN_SEEDS = (0, 11, 12345, 2**32 - 1, 2**32, 2**40 + 7, 2**130)
PIN_KEYS = (*range(300), 10**9 + 5, 2 * 10**9 + 7, 2**32 - 1, 2**32, 2**40)


@pytest.mark.parametrize("seed", PIN_SEEDS)
def test_replicate_seeds_match_numpy(seed):
    """The batch port against numpy's own SeedSequence, PCG64 and uniforms;
    a numpy release that changed any of them fails here."""
    words = replicate_seeds(seed, PIN_KEYS)
    assert words.shape == (len(PIN_KEYS), 4) and words.dtype == np.uint64
    for key, row in zip(PIN_KEYS, words):
        want_words, want_state = _numpy_seed(seed, key)
        assert np.array_equal(row, want_words)
        assert pcg64_state(row.tolist()) == want_state
    for key, row in list(zip(PIN_KEYS, words))[::25]:
        want = replicate_generator(seed, key).random(17)
        assert np.array_equal(_port_uniforms(row.tolist(), 17), want)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**160), keys=st.lists(st.integers(0, 2**70), min_size=1, max_size=8))
def test_replicate_seeds_property(seed, keys):
    for key, row in zip(keys, replicate_seeds(seed, keys)):
        want_words, want_state = _numpy_seed(seed, key)
        assert np.array_equal(row, want_words)
        assert pcg64_state(row.tolist()) == want_state


def test_draw_counts_across_the_two_word_key_boundary():
    # a three-word seed, and keys from one uint32 word to two
    seed = 2**64 + 7
    sp = make_space(["1/4", "0", "3/4"])
    counts = draw_counts(sp, 9, seed, 6, base_offset=2**32 - 3)
    for r, row in enumerate(counts):
        want = draw_sample(sp, 9, replicate_generator(seed, 2**32 - 3 + r)).counts
        assert tuple(row.tolist()) == want


# sha256 of the int64 counts, recorded before seeds became plain integers;
# numpy's SeedSequence, PCG64 and random() must give these bytes on every
# numpy the package supports
@pytest.mark.parametrize("weights, n, seed, replicates, base_offset, digest", [
    (["1/6", "1/3", "1/2"], 40, 12345, 200, 0,
     "4724c38f373f3bea536f575f9c77c1b6562f03cede6e7a701f9b5e3b89ef2581"),
    ([0.1] * 10 + [0.0], 300, 2**70 + 3, 50, 10**9,
     "15e271250b7e9f195384c514b15e685b5c47296f8938a4e9dce80d1f4b1136a7"),
    (["1/4", "0", "3/4"], 9, 2**64 + 7, 6, 2**32 - 3,
     "e3c8d94150dc744d3e398772d27288a5591b6e2fc2dc5b4d1a5af56f8844dab7"),
], ids=["small-seed", "float-weights", "key-boundary"])
def test_draw_counts_bytes_are_pinned(weights, n, seed, replicates, base_offset, digest):
    counts = draw_counts(make_space(weights), n, seed, replicates, base_offset)
    assert hashlib.sha256(counts.astype("<i8").tobytes()).hexdigest() == digest


def test_negative_seed_is_a_typed_error():
    with pytest.raises(NegativeSeed):
        replicate_seeds(-1, [0])
    for seed, base_offset in ((-1, 0), (3, -1)):
        with pytest.raises(NegativeSeed):
            draw_counts(uniform_space(2), 4, seed, 5, base_offset)


def test_weight_vector_is_cached_and_read_only():
    sp = make_space(["1/3", "2/3"])
    w = sp.weight_vector
    assert w is sp.weight_vector and sp.exact is True
    with pytest.raises(ValueError):
        w[0] = F(1)


def test_enumerate_counts_probabilities_are_exact():
    sp = make_space(["1/3", "2/3", "0"])
    listed = list(enumerate_counts(sp, 4))
    assert len(listed) == 15 and sum(w for _, w in listed) == 1
    assert all(type(w) is F for _, w in listed)
    assert dict(listed)[(1, 3, 0)] == 4 * F(1, 3) * F(2, 3) ** 3
    assert dict(listed)[(0, 3, 1)] == 0
