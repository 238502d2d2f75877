import ast
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

import empint
from empint.kernels import random_kernel
from empint.errors import MalformedInput
from empint.scalars import EXACT, FLOAT, mode_of, parse_scalar
from empint.space import make_space, uniform_space


def test_mode_is_chosen_from_spaces_kernels_and_scalars():
    sp = uniform_space(2)
    assert mode_of(sp) is EXACT
    assert mode_of(make_space([0.5, 0.5])) is FLOAT
    f = random_kernel(sp, 2, np.random.default_rng(0))
    assert mode_of(f) is EXACT and mode_of(f.as_float()) is FLOAT
    assert mode_of(F(1, 2), 3) is EXACT
    assert mode_of(F(1, 2), 0.5) is FLOAT


def test_parse_scalar_kinds_and_rejects():
    assert parse_scalar("-1/3") == F(-1, 3) and type(parse_scalar(2)) is F
    assert parse_scalar(0.5) == 0.5 and type(parse_scalar(0.5)) is float
    for bad in ("abc", "1/0", "", True, None, [1]):
        with pytest.raises(MalformedInput):
            parse_scalar(bad)


def test_mode_constants_and_arrays():
    assert type(EXACT.zero) is F and EXACT.one == 1
    assert EXACT.inv(3) == F(1, 3) and type(EXACT.inv(3)) is F
    assert EXACT.inv_factorial(3) == F(1, 6)
    assert FLOAT.inv(4) == 0.25 and FLOAT.inv_factorial(3) == 1.0 / 6
    z = EXACT.zeros((2, 3))
    assert z.shape == (2, 3) and z.dtype == EXACT.dtype == object
    assert all(type(x) is F and x == 0 for x in z.flat)
    assert FLOAT.zeros(3).dtype == FLOAT.dtype == float
    assert EXACT.slack(1e-9) == 0 and FLOAT.slack(1e-9) == 1e-9


def test_numerators_over_one_denominator():
    values = np.array([[F(1, 2), F(-2, 3)], [F(0), F(5, 4)]], dtype=object)
    nums, d = EXACT.numerators(values)
    assert d == 12 and nums.shape == (2, 2)
    assert nums.tolist() == [[6, -8], [0, 15]] and all(type(x) is int for x in nums.flat)
    nums, d = EXACT.numerators(np.array(F(7, 3), dtype=object))
    assert (nums[()], d) == (7, 3)
    nums, d = FLOAT.numerators(values)
    assert d == 1 and nums.dtype == float and nums[1, 1] == 1.25


def test_mode_decisions_live_in_scalars():
    """No conditional expression outside scalars.py branches on exactness;
    such decisions go through the Arithmetic object."""
    offenders = []
    for path in sorted(Path(empint.__file__).parent.glob("*.py")):
        if path.name == "scalars.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.IfExp) and "exact" in ast.unparse(node.test):
                offenders.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    assert not offenders, offenders
