import ast
import re
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
    """No conditional expression or if statement outside scalars.py
    branches on exactness, and no code there tests a scalar's type with
    ``isinstance(..., float | Fraction | Rational)``; such decisions go
    through the Arithmetic object.  The tests allowed are the early return
    of ``as_float`` on a space or kernel that is already float, and the
    JSON-type test of ``cli._check``, which reads a config, not a mode."""
    scalar_types = re.compile(r"\b(float|Fraction|Rational)\b")
    offenders = []
    for path in sorted(Path(empint.__file__).parent.glob("*.py")):
        if path.name == "scalars.py":
            continue
        tree = ast.parse(path.read_text())
        allowed = {id(node.body[0]) for node in ast.walk(tree)
                   if isinstance(node, ast.FunctionDef) and node.name == "as_float"
                   and isinstance(node.body[0], ast.If)
                   and ast.unparse(node.body[0].test) == "not self.exact"}
        if path.name == "cli.py":
            allowed |= {id(node) for fn in ast.walk(tree)
                        if isinstance(fn, ast.FunctionDef) and fn.name == "_check"
                        for node in ast.walk(fn)}
        for node in ast.walk(tree):
            if id(node) in allowed:
                continue
            if isinstance(node, (ast.IfExp, ast.If)) and "exact" in ast.unparse(node.test):
                offenders.append(f"{path.name}:{node.lineno}: {ast.unparse(node.test)}")
            if isinstance(node, ast.Call) and ast.unparse(node.func) == "isinstance" \
                    and len(node.args) == 2 and scalar_types.search(ast.unparse(node.args[1])):
                offenders.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    assert not offenders, offenders
