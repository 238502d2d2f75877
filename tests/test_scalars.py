import ast
import re
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

import empint
from empint.diagrams import ColoredDiagram, contract
from empint.dominance import (DominanceCertificate, collapse_certificate, contract_certificate,
                              verify_certificate)
from empint.errors import MalformedInput, SpaceMismatch
from empint.integrals import eval_integral, eval_ustat
from empint.kernels import kernel_from_values, labeled_product, random_kernel, tensor_product
from empint.scalars import EXACT, FLOAT, mode_of, parse_scalar, require_one_measure
from empint.space import Sample, make_space, uniform_space


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


def _cert(space, values, sigma_sq=F(1, 2)):
    return DominanceCertificate(sigma_sq, (kernel_from_values(space, values),))


# Each entry point combines objects on measure a with objects on measure b.
COMBINE = {
    "Kernel.add": lambda a, b: kernel_from_values(a, ["1", "0"]).add(
        kernel_from_values(b, ["0", "1"])),
    "tensor_product": lambda a, b: tensor_product(kernel_from_values(a, ["1", "0"]),
                                                  kernel_from_values(b, ["0", "1"])),
    "contract": lambda a, b: contract(kernel_from_values(a, ["1", "0"]),
                                      kernel_from_values(b, ["1", "3"]),
                                      ColoredDiagram(1, 1, ((1, 2),), {1})),
    # [1, 3] on (1/2, 1/2) integrated against (1/4, 3/4) would read 5/2
    "labeled_product": lambda a, b: labeled_product(
        a, [(kernel_from_values(b, ["1", "3"]), [1])], [], [1]),
    "eval_integral": lambda a, b: eval_integral(kernel_from_values(a, ["1", "3"]),
                                                Sample(b, (0, 1, 1))),
    "eval_ustat": lambda a, b: eval_ustat(kernel_from_values(a, ["1", "3"]),
                                          Sample(b, (0, 1, 1))),
    # f on b, sigma^2 = 1/3 and the factor [1, 0] on a: with a = (1/3, 2/3)
    # and b = (1/3 + 10^-30, 2/3 - 10^-30), the factor's L2^2 on f's measure
    # exceeds sigma^2
    "verify_certificate": lambda a, b: verify_certificate(kernel_from_values(b, ["1", "0"]),
                                                          _cert(a, ["1", "0"], F(1, 3))),
    "contract_certificate": lambda a, b: contract_certificate(
        _cert(a, ["1", "1/2"]), _cert(b, ["1/2", "1"]), ColoredDiagram(1, 1, ((1, 2),), {1})),
    "collapse_certificate": lambda a, b: collapse_certificate(
        kernel_from_values(a, ["1/4", "0"]), _cert(a, ["1", "1/2"]), _cert(b, ["1/2", "1"])),
}

THIRDS = make_space(["1/3", "2/3"])
NEAR_THIRDS = make_space([F(1, 3) + F(1, 10**30), F(2, 3) - F(1, 10**30)])
MEASURES = {
    "another measure": (make_space(["1/4", "3/4"]), make_space(["1/2", "1/2"]), True),
    "own float form": (THIRDS, THIRDS.as_float(), False),
    "equal float forms": (THIRDS, NEAR_THIRDS, True),
}


@pytest.mark.parametrize("case", MEASURES)
@pytest.mark.parametrize("entry", COMBINE)
def test_one_measure_rule_at_every_entry_point(entry, case):
    a, b, raises = MEASURES[case]
    assert NEAR_THIRDS.as_float() == THIRDS.as_float()
    for x, y in ((a, b), (b, a)):
        if raises:
            with pytest.raises(SpaceMismatch):
                COMBINE[entry](x, y)
        else:
            COMBINE[entry](x, y)


def test_one_measure_rule():
    require_one_measure(THIRDS, make_space(["1/3", "2/3"]), THIRDS.as_float())
    # equal spaces build no float form
    fresh = make_space(["1/3", "2/3"])
    require_one_measure(fresh, make_space(["1/3", "2/3"]))
    assert "_float_form" not in vars(fresh)
    for spaces in ((THIRDS, NEAR_THIRDS.as_float(), NEAR_THIRDS),
                   (THIRDS.as_float(), make_space([0.25, 0.75]))):
        with pytest.raises(SpaceMismatch):
            require_one_measure(*spaces)


def test_float_form_and_numerators_are_read_once():
    """The one read: a kernel or space in the computation's mode is the
    object itself when exact and its float form otherwise, and a kernel's or
    a space's float form is one cached object."""
    f = random_kernel(THIRDS, 2, np.random.default_rng(1))
    assert EXACT.form(f) is f and EXACT.form(THIRDS) is THIRDS
    assert FLOAT.form(f) is f.as_float() is f.as_float()
    assert FLOAT.form(f).numerators is f.as_float().numerators
    assert FLOAT.form(THIRDS) is THIRDS.as_float() is THIRDS.as_float()
    assert FLOAT.form(THIRDS).numerators is THIRDS.as_float().numerators
    assert FLOAT.form(f).space is THIRDS.as_float() and not FLOAT.form(f).exact
    g = f.as_float()
    assert FLOAT.form(g) is g and FLOAT.form(g.space) is g.space


def _calls_numerators_outside_cached_properties(tree) -> list:
    """Calls of ``X.numerators(...)``, the Arithmetic field, other than in
    the ``numerators`` cached properties of ``Kernel`` and ``AtomSpace``."""
    allowed = {id(node) for cls in ast.walk(tree)
               if isinstance(cls, ast.ClassDef) and cls.name in ("Kernel", "AtomSpace")
               for fn in cls.body if isinstance(fn, ast.FunctionDef) and fn.name == "numerators"
               and any(ast.unparse(d) == "cached_property" for d in fn.decorator_list)
               for node in ast.walk(fn)}
    return [node for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "numerators" and id(node) not in allowed]


def _compares_spaces(tree) -> list:
    """Comparisons with ``==`` or ``!=`` of an operand read as ``x.space``."""
    return [node for node in ast.walk(tree) if isinstance(node, ast.Compare)
            and any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops)
            and any(isinstance(x, ast.Attribute) and x.attr == "space"
                    for x in (node.left, *node.comparators))]


def test_reads_and_measure_checks_live_in_scalars():
    """Outside scalars.py only the ``Kernel`` and ``AtomSpace`` cached
    properties call ``Arithmetic.numerators``; every other read takes an
    object's cached ``numerators`` through ``Arithmetic.form``.  No module
    compares ``.space`` objects with ``==`` or ``!=``: spaces combine
    through ``require_one_measure``."""
    offenders = []
    for path in sorted(Path(empint.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        found = _compares_spaces(tree)
        if path.name != "scalars.py":
            found += _calls_numerators_outside_cached_properties(tree)
        offenders += [f"{path.name}:{node.lineno}: {ast.unparse(node)}" for node in found]
    assert not offenders, offenders
