import json
import os
import re
import sys
from fractions import Fraction as F

import numpy as np
import pytest

import _oracle
from empint import bounds, cli, combinatorics, diagrams, dominance, kernels
from empint.space import make_space
from empint.verify import (_LONGEST_FIRST, RECURSION_WEIGHTS, SUITES, SuiteResult,
                           _wrong_certificates, run_all, run_suite_constants,
                           run_suite_diagram, run_suite_dominance,
                           run_suite_expectation, run_suite_moments,
                           run_suite_norms)


def test_suite_result_bookkeeping():
    r = SuiteResult("demo", 42)
    r.record(True, 0.0, "fine")
    r.record(False, 0.5, "off")
    assert r.checks == 2 and r.failures == 1
    assert r.worst == 0.5
    assert r.passed is False
    d = r.as_dict()
    assert d["suite"] == "demo" and d["failures"] == 1
    assert d["status"] == "fail"


@pytest.mark.parametrize("runner,name", [
    (run_suite_diagram, "diagram"),
    (run_suite_expectation, "expectation"),
    (run_suite_norms, "norms"),
    (run_suite_moments, "moments"),
    (run_suite_dominance, "dominance"),
    (run_suite_constants, "constants"),
])
def test_each_suite_passes(runner, name):
    [res] = run_all(2024, [name], workers=1)
    assert res.name == name
    assert SUITES[name] == (res.exit_code, runner)
    assert res.failures == 0, res.notes[:5]
    assert res.checks > 0


def test_run_all_selection():
    sel = run_all(seed=2024, suites=["diagram", "constants"])
    assert [r.name for r in sel] == ["diagram", "constants"]
    with pytest.raises(ValueError):
        run_all(seed=2024, suites=["nonsense"])


@pytest.mark.parametrize("seed, suites", [
    (2024, None), (12345, None), (2024, ["constants", "dominance", "norms", "diagram"]),
])
def test_run_all_independent_of_workers(seed, suites):
    serial = run_all(seed, suites, workers=1)
    pooled = run_all(seed, suites, workers=2)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)  # every child was reaped
    assert [r.name for r in pooled] == (suites or list(SUITES))
    assert [r.as_dict() for r in serial] == [r.as_dict() for r in pooled]


def test_run_all_without_fork(monkeypatch):
    monkeypatch.delattr(os, "fork")
    one = run_all(2024, None, 1)
    assert [r.as_dict() for r in run_all(2024, None, 6)] == [r.as_dict() for r in one]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)  # no child was left behind


def test_one_worker_runs_every_suite_then_raises_the_first_error_in_requested_order(
        monkeypatch, tmp_path, capsys):
    ran = []
    for name in ("norms", "dominance"):  # dominance is claimed first, norms asked for first
        def suite(res, rng, name=name):
            ran.append(name)
            raise RuntimeError(f"{name} failed")
        monkeypatch.setitem(SUITES, name, (SUITES[name][0], suite))
    asked = ["constants", "norms", "dominance"]
    constants, norms, dominance = run_all(2024, asked, workers=1)
    assert ran == ["dominance", "norms"]
    assert constants.passed and constants.error is None
    for res in (norms, dominance):
        assert (res.checks, res.failures, res.error) == (1, 1, f"{res.name} failed")
        assert res.notes == [f"raised RuntimeError: {res.name} failed"]
        assert "in suite\n" in res.traceback
    cfg = tmp_path / "verify.json"
    cfg.write_text(json.dumps({"suites": asked}))
    assert cli.main(["verify", "--config", str(cfg), "--workers", "1"]) == 1
    assert capsys.readouterr().err.endswith(
        "\nerror: norms failed (raised by verify suite 'norms')\n")


def test_claim_order_names_every_suite_once():
    assert sorted(_LONGEST_FIRST) == sorted(SUITES)


def test_pinned_recursion_weights_are_the_closed_form():
    assert all(want == _oracle.recursion_weight(*key) for key, want in RECURSION_WEIGHTS.items())


def test_wrong_certificates_break_the_clause_they_name():
    sp = make_space(["1/6", "1/3", "1/2"])
    rng = np.random.default_rng(7)
    for blocks in (((1,),), ((1,), (2,)), ((1, 2),)):
        f, cert = dominance.random_dominated_pair(sp, blocks, rng)
        assert dominance.verify_certificate(f, cert)
        (g, same), (same_f, over) = _wrong_certificates(f, cert)
        assert same is cert and same_f is f
        # g leaves f at one cell only, where |g| passes the product
        assert sum(a != b for a, b in zip(f.values.flat, g.values.flat)) == 1
        assert not dominance.verify_certificate(g, cert)
        assert over.sigma_sq == 1 and over.factors[1:] == cert.factors[1:]
        assert max(over.factors[0].values.flat) == F(1001, 1000)
        assert not dominance.verify_certificate(f, over)


def test_suites_deterministic_in_seed():
    a, b = (run_all(11, ["norms"], workers=1)[0] for _ in range(2))
    assert a.checks == b.checks and a.worst == b.worst


def _patch_everywhere(monkeypatch, module, name, new):
    """Replace module.name by new(original) at every empint module that binds it."""
    original = getattr(module, name)
    patched = new(original)
    for mod in list(sys.modules.values()):
        if mod is not None and mod.__name__.split(".")[0] == "empint" \
                and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, patched)


def _times(c):
    return lambda fn: lambda *args, **kwargs: fn(*args, **kwargs) * c


def _halved(cert):
    """cert with every factor halved: too small to dominate what it did."""
    return dominance.DominanceCertificate(cert.sigma_sq, tuple(h.scale(0.5) for h in cert.factors))


def _weights_reversed(contract):
    """contract_certificate with its Schwarz step reading the atom weights
    in reverse order: the factors go in on the reversed space, and the
    certificate comes back on the float form of the original one."""
    def mutant(cf, cg, d):
        sp = cf.factors[0].space
        rev = make_space(sp.weights[::-1])

        def move(cert, to):
            return dominance.DominanceCertificate(cert.sigma_sq, tuple(
                kernels.Kernel(to, h.values, h.axis_labels) for h in cert.factors))

        return move(contract(move(cf, rev), move(cg, rev), d), sp.as_float())
    return mutant


SEEDED_DEFECTS = [
    pytest.param(diagrams, "product_formula_coefficient", _times(F(1001, 1000)), 10,
                 id="product_formula_coefficient"),
    pytest.param(combinatorics, "expectation_coefficient", _times(F(1001, 1000)), 11,
                 id="expectation_coefficient"),
    pytest.param(bounds, "moment_growth_bound", _times(F(1, 1000)), 13, id="moment_growth_bound"),
    pytest.param(combinatorics, "damping_factor", _times(2), 15, id="damping_factor"),
    pytest.param(kernels, "canonical_project", lambda fn: lambda f: f, 1, id="canonical_project"),
    pytest.param(kernels, "l2_norm_sq", _times(F(1001, 1000)), 1, id="l2_norm_sq"),
    pytest.param(dominance, "contract_certificate", lambda fn: lambda *args: _halved(fn(*args)),
                 14, id="contract_certificate"),
    pytest.param(dominance, "contract_certificate", _weights_reversed, 14,
                 id="contract_certificate_weights_reversed"),
    pytest.param(combinatorics, "recursion_weight", _times(F(1001, 1000)), 15,
                 id="recursion_weight"),
    pytest.param(dominance, "verify_certificate", lambda fn: lambda f, cert: True, 14,
                 id="verify_certificate"),
]


# the suite whose library error each exit-1 row reports
_RAISED_BY = {"canonical_project": "diagram", "l2_norm_sq": "moments"}
# the suites an exit-1 row also fails by their checks alone
_ALSO_FAILS = {"canonical_project": [], "l2_norm_sq": ["norms", "dominance"]}


@pytest.fixture
def fresh_caches():
    """cumulative_constant memoizes products of damping_factor: emptied
    before the test, so a patch shows, and after, so it leaves no trace."""
    combinatorics.cumulative_constant.cache_clear()
    yield
    combinatorics.cumulative_constant.cache_clear()


@pytest.mark.parametrize("module, name, defect, code", SEEDED_DEFECTS)
def test_verify_notices_a_seeded_defect(module, name, defect, code, monkeypatch, fresh_caches,
                                        tmp_path, capsys):
    """``empint verify`` exits with the code of the first suite that fails,
    or 1 for a library error, when one function of the library is wrong;
    the error line then names the suite that raised it, and the report,
    the same at one and two workers, holds every suite, that one failed."""
    cfg = tmp_path / "verify.json"
    cfg.write_text('{"seed": 2024}')
    _patch_everywhere(monkeypatch, module, name, defect)
    runs = []
    for workers in ("1", "2") if code == 1 else ("1",):
        report = tmp_path / f"report{workers}.json"
        assert cli.main(["verify", "--config", str(cfg), "--workers", workers,
                         "--report", str(report)]) == code
        out, err = capsys.readouterr()
        runs.append((report.read_bytes(), out))
    if code == 1:
        [line] = err.splitlines()
        assert line.startswith("error: ")
        assert line.endswith(f"(raised by verify suite {_RAISED_BY[name]!r})")
        assert runs[1] == runs[0]
        results = json.loads(runs[0][0])["results"]
        assert [r["suite"] for r in results] == list(SUITES)
        [raised] = [r for r in results if r["suite"] == _RAISED_BY[name]]
        assert raised["status"] == "fail" and re.match(r"raised \w+: ", raised["notes"][-1])
        assert [r["suite"] for r in results if r["status"] == "fail"
                and r["suite"] != _RAISED_BY[name]] == _ALSO_FAILS[name]
