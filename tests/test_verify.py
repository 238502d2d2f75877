import os

import pytest

from empint.verify import (SUITES, SuiteResult, run_all, run_suite_constants,
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
        monkeypatch):
    ran = []
    for name in ("norms", "dominance"):  # dominance is claimed first, norms asked for first
        def suite(res, rng, name=name):
            ran.append(name)
            raise RuntimeError(f"{name} failed")
        monkeypatch.setitem(SUITES, name, (SUITES[name][0], suite))
    with pytest.raises(RuntimeError, match="norms failed"):
        run_all(2024, ["constants", "norms", "dominance"], workers=1)
    assert ran == ["dominance", "norms"]


def test_suites_deterministic_in_seed():
    a, b = (run_all(11, ["norms"], workers=1)[0] for _ in range(2))
    assert a.checks == b.checks and a.worst == b.worst
