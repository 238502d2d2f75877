import os

import pytest

from empint.verify import (SUITE_CODES, SUITES, SuiteResult, run_all, run_suite_constants,
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
    res = runner(seed=2024)
    assert res.name == name
    assert res.exit_code == SUITE_CODES[name]
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


def test_suites_deterministic_in_seed():
    a = run_suite_norms(seed=11)
    b = run_suite_norms(seed=11)
    assert a.checks == b.checks and a.worst == b.worst
