import contextlib
import csv
import hashlib
import io
import json
import math
import os
import re
import select
import subprocess
import sys
import tempfile
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import empint
import empint.cli
import empint.diagrams
import empint.montecarlo
import empint.verify
from _strategies import PROPERTY, json_values
from empint.cli import SCHEMAS, main
from empint.errors import EmpintError, MalformedInput
from empint.integrals import eval_batch
from empint.kernels import canonical_project, kernel_from_json
from empint.montecarlo import binomial_band, binomial_tail_oracle
from empint.space import draw_counts, make_space


def run(argv):
    return main(argv)


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


TAILS_CFG = {
    "space": {"weights": ["1/2", "1/2"]},
    "kernel": {"arity": 1, "values": ["1", "0"]},
    "canonicalize": True,
    "replicates": 400,
    "n": 10,
    "x_grid": [0.2, 0.5, 0.9],
    "seed": 777,
}


def test_verify_all_green(tmp_path, capsys):
    report = tmp_path / "report.json"
    code = run(["verify", "--report", str(report)])
    assert code == 0
    out = capsys.readouterr().out
    assert out.count("pass") == 6
    doc = json.loads(report.read_text())
    assert doc["schema"] == 1
    assert {r["suite"] for r in doc["results"]} == \
        {"diagram", "expectation", "norms", "moments", "dominance", "constants"}
    assert all(r["status"] == "pass" for r in doc["results"])


def test_verify_subset_and_seed(tmp_path):
    cfg = write_json(tmp_path / "cfg.json",
                     {"seed": 5, "suites": ["constants", "norms"]})
    assert run(["verify", "--config", cfg]) == 0


def test_verify_without_suites_is_config_error(tmp_path, capsys):
    report = tmp_path / "report.json"
    cfg = write_json(tmp_path / "cfg.json", {"suites": []})
    assert run(["verify", "--config", cfg, "--report", str(report)]) == 2
    assert capsys.readouterr().err.startswith("configuration error: config.suites must hold")
    assert not report.exists()


def test_verify_float_mode_is_config_error(tmp_path, capsys):
    cfg = write_json(tmp_path / "cfg.json", {"mode": "float"})
    assert run(["verify", "--config", cfg]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_verify_reports_failing_suite_code(tmp_path, monkeypatch, capsys):
    # sabotage one coefficient; the diagram suite must catch it and the
    # process must exit with that suite's code
    real = empint.diagrams.product_formula_coefficient

    def crooked(k1, k2, l, p):
        c = real(k1, k2, l, p)
        return c + F(1, 7) if (k1, k2, l, p) == (2, 2, 1, 0) else c

    monkeypatch.setattr(empint.diagrams, "product_formula_coefficient", crooked)
    code = run(["verify"])
    assert code == 10
    assert "FAIL" in capsys.readouterr().out


def test_verify_reads_the_usable_cpus_per_call(tmp_path, monkeypatch):
    # the parser is built once per process, so the default --workers is the
    # CPU count at each call, not at the first
    assert empint.cli.build_parser() is empint.cli.build_parser()
    real, seen = empint.verify.run_all, []

    def spy(seed, suites, workers):
        seen.append(workers)
        return real(seed, suites, workers=workers)

    monkeypatch.setattr(empint.verify, "run_all", spy)
    cfg = write_json(tmp_path / "cfg.json", {"suites": ["constants"]})
    for cpus in ({0}, {0, 1, 2}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus, raising=False)
        assert run(["verify", "--config", cfg]) == 0
    assert seen == [1, 3]


BOUNDS_ARGV = ["bounds", "--k", "2", "--sigma", "0.5", "--n", "10", "--x-grid", "1,2"]


def test_main_runs_the_command_function_current_at_the_call(tmp_path, monkeypatch):
    empint.cli.build_parser()
    monkeypatch.setattr(empint.cli, "cmd_bounds", lambda args: 7 if args.k == 2 else 0)
    assert run([*BOUNDS_ARGV, "--out", str(tmp_path / "b.csv")]) == 7
    assert not (tmp_path / "b.csv").exists()


def test_an_argparse_error_leaves_the_next_call_working(tmp_path, capsys):
    assert run(["bounds", "--k", "two", "--out", str(tmp_path / "b.csv")]) == 2
    assert "--k" in capsys.readouterr().err
    assert run([*BOUNDS_ARGV, "--out", str(tmp_path / "b.csv")]) == 0
    assert (tmp_path / "b.csv").read_text().startswith("x,bound13,bound16")


@pytest.mark.parametrize("argv, code, stream, text", [
    (["--help"], 0, "out", "usage: empint"),
    (["bounds", "--help"], 0, "out", "--sigma"),
    (["frobnicate"], 2, "err", "invalid choice: 'frobnicate'"),
    ([], 2, "err", "the following arguments are required: command"),
], ids=["help", "command-help", "unknown-command", "no-command"])
def test_main_returns_argparse_exit_codes(capsys, argv, code, stream, text):
    # an in-process caller gets the code argparse would exit with, not SystemExit
    assert run(argv) == code
    assert text in getattr(capsys.readouterr(), stream)


@pytest.mark.parametrize("seed", [2024, 12345, None])
def test_verify_output_independent_of_workers(tmp_path, capsys, seed):
    # None: no config, the default seed; 6 workers is one process per suite
    cfg = [] if seed is None else ["--config", write_json(tmp_path / "cfg.json", {"seed": seed})]
    reports, outs = [], []
    for workers in ("1", "2", "6"):
        report = tmp_path / f"report{workers}.json"
        assert run(["verify", *cfg, "--report", str(report), "--workers", workers]) == 0
        reports.append(report.read_bytes())
        outs.append(capsys.readouterr().out)
    assert reports[1:] == reports[:1] * 2 and outs[1:] == outs[:1] * 2


# sha256 of the report and of stdout, recorded when the dominance suite
# gained its input certificates at their factors' exact norms (339 checks);
# every optimization must keep these bytes
@pytest.mark.parametrize("seed, report_digest, out_digest", [
    pytest.param(2024, "21847a4470c6a8b3c987c6fab2d44eddbf392e36634c5fe6095fa78a8c75a287",
                 "ced422c2b5c06eceadacc70796498d57d15b1aae97b999a4e3bf5a3b3b279cb7", id="2024"),
    pytest.param(77, "8443e1c646edead78ff25474834aa4c4dec2e8e3cec254db463cfcfe4e467dca",
                 "ced422c2b5c06eceadacc70796498d57d15b1aae97b999a4e3bf5a3b3b279cb7", id="77"),
])
def test_verify_bytes_are_pinned(tmp_path, capsys, seed, report_digest, out_digest):
    report = tmp_path / "report.json"
    cfg = write_json(tmp_path / "cfg.json", {"seed": seed})
    assert run(["verify", "--config", cfg, "--report", str(report), "--workers", "1"]) == 0
    assert hashlib.sha256(report.read_bytes()).hexdigest() == report_digest
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == out_digest


@pytest.fixture
def meet():
    """A rendezvous for two processes, the caller and one forked child:
    ``meet()`` returns once both have called it, True in the caller.  A
    suite that meets first has, at that point, a suite running in the
    other process too."""
    caller = os.getpid()
    to_child, to_caller = os.pipe(), os.pipe()

    def meet_():
        in_caller = os.getpid() == caller
        (_, mine), (theirs, _) = (to_child, to_caller) if in_caller else (to_caller, to_child)
        os.write(mine, b".")
        select.select([theirs], [], [], 30)
        return in_caller

    yield meet_
    for fd in (*to_child, *to_caller):
        os.close(fd)


def _verify_split(tmp_path, monkeypatch, meet, then):
    """``empint verify --workers 2 --report tmp_path/report.json`` on two
    suites that each meet the other process, then call
    ``then(in_caller, name)`` and pass; with two suites and two processes,
    the caller runs one and the child the other."""
    for name in ("norms", "moments"):
        def suite(res, rng, name=name):
            then(meet(), name)
        monkeypatch.setitem(empint.verify.SUITES, name, (empint.verify.SUITES[name][0], suite))
    cfg = write_json(tmp_path / "cfg.json", {"suites": ["norms", "moments"]})
    code = run(["verify", "--config", cfg, "--workers", "2",
                "--report", str(tmp_path / "report.json")])
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)  # every child was reaped
    return code


def _raise_where(in_caller):
    def then(here, name):
        if here == in_caller:
            raise EmpintError(f"raised in process {os.getpid()}")
    return then


def test_verify_error_in_worker_exits_1(tmp_path, monkeypatch, meet, capsys):
    assert _verify_split(tmp_path, monkeypatch, meet, _raise_where(in_caller=False)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: raised in process ")
    assert err.split()[4] != str(os.getpid())  # the suite ran in a forked worker
    assert re.search(r" \(raised by verify suite '(norms|moments)'\)\n$", err)


def test_verify_error_in_callers_own_claim_exits_1(tmp_path, monkeypatch, meet, capsys):
    assert _verify_split(tmp_path, monkeypatch, meet, _raise_where(in_caller=True)) == 1
    assert re.fullmatch(f"error: raised in process {os.getpid()} "
                        r"\(raised by verify suite '(norms|moments)'\)\n", capsys.readouterr().err)


def test_verify_worker_dying_is_typed_error(tmp_path, monkeypatch, meet, capsys):
    def die_in_child(in_caller, name):
        if not in_caller:
            os._exit(3)

    assert _verify_split(tmp_path, monkeypatch, meet, die_in_child) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: verify worker ") and "status 3" in err
    assert "Traceback" not in err


def _raised_in_report(tmp_path):
    """{suite: its last note} for each suite of the report that failed."""
    results = json.loads((tmp_path / "report.json").read_text())["results"]
    assert [r["suite"] for r in results] == ["norms", "moments"]
    return {r["suite"]: r["notes"][-1] for r in results if r["status"] == "fail"}


def test_verify_child_error_carries_its_traceback(tmp_path, monkeypatch, meet, capsys):
    def bug_in_child(in_caller, name):
        if not in_caller:
            raise ValueError("a bug in a suite")

    assert _verify_split(tmp_path, monkeypatch, meet, bug_in_child) == 1
    out, err = capsys.readouterr()
    assert err.startswith("Traceback") and "in bug_in_child" in err  # the child's frames
    [(name, note)] = _raised_in_report(tmp_path).items()
    assert note == "raised ValueError: a bug in a suite"
    assert err.endswith(f"ValueError: a bug in a suite\n"
                        f"error: a bug in a suite (raised by verify suite {name!r})\n")
    assert re.search(f"^{name} +FAIL  checks=1 failures=1 ", out, re.M)


def test_verify_unpicklable_child_error_is_reported(tmp_path, monkeypatch, meet, capfd):
    class Local(EmpintError):  # pickle cannot find a class defined in a function
        pass

    def raise_local_in_child(in_caller, name):
        if not in_caller:
            raise Local("not sendable")

    assert _verify_split(tmp_path, monkeypatch, meet, raise_local_in_child) == 1
    [(name, note)] = _raised_in_report(tmp_path).items()
    assert note == "raised Local: not sendable"  # recorded like any other error
    assert capfd.readouterr().err == f"error: not sendable (raised by verify suite {name!r})\n"


def test_verify_keeps_the_raise_past_the_note_cap(tmp_path, monkeypatch, capsys):
    def suite(res, rng):
        for i in range(25):
            res.record(False, note=f"check {i}")
        raise EmpintError("raised after 25 failures")

    monkeypatch.setitem(empint.verify.SUITES, "norms", (empint.verify.SUITES["norms"][0], suite))
    cfg = write_json(tmp_path / "cfg.json", {"suites": ["norms"]})
    report = tmp_path / "report.json"
    assert run(["verify", "--config", cfg, "--workers", "1", "--report", str(report)]) == 1
    [res] = json.loads(report.read_text())["results"]
    assert (res["checks"], res["failures"], res["status"]) == (26, 26, "fail")
    assert res["notes"] == [*(f"check {i}" for i in range(20)),
                            "raised EmpintError: raised after 25 failures"]
    assert capsys.readouterr().err == \
        "error: raised after 25 failures (raised by verify suite 'norms')\n"


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="lists open fds from /proc")
def test_verify_failed_fork_is_typed_error(monkeypatch, capsys):
    real_fork, forks = os.fork, []

    def fork_once():  # the second fork fails, as when a process limit is reached
        forks.append(1)
        if len(forks) > 1:
            raise BlockingIOError(11, "Resource temporarily unavailable")
        return real_fork()

    fds = sorted(os.listdir("/proc/self/fd"))
    monkeypatch.setattr(os, "fork", fork_once)
    assert run(["verify", "--workers", "3"]) == 1
    assert capsys.readouterr().err.startswith("error: could not fork a verify worker: ")
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)  # the child that was forked was reaped
    assert sorted(os.listdir("/proc/self/fd")) == fds  # and no pipe was left open


def test_verify_raises_first_error_in_requested_order(tmp_path, monkeypatch, meet, capsys):
    def fail(in_caller, name):
        raise EmpintError(f"{name} failed")

    assert _verify_split(tmp_path, monkeypatch, meet, fail) == 1
    assert capsys.readouterr().err == "error: norms failed (raised by verify suite 'norms')\n"


def test_tails_outputs(tmp_path):
    cfg = write_json(tmp_path / "t.json", TAILS_CFG)
    out = tmp_path / "out"
    assert run(["tails", "--config", cfg, "--out-dir", str(out)]) == 0

    with open(out / "tails.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x", "p_hat", "stderr", "bound13", "bound16"]
    assert len(rows) == 1 + len(TAILS_CFG["x_grid"])
    for x, p_hat, stderr, b13, b16 in rows[1:]:
        assert float(b13) >= float(p_hat) - 1e-12
        assert float(b16) >= float(p_hat) - 1e-12

    with open(out / "self_check.csv") as fh:
        sc = list(csv.reader(fh))
    assert sc[0] == ["x", "p_hat", "p_exact", "stderr", "z"]
    for row in sc[1:]:
        z = float(row[4])
        assert z <= 4.0

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 777
    assert manifest["replicates"] == 400
    assert manifest["n"] == 10
    assert len(manifest["kernel_hash"]) == 16


# a 4-atom run on the auto grid; w0 = 1/10 and n = 100 put self-check
# levels on the floats of values the indicator statistic takes
AUTO_CFG = {**{k: v for k, v in TAILS_CFG.items() if k != "x_grid"},
            "space": {"weights": ["1/10", "1/10", "1/2", "3/10"]},
            "kernel": {"arity": 2, "values": [str(F(i % 5 - 2, 3)) for i in range(16)]},
            "n": 100, "replicates": 1000, "seed": 11}


@pytest.mark.parametrize("doc, draws", [(TAILS_CFG, 1), (AUTO_CFG, 1),
                                        ({**AUTO_CFG, "canonicalize": False}, 2)],
                         ids=["x_grid", "auto", "auto-noncanonical"])
def test_tails_draws_each_replicate_once(tmp_path, monkeypatch, doc, draws):
    # the run's counts feed tails.csv and self_check.csv; only the auto
    # grid of a kernel that is not canonical draws a pilot, a second time.
    # The run draws in cli, the pilot in montecarlo
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[3])
        return draw_counts(*args, **kwargs)

    for module in (empint.cli, empint.montecarlo):
        monkeypatch.setattr(module, "draw_counts", counting)
    assert run(["tails", "--config", write_json(tmp_path / "t.json", doc),
                "--out-dir", str(tmp_path / "out")]) == 0
    assert len(calls) == draws and calls[-1] == doc["replicates"]


def _band_counts(counts, w0, n, xs):
    """The exceedances of the self-check statistic at each level, decided by
    the integer band on the counts of atom 0."""
    b0 = counts[:, 0]
    return [np.count_nonzero((b0 < lo) | (b0 > hi)) / len(counts)
            for lo, hi in (binomial_band(w0, n, x) for x in xs)]


def _csv_columns(path):
    with open(path) as fh:
        return [list(map(float, col)) for col in zip(*list(csv.reader(fh))[1:])]


@pytest.mark.parametrize("doc", [TAILS_CFG, AUTO_CFG], ids=["x_grid", "auto"])
def test_tails_and_self_check_read_the_same_counts(tmp_path, doc):
    out = tmp_path / "out"
    assert run(["tails", "--config", write_json(tmp_path / "t.json", doc),
                "--out-dir", str(out)]) == 0
    space = make_space(doc["space"]["weights"])
    n, R = doc["n"], doc["replicates"]
    counts = draw_counts(space, n, doc["seed"], R)

    f = canonical_project(kernel_from_json(space, doc["kernel"]))
    values = np.abs(eval_batch(f, counts))
    xs, p_hat, *_ = _csv_columns(out / "tails.csv")
    assert p_hat == [np.count_nonzero(values > x) / R for x in xs]
    xs, p_hat, *_ = _csv_columns(out / "self_check.csv")
    assert p_hat == _band_counts(counts, F(space.weights[0]), n, xs)


@pytest.mark.parametrize("doc, grid", [(TAILS_CFG, {"grid": "config"}),
                                       (AUTO_CFG, {"grid": "auto", "pilot_replicates": 0}),
                                       ({**AUTO_CFG, "canonicalize": False},
                                        {"grid": "auto", "pilot_replicates": 1000})],
                         ids=["x_grid", "auto", "auto-noncanonical"])
def test_manifest_records_the_run(tmp_path, doc, grid):
    out = tmp_path / "out"
    assert run(["tails", "--config", write_json(tmp_path / "t.json", {**doc, "target": "ustat"}),
                "--out-dir", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    kernel_hash = manifest.pop("kernel_hash")
    assert len(kernel_hash) == 16
    assert manifest == {"seed": doc["seed"], "replicates": doc["replicates"], "n": doc["n"],
                        "target": "ustat", **grid, "version": empint.__version__}


def test_manifest_hash_tells_canonicalized_runs_apart(tmp_path):
    hashes = set()
    for canonicalize in (False, True):
        out = tmp_path / str(canonicalize)
        cfg = write_json(tmp_path / "t.json", {**TAILS_CFG, "canonicalize": canonicalize})
        assert run(["tails", "--config", cfg, "--out-dir", str(out)]) == 0
        hashes.add(json.loads((out / "manifest.json").read_text())["kernel_hash"])
    assert len(hashes) == 2


def test_tails_deterministic_across_workers(tmp_path):
    cfg = write_json(tmp_path / "t.json", TAILS_CFG)
    out1, out2 = tmp_path / "w1", tmp_path / "w2"
    assert run(["tails", "--config", cfg, "--out-dir", str(out1),
                "--workers", "1"]) == 0
    assert run(["tails", "--config", cfg, "--out-dir", str(out2),
                "--workers", "2"]) == 0
    for name in ("tails.csv", "self_check.csv", "manifest.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


# sha256 of self_check.csv and manifest.json, recorded before the tails run
# was split into library stages; every later change must keep these bytes,
# except the canonical auto-grid manifests, re-recorded when that grid
# stopped drawing a pilot ("pilot_replicates": 0).
# The bound columns of tails.csv come from np.linalg.lstsq and the auto
# grid's levels from np.quantile and np.geomspace, which may move across
# numpy and LAPACK builds, so of tails.csv only the x_grid run's x, p_hat
# and stderr columns are pinned
TAILS_HEAD = [["0.2", "0.7625", "0.021277555663186502"],
              ["0.5", "0.3575", "0.023963187913965036"],
              ["0.9", "0.1125", "0.015799030824705674"]]


@pytest.mark.parametrize("doc, target, self_check_digest, manifest_digest", [
    pytest.param(TAILS_CFG, "integral",
                 "ab4936fb510696955c994813bf38e0b91de19a4d70405b89c847143ca27ef2b7",
                 "4b22b134800376f0022c0572358267470fb4c19a960b0cd6ba05cd795bdc7ea2",
                 id="x_grid-integral"),
    pytest.param(TAILS_CFG, "ustat",
                 "ab4936fb510696955c994813bf38e0b91de19a4d70405b89c847143ca27ef2b7",
                 "8f072e51ed1c24a92fa00a880d1ab4615576f60634653b8b0c8a025f9cab3058",
                 id="x_grid-ustat"),
    pytest.param(AUTO_CFG, "integral",
                 "74fc70783a7b3c90e62f847ea24b3728228eaa9996d951c41c39ce0b926f00a7",
                 "ef5d011c45b6e603e2259be3e891bcdf5201cde583f5af5b92ad6f8fdd58e71e",
                 id="auto-integral"),
    pytest.param(AUTO_CFG, "ustat",
                 "74fc70783a7b3c90e62f847ea24b3728228eaa9996d951c41c39ce0b926f00a7",
                 "fd036b8cc78bf4d0a5db37765908a7f93dc3d269d64678fc9089a32fa11ad3d4",
                 id="auto-ustat"),
    pytest.param({**AUTO_CFG, "canonicalize": False}, "integral",
                 "74fc70783a7b3c90e62f847ea24b3728228eaa9996d951c41c39ce0b926f00a7",
                 "2d3ba7387b78f78fef22404a9241933ffc9620efe595f24321afdf550d33cb8c",
                 id="auto-noncanonical-integral"),
    pytest.param({**AUTO_CFG, "canonicalize": False}, "ustat",
                 "74fc70783a7b3c90e62f847ea24b3728228eaa9996d951c41c39ce0b926f00a7",
                 "796ef0c302080dbdf2f062453808790df6d66c3d9371c66b18a48d7c00ab7bf5",
                 id="auto-noncanonical-ustat"),
])
def test_tails_bytes_are_pinned(tmp_path, doc, target, self_check_digest, manifest_digest):
    out = tmp_path / "out"
    assert run(["tails", "--config", write_json(tmp_path / "t.json", {**doc, "target": target}),
                "--out-dir", str(out)]) == 0
    assert hashlib.sha256((out / "self_check.csv").read_bytes()).hexdigest() == self_check_digest
    assert hashlib.sha256((out / "manifest.json").read_bytes()).hexdigest() == manifest_digest
    if doc is TAILS_CFG:
        with open(out / "tails.csv", newline="") as fh:
            assert [row[:3] for row in list(csv.reader(fh))[1:]] == TAILS_HEAD


def test_self_check_decides_lattice_levels_by_the_integer_band(tmp_path, capsys):
    # sigma = 3/10 and sigma * t for t = 1, 2, 3 are the floats of values
    # the self-check statistic takes; the levels stay where they are, and
    # p_hat is the count outside the integer band on the run's counts
    out = tmp_path / "out"
    assert run(["tails", "--config", write_json(tmp_path / "t.json", AUTO_CFG),
                "--out-dir", str(out)]) == 0
    xs, p_hat, p_exact, _, zs = _csv_columns(out / "self_check.csv")
    assert xs == [math.sqrt(F(1, 10) * F(9, 10)) * t for t in (0.5, 1.0, 1.5, 2.0, 3.0)]
    n, R = AUTO_CFG["n"], AUTO_CFG["replicates"]
    counts = draw_counts(make_space(AUTO_CFG["space"]["weights"]), n, AUTO_CFG["seed"], R)
    assert p_hat == _band_counts(counts, F(1, 10), n, xs)
    assert p_exact == binomial_tail_oracle(F(1, 10), n, xs)
    assert max(zs) <= 3.0
    assert f"worst self-check z {max(zs):.2f}" in capsys.readouterr().out


def test_self_check_z_uses_the_exact_tail(tmp_path):
    # n = 10 on a fair coin: the level-1.5 tail is P(|B - 5| = 5) = 1/512,
    # which 20 replicates miss; z must still count the miss
    doc = {**TAILS_CFG, "replicates": 20, "seed": 1}
    out = tmp_path / "out"
    assert run(["tails", "--config", write_json(tmp_path / "t.json", doc),
                "--out-dir", str(out)]) == 0
    with open(out / "self_check.csv") as fh:
        rows = {float(r[0]): [float(v) for v in r[1:]] for r in list(csv.reader(fh))[1:]}
    p_hat, p_exact, stderr, z = rows[1.5]
    assert p_hat == 0.0 and p_exact == 1 / 512
    assert stderr == pytest.approx((p_exact * (1 - p_exact) / 20) ** 0.5)
    assert z == pytest.approx(p_exact / stderr) and z > 0



def test_self_check_reads_the_first_atom_that_varies(tmp_path, capsys):
    # atom 0 has weight 0, so its indicator never varies; atom 1's does
    doc = {**TAILS_CFG, "space": {"weights": ["0", "1/2", "1/2"]},
           "kernel": {"arity": 1, "values": ["0", "1", "0"]}}
    out = tmp_path / "out"
    assert run(["tails", "--config", write_json(tmp_path / "t.json", doc),
                "--out-dir", str(out)]) == 0
    xs, p_hat, p_exact, _, zs = _csv_columns(out / "self_check.csv")
    assert xs == [math.sqrt(F(1, 4)) * t for t in (0.5, 1.0, 1.5, 2.0, 3.0)]
    n, R = doc["n"], doc["replicates"]
    counts = draw_counts(make_space(doc["space"]["weights"]), n, doc["seed"], R)
    assert p_hat == _band_counts(counts[:, 1:], F(1, 2), n, xs)
    assert p_exact == binomial_tail_oracle(F(1, 2), n, xs)
    assert 0 < max(zs) <= 4.0
    assert f"worst self-check z {max(zs):.2f}" in capsys.readouterr().out


def test_self_check_without_an_atom_that_varies_writes_its_header(tmp_path, capsys):
    # one atom holds all the weight: no indicator varies and nothing is checked
    doc = {**TAILS_CFG, "space": {"weights": ["1"]}, "kernel": {"arity": 1, "values": ["1"]}}
    out = tmp_path / "out"
    assert run(["tails", "--config", write_json(tmp_path / "t.json", doc),
                "--out-dir", str(out)]) == 0
    assert (out / "self_check.csv").read_text() == "x,p_hat,p_exact,stderr,z\n"
    assert capsys.readouterr().out.endswith("; no self-check ran: one atom holds all the weight\n")


def test_tails_rejects_nonpositive_workers(tmp_path, capsys):
    cfg = write_json(tmp_path / "cfg.json", TAILS_CFG)
    assert run(["tails", "--config", cfg, "--out-dir", str(tmp_path / "o"),
                "--workers", "0"]) == 2
    assert "--workers" in capsys.readouterr().err


def test_tails_auto_grid(tmp_path):
    cfg_doc = dict(TAILS_CFG)
    del cfg_doc["x_grid"]
    cfg_doc["grid_points"] = 6
    cfg = write_json(tmp_path / "t.json", cfg_doc)
    out = tmp_path / "out"
    assert run(["tails", "--config", cfg, "--out-dir", str(out)]) == 0
    with open(out / "tails.csv") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 7


@pytest.mark.parametrize("target", ["integral", "ustat"])
@pytest.mark.parametrize("n", [30, 100, 300])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_tails_auto_grid_fits_random_canonical_kernels(tmp_path, k, n, target):
    # the exact-scale grid spans Gaussian quantiles, while at k = 3 the tail
    # is heavier: the fit still sees at least three nonzero levels
    rng = np.random.default_rng(100 + k)
    parts = rng.integers(1, 6, 3)
    doc = {"space": {"weights": [str(F(int(p), int(parts.sum()))) for p in parts]},
           "kernel": {"arity": k, "values": [str(F(int(v), 8)) for v in rng.integers(-8, 9, 3**k)]},
           "canonicalize": True, "replicates": 1000, "n": n, "target": target, "seed": 5}
    out = tmp_path / "out"
    assert run(["tails", "--config", write_json(tmp_path / "t.json", doc),
                "--out-dir", str(out)]) == 0
    assert json.loads((out / "manifest.json").read_text())["pilot_replicates"] == 0
    _, p_hat, *_ = _csv_columns(out / "tails.csv")
    assert sum(p > 0 for p in p_hat) >= 3


def test_tails_zero_kernel_writes_zero_file(tmp_path):
    # degenerate but legal input: no tail and no constants to fit, yet the
    # artifact should still be written with every numeric column zero
    cfg_doc = dict(TAILS_CFG)
    cfg_doc["kernel"] = {"arity": 1, "values": ["0", "0"]}
    cfg = write_json(tmp_path / "t.json", cfg_doc)
    out = tmp_path / "out"
    assert run(["tails", "--config", cfg, "--out-dir", str(out)]) == 0
    with open(out / "tails.csv") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 1 + len(TAILS_CFG["x_grid"])
    for _, p_hat, stderr, b13, b16 in rows[1:]:
        assert (float(p_hat), float(stderr), float(b13), float(b16)) \
            == (0.0, 0.0, 0.0, 0.0)


def test_tails_constant_kernel_with_a_grid_is_config_error(tmp_path, capsys):
    # a nonzero norm, yet the centered integral is 0 on every sample: the run
    # cannot tell that from a tail below 1/R at every level, so it fits nothing
    cfg_doc = {**TAILS_CFG, "kernel": {"arity": 1, "values": ["1", "1"]}, "canonicalize": False}
    out = tmp_path / "out"
    assert run(["tails", "--config", write_json(tmp_path / "t.json", cfg_doc),
                "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == ("configuration error: cannot fit bound constants: "
                                       "only 0 nonzero tail points, need 3\n")
    assert not out.exists()


@pytest.mark.parametrize("change", [
    {"kernel": {"arity": 1, "values": ["0", "0"]}},
    {"kernel": {"arity": 1, "values": ["1", "1"]}},  # zero once canonicalized
    {"kernel": {"arity": 1, "values": ["1", "1"]}, "canonicalize": False},  # constant q = 0
    {"space": {"weights": ["1", "0"]}, "kernel": {"arity": 1, "values": ["0", "5"]},
     "canonicalize": False},  # nonzero only off the support
])
def test_tails_zero_kernel_without_grid_is_config_error(tmp_path, capsys, change):
    cfg_doc = {**TAILS_CFG, **change}
    del cfg_doc["x_grid"]
    out = tmp_path / "out"
    assert run(["tails", "--config", write_json(tmp_path / "t.json", cfg_doc),
                "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and "give an x_grid" in err
    assert not out.exists()


def test_tails_config_errors(tmp_path, capsys):
    missing = write_json(tmp_path / "bad.json", {"replicates": 10})
    assert run(["tails", "--config", missing, "--out-dir",
                str(tmp_path / "o")]) == 2
    assert run(["tails", "--config", str(tmp_path / "nope.json"),
                "--out-dir", str(tmp_path / "o")]) == 2
    not_utf8 = tmp_path / "latin1.json"
    not_utf8.write_bytes(b'{"seed": "\xff"}')
    assert run(["tails", "--config", str(not_utf8), "--out-dir", str(tmp_path / "o")]) == 2
    capsys.readouterr()


def test_constants_outputs(tmp_path):
    out = tmp_path / "c"
    assert run(["constants", "--k-max", "3", "--m-max", "4",
                "--n-max", "4", "--out-dir", str(out)]) == 0

    with open(out / "moment_constants.csv") as fh:
        rows = {(r[0], r[1]): r for r in list(csv.reader(fh))[1:]}
    assert rows[("1", "0")][2] == "17"
    assert rows[("2", "3")][3] == "585225"

    with open(out / "expectation_constants.csv") as fh:
        erows = {(r[0], r[1]): r[2] for r in list(csv.reader(fh))[1:]}
    # b = r(n, k) n^k; scaled constant is b n^{-k/2}
    assert erows[("2", "1")] == "0"
    assert erows[("2", "2")] == "-1"
    assert erows[("3", "2")] == "-3/2"
    assert erows[("4", "3")] == "4/3"  # r(4,3) 4^3 = (1/48) 64


def test_constants_keep_their_bytes(tmp_path):
    out = tmp_path / "c"
    assert run(["constants", "--k-max", "10", "--m-max", "40", "--out-dir", str(out)]) == 0
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()[:16]
               for name in ("moment_constants.csv", "expectation_constants.csv")}
    assert digests == {"moment_constants.csv": "5fcb5fbd6ed6446c",
                       "expectation_constants.csv": "7534adf71a5b6bd6"}


def test_constants_past_the_digit_limit_is_config_error(tmp_path, capsys):
    # a cumulative constant at k=10, m=60 has more digits than str(int) allows
    out = tmp_path / "c"
    assert run(["constants", "--k-max", "10", "--m-max", "60", "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: --k-max 10 with --m-max 60")
    assert not out.exists()


def test_bounds_geometric_grid(tmp_path):
    out = tmp_path / "b.csv"
    assert run(["bounds", "--k", "2", "--sigma", "0.4", "--n", "25",
                "--x-grid", "0.1:10:9", "--out", str(out)]) == 0
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x", "bound13", "bound16", "active_branch", "log_ratio"]
    assert len(rows) == 10
    branches = [r[3] for r in rows[1:]]
    flip = branches.index("empirical")
    assert set(branches[:flip]) <= {"gaussian"}
    assert set(branches[flip:]) == {"empirical"}


@pytest.mark.parametrize("spec, levels", [
    ("0.1:1:3", ["0.1", "0.31622776601683794", "1.0"]),
    ("0.1:10:9", ["0.1", "0.1778279410038923", "0.31622776601683794", "0.5623413251903491",
                  "1.0", "1.7782794100389228", "3.1622776601683795", "5.62341325190349", "10.0"]),
    ("1e-300:1e300:5", ["1e-300", "1e-150", "1.0", "1e+150", "1e+300"]),
])
def test_bounds_geometric_grid_is_geomspace(tmp_path, spec, levels):
    # both ends exact, and a ratio past float range is no error: the grid
    # tabulates as the same levels given as a comma list do
    tables = []
    for grid in (spec, ",".join(levels)):
        out = tmp_path / "b.csv"
        assert run(["bounds", "--k", "2", "--sigma", "0.4", "--n", "25",
                    "--x-grid", grid, "--out", str(out)]) == 0
        tables.append(out.read_bytes())
    assert tables[0] == tables[1]
    assert [row[0] for row in csv.reader(io.StringIO(tables[0].decode()))][1:] == levels


def test_bounds_comma_grid_and_constants_file(tmp_path):
    cfile = write_json(tmp_path / "const.json", {"C": 2.0, "alpha": 0.5})
    out = tmp_path / "b.csv"
    assert run(["bounds", "--k", "1", "--sigma", "0.9", "--n", "16",
                "--x-grid", "0.5,1.0,2.0", "--constants-file", cfile,
                "--out", str(out)]) == 0
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 4
    import math
    x0 = float(rows[1][0])
    want = 2.0 * math.exp(-0.5 * (x0 / 0.9) ** 2)
    assert float(rows[1][1]) == pytest.approx(want)


def test_importing_the_cli_leaves_openssl_unloaded():
    # hashlib's OpenSSL module is for the tails manifest's digest alone
    code = "import sys, empint.cli; print('_hashlib' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(empint.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout == "False\n"


@pytest.mark.parametrize("command, arg", [
    ("bounds", "0:1:5"), ("bounds", "a,b"), ("bounds", "2,1"),
    ("verify", {"suites": ["nope"]}), ("verify", {"seed": "x"}),
    ("tails", {"kernel": {"values": ["1", "0"]}}),
    ("tails", {"replicates": 0}), ("tails", {"n": 0}), ("tails", {"n": -3}),
    ("tails", {"target": "foo"}), ("tails", {"x_grid": [2, 1]}),
    ("tails", {"space": {"weights": ["abc", "1/2"]}}),
    ("tails", {"space": {"weights": ["1/0", "1/2"]}}),
    ("tails", {"kernel": {"arity": 1, "values": ["x", "0"]}}),
    ("tails", {"kernel": {"arity": "x", "values": ["1", "0"]}}),
    ("tails", {"kernel": {"arity": 1.5, "values": ["1", "0"]}}),
    ("tails", {"kernel": {"arity": 1, "values": "10"}}),
    ("tails", {"space": {"weights": 5}}),
    ("tails", {"xgrid": [0.2, 0.5, 0.9]}), ("verify", {"suite": ["norms"]}),
    ("tails", {"grid_points": 0}), ("tails", {"grid_points": 1}),
    ("tails", {"grid_points": 2.5}), ("tails", {"replicates": True}),
    ("tails", {"kernel": {"arity": 1, "values": [float("nan"), "0"]}}),
    ("bounds", {"C": "abc"}), ("bounds", {"Cc": 2.0}), ("bounds", {"C": -1.0}),
    ("verify", {"seed": -3}), ("tails", {"seed": -1}),
    ("bounds", ["--k", "0"]), ("bounds", ["--sigma", "1.5"]), ("bounds", ["--sigma", "0"]),
    ("bounds", ["--n", "0"]), ("constants", ["--k-max", "-1"]), ("constants", ["--k-max", "0"]),
    ("constants", ["--m-max", "-1"]), ("constants", ["--n-max", "1"]),
    ("tails", {"canonicalize": "no"}), ("tails", {"canonicalize": 1}),
    ("tails", {"x_grid": 0}), ("tails", {"x_grid": []}),
    ("tails", {"replicates": "400"}), ("tails", {"n": "30"}), ("verify", {"seed": "5"}),
    ("tails", {"x_grid": [0.2, 0.5, 0.9, True]}),
    ("tails", {"x_grid": ["0.2", "0.5", "0.9"]}), ("tails", {"x_grid": [0.2, "0.5", 0.9]}),
    ("verify", ["--workers", "0"]), ("tails", {"x_grid": [0.2, 10**400]}),
    ("bounds", {"C": True}), ("bounds", {"C": "2"}), ("bounds", {"C": 10**400}),
    ("tails", {"replicates": 10**22}), ("tails", {"n": 2**63}),
    ("tails", {"kernel": {"arity": 1, "values": [10**400, "0"]}}),
    ("tails", {"kernel": {"arity": 33, "values": ["1", "0"]}}),
    ("tails", {"kernel": {"arity": 2, "values": ["1", "0"]}}),
    ("tails", {"space": {"weights": ["1/3", "1/3"]}}), ("tails", {"space": {"weights": []}}),
    ("tails", {"kernel": {"arity": 0, "values": ["3"]}}),
    ("tails", {"kernel": {"arity": 1, "values": ["5", "0"]}}),
    ("bounds", ["--sigma", "nan"]), ("verify", {"mode": 0}),
    # in the schema, but each asks numpy for petabytes; None drops the key
    ("tails", {"grid_points": 10**17, "x_grid": None}),
    ("tails", {"replicates": 10**15}), ("tails", {"n": 10**15}),
    # an L2 norm past float range: the fit refuses sigma > 1
    ("tails", {"kernel": {"arity": 1, "values": ["1e200", "0"]}}),
    # past the schema's 2^59, where numpy would refuse an array outright
    ("tails", {"n": 2**60}), ("tails", {"n": 2**63 - 1}),
    ("tails", {"replicates": 2**63 - 1}), ("tails", {"grid_points": 2**62, "x_grid": None}),
    # the schema's maximum, too large to allocate
    ("tails", {"n": 2**59}), ("tails", {"replicates": 2**59}),
    ("tails", {"grid_points": 2**59, "x_grid": None}),
    # a suite named twice
    ("verify", {"suites": ["constants", "constants"]}),
    # a canonical kernel on the auto grid whose E[J^2] is past float range
    ("tails", {"kernel": {"arity": 1, "values": ["1e200", "0"]}, "x_grid": None}),
    # a nonzero kernel whose L2 norm underflows to 0.0: the fit refuses sigma 0
    ("tails", {"space": {"weights": ["1/3", "2/3"]}, "kernel": {"arity": 1,
               "values": ["1e-200", "0"]}, "n": 30, "x_grid": [1e-201, 3e-201, 6e-201]}),
])
def test_bad_input_is_config_error(tmp_path, capsys, command, arg):
    if command == "bounds":
        # a string is the grid, a dict a constants file, a list flags that override the defaults
        grid, extra = "0.5,1", arg
        if isinstance(arg, str):
            grid, extra = arg, []
        elif isinstance(arg, dict):
            extra = ["--constants-file", write_json(tmp_path / "c.json", arg)]
        argv = ["bounds", "--k", "2", "--sigma", "0.4", "--n", "25",
                "--x-grid", grid, "--out", str(tmp_path / "b.csv"), *extra]
    elif command == "constants":
        argv = ["constants", "--out-dir", str(tmp_path / "c"), *arg]
    elif command == "verify":
        # a dict is the config, a list flags
        if isinstance(arg, dict):
            arg = ["--config", write_json(tmp_path / "cfg.json", arg)]
        argv = ["verify", *arg]
    else:
        cfg = {key: v for key, v in {**TAILS_CFG, **arg}.items() if v is not None}
        argv = ["tails", "--config", write_json(tmp_path / "cfg.json", cfg),
                "--out-dir", str(tmp_path / "o")]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:")
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("values", [[0.5, -0.25], [1.0, -0.5, 0.25, 0.75]],
                         ids=["arity1", "arity2"])
def test_tails_float_kernel_on_exact_weights(tmp_path, values):
    # canonicalize centers float values against Fraction weights; the run
    # reads the same dyadic values as when they are given as fractions
    tables = []
    for kernel in (values, [str(F(v)) for v in values]):
        cfg = {**TAILS_CFG, "kernel": {"arity": len(values) // 2, "values": kernel}}
        out = tmp_path / str(len(tables))
        assert run(["tails", "--config", write_json(tmp_path / "cfg.json", cfg),
                    "--out-dir", str(out)]) == 0
        tables.append((out / "tails.csv").read_bytes())
    assert tables[0] == tables[1]


def test_tails_size_beyond_memory_names_memory(tmp_path, capsys):
    cfg = write_json(tmp_path / "cfg.json", {**TAILS_CFG, "n": 10**15})
    assert run(["tails", "--config", cfg, "--out-dir", str(tmp_path / "o")]) == 2
    assert "memory" in capsys.readouterr().err


def test_bounds_bad_grid(tmp_path, capsys):
    assert run(["bounds", "--k", "2", "--sigma", "0.4", "--n", "25",
                "--x-grid", "5:1:4", "--out", str(tmp_path / "b.csv")]) == 2
    capsys.readouterr()


BAD_GRIDS = {"empty": [], "zero": [0.0, 1.0], "negative": [-1.0, 2.0], "nan": [0.5, math.nan],
             "infinite": [0.5, math.inf], "descending": [2.0, 1.0], "repeated": [1.0, 1.0]}


@pytest.mark.parametrize("grid", BAD_GRIDS.values(), ids=BAD_GRIDS)
def test_bad_level_grids_are_refused_alike(tmp_path, capsys, grid):
    f = canonical_project(kernel_from_json(make_space(["1/2", "1/2"]), TAILS_CFG["kernel"]))
    cfg = empint.McConfig(20, 1, 5)
    counts = draw_counts(f.space, cfg.n, cfg.seed, cfg.replicates)
    for refuse in (lambda: empint.levels(grid),
                   lambda: empint.estimate_tail(f, cfg, counts, grid),
                   lambda: empint.regime_report(2, 0.4, 25, grid)):
        with pytest.raises(MalformedInput):
            refuse()
    tails = write_json(tmp_path / "t.json", {**TAILS_CFG, "x_grid": grid})
    assert run(["tails", "--config", tails, "--out-dir", str(tmp_path / "t")]) == 2
    assert run(["bounds", "--k", "2", "--sigma", "0.4", "--n", "25",
                "--x-grid=" + ",".join(map(repr, grid)), "--out", str(tmp_path / "b.csv")]) == 2
    assert capsys.readouterr().err.count("configuration error:") == 2
    assert list(tmp_path.iterdir()) == [tmp_path / "t.json"]


@pytest.mark.parametrize("command", ["verify", "tails", "constants", "bounds"])
def test_unwritable_output_is_config_error(tmp_path, capsys, command):
    (tmp_path / "file").write_text("")
    blocked = str(tmp_path / "file" / "out")  # a path under a regular file
    argv = {
        "verify": ["verify", "--config", write_json(tmp_path / "v.json", {"suites": ["constants"]}),
                   "--workers", "1", "--report", blocked],
        "tails": ["tails", "--config", write_json(tmp_path / "t.json", TAILS_CFG),
                  "--out-dir", blocked],
        "constants": ["constants", "--k-max", "2", "--m-max", "2", "--n-max", "3",
                      "--out-dir", blocked],
        "bounds": ["bounds", "--k", "2", "--sigma", "0.4", "--n", "25", "--x-grid", "0.5,1",
                   "--out", blocked],
    }[command]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: cannot write {blocked}")
    assert "Traceback" not in err


@pytest.mark.parametrize("k, n", [("100000", "10"), ("2", str(10**400))])
def test_bounds_past_float_range_is_library_error(tmp_path, capsys, k, n):
    assert run(["bounds", "--k", k, "--sigma", "0.4", "--n", n, "--x-grid", "0.5,1",
                "--out", str(tmp_path / "b.csv")]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "b.csv").exists()


def test_docs_schema_blocks_match_the_table():
    text = (Path(__file__).parents[1] / "docs" / "config_schema.md").read_text()
    documented = {}
    for section in text.split("\n## ")[1:]:
        command = section.split()[1]  # "`empint tails --config FILE`" -> "tails"
        for block in re.findall(r"```json\n(.*?)```", section, re.S):
            doc = json.loads(block)
            if doc.pop("$schema", None):
                documented[command] = doc
    assert documented == SCHEMAS


# -- each config key swapped for an arbitrary JSON value ----------------------

def _whole(lo, hi=math.inf):
    """Whole JSON numbers from lo to hi: 400 and 400.0, not "400" or true."""
    return lambda v: (type(v) is int or type(v) is float and v.is_integer()) and lo <= v <= hi


def _positive_number(v):
    return type(v) in (int, float) and 0 < v <= sys.float_info.max


def _levels(v):
    return (isinstance(v, list) and len(v) > 0 and all(_positive_number(x) for x in v)
            and all(a < b for a, b in zip(v, v[1:])))


# an independent reading of docs/config_schema.md: what a key may hold for
# its command to exit 0
IN_SCHEMA = {
    "verify": {
        "seed": _whole(0), "mode": lambda v: v == "exact",
        "suites": lambda v: isinstance(v, list) and len(v) > 0
                            and all(s in tuple(empint.verify.SUITES) for s in v)
                            and len(set(v)) == len(v),
    },
    "tails": {
        "space": lambda v: isinstance(v, dict) and isinstance(v.get("weights"), list),
        "kernel": lambda v: isinstance(v, dict) and "arity" in v
                            and isinstance(v.get("values"), list),
        "canonicalize": lambda v: isinstance(v, bool),
        "replicates": _whole(1, 2**59), "n": _whole(1, 2**59), "x_grid": _levels,
        "grid_points": _whole(2, 2**59), "seed": _whole(0),
        "target": lambda v: v in ("integral", "ustat"),
    },
    "bounds": {key: _positive_number for key in ("C", "alpha", "c1", "c2")},
}
FUZZ_BASE = {"verify": {"seed": 5, "suites": ["constants"]}, "tails": TAILS_CFG,
             "bounds": {"C": 2.0, "alpha": 0.5}}
_ANY, _SMALL = json_values(), json_values(st.floats(-50, 50))
_RUN_SIZING = ("replicates", "n", "grid_points")  # drawn small, as the run may go ahead
FUZZ = {command: st.one_of([st.tuples(st.just(key), _SMALL if key in _RUN_SIZING else _ANY)
                            for key in sorted(keys)])
        for command, keys in IN_SCHEMA.items()}


@pytest.mark.parametrize("command", sorted(IN_SCHEMA))
@PROPERTY
@given(data=st.data())
def test_config_key_fuzz_exits_0_or_2_property(command, data):
    key, value = data.draw(FUZZ[command])
    with tempfile.TemporaryDirectory() as tmp:
        cfg = write_json(Path(tmp, "cfg.json"), {**FUZZ_BASE[command], key: value})
        out = Path(tmp, "out")
        argv = {"verify": ["verify", "--config", cfg, "--workers", "1", "--report", str(out)],
                "tails": ["tails", "--config", cfg, "--out-dir", str(out)],
                "bounds": ["bounds", "--k", "2", "--sigma", "0.4", "--n", "25", "--x-grid", "0.5,1",
                           "--constants-file", cfg, "--out", str(out)]}[command]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 2) and "Traceback" not in err.getvalue()
        assert code != 0 or IN_SCHEMA[command][key](value)
        assert out.exists() == (code == 0)
