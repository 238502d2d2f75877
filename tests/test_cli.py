import csv
import json
from fractions import Fraction as F

import pytest

import empint.diagrams
from empint.cli import main


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


def test_self_check_levels_avoid_the_lattice(tmp_path, capsys):
    # w0 = 1/10 and n = 100: sigma * t is an attained value of the self-check
    # statistic for t = 1, 2, 3, and those levels move to half-step midpoints
    doc = {**TAILS_CFG, "space": {"weights": ["1/10", "1/10", "1/2", "3/10"]},
           "kernel": {"arity": 2, "values": [str(F(i % 5 - 2, 3)) for i in range(16)]},
           "n": 100, "replicates": 1000, "seed": 11}
    del doc["x_grid"]
    out = tmp_path / "out"
    assert run(["tails", "--config", write_json(tmp_path / "t.json", doc),
                "--out-dir", str(out)]) == 0
    with open(out / "self_check.csv") as fh:
        rows = list(csv.reader(fh))[1:]
    xs = [float(r[0]) for r in rows]
    assert xs[1] == pytest.approx(0.35) and xs[3] == pytest.approx(0.65)
    assert xs[4] == pytest.approx(0.95)
    zs = [float(r[4]) for r in rows]
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


def test_tails_config_errors(tmp_path, capsys):
    missing = write_json(tmp_path / "bad.json", {"replicates": 10})
    assert run(["tails", "--config", missing, "--out-dir",
                str(tmp_path / "o")]) == 2
    assert run(["tails", "--config", str(tmp_path / "nope.json"),
                "--out-dir", str(tmp_path / "o")]) == 2
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
        argv = ["verify", "--config", write_json(tmp_path / "cfg.json", arg)]
    else:
        argv = ["tails", "--config", write_json(tmp_path / "cfg.json", {**TAILS_CFG, **arg}),
                "--out-dir", str(tmp_path / "o")]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:")
    assert "Traceback" not in err


def test_bounds_bad_grid(tmp_path, capsys):
    assert run(["bounds", "--k", "2", "--sigma", "0.4", "--n", "25",
                "--x-grid", "5:1:4", "--out", str(tmp_path / "b.csv")]) == 2
    capsys.readouterr()
