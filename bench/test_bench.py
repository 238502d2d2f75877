"""Tests of the benchmark itself: input generation, the tracer, metric
names, and tiny smoke runs of every workload.

    python3 -m pytest -q bench
"""
import json
import re
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import gen
import jobs
import run
from tracer import Tracer, self_times

HERE = Path(__file__).resolve().parent
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")


# -- input generation ---------------------------------------------------------

@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generator_is_deterministic(workload):
    assert gen.generate(workload, 7) == gen.generate(workload, 7)
    assert gen.generate(workload, 7) != gen.generate(workload, 8)


def _l2_sq(weights, arity, arr):
    w = np.array([Fraction(x) for x in weights], dtype=object)
    v = arr * arr
    for _ in range(arity):
        v = np.tensordot(v, w, axes=([v.ndim - 1], [0]))
    return v[()] if isinstance(v, np.ndarray) else v


@pytest.mark.parametrize("seed", range(5))
def test_generated_kernels_have_sup_at_most_one(seed):
    for job in gen.mc_tails(seed):
        cfg = job["config"]
        weights, arity, values = (cfg["space"]["weights"], cfg["kernel"]["arity"],
                                  cfg["kernel"]["values"])
        assert sum(Fraction(w) for w in weights) == 1
        assert max(abs(Fraction(v)) for v in values) <= 1
        proj = gen.canonical_projection(weights, arity, values)
        assert 0 < _l2_sq(weights, arity, proj) <= 1
    for pair in gen.exact_product(seed):
        for kernel in (pair["f"], pair["g"]):
            assert max(abs(Fraction(v)) for v in kernel["values"]) <= 1


def test_canonical_projection_matches_rank_one_kernel():
    proj = gen.canonical_projection(["1/2", "1/2"], 2, ["1", "0", "0", "0"])
    q = Fraction(1, 4)
    assert proj.tolist() == [[q, -q], [-q, q]]


# -- tracer -------------------------------------------------------------------

@pytest.fixture
def toy_package(tmp_path, monkeypatch):
    pkg = tmp_path / "toypkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("from .low import leaf\nfrom . import low, high\n")
    (pkg / "low.py").write_text(
        "def leaf(x):\n    return x + 1\n\n"
        "def items(n):\n    for i in range(n):\n        yield leaf(i)\n\n"
        "class Box:\n    def __init__(self, v):\n        self.v = v\n"
        "    def bump(self):\n        return leaf(self.v)\n"
        "    @property\n    def double(self):\n        return 2 * self.v\n")
    (pkg / "high.py").write_text(
        "from .low import leaf, items, Box\n\n"
        "def top(n):\n    return sum(items(n)) + Box(leaf(n)).bump()\n\n"
        "TABLE = {'top': top}\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    import toypkg
    yield toypkg
    for name in [m for m in sys.modules if m == "toypkg" or m.startswith("toypkg.")]:
        del sys.modules[name]


def test_tracer_wraps_bindings_tables_and_restores(toy_package):
    low, high = toy_package.low, toy_package.high
    originals = (low.leaf, high.leaf, toy_package.leaf, high.TABLE["top"], low.Box.bump,
                 low.items, low.Box.__dict__["double"])
    tr = Tracer("toypkg", ("low", "high"))
    tr.install()
    try:
        assert high.leaf is not originals[1] and high.leaf is low.leaf is toy_package.leaf
        assert high.TABLE["top"] is high.top
        assert high.TABLE["top"](3) == (1 + 2 + 3) + 5
    finally:
        tr.uninstall()
    assert (low.leaf, high.leaf, toy_package.leaf, high.TABLE["top"], low.Box.bump,
            low.items, low.Box.__dict__["double"]) == originals
    a = tr.arrays()
    calls = {name: int((a["is_call"] & (a["name_id"] == i)).sum())
             for i, name in enumerate(tr.names)}
    assert calls["high.top"] == 1
    assert calls["low.items"] == 1
    assert calls["low.Box.bump"] == 1
    assert calls["low.leaf"] == 3 + 1 + 1
    # the generator opened one span per resumption: 3 items and the end
    assert (a["name_id"] == tr.names.index("low.items")).sum() == 1 + 4
    # self times add up: over the tree to the root span, and per span to
    # its duration less its children's
    dur = a["end"] - a["start"]
    own = self_times(a["parent"], dur)
    assert list(a["parent"] == -1).count(True) == 1
    assert own.sum() == pytest.approx(dur[a["parent"] == -1].sum(), rel=1e-9)
    for i in range(len(dur)):
        assert own[i] == pytest.approx(dur[i] - dur[a["parent"] == i].sum(), abs=1e-12)
    assert (own >= 0).all()


# -- metric names -------------------------------------------------------------

def test_metric_names_are_well_formed_and_match_benchmark_json():
    for name in [*run.END_TO_END, *run.PER_LAYER]:
        assert NAME_RE.fullmatch(name) and len(name) <= 64, name
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in doc["workloads"]] == list(jobs.WORKLOADS)


# -- exact checks -------------------------------------------------------------

def test_binomial_consistency_accepts_the_mean_and_rejects_far_counts():
    assert jobs.binomial_consistent(100, 1000, 0.1, 0.1)[0]
    assert not jobs.binomial_consistent(200, 1000, 0.1, 0.1)[0]
    assert not jobs.binomial_consistent(20, 1000, 0.1, 0.1)[0]
    assert jobs.binomial_consistent(0, 1000, 0.0, 0.0) == (True, 0.0)
    assert not jobs.binomial_consistent(1, 1000, 0.0, 0.0)[0]
    # a count between the two ends of a bracket is consistent
    assert jobs.binomial_consistent(300, 1000, 0.1, 0.5)[0]


def test_tail_bracket_straddles_an_attained_level():
    dist = jobs.binomial_indicator_distribution(Fraction(1, 2), 4)
    # |sqrt(4)(B/4 - 1/2)| takes the value 0.5 at B = 1 and 3
    p_lo, p_hi = jobs.tail_bracket(dist, 0.5)
    assert (p_lo, p_hi) == (2 / 16, 2 / 16 + 8 / 16)


# -- smoke runs ---------------------------------------------------------------

def _tiny(workload: str) -> list[dict]:
    inputs = gen.generate(workload, 3)
    if workload == "mc_tails":
        keep = [j for j in inputs
                if j["name"].endswith("-n30-integral") or j["name"] == jobs.McTails.repro_job]
        for j in keep:
            j["config"]["replicates"] = 300
        return keep
    if workload == "exact_product":
        return [p for p in inputs if p["name"] in ("k11-A2", "k12-A3", "k22-A2")]
    return inputs[:1]


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_tiny_smoke_run_passes_its_checks(workload, tmp_path):
    wl = jobs.WORKLOADS[workload](_tiny(workload), tmp_path)
    passes = run.run_passes(wl, 0)
    units, failures = run.check_passes(wl, passes)
    assert failures == []
    assert units[0] > 0
    if workload == "mc_tails":
        err, t1, t2 = wl.reproducibility(tmp_path / "p0")
        assert err is None and t1 > 0 and t2 > 0


def test_traced_call_counts_repeat(tmp_path):
    counts = []
    for attempt in range(2):
        wl = jobs.ExactProduct(_tiny("exact_product"), tmp_path)
        tr = run.new_tracer()
        tr.install()
        try:
            passes = run.run_passes(wl, 0, tracer=tr)
        finally:
            tr.uninstall()
        metrics = run.layer_metrics(tr, passes[0]["wall"])
        counts.append({k: v for k, v in metrics.items() if k.endswith("calls")})
    assert counts[0] == counts[1]
    assert counts[0]["integrals.calls"] > 0 and counts[0]["kernels.calls"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "exact_product",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
