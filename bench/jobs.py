"""The benchmark workloads: jobs that drive empint through its public API,
and the output checks that run after the timed phase.

Each workload takes the generated inputs (see gen.py) and a private work
directory.  ``run(i, p)`` executes job i of pass p and returns its raw
outcome; ``check(passes)`` inspects every outcome and returns, per pass and
job, the units of work the job completed and the first failed check (or
None).  Checks never run inside the timed phase.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

import gen
from empint import cli, integrals, kernels, space

MC_FILES = ("tails.csv", "self_check.csv", "manifest.json")
# A correct estimator fails a single comparison with probability below
# this; a run makes a few hundred, so a false alarm is negligible.
BINOMIAL_ALPHA = 1e-9
# Grid levels are floats; the exact tail is bracketed over this relative
# band so that a level that coincides with an attained value cannot flip
# a whole atom of probability.
TIE_BAND = 1e-9


def _cli(*argv: str) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(list(argv))


def _csv_rows(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


# -- exact tails and the binomial consistency test ---------------------------

def binomial_consistent(hits: int, trials: int, p_lo: float, p_hi: float,
                        alpha: float = BINOMIAL_ALPHA) -> tuple[bool, float]:
    """Whether ``hits`` exceedances in ``trials`` replicates are plausible
    for some tail probability in [p_lo, p_hi]: P(X >= hits | p_hi) and
    P(X <= hits | p_lo) must both be at least alpha.  Also returns the z
    score against the nearest end of the bracket."""
    def tail_ge(p: float) -> float:
        if p <= 0.0:
            return 1.0 if hits == 0 else 0.0
        if p >= 1.0:
            return 1.0
        k = np.arange(hits, trials + 1)
        return float(np.exp(_log_pmf(k, trials, p)).sum())

    def tail_le(p: float) -> float:
        if p >= 1.0:
            return 1.0 if hits == trials else 0.0
        if p <= 0.0:
            return 1.0
        k = np.arange(0, hits + 1)
        return float(np.exp(_log_pmf(k, trials, p)).sum())

    ok = tail_ge(p_hi) >= alpha and tail_le(p_lo) >= alpha
    p_hat = hits / trials
    p = min(max(p_hat, p_lo), p_hi)
    if p_hat == p:
        z = 0.0
    elif 0.0 < p < 1.0:
        z = abs(p_hat - p) / math.sqrt(p * (1.0 - p) / trials)
    else:
        z = math.inf
    return ok, z


def _log_pmf(k: np.ndarray, trials: int, p: float) -> np.ndarray:
    log_fact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, trials + 1)))))
    return (log_fact[trials] - log_fact[k] - log_fact[trials - k]
            + k * math.log(p) + (trials - k) * math.log1p(-p))


def tail_bracket(dist: list[tuple[Fraction, Fraction]], x: float) -> tuple[float, float]:
    """P(|statistic| > x) from an exact distribution of squared values,
    bracketed over x (1 -+ TIE_BAND)."""
    lo_sq = Fraction(x * (1.0 + TIE_BAND)) ** 2
    hi_sq = Fraction(x * (1.0 - TIE_BAND)) ** 2
    p_lo = sum((w for s, w in dist if s > lo_sq), Fraction(0))
    p_hi = sum((w for s, w in dist if s > hi_sq), Fraction(0))
    return float(p_lo), float(p_hi)


def binomial_indicator_distribution(w0: Fraction, n: int) -> list[tuple[Fraction, Fraction]]:
    """Squared statistic of the centered atom-0 indicator, sqrt(n) (B/n - w0)
    with B binomial (n, w0), with its exact probabilities."""
    return [(Fraction((b - n * w0) ** 2, n), math.comb(n, b) * w0**b * (1 - w0) ** (n - b))
            for b in range(n + 1)]


def two_atom_distribution(cfg: dict) -> list[tuple[Fraction, Fraction]]:
    """Squared statistic over all n+1 count vectors of a two-atom space,
    evaluated exactly; the kernel is projected independently of empint."""
    weights = cfg["space"]["weights"]
    arity = cfg["kernel"]["arity"]
    n = cfg["n"]
    sp = space.make_space(weights)
    values = gen.canonical_projection(weights, arity, cfg["kernel"]["values"])
    f = kernels.Kernel(sp, values, tuple(range(1, arity + 1)))
    n_k = Fraction(n) ** arity
    out = []
    for counts, w in space.enumerate_counts(sp, n):
        sample = space.sample_from_counts(sp, counts)
        if cfg["target"] == "integral":
            sq = integrals.eval_integral(f, sample).coeff ** 2 * n_k
        else:
            sq = integrals.eval_ustat(f, sample) ** 2 / n_k
        out.append((sq, w))
    return out


# -- workloads ----------------------------------------------------------------

class McTails:
    """``empint tails`` on 24 configurations; unit: requested replicates."""

    name = "mc_tails"
    unit = "replicates"
    repro_job = "rank_one-n100-integral"

    def __init__(self, inputs: list[dict], workdir: Path):
        self.jobs = inputs
        self.workdir = workdir
        self.configs = []
        for job in inputs:
            path = workdir / f"{job['name']}.json"
            path.write_text(json.dumps(job["config"]))
            self.configs.append(path)

    def _tails(self, i: int, out: Path, workers: int) -> int:
        return _cli("tails", "--config", str(self.configs[i]), "--out-dir", str(out),
                    "--workers", str(workers))

    def run(self, i: int, p: int) -> dict:
        out = self.workdir / f"p{p}" / self.jobs[i]["name"]
        return {"rc": self._tails(i, out, 1), "out": out}

    def check(self, passes: list[list[dict]]) -> list[list[tuple[int, str | None]]]:
        self.worst_z = 0.0
        first = [self._check_outputs(i, o) for i, o in enumerate(passes[0])]
        result = [[(self.jobs[i]["config"]["replicates"] if err is None else 0, err)
                   for i, err in enumerate(first)]]
        for outcomes in passes[1:]:
            row = []
            for i, o in enumerate(outcomes):
                err = first[i] or self._same_bytes(o, passes[0][i]["out"])
                row.append((self.jobs[i]["config"]["replicates"] if err is None else 0, err))
            result.append(row)
        return result

    @staticmethod
    def _same_bytes(outcome: dict, ref: Path) -> str | None:
        if outcome["rc"] != 0:
            return f"exit code {outcome['rc']}"
        for fname in MC_FILES:
            if (outcome["out"] / fname).read_bytes() != (ref / fname).read_bytes():
                return f"{fname} differs between passes"
        return None

    def _check_outputs(self, i: int, outcome: dict) -> str | None:
        if outcome["rc"] != 0:
            return f"exit code {outcome['rc']}"
        cfg = self.jobs[i]["config"]
        out = outcome["out"]
        R, n = cfg["replicates"], cfg["n"]
        manifest = json.loads((out / "manifest.json").read_text())
        if (manifest["seed"], manifest["replicates"], manifest["n"]) != (cfg["seed"], R, n):
            return f"manifest {manifest} does not match the config"

        rows = _csv_rows(out / "tails.csv")[1:]
        xs = [float(r[0]) for r in rows]
        p_hat = [float(r[1]) for r in rows]
        if not rows or any(b <= a for a, b in zip(xs, xs[1:])):
            return "tails grid is empty or not ascending"
        if any(b > a for a, b in zip(p_hat, p_hat[1:])):
            return "p_hat increases along the grid"
        if len(cfg["space"]["weights"]) == 2:
            dist = two_atom_distribution(cfg)
            err = self._compare(dist, xs, p_hat, R, "tails")
            if err:
                return err

        rows = _csv_rows(out / "self_check.csv")[1:]
        w0 = Fraction(cfg["space"]["weights"][0])
        dist = binomial_indicator_distribution(w0, n)
        xs = [float(r[0]) for r in rows]
        for x, p_exact in zip(xs, (float(r[2]) for r in rows)):
            p_lo, p_hi = tail_bracket(dist, x)
            if not p_lo - 1e-12 <= p_exact <= p_hi + 1e-12:
                return f"self_check p_exact {p_exact} outside [{p_lo}, {p_hi}] at x={x}"
        return self._compare(dist, xs, [float(r[1]) for r in rows], R, "self_check")

    def _compare(self, dist, xs, p_hat, R, what) -> str | None:
        for x, p in zip(xs, p_hat):
            p_lo, p_hi = tail_bracket(dist, x)
            ok, z = binomial_consistent(round(p * R), R, p_lo, p_hi)
            self.worst_z = max(self.worst_z, z)
            if not ok:
                return f"{what} p_hat {p} at x={x} inconsistent with exact [{p_lo}, {p_hi}]"
        return None

    def reproducibility(self, reference: Path) -> tuple[str | None, float, float]:
        """Rerun one job with 1 and 2 workers; all artifacts must match the
        timed run byte for byte.  Returns (error, seconds at 1, at 2)."""
        i = [j["name"] for j in self.jobs].index(self.repro_job)
        times = {}
        for workers in (1, 2):
            out = self.workdir / f"workers{workers}"
            t0 = time.perf_counter()
            rc = self._tails(i, out, workers)
            times[workers] = time.perf_counter() - t0
            err = self._same_bytes({"rc": rc, "out": out}, reference / self.repro_job)
            if err:
                return f"--workers {workers}: {err}", times[1], times.get(2, math.nan)
        return None, times[1], times[2]


class ExactProduct:
    """Product identity on 27 kernel pairs; unit: kernel pairs verified."""

    name = "exact_product"
    unit = "pairs"

    def __init__(self, inputs: list[dict], workdir: Path):
        self.jobs = inputs

    def run(self, i: int, p: int) -> list:
        job = self.jobs[i]
        sp = space.make_space(job["weights"])
        f = kernels.kernel_from_json(sp, job["f"])
        g = kernels.kernel_from_json(sp, job["g"])
        terms = integrals.product_formula_terms(f, g)
        return [integrals.check_product_formula(f, g, space.Sample(sp, tuple(pts)), terms)
                for pts in job["samples"]]

    def check(self, passes: list[list[list]]) -> list[list[tuple[int, str | None]]]:
        result = []
        for outcomes in passes:
            row = []
            for results in outcomes:
                err = None
                if len(results) != gen.PRODUCT_SAMPLES:
                    err = f"{len(results)} checks, expected {gen.PRODUCT_SAMPLES}"
                for r in results:
                    if not (isinstance(r.lhs, Fraction) and r.ok and r.lhs == r.rhs):
                        err = f"product identity failed: {r.lhs} != {r.rhs}"
                        break
                row.append((1 if err is None else 0, err))
            result.append(row)
        return result


class VerifySweep:
    """``empint verify``, ``constants`` and ``bounds`` per round; unit: suite
    checks counted in the verify report."""

    name = "verify_sweep"
    unit = "checks"
    suites = ("diagram", "expectation", "norms", "moments", "dominance", "constants")

    def __init__(self, inputs: list[dict], workdir: Path):
        self.jobs = inputs
        self.workdir = workdir
        self.configs = []
        for job in inputs:
            path = workdir / f"{job['name']}.json"
            path.write_text(json.dumps({"seed": job["verify_seed"]}))
            self.configs.append(path)

    def run(self, i: int, p: int) -> dict:
        job = self.jobs[i]
        out = self.workdir / f"p{p}" / job["name"]
        out.mkdir(parents=True)
        b = job["bounds"]
        rcs = (
            _cli("verify", "--config", str(self.configs[i]), "--report", str(out / "report.json")),
            _cli("constants", "--out-dir", str(out / "constants")),
            _cli("bounds", "--k", str(b["k"]), "--sigma", str(b["sigma"]), "--n", str(b["n"]),
                 "--x-grid", b["x_grid"], "--out", str(out / "bounds.csv")),
        )
        return {"rcs": rcs, "out": out}

    def check(self, passes: list[list[dict]]) -> list[list[tuple[int, str | None]]]:
        return [[self._check_one(o) for o in outcomes] for outcomes in passes]

    def _check_one(self, outcome: dict) -> tuple[int, str | None]:
        if outcome["rcs"] != (0, 0, 0):
            return 0, f"exit codes {outcome['rcs']}"
        out = outcome["out"]
        report = json.loads((out / "report.json").read_text())
        results = report["results"]
        if tuple(r["suite"] for r in results) != self.suites:
            return 0, f"suites {[r['suite'] for r in results]}"
        if any(r["status"] != "pass" or r["failures"] for r in results):
            return 0, "a verify suite failed"
        expected = {
            out / "constants" / "moment_constants.csv": 1 + 6 * 13,
            out / "constants" / "expectation_constants.csv": 1 + 11 * 6,
            out / "bounds.csv": 1 + gen.BOUNDS_POINTS,
        }
        for path, rows in expected.items():
            got = len(_csv_rows(path))
            if got != rows:
                return 0, f"{path.name} has {got} rows, expected {rows}"
        return sum(r["checks"] for r in results), None


WORKLOADS = {w.name: w for w in (McTails, ExactProduct, VerifySweep)}
