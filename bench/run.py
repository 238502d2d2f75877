"""empint benchmark: one workload, end to end or traced, from the repo root.

    python3 bench/run.py --workload mc_tails --seed 1 --seconds 30 --trace 0

Workloads (see gen.py for the inputs and jobs.py for the jobs and checks):
mc_tails, exact_product, verify_sweep; ``--workload all`` runs the three in
turn, each in its own process.  Each is a closed loop, one job at a
time in one process: the job list is run in whole passes, as many as bring
the timed phase closest to ``--seconds``.  Outputs are checked after the
timed phase.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` repeats the
untraced passes, then runs one more pass with every public function of the
library layers wrapped by the span tracer (tracer.py) and prints the
per-layer metrics.  Either way the last stdout line is one JSON object
{"correct", "attempted", "failed", "metrics"}; the full record, with
provenance, goes to .bench_out/.  The program is imported from ./src and
the benchmark exits nonzero without a result if it is not there.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import gen

ROOT = Path.cwd()
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
SETUP_PROBES = 5

LAYERS = ("space", "kernels", "diagrams", "integrals", "combinatorics", "dominance",
          "bounds", "montecarlo", "verify", "cli")

# Throughput and latency are gated in reference units: a "ref" is the time
# of REF_LOOP iterations of a fixed pure-Python loop, timed before every
# job.  On a shared host the speed of the whole machine drifts over
# minutes; the interleaved reference drifts with it, so the ratio stays
# steady where raw seconds do not.  The raw seconds are printed and kept in
# the record.
REF_LOOP = 30_000
END_TO_END = {
    "setup_s": "s",
    "units_per_kref": "1/kref",
    "job_ref_p50": "ref",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}

PER_LAYER = {
    **{f"{layer}.{kind}": unit for layer in LAYERS
       for kind, unit in (("calls", "count"), ("self_s", "s"), ("share", "ratio"))},
    "space.seed_us_per_replicate": "us",
    "space.draw_us_per_replicate": "us",
    "integrals.eval_float_calls": "count",
    "integrals.eval_float_us_per_call": "us",
    "integrals.eval_exact_calls": "count",
    "integrals.eval_exact_ms_per_call": "ms",
    "integrals.terms_s": "s",
    "diagrams.contract_calls": "count",
    "diagrams.contract_ms_per_diagram": "ms",
    "kernels.tensor_product_s": "s",
    "combinatorics.oracle_s": "s",
    "dominance.transport_s": "s",
    "dominance.verify_s": "s",
    "montecarlo.replicates": "count",
    "montecarlo.us_per_replicate": "us",
    "montecarlo.pilot_share": "ratio",
    "montecarlo.workers2_speedup": "ratio",
    "tracing_overhead": "ratio",
}


def ref_loop(iterations: int = REF_LOOP) -> float:
    """Seconds taken by a fixed pure-Python loop: the host-speed yardstick."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(iterations):
        acc += i * i % 7
    return time.perf_counter() - t0


def host_ref_s() -> float:
    """Best of three 1e6-iteration reference loops, reported before and
    after the timed phase so that host drift shows next to every run."""
    return min(ref_loop(1_000_000) for _ in range(3))


def provenance(workload: str, seed: int) -> dict:
    import numpy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted((SRC / "empint").glob("*.py")))
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": git_commit(),
        "src_empint_lines": src_lines,
    }


def git_commit() -> str:
    """HEAD of the checkout read from .git directly; a checkout that is not a
    git repository reports 'unknown'.  Never looks above the checkout."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = ROOT / ".git" / name
        if path.is_file():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def import_program():
    """Import empint from ./src and nowhere else."""
    if not (SRC / "empint" / "__init__.py").is_file():
        raise SystemExit(f"error: no program at {SRC / 'empint'}; run from the repo root")
    sys.path.insert(0, str(SRC))
    import empint
    if Path(empint.__file__).resolve().parent != (SRC / "empint").resolve():
        raise SystemExit(f"error: empint imported from {empint.__file__}, not {SRC}")
    return empint


def build(workload: str, seed: int, workdir: Path):
    import jobs  # imports empint
    return jobs.WORKLOADS[workload](gen.generate(workload, seed), workdir)


def measure_setup(workload: str, seed: int) -> list[float]:
    """Wall time of fresh interpreters that import empint, generate the
    inputs and write them out, then exit."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                               "--seed", str(seed), "--setup-probe"],
                              cwd=ROOT, stdout=subprocess.DEVNULL, timeout=120)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise SystemExit(f"error: setup probe exited {proc.returncode}")
    return times


def run_passes(wl, seconds: float, first_pass: int = 0, tracer=None) -> list[dict]:
    """Whole passes over the job list, as many as bring the elapsed time
    closest to ``seconds`` (at least one).  A reference loop is timed before
    each job.  A job that raises is recorded as failed."""
    passes = []
    t_start = time.perf_counter()
    while True:
        p = first_pass + len(passes)
        durations, outcomes, errors, refs = [], [], [], []
        for i in range(len(wl.jobs)):
            refs.append(ref_loop())
            if tracer is not None:
                tracer.job_id = i
            t0 = time.perf_counter()
            try:
                outcomes.append(wl.run(i, p))
                errors.append(None)
            except Exception:
                outcomes.append(None)
                errors.append(traceback.format_exc())
            durations.append(time.perf_counter() - t0)
        passes.append({"wall": sum(durations), "durations": durations, "refs": refs,
                       "outcomes": outcomes, "errors": errors})
        elapsed = time.perf_counter() - t_start
        if elapsed + elapsed / len(passes) / 2 >= seconds:
            return passes


def check_passes(wl, passes: list[dict]) -> tuple[list[int], list[str]]:
    """Units completed per pass, and one message per failed job."""
    if any(e for p in passes for e in p["errors"]):
        verdicts = [[(0, e.strip().splitlines()[-1]) if e else (0, "not checked")
                     for e in p["errors"]] for p in passes]
    else:
        try:
            verdicts = wl.check([p["outcomes"] for p in passes])
        except Exception:
            msg = traceback.format_exc().strip().splitlines()[-1]
            verdicts = [[(0, f"check raised: {msg}")] * len(p["outcomes"]) for p in passes]
    units = [sum(u for u, _ in rows) for rows in verdicts]
    failures = [f"pass {p} job {wl.jobs[i]['name']}: {err}"
                for p, rows in enumerate(verdicts) for i, (_, err) in enumerate(rows)
                if err is not None]
    return units, failures


def layer_metrics(tracer, wall: float, job: int | None = None) -> dict:
    """The per-layer metrics from the recorded spans, over the whole traced
    pass or over one job of it."""
    import numpy as np
    from tracer import self_times

    a = tracer.arrays()
    names = tracer.names
    name_id, parent = a["name_id"], a["parent"]
    dur = a["end"] - a["start"]
    own = self_times(parent, dur)
    parent_name = np.where(parent >= 0, name_id[np.maximum(parent, 0)], -1)
    scope = np.ones(len(dur), dtype=bool) if job is None else a["job"] == job
    ids = {n: i for i, n in enumerate(names)}

    def mask(*wanted):
        return scope & np.isin(name_id, [ids[n] for n in wanted if n in ids])

    def inclusive(*wanted) -> float:
        """Time under spans of these names; a span directly under another
        span of these names is already counted in its parent."""
        nested = np.isin(parent_name, [ids[n] for n in wanted if n in ids])
        return float(dur[mask(*wanted) & ~nested].sum())

    def calls(*wanted) -> int:
        return int((mask(*wanted) & a["is_call"]).sum())

    def per(total: float, count: int, scale: float) -> float:
        return total / count * scale if count else 0.0

    m = {}
    for layer in LAYERS:
        in_layer = [n for n in names if n.split(".", 1)[0] == layer]
        self_s = float(own[mask(*in_layer)].sum())
        m[f"{layer}.calls"] = calls(*in_layer)
        m[f"{layer}.self_s"] = self_s
        m[f"{layer}.share"] = self_s / wall

    draw = mask("space.draw_sample") & (parent_name == ids.get("montecarlo.replicate_values", -2))
    replicates = int(draw.sum())
    pilot_parent = np.isin(parent, np.nonzero(
        mask("montecarlo.replicate_values") & (parent_name == ids.get("montecarlo.auto_grid", -2)))[0])
    pilot = int((draw & pilot_parent).sum())
    m["space.seed_us_per_replicate"] = per(
        inclusive("space.RandomSource.child", "space.RandomSource.generator"), replicates, 1e6)
    m["space.draw_us_per_replicate"] = per(float(dur[draw].sum()), replicates, 1e6)
    floats = ("integrals.eval_integral[float]", "integrals.eval_ustat[float]")
    exacts = ("integrals.eval_integral[exact]", "integrals.eval_ustat[exact]")
    m["integrals.eval_float_calls"] = calls(*floats)
    m["integrals.eval_float_us_per_call"] = per(inclusive(*floats), calls(*floats), 1e6)
    m["integrals.eval_exact_calls"] = calls(*exacts)
    m["integrals.eval_exact_ms_per_call"] = per(inclusive(*exacts), calls(*exacts), 1e3)
    m["integrals.terms_s"] = inclusive("integrals.product_formula_terms")
    m["diagrams.contract_calls"] = calls("diagrams.contract")
    m["diagrams.contract_ms_per_diagram"] = per(
        inclusive("diagrams.contract"), calls("diagrams.contract"), 1e3)
    m["kernels.tensor_product_s"] = inclusive("kernels.tensor_product")
    m["combinatorics.oracle_s"] = inclusive("combinatorics.expected_integral_oracle",
                                            "combinatorics.moment_oracle",
                                            "combinatorics.ustat_moment_oracle")
    m["dominance.transport_s"] = inclusive("dominance.contract_certificate")
    m["dominance.verify_s"] = inclusive("dominance.verify_certificate")
    m["montecarlo.replicates"] = replicates
    m["montecarlo.us_per_replicate"] = per(inclusive("montecarlo.replicate_values"), replicates, 1e6)
    m["montecarlo.pilot_share"] = pilot / replicates if replicates else 0.0
    return m


def new_tracer():
    from tracer import Tracer

    def mode(f, *args, **kwargs):
        return "exact" if f.values.dtype == object else "float"

    return Tracer("empint", LAYERS, split={"integrals.eval_integral": mode,
                                            "integrals.eval_ustat": mode})


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*gen.WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="build the inputs and exit (used to time set-up)")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        ap.error("--seed and --seconds must be non-negative")

    import_program()
    if args.workload == "all":
        return run_all(args)
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".bench_work"))
    try:
        wl = build(args.workload, args.seed, workdir)
        if args.setup_probe:
            return 0
        return measure(args, wl)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_all(args) -> int:
    """Every workload in turn, each in a fresh process.  The last line
    merges their results, with each metric name prefixed by its workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in gen.WORKLOADS:
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"error: {workload} exited {proc.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{workload}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged))
    return 0


def measure(args, wl) -> int:
    record = {"provenance": provenance(args.workload, args.seed)}
    setup = [] if args.trace else measure_setup(args.workload, args.seed)
    record["provenance"]["host_ref_s_before"] = host_ref_s()

    timed = run_passes(wl, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    passes = list(timed)
    if args.trace:
        tracer = new_tracer()
        tracer.install()
        try:
            traced = run_passes(wl, 0, first_pass=len(passes), tracer=tracer)[0]
        finally:
            tracer.uninstall()
        passes.append(traced)
    record["provenance"]["host_ref_s_after"] = host_ref_s()

    units, failures = check_passes(wl, passes)
    attempted = sum(len(p["durations"]) for p in passes)
    failed_jobs = len(failures)
    speedup = 0.0
    if wl.name == "mc_tails":
        err, t1, t2 = wl.reproducibility(wl.workdir / "p0")
        speedup = t1 / t2
        if err:
            failures.append(f"reproducibility: {err}")
        record["worst_z"] = wl.worst_z

    durations = [d for p in timed for d in p["durations"]]
    refs = [r for p in timed for r in p["refs"]]
    ref_s = statistics.mean(refs)
    raw = {"units_per_s": sum(units[:len(timed)]) / sum(durations),
           "job_s_p50": statistics.median(durations),
           "ref_s": ref_s}
    if args.trace:
        metrics = layer_metrics(tracer, traced["wall"])
        metrics["montecarlo.workers2_speedup"] = speedup
        untraced = statistics.median(p["wall"] / statistics.mean(p["refs"]) for p in timed)
        metrics["tracing_overhead"] = (
            traced["wall"] / statistics.mean(traced["refs"]) / untraced - 1.0)
        spec = PER_LAYER
        record["per_job"] = {job["name"]: layer_metrics(tracer, traced["durations"][i], job=i)
                             for i, job in enumerate(wl.jobs)}
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "units_per_kref": raw["units_per_s"] * ref_s * 1000.0,
            # each job against the references timed just before it, before
            # the job ahead of it and before the job after it
            "job_ref_p50": statistics.median(
                d / statistics.mean(refs[max(0, i - 1):i + 2]) for i, d in enumerate(durations)),
            "peak_rss_mb": peak_rss_mb,
            "ok_ratio": (attempted - failed_jobs) / attempted,
        }
        spec = END_TO_END
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed_jobs,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in spec.items()},
    }
    record.update(
        passes=len(passes), jobs_per_pass=len(wl.jobs), unit=wl.unit, units_per_pass=units,
        pass_walls=[p["wall"] for p in passes], job_durations=[p["durations"] for p in passes],
        refs=[p["refs"] for p in passes],
        setup_probes=setup, raw=raw, failures=failures, result=result)
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    if args.trace:
        tracer.save(out_dir / f"{stem}-spans.npz")

    for f in failures[:20]:
        print(f"FAILED {f}", file=sys.stderr)
    print("provenance " + json.dumps(record["provenance"]))
    print(f"{args.workload}: {attempted} jobs in {len(passes)} passes of {len(wl.jobs)}, "
          f"{sum(units)} {wl.unit}, failed_ratio {failed_jobs / attempted:.4f}, "
          f"units_per_s {raw['units_per_s']:.6g}, job_s_p50 {raw['job_s_p50']:.6g} s, "
          f"ref {raw['ref_s'] * 1e3:.4g} ms")
    for name, m in result["metrics"].items():
        print(f"  {name:36s} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
