"""Command line driver.

Subcommands:

    verify     run the self-verification suites; exit 0 iff all pass,
               else the code of the first failing suite
               (10 diagram, 11 expectation, 12 norms, 13 moments,
                14 dominance, 15 constants); --workers N (default: the
               usable CPUs) runs them on up to N forked processes, with
               the same report and stdout for every N
    tails      Monte Carlo tail estimation for a configured kernel;
               writes tails.csv, self_check.csv and a run manifest
    constants  export the exact constant tables as CSV
    bounds     tabulate the closed-form tail bounds over a level grid

All seeds come from configuration; no reproducible artifact depends on the
clock.  Configuration errors (bad JSON, float mode for identity suites,
missing fields, unknown keys, malformed scalars, out-of-schema values, bad
level grids, out-of-range flags such as --workers below 1) exit 2.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys
from fractions import Fraction
from pathlib import Path

from . import bounds as bounds_mod
from . import combinatorics, montecarlo, verify
from .errors import EmpintError, MalformedInput
from .kernels import canonical_project, indicator_kernel, kernel_from_json, l2_norm
from .scalars import format_scalar
from .space import AtomSpace, make_space

DEFAULT_SEED = 12345
REPORT_SCHEMA = 1
_SELF_CHECK_OFFSET = 2 * 10**9


def _load_config(path: str, keys: tuple[str, ...]) -> dict:
    """A JSON object whose keys are all in ``keys`` (the schema's properties)."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise MalformedInput(f"cannot read config {path}: {e}") from e
    if not isinstance(doc, dict):
        raise MalformedInput(f"config {path} must hold a JSON object")
    unknown = sorted(set(doc) - set(keys))
    if unknown:
        raise MalformedInput(f"unknown keys {unknown} in {path}; allowed: {list(keys)}")
    return doc


def _int_field(cfg: dict, key: str, default: int | None = None, minimum: int | None = None) -> int:
    if key not in cfg and default is None:
        raise MalformedInput(f"config needs {key!r}")
    value = cfg.get(key, default)
    if isinstance(value, bool) or not (isinstance(value, int) or (
            isinstance(value, float) and value.is_integer())):
        raise MalformedInput(f"{key!r} must be an integer, got {value!r}")
    value = int(value)
    if minimum is not None and value < minimum:
        raise MalformedInput(f"{key!r} must be at least {minimum}, got {value}")
    return value


def _workers(args) -> int:
    if args.workers < 1:
        raise MalformedInput(f"--workers must be at least 1, got {args.workers}")
    return args.workers


def _levels(values) -> tuple[float, ...]:
    """A level grid: finite positive numbers (ints or floats, not booleans
    or strings), in strictly ascending order."""
    try:
        values = list(values)
        if not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in values):
            raise TypeError
        xs = tuple(float(x) for x in values)
    except (TypeError, OverflowError):
        raise MalformedInput(
            f"grid levels must be numbers in float range, got {values!r}") from None
    if not xs or not all(0 < x < math.inf for x in xs) or any(b <= a for a, b in zip(xs, xs[1:])):
        raise MalformedInput(f"grid levels must be positive and strictly ascending, got {xs}")
    return xs


def space_to_json(space: AtomSpace) -> dict:
    return {"weights": [format_scalar(w) for w in space.weights]}


def space_from_json(doc: dict) -> AtomSpace:
    if not (isinstance(doc, dict) and isinstance(doc.get("weights"), list)):
        raise MalformedInput("space descriptor needs a 'weights' list")
    return make_space(doc["weights"])


def _kernel_hash(space: AtomSpace, kernel_doc: dict, canonicalize: bool) -> str:
    payload = json.dumps({"space": space_to_json(space), "kernel": kernel_doc,
                          "canonicalize": canonicalize}, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


# -- verify -----------------------------------------------------------------

def cmd_verify(args) -> int:
    cfg = _load_config(args.config, ("seed", "mode", "suites")) if args.config else {}
    mode = cfg.get("mode", "exact")
    if mode != "exact":
        raise MalformedInput(f"identity suites require exact mode, got {mode!r}")
    seed = _int_field(cfg, "seed", DEFAULT_SEED, minimum=0)
    suites = cfg.get("suites")
    if suites is not None and not (isinstance(suites, list) and all(
            isinstance(s, str) and s in verify.SUITES for s in suites)):
        raise MalformedInput(f"'suites' must list names from {list(verify.SUITES)}, got {suites!r}")
    results = verify.run_all(seed, suites, workers=_workers(args))
    report = {"schema": REPORT_SCHEMA, "seed": seed, "mode": mode,
              "results": [r.as_dict() for r in results]}
    text = json.dumps(report, indent=2)
    if args.report:
        Path(args.report).write_text(text + "\n")
    for r in results:
        status = "pass" if r.passed else "FAIL"
        print(f"{r.name:12s} {status}  checks={r.checks} failures={r.failures} "
              f"worst={r.worst:.3e}")
    failing = [r for r in results if not r.passed]
    return failing[0].exit_code if failing else 0


# -- tails ------------------------------------------------------------------

def _build_kernel(cfg: dict):
    if "space" not in cfg or "kernel" not in cfg:
        raise MalformedInput("tails config needs 'space' and 'kernel' descriptors")
    kernel_doc = cfg["kernel"]
    if not (isinstance(kernel_doc, dict) and "arity" in kernel_doc
            and isinstance(kernel_doc.get("values"), list)):
        raise MalformedInput("kernel descriptor needs 'arity' and a 'values' list")
    canonicalize = cfg.get("canonicalize", False)
    if not isinstance(canonicalize, bool):
        raise MalformedInput(f"'canonicalize' must be true or false, got {canonicalize!r}")
    space = space_from_json(cfg["space"])
    f = kernel_from_json(space, kernel_doc)
    if canonicalize:
        f = canonical_project(f)
    return space, f, canonicalize


_TAILS_KEYS = ("space", "kernel", "canonicalize", "replicates", "n", "x_grid",
               "grid_points", "seed", "target")


def cmd_tails(args) -> int:
    _workers(args)  # validated only: replicates run serially
    cfg = _load_config(args.config, _TAILS_KEYS)
    replicates, n = _int_field(cfg, "replicates"), _int_field(cfg, "n")
    space, f, canonicalize = _build_kernel(cfg)
    seed = _int_field(cfg, "seed", DEFAULT_SEED, minimum=0)
    grid_points = _int_field(cfg, "grid_points", 12, minimum=2)
    grid = _levels(cfg["x_grid"]) if "x_grid" in cfg else ()
    try:
        mc = montecarlo.McConfig(replicates, seed, n, grid, cfg.get("target", "integral"))
    except ValueError as e:
        raise MalformedInput(str(e)) from None
    if not mc.x_grid:
        grid = montecarlo.auto_grid(f, mc, points=grid_points)
        mc = montecarlo.McConfig(mc.replicates, mc.seed, mc.n, grid, mc.target)
    est = montecarlo.estimate_tail(f, mc)
    if est.sigma == 0.0:
        # zero kernel: the statistic vanishes identically, so the exact
        # tail is zero and there is nothing to fit
        p13 = p16 = None
    else:
        try:
            p13 = montecarlo.fit_constants(est, "two_regime")
            p16 = montecarlo.fit_constants(est, "bernstein")
        except EmpintError as e:
            raise MalformedInput(f"cannot fit bound constants: {e}") from e

    outdir = Path(args.out_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    with open(outdir / "tails.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["x", "p_hat", "stderr", "bound13", "bound16"])
        for x, p, se in zip(est.x_grid, est.p_hat, est.stderr):
            if p13 is None:
                b13 = b16 = 0.0
            else:
                b13 = bounds_mod.two_regime_tail_bound(x, est.k, est.sigma, est.n, p13)
                b16 = bounds_mod.bernstein_tail_bound(x, est.k, est.sigma, est.n, p16)
            w.writerow([repr(x), repr(p), repr(se), repr(b13), repr(b16)])

    # self check: the arity-1 centered indicator has an exact binomial tail
    w0 = space.weights[0]
    ind = canonical_project(indicator_kernel(space, 0))
    sc_mc = montecarlo.McConfig(mc.replicates, seed, mc.n, (), "integral")
    sc_values = montecarlo.replicate_values(ind, sc_mc, base_offset=_SELF_CHECK_OFFSET)
    sc_grid = montecarlo.binomial_levels(w0, mc.n, l2_norm(ind), (0.5, 1.0, 1.5, 2.0, 3.0))
    exact = montecarlo.binomial_tail_oracle(Fraction(w0), mc.n, sc_grid)
    p_hat, _ = montecarlo.exceedance(sc_values, sc_grid)
    # the standard error of the exact tail, so a run that misses a rare level still scores
    stderr = [math.sqrt(pe * (1.0 - pe) / mc.replicates) for pe in exact]
    zs = [abs(p - pe) / se if se > 0 else (0.0 if p == pe else math.inf)
          for pe, p, se in zip(exact, p_hat, stderr)]
    with open(outdir / "self_check.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["x", "p_hat", "p_exact", "stderr", "z"])
        for row in zip(sc_grid, p_hat, exact, stderr, zs):
            w.writerow([repr(v) for v in row])

    manifest = {"seed": seed, "replicates": mc.replicates, "n": mc.n,
                "kernel_hash": _kernel_hash(space, cfg["kernel"], canonicalize)}
    (outdir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    print(f"wrote {outdir}/tails.csv, self_check.csv, manifest.json; "
          f"worst self-check z {max(zs):.2f}")
    return 0


# -- constants --------------------------------------------------------------

def cmd_constants(args) -> int:
    for flag, value, minimum in (("--k-max", args.k_max, 1), ("--m-max", args.m_max, 0),
                                 ("--n-max", args.n_max, 2)):
        if value < minimum:
            raise MalformedInput(f"{flag} must be at least {minimum}, got {value}")
    outdir = Path(args.out_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    table = combinatorics.moment_constant_table(args.k_max, args.m_max)
    with open(outdir / "moment_constants.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["k", "m", "D", "Cbar"])
        for k, m, d, cbar in table.rows:
            w.writerow([k, m, str(d), str(cbar)])
    with open(outdir / "expectation_constants.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        # B_nk is the exact rational b with scaled constant = b * n^{-k/2}
        w.writerow(["n", "k", "B_nk"])
        for n in range(2, args.n_max + 1):
            for k in range(1, args.k_max + 1):
                b = combinatorics.expectation_coefficient(n, k) * Fraction(n) ** k
                w.writerow([n, k, str(b)])
    print(f"wrote {outdir}/moment_constants.csv, expectation_constants.csv")
    return 0


# -- bounds -----------------------------------------------------------------

def _parse_grid(text: str) -> tuple[float, ...]:
    try:
        if ":" not in text:
            return _levels([float(x) for x in text.split(",")])
        lo, hi, num = text.split(":")
        lo, hi, num = float(lo), float(hi), int(num)
    except ValueError:
        raise MalformedInput(f"bad grid spec {text!r}") from None
    if num < 1 or not 0 < lo < hi:
        raise MalformedInput(f"bad grid spec {text!r}")
    step = (hi / lo) ** (1.0 / max(num - 1, 1))
    return _levels(lo * step**i for i in range(num))


def cmd_bounds(args) -> int:
    if args.k < 1 or args.n < 1 or not 0 < args.sigma <= 1:
        raise MalformedInput(f"need --k >= 1, 0 < --sigma <= 1 and --n >= 1, "
                             f"got {args.k}, {args.sigma}, {args.n}")
    params = bounds_mod.BoundParams()
    if args.constants_file:
        doc = _load_config(args.constants_file, ("C", "alpha", "c1", "c2"))
        try:
            consts = {key: float(v) for key, v in doc.items()}
        except (TypeError, ValueError):
            consts = None
        if consts is None or not all(0 < v < math.inf for v in consts.values()):
            raise MalformedInput(f"bound constants must be positive finite numbers, got {doc}")
        params = bounds_mod.BoundParams(**consts)
    grid = _parse_grid(args.x_grid)
    rows = bounds_mod.regime_report(args.k, args.sigma, args.n, grid, params)
    out = Path(args.out)
    with open(out, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["x", "bound13", "bound16", "active_branch", "log_ratio"])
        for x, b13, b16, branch, lr in rows:
            w.writerow([repr(x), repr(b13), repr(b16), branch, repr(lr)])
    print(f"wrote {out}")
    return 0


# -- entry point ------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="empint",
        description="Exact and Monte Carlo analysis of empirical-measure multiple integrals.",
        epilog="verify exit codes: 10 diagram, 11 expectation, 12 norms, "
               "13 moments, 14 dominance, 15 constants; config errors exit 2.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run the self-verification suites")
    p.add_argument("--config", help="JSON config with seed/mode/suites")
    p.add_argument("--report", help="where to write the JSON report")
    p.add_argument("--workers", type=int, help="processes to run the suites on "
                   "(default: the usable CPUs); 1 runs them in this process",
                   default=len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                   else os.cpu_count() or 1)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("tails", help="Monte Carlo tail estimation")
    p.add_argument("--config", required=True, help="JSON run configuration")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--workers", type=int, default=1,
                   help="accepted for compatibility; replicates always run serially")
    p.set_defaults(func=cmd_tails)

    p = sub.add_parser("constants", help="export exact constant tables")
    p.add_argument("--k-max", type=int, default=6)
    p.add_argument("--m-max", type=int, default=12)
    p.add_argument("--n-max", type=int, default=12)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_constants)

    p = sub.add_parser("bounds", help="tabulate tail bounds over a grid")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--x-grid", required=True, help="lo:hi:num (geometric) or x1,x2,...")
    p.add_argument("--constants-file", help="JSON with C/alpha/c1/c2")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_bounds)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except MalformedInput as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return 2
    except EmpintError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
