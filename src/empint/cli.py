"""Command line driver.

Subcommands:

    verify     run the self-verification suites; exit 0 iff all pass,
               else the code of the first failing suite, as listed in
               ``verify.SUITES``, the one table of suites and codes that
               the --help epilog and the config schema also read; a suite
               that raises fails in the report, and the first such suite
               in requested order has its error written and exits 1;
               --workers N (default: the usable CPUs) runs them on up to
               N processes, this one and forked children, which claim the
               suites longest first from a pipe; the report and stdout are
               the same for every N
    tails      Monte Carlo tail estimation for a configured kernel;
               writes tails.csv, self_check.csv and a run manifest: the
               config and grid are checked, the replicates drawn once and
               the ``montecarlo`` stages give both files' rows; the self
               check reads the first atom of weight in (0, 1), if any
    constants  export the exact constant tables as CSV; a table with an
               integer past the interpreter's int-to-str digit limit
               exits 2 and writes no file
    bounds     tabulate the closed-form tail bounds over a level grid

All seeds come from configuration; no reproducible artifact depends on the
clock.  Config files and range-checked flags are read through one table in
JSON Schema's keywords (``SCHEMAS``, ``_FLAGS``); a value outside it, an
unreadable config or an output path that cannot be written exits 2, as
argparse's own usage errors do.  ``main`` returns the exit code in every
case, ``--help`` included (0), and raises no ``SystemExit``.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from fractions import Fraction
from functools import cache
from pathlib import Path

import numpy as np

from . import __version__
from . import bounds as bounds_mod
from . import combinatorics, montecarlo, verify
from .errors import EmpintError, InsufficientTailData, MalformedInput
from .kernels import MAX_ARITY, canonical_project, kernel_from_json
from .scalars import format_scalar, in_float_range
from .space import draw_counts, make_space

DEFAULT_SEED = 12345
REPORT_SCHEMA = 1

# -- the schema table -------------------------------------------------------
# One JSON Schema per config file; docs/config_schema.md carries the same
# blocks and a test holds the two equal.  Nested objects allow extra keys.

_SCALARS = {"type": "array", "items": {"type": ["string", "number"]}}
_SEED = {"type": "integer", "minimum": 0, "default": DEFAULT_SEED}
# A run holds an array of eight-byte items per replicate, per sample point and
# per auto-grid level.  numpy refuses any array past 2^63 - 1 bytes, and
# np.geomspace rounds its count to a float, so 2^59 keeps a margin.
_COUNT = {"type": "integer", "minimum": 1, "maximum": 2**59}
_CONSTANT = {"type": "number", "exclusiveMinimum": 0, "default": 1.0}
SCHEMAS = {
    "verify": {"type": "object", "additionalProperties": False, "properties": {
        "seed": _SEED,
        "mode": {"const": "exact", "default": "exact"},
        "suites": {"type": "array", "minItems": 1, "uniqueItems": True,
                   "items": {"enum": list(verify.SUITES)}, "default": list(verify.SUITES)}}},
    "tails": {"type": "object", "additionalProperties": False,
              "required": ["space", "kernel", "replicates", "n"], "properties": {
        "space": {"type": "object", "required": ["weights"], "properties": {"weights": _SCALARS}},
        "kernel": {"type": "object", "required": ["arity", "values"], "properties": {
            "arity": {"type": "integer", "minimum": 0, "maximum": MAX_ARITY},
            "values": _SCALARS}},
        "canonicalize": {"type": "boolean", "default": False},
        "replicates": _COUNT,
        "n": _COUNT,
        "x_grid": {"type": "array", "minItems": 1,
                   "items": {"type": "number", "exclusiveMinimum": 0}},
        "grid_points": {**_COUNT, "minimum": 2, "default": 12},
        "seed": _SEED,
        "target": {"enum": ["integral", "ustat"], "default": "integral"}}},
    "bounds": {"type": "object", "additionalProperties": False, "properties": {
        "C": _CONSTANT, "alpha": _CONSTANT, "c1": _CONSTANT, "c2": _CONSTANT}},
}
# The range-checked flags, by argparse dest.
_FLAGS = {dest: {"type": "integer", "minimum": low} for dest, low in (
    ("workers", 1), ("k", 1), ("n", 1), ("k_max", 1), ("m_max", 0), ("n_max", 2))}
_FLAGS["sigma"] = {"type": "number", "exclusiveMinimum": 0, "maximum": 1}
# "number" is a finite JSON number in float range, "integer" any whole number.
_TYPES = {
    "object": lambda v: isinstance(v, dict), "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str), "boolean": lambda v: isinstance(v, bool),
    "number": lambda v: type(v) in (int, float) and in_float_range(v),
    "integer": lambda v: type(v) is int or type(v) is float and v.is_integer(),
}


def _check(name: str, value, spec: dict):
    """``value`` checked against ``spec`` in the JSON Schema keywords the
    table uses, with an integral float of type integer read as an int and
    an object's absent properties filled from their defaults.  Anything
    else raises MalformedInput naming ``name``."""
    def refuse(rule: str):
        raise MalformedInput(f"{name} must {rule}, got {value!r}")

    types = spec.get("type", [])
    types = [types] if isinstance(types, str) else types
    if types and not any(_TYPES[t](value) for t in types):
        refuse(f"be of type {' or '.join(types)}")
    if "integer" in types and isinstance(value, float):
        value = int(value)
    if "const" in spec and value != spec["const"]:
        refuse(f"be {spec['const']!r}")
    if "enum" in spec and value not in spec["enum"]:
        refuse(f"be one of {spec['enum']}")
    if "minimum" in spec and value < spec["minimum"]:
        refuse(f"be at least {spec['minimum']}")
    if "exclusiveMinimum" in spec and value <= spec["exclusiveMinimum"]:
        refuse(f"be above {spec['exclusiveMinimum']}")
    if "maximum" in spec and value > spec["maximum"]:
        refuse(f"be at most {spec['maximum']}")
    if "minItems" in spec and len(value) < spec["minItems"]:
        refuse(f"hold at least {spec['minItems']} items")
    if "items" in spec:
        value = [_check(f"{name}[{i}]", v, spec["items"]) for i, v in enumerate(value)]
    if spec.get("uniqueItems") and any(v in value[:i] for i, v in enumerate(value)):
        refuse("hold no item twice")
    if "properties" in spec:
        props = spec["properties"]
        missing = [key for key in spec.get("required", []) if key not in value]
        if missing:
            raise MalformedInput(f"{name} needs the keys {missing}")
        unknown = sorted(set(value) - set(props))
        if unknown and spec.get("additionalProperties", True) is False:
            raise MalformedInput(f"unknown keys {unknown} in {name}; allowed: {list(props)}")
        value = {**value, **{key: _check(f"{name}.{key}", value[key], sub) if key in value
                             else sub["default"]
                             for key, sub in props.items() if key in value or "default" in sub}}
    return value


def _read_config(path: str | None, schema: dict) -> dict:
    """The JSON object in the file at ``path`` (none: the empty object),
    checked against ``schema`` and with its defaults filled in."""
    doc = {}
    if path:
        try:
            with open(path) as fh:
                doc = json.load(fh)
        except (OSError, ValueError, RecursionError) as e:
            raise MalformedInput(f"cannot read config {path}: {e}") from e
    return _check("config", doc, schema)


def _write(files: dict, out_dir: str = "") -> None:
    """Write each of ``files``, a path under ``out_dir`` (created if absent)
    -> its text or CSV rows.  A path that cannot be written is a
    configuration error, as an unreadable config is."""
    path = Path(out_dir)
    try:
        if out_dir:
            path.mkdir(parents=True, exist_ok=True)
        for name, content in files.items():
            path = Path(out_dir, name)
            with open(path, "w", newline="") as fh:
                if isinstance(content, str):
                    fh.write(content)
                else:
                    csv.writer(fh).writerows(content)
    except OSError as e:
        raise MalformedInput(f"cannot write {path}: {e}") from e


# -- verify -----------------------------------------------------------------

def cmd_verify(args) -> int:
    cfg = _read_config(args.config, SCHEMAS["verify"])
    workers = args.workers or (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                               else os.cpu_count() or 1)  # read per call: the parser is cached
    results = verify.run_all(cfg["seed"], cfg["suites"], workers=workers)
    report = {"schema": REPORT_SCHEMA, "seed": cfg["seed"], "mode": cfg["mode"],
              "results": [r.as_dict() for r in results]}
    if args.report:
        _write({args.report: json.dumps(report, indent=2) + "\n"})
    for r in results:
        status = "pass" if r.passed else "FAIL"
        print(f"{r.name:12s} {status}  checks={r.checks} failures={r.failures} "
              f"worst={r.worst:.3e}")
    raised = [r for r in results if r.error is not None]
    if raised:  # a library error, or a bug with its traceback
        r = raised[0]
        print(f"{r.traceback}error: {r.error} (raised by verify suite {r.name!r})",
              file=sys.stderr)
        return 1
    failing = [r for r in results if not r.passed]
    return failing[0].exit_code if failing else 0


# -- tails ------------------------------------------------------------------

def cmd_tails(args) -> int:
    import hashlib  # OpenSSL, for the manifest's one digest: loaded by tails alone

    cfg = _read_config(args.config, SCHEMAS["tails"])
    try:
        space = make_space(cfg["space"]["weights"])
        f = kernel_from_json(space, cfg["kernel"])
    except EmpintError as e:
        raise MalformedInput(f"bad space or kernel: {e}") from e
    if cfg["canonicalize"]:
        f = canonical_project(f)
    mc = montecarlo.McConfig(cfg["replicates"], cfg["seed"], cfg["n"], cfg["target"])
    if "x_grid" in cfg:  # checked here, before any replicate is drawn
        grid, provenance = bounds_mod.levels(cfg["x_grid"]), {"grid": "config"}
    else:
        try:
            grid, pilot = montecarlo.auto_grid(f, mc, points=cfg["grid_points"])
        except InsufficientTailData as e:  # a statistic that vanishes: no scale
            raise MalformedInput(f"{e}: no auto grid; give an x_grid") from e
        provenance = {"grid": "auto", "pilot_replicates": pilot}
    counts = draw_counts(space, mc.n, mc.seed, mc.replicates)
    est = montecarlo.estimate_tail(f, mc, counts, grid)
    try:
        tails = montecarlo.tail_rows(est)
    except EmpintError as e:
        raise MalformedInput(f"cannot fit bound constants: {e}") from e
    # the first atom whose indicator varies; none when one atom holds all the weight
    atom = next((a for a, w in enumerate(space.weights) if 0 < w < 1), None)
    checks = [] if atom is None else montecarlo.self_check(space.weights[atom], mc.n,
                                                           counts[:, atom])

    # the space, the kernel as written and canonicalize
    hashed = json.dumps({"space": {"weights": [format_scalar(w) for w in space.weights]},
                         "kernel": cfg["kernel"], "canonicalize": cfg["canonicalize"]},
                        sort_keys=True, separators=(",", ":"))
    manifest = {"seed": mc.seed, "replicates": mc.replicates, "n": mc.n, "target": mc.target,
                **provenance, "version": __version__,
                "kernel_hash": hashlib.sha256(hashed.encode()).hexdigest()[:16]}
    # csv writes a float as its repr, the shortest string that reads back as it
    _write({"tails.csv": [["x", "p_hat", "stderr", "bound13", "bound16"], *tails],
            "self_check.csv": [["x", "p_hat", "p_exact", "stderr", "z"], *checks],
            "manifest.json": json.dumps(manifest, indent=2) + "\n"}, args.out_dir)
    print(f"wrote {Path(args.out_dir)}/tails.csv, self_check.csv, manifest.json; " + (
        f"worst self-check z {max(row[4] for row in checks):.2f}" if checks
        else "no self-check ran: one atom holds all the weight"))
    return 0


# -- constants --------------------------------------------------------------

def cmd_constants(args) -> int:
    # every row is formatted before any file is written, so a constant past
    # the interpreter's digit limit for int-to-str leaves no file behind
    try:
        moment = [[k, m, str(d), str(c)]
                  for k, m, d, c in combinatorics.moment_constant_table(args.k_max, args.m_max)]
        # B_nk is the exact rational b with scaled constant = b * n^{-k/2}
        expectation = [[n, k, str(combinatorics.expectation_coefficient(n, k) * Fraction(n) ** k)]
                       for n in range(2, args.n_max + 1) for k in range(1, args.k_max + 1)]
    except ValueError as e:
        raise MalformedInput(f"--k-max {args.k_max} with --m-max {args.m_max} and --n-max "
                             f"{args.n_max} gives a constant too long to write: {e}") from e
    _write({"moment_constants.csv": [["k", "m", "D", "Cbar"], *moment],
            "expectation_constants.csv": [["n", "k", "B_nk"], *expectation]}, args.out_dir)
    print(f"wrote {Path(args.out_dir)}/moment_constants.csv, expectation_constants.csv")
    return 0


# -- bounds -----------------------------------------------------------------

def _parse_grid(text: str) -> list[float]:
    """The levels of ``--x-grid``, unchecked: ``regime_report`` checks them.
    ``lo:hi:num`` is ``np.geomspace(lo, hi, num)``, as ``auto_grid`` spaces
    its levels, so both ends are exactly ``lo`` and ``hi``."""
    try:
        if ":" not in text:
            return [float(x) for x in text.split(",")]
        lo, hi, num = text.split(":")
        lo, hi, num = float(lo), float(hi), int(num)
    except ValueError:
        raise MalformedInput(f"bad grid spec {text!r}") from None
    if num < 1 or not 0 < lo < hi < math.inf:
        raise MalformedInput(f"bad grid spec {text!r}")
    return np.geomspace(lo, hi, num).tolist()


def cmd_bounds(args) -> int:
    params = bounds_mod.BoundParams(**_read_config(args.constants_file, SCHEMAS["bounds"]))
    rows = bounds_mod.regime_report(args.k, args.sigma, args.n, _parse_grid(args.x_grid), params)
    _write({args.out: [["x", "bound13", "bound16", "active_branch", "log_ratio"],
                       *([repr(x), repr(b13), repr(b16), branch, repr(lr)]
                         for x, b13, b16, branch, lr in rows)]})
    print(f"wrote {Path(args.out)}")
    return 0


# -- entry point ------------------------------------------------------------

@cache
def build_parser() -> argparse.ArgumentParser:
    """Built once per process: ``cmd_verify`` and ``main`` read CPUs and command per call."""
    codes = ", ".join(f"{code} {name}" for name, (code, _) in verify.SUITES.items())
    ap = argparse.ArgumentParser(
        prog="empint",
        description="Exact and Monte Carlo analysis of empirical-measure multiple integrals.",
        epilog=f"verify exit codes: {codes}; config errors exit 2.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run the self-verification suites")
    p.add_argument("--config", help="JSON config with seed/mode/suites")
    p.add_argument("--report", help="where to write the JSON report")
    p.add_argument("--workers", type=int, help="processes to run the suites on, this one "
                   "included (default: the usable CPUs); 1 runs them in this process alone")

    p = sub.add_parser("tails", help="Monte Carlo tail estimation")
    p.add_argument("--config", required=True, help="JSON run configuration")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--workers", type=int, default=1,
                   help="accepted for compatibility; replicates always run serially")

    p = sub.add_parser("constants", help="export exact constant tables")
    p.add_argument("--k-max", type=int, default=6)
    p.add_argument("--m-max", type=int, default=12)
    p.add_argument("--n-max", type=int, default=12)
    p.add_argument("--out-dir", required=True)

    p = sub.add_parser("bounds", help="tabulate tail bounds over a grid")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--x-grid", required=True, help="lo:hi:num (geometric) or x1,x2,...")
    p.add_argument("--constants-file", help="JSON with C/alpha/c1/c2")
    p.add_argument("--out", required=True)
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:  # argparse has printed the usage error (2) or --help (0)
        return e.code
    try:
        for dest, spec in _FLAGS.items():
            if vars(args).get(dest) is not None:
                _check("--" + dest.replace("_", "-"), vars(args)[dest], spec)
        return globals()[f"cmd_{args.command}"](args)
    except MalformedInput as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return 2
    except MemoryError as e:  # a size in the schema too large to allocate
        print(f"configuration error: the run needs more memory than there is: {e}",
              file=sys.stderr)
        return 2
    except EmpintError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
