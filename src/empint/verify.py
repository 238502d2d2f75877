"""Self-verification suites: desk-scale, deterministic, exact where the
identity being checked is exact.

``SUITES`` is the one table of the six suites: each name maps to the exit
code the command line driver reports it under and to the suite, in report
order.  A suite ``run_suite_<name>(res, rng)`` only records its checks in
``res``; ``_claim`` builds that ``SuiteResult`` and the suite's generator.

All randomness is drawn from the configured seed; there is no wall-clock
entropy anywhere.  Identity suites refuse float mode.  Each suite draws from
its own ``default_rng(seed)`` and shares nothing else, so ``run_all`` may
run them side by side with the same results: the calling process, alone or
with forked children, claims the suites, longest first, one byte at a time
from a pipe.
"""
from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import bounds, combinatorics, diagrams, dominance, integrals, kernels, space

# Frozen empirical constants for the moment suite.  Measured over exact
# sweeps (k <= 2, M <= 2, n <= 6, random kernels with sup <= 1) the
# tightest values are ~1.0 and ~1.5; frozen with margin so the suite only
# trips on real regressions.
MOMENT_SHAPE_C = 2.0
MOMENT_SHAPE_C_RANKED = 3.0
SECOND_MOMENT_C = 100.0


@dataclass
class SuiteResult:
    name: str
    exit_code: int
    checks: int = 0
    failures: int = 0
    worst: float = 0.0
    notes: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def record(self, ok: bool, discrepancy: float = 0.0, note: str = ""):
        self.checks += 1
        self.worst = max(self.worst, abs(discrepancy))
        if not ok:
            self.failures += 1
            if note and len(self.notes) < 20:
                self.notes.append(note)

    def as_dict(self) -> dict:
        return {"suite": self.name, "exit_code": self.exit_code,
                "checks": self.checks, "failures": self.failures,
                "worst_discrepancy": self.worst, "status": "pass" if self.passed else "fail",
                "notes": self.notes}


def run_suite_diagram(res: SuiteResult, rng: np.random.Generator) -> None:
    """Exact pathwise identities: the product expansion over contraction
    classes, and U-statistic equality for canonical kernels."""
    for k1, k2 in [(1, 1), (1, 2), (2, 2)]:
        for A in (2, 3):
            sp = space.uniform_space(A)
            f = kernels.random_kernel(sp, k1, rng)
            g = kernels.random_kernel(sp, k2, rng)
            terms = integrals.product_formula_terms(f, g)
            for n in (2, 3, 4):
                for _ in range(4):
                    s = space.draw_sample(sp, n, rng)
                    r = integrals.check_product_formula(f, g, s, terms)
                    res.record(r.ok, r.discrepancy,
                               f"product formula k=({k1},{k2}) A={A} n={n}")
    for k in (1, 2, 3):
        sp = space.uniform_space(3)
        f = kernels.canonical_project(kernels.random_kernel(sp, k, rng))
        for n in (2, 4):
            for _ in range(4):
                s = space.draw_sample(sp, n, rng)
                r = integrals.check_canonical_ustat_identity(f, s)
                res.record(r.ok, r.discrepancy, f"canonical identity k={k} n={n}")


def run_suite_expectation(res: SuiteResult, rng: np.random.Generator) -> None:
    """E[q] from exhaustive enumeration equals the closed-form coefficient
    times the plain k-fold integral, exactly."""
    for k in (1, 2, 3):
        for A in (2, 3):
            sp = space.uniform_space(A)
            for n in (2, 3, 5):
                for _ in range(3):
                    f = kernels.random_kernel(sp, k, rng)
                    got = combinatorics.expected_integral_oracle(f, n)
                    plain = f
                    for j in plain.axis_labels:
                        plain = kernels.integrate_axis(plain, j)
                    want = combinatorics.expectation_coefficient(n, k) * plain.values[()]
                    res.record(got == want, float(got - want),
                               f"expectation k={k} n={n} A={A}")


def run_suite_norms(res: SuiteResult, rng: np.random.Generator) -> None:
    """Contraction norm inequalities, in squared (rational) form."""
    for k1, k2 in [(1, 1), (1, 2), (2, 2)]:
        for _ in range(4):
            sp = space.uniform_space(int(rng.integers(2, 4)))
            f = kernels.random_kernel(sp, k1, rng)
            g = kernels.random_kernel(sp, k2, rng)
            nf, ng = kernels.l2_norm_sq(f), kernels.l2_norm_sq(g)
            for l in range(min(k1, k2) + 1):
                for p in range(l + 1):
                    for d in diagrams.enumerate_diagrams(diagrams.DiagramClass(k1, k2, l, p)):
                        h = diagrams.contract(f, g, d)
                        nh = kernels.l2_norm_sq(h)
                        res.record(nh * nh <= nf * ng, 0.0,
                                   f"squared contraction bound {diagrams.format_diagram(d)}")
                        if diagrams.is_gaussian(d):
                            res.record(nh <= nf * ng, 0.0,
                                       f"colored contraction bound {diagrams.format_diagram(d)}")
            pairing = tuple((j, k1 + j) for j in range(1, k1 + 1))
            ff = diagrams.contract(f, f, diagrams.ColoredDiagram(k1, k1, pairing))
            res.record(kernels.l1_norm(ff) <= nf, 0.0, "self-pairing L1 bound")


def run_suite_moments(res: SuiteResult, rng: np.random.Generator) -> None:
    """Exact even moments stay under the growth-bound shapes with the
    frozen constants."""
    for k in (1, 2):
        for M in (1, 2):
            for n in (max(2, k * M), 6):
                sp = space.uniform_space(2)
                for _ in range(3):
                    f = kernels.random_kernel(sp, k, rng)
                    s2 = kernels.l2_norm_sq(f)
                    if s2 == 0:
                        continue
                    ej = float(combinatorics.moment_oracle(f, n, 2 * M) * Fraction(n) ** (k * M))
                    cap = bounds.moment_growth_bound(k, M, math.sqrt(float(s2)), n,
                                                    MOMENT_SHAPE_C)
                    res.record(ej <= cap, max(0.0, ej - cap), f"plain shape k={k} M={M} n={n}")
                    if k * M <= n:
                        cap_r = bounds.moment_growth_bound(k, M, math.sqrt(float(s2)), n,
                                                          MOMENT_SHAPE_C_RANKED, r=1)
                        res.record(ej <= cap_r, max(0.0, ej - cap_r),
                                   f"ranked shape k={k} M={M} n={n}")
    for k in (1, 2, 3):
        sp = space.uniform_space(2)
        for n in (max(2, k), 5):
            for _ in range(3):
                f = kernels.random_kernel(sp, k, rng)
                s2 = kernels.l2_norm_sq(f)
                ej2 = float(combinatorics.moment_oracle(f, n, 2) * Fraction(n) ** k)
                cap = SECOND_MOMENT_C**k / float(k) ** k * float(s2)
                res.record(ej2 <= cap, max(0.0, ej2 - cap), f"second moment k={k} n={n}")


def run_suite_dominance(res: SuiteResult, rng: np.random.Generator) -> None:
    """Transformed certificates really dominate the contraction, at the
    exact rank target; the rank-1 fallback also verifies."""
    sp = space.uniform_space(3)
    shapes = [(1, ((1,),)), (2, ((1,), (2,))), (2, ((1, 2),))]
    for (k1, b1), (k2, b2) in itertools.product(shapes, repeat=2):
        f, cf = dominance.random_dominated_pair(sp, b1, rng)
        g, cg = dominance.random_dominated_pair(sp, b2, rng)
        s2 = max(cf.sigma_sq, cg.sigma_sq)
        cf, cg = dominance.relax_sigma(cf, s2), dominance.relax_sigma(cg, s2)
        res.record(dominance.verify_certificate(f, cf), 0.0, "input certificate f")
        res.record(dominance.verify_certificate(g, cg), 0.0, "input certificate g")
        for l in range(min(k1, k2) + 1):
            for p in range(l + 1):
                for d in diagrams.enumerate_diagrams(diagrams.DiagramClass(k1, k2, l, p)):
                    target = cf.rank + cg.rank - (l - p)
                    if target < 1:
                        continue
                    h = kernels.compact_relabel(diagrams.contract(f, g, d))
                    ct = dominance.contract_certificate(cf, cg, d)
                    res.record(ct.rank == target, 0.0,
                               f"rank {ct.rank} != {target} for {diagrams.format_diagram(d)}")
                    res.record(dominance.verify_certificate(h.as_float(), ct), 0.0,
                               f"transport {diagrams.format_diagram(d)}")
                    cc = dominance.collapse_certificate(h, cf, cg)
                    res.record(dominance.verify_certificate(h, cc), 0.0,
                               f"fallback {diagrams.format_diagram(d)}")


def run_suite_constants(res: SuiteResult, rng: np.random.Generator) -> None:
    """Frozen values and exact inequalities for the constant tables."""
    res.record(combinatorics.damping_factor(0) == 17, note="damping(0)")
    res.record(combinatorics.damping_factor(4) == 2, note="damping(4)")
    res.record(combinatorics.damping_factor(10) == Fraction(65, 64), note="damping(10)")
    for k in range(1, 5):
        res.record(combinatorics.cumulative_constant(k, 0) == 1, note=f"cumulative({k},0)")
    res.record(combinatorics.cumulative_constant(1, 1) == 17, note="cumulative(1,1)")
    bad = combinatorics.check_moment_recursion(4, 8)
    res.record(not bad, float(len(bad)), f"recursion violations: {bad[:3]}")
    for k in range(1, 5):
        for m in range(0, 9):
            v = combinatorics.profile_maximizer(k, m)
            got = combinatorics.profile_weight(k, m, v)
            want = float(combinatorics.damping_factor(m)) ** (2 * k)
            rel = abs(got - want) / want
            res.record(rel <= 1e-12, rel, f"profile max k={k} m={m}")
    for n in range(2, 9):
        res.record(combinatorics.expectation_coefficient(n, 1) == 0, note=f"coeff(n={n},1)")
        res.record(combinatorics.expectation_coefficient(n, 2) == Fraction(-1, 2 * n),
                   note=f"coeff(n={n},2)")
        res.record(combinatorics.expectation_coefficient(n, 3) == Fraction(1, 3 * n**2),
                   note=f"coeff(n={n},3)")
    for k in range(1, 9):
        for n in range(max(2, math.ceil(k / 2)), 31, 7):
            b = abs(combinatorics.expectation_coefficient(n, k)) * Fraction(n) ** k
            val = float(b) * float(k) ** (k / 2) / float(n) ** (k / 2)
            res.record(val <= 10.0**k, max(0.0, val - 10.0**k), f"coefficient growth k={k} n={n}")
    for k in range(1, 9):
        for s in range(1, k + 1):
            res.record(combinatorics.stirling2(k, s) <= combinatorics.partition_count_bound(k, s),
                       note=f"partition bound k={k} s={s}")


# name -> (exit code, suite), in report order
SUITES = {
    "diagram": (10, run_suite_diagram),
    "expectation": (11, run_suite_expectation),
    "norms": (12, run_suite_norms),
    "moments": (13, run_suite_moments),
    "dominance": (14, run_suite_dominance),
    "constants": (15, run_suite_constants),
}


# Longest first (medians of about 50, 21, 16, 14, 8 and 2 ms over the 16
# verify seeds of each of bench seeds 5 and 11; 2 cores, Python 3.11), so
# that the processes claiming them finish close together: Graham's LPT list
# scheduling.
_LONGEST_FIRST = ("dominance", "diagram", "expectation", "norms", "moments", "constants")


class _ChildTraceback(Exception):
    """The cause attached to an error a forked child sent back: the
    traceback, as text, that the error had in the child."""

    def __str__(self):
        return f'\n"""\n{self.args[0]}"""'


def _claim(claims: int, order: list[str], seed: int) -> dict:
    """{name: (result, None, None)}, or (None, error, its traceback as text)
    for a suite that raised, for each suite this process claims: the next
    byte read from the pipe ``claims`` indexes ``order``, until the pipe is
    empty.  A one-byte read from a pipe is atomic, so no two processes
    claim the same suite."""
    done = {}
    while byte := os.read(claims, 1):
        name = order[byte[0]]
        code, suite = SUITES[name]  # looked up at run time, also in a fork: patches included
        res = SuiteResult(name, code)
        try:
            suite(res, np.random.default_rng(seed))
            done[name] = (res, None, None)
        except Exception as e:  # raised by run_all, the first in requested order
            import traceback

            done[name] = (None, e, traceback.format_exc())
    return done


def _claim_all(order: list[str], seed: int, workers: int) -> dict:
    """``_claim``'s dict for every suite in ``order``, claimed by this
    process and ``workers`` - 1 forked children, if any.  Each child pickles
    its claims back over its own pipe; every child is reaped before this
    returns or raises."""
    import pickle

    from .errors import WorkerFailed

    claims, end = os.pipe()
    os.write(end, bytes(range(len(order))))
    os.close(end)
    children = {}  # pid -> the read end of its result pipe
    try:
        for _ in range(workers - 1):
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError as e:
                os.close(r)
                os.close(w)
                raise WorkerFailed(f"could not fork a verify worker: {e}") from e
            if pid == 0:  # the child never returns from here
                status = 1
                try:
                    os.close(r)
                    for fh in children.values():
                        fh.close()
                    with open(w, "wb") as out:
                        pickle.dump(_claim(claims, order, seed), out)
                    status = 0
                except BaseException:  # the caller sees only the status: say why here
                    import traceback

                    os.write(2, f"verify worker {os.getpid()} could not send its results:\n"
                                f"{traceback.format_exc()}".encode())
                finally:
                    os._exit(status)
            os.close(w)
            children[pid] = open(r, "rb")
        done = _claim(claims, order, seed)
        sent = {pid: fh.read() for pid, fh in children.items()}
    finally:
        os.read(claims, len(order))  # after an error, children stop at their current suite
        os.close(claims)
        codes = {}
        for pid, fh in children.items():
            fh.close()
            codes[pid] = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    for pid, data in sent.items():
        if codes[pid] != 0:
            raise WorkerFailed(f"verify worker {pid} ended with status {codes[pid]} "
                               "before sending its results")
        try:
            sent_by_child = pickle.loads(data)
        except Exception as e:  # unpickling runs the classes' own code
            raise WorkerFailed(f"verify worker {pid} sent an unreadable result: {e!r}") from e
        for _, error, tb in sent_by_child.values():
            if error is not None:  # a pickled error loses its traceback
                error.__cause__ = _ChildTraceback(tb)
        done.update(sent_by_child)
    return done


def run_all(seed: int, suites: list[str] | None = None, workers: int = 1) -> list[SuiteResult]:
    """The results of ``suites`` (default: all, in ``SUITES`` order), in the
    order asked for.  This process and ``workers`` - 1 forked children (at
    most one process per distinct suite; no child without ``os.fork``)
    claim the suites longest first from one pipe, and every claimed suite
    runs.  An error raised by a suite is then raised here, the first in the
    requested order, with the child's traceback as its cause if a child
    raised it; a child that cannot be forked or ends without sending its
    results raises ``WorkerFailed``."""
    names = suites if suites is not None else list(SUITES)
    unknown = [s for s in names if s not in SUITES]
    if unknown:
        raise ValueError(f"unknown suites: {unknown}")
    order = sorted(set(names), key=_LONGEST_FIRST.index)
    done = _claim_all(order, seed, min(len(order), workers) if hasattr(os, "fork") else 1)
    for name in names:
        if done[name][1] is not None:
            raise done[name][1]
    return [done[name][0] for name in names]
