"""Self-verification suites: desk-scale, deterministic, exact where the
identity being checked is exact.

``SUITES`` is the one table of the six suites: each name maps to the exit
code the command line driver reports it under and to the suite, in report
order.  A suite ``run_suite_<name>(res, rng)`` only records its checks in
``res``; ``_claim`` builds that ``SuiteResult`` and the suite's generator,
and records an exception the suite raises as one more failed check.

All randomness is drawn from the configured seed; there is no wall-clock
entropy anywhere.  Identity suites refuse float mode.  Each suite draws from
its own ``default_rng(seed)`` and shares nothing else, so ``run_all`` may
run them side by side with the same results: the calling process, alone or
with forked children, claims the suites, longest first, one byte at a time
from a pipe.  A child hands back its ``SuiteResult``s and nothing else.
"""
from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import bounds, combinatorics, diagrams, dominance, integrals, kernels, space
from .errors import EmpintError, WorkerFailed

# Frozen empirical constants for the moment suite.  Measured over exact
# sweeps (k <= 2, M <= 2, n <= 6, random kernels with sup <= 1) the
# tightest values are ~1.0 and ~1.5; frozen with margin so the suite only
# trips on real regressions.
MOMENT_SHAPE_C = 2.0
MOMENT_SHAPE_C_RANKED = 3.0
SECOND_MOMENT_C = 100.0

# Exact recursion weights A(l, p, k, m) from the closed form, at 0^0 = 1
# (l = 0, and 2k - l - p = 0) and at negative powers of 2 (m > 4).
RECURSION_WEIGHTS = {(0, 0, 1, 0): 1, (1, 1, 1, 0): 256, (1, 0, 2, 5): Fraction(4, 3),
                     (2, 2, 3, 6): Fraction(729, 4096), (3, 1, 4, 8): Fraction(1, 2985984)}


@dataclass
class SuiteResult:
    name: str
    exit_code: int
    checks: int = 0
    failures: int = 0
    worst: float = 0.0
    notes: list[str] = field(default_factory=list)
    # what the suite raised, if it did: the message and, for a bug (not an
    # EmpintError), the traceback text; the report leaves both out
    error: str | None = None
    traceback: str = ""

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
                    plain = kernels.labeled_product(sp, [(f, f.axis_labels)], (), f.axis_labels)
                    want = combinatorics.expectation_coefficient(n, k) * plain.values[()]
                    res.record(got == want, float(got - want),
                               f"expectation k={k} n={n} A={A}")


def _integral(h: kernels.Kernel, power: int = 1):
    """The integral of h^power over all of h's labels, by ``labeled_product``,
    that ``norms`` (power 2) and ``dominance`` (power 1) check against."""
    return kernels.labeled_product(h.space, [(h, h.axis_labels)] * power, (),
                                   h.axis_labels).values[()]


def run_suite_norms(res: SuiteResult, rng: np.random.Generator) -> None:
    """Squared L2 norms equal the integral of the square, exactly, and
    contraction norm inequalities hold in squared (rational) form."""
    for k1, k2 in [(1, 1), (1, 2), (2, 2)]:
        for _ in range(4):
            sp = space.uniform_space(int(rng.integers(2, 4)))
            f = kernels.random_kernel(sp, k1, rng)
            g = kernels.random_kernel(sp, k2, rng)
            nf, ng = kernels.l2_norm_sq(f), kernels.l2_norm_sq(g)
            for h, nh in ((f, nf), (g, ng)):
                res.record(nh == _integral(h, 2), 0.0, f"squared L2 norm k={h.arity}")
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
    exact rank target; the rank-1 fallback also verifies.  The atoms'
    weights differ, so a step that reads them in the wrong order fails.
    Certificates wrong by construction are refused; each input one also
    verifies at its largest factor's integral, read by ``labeled_product``."""
    sp = space.make_space(["1/6", "1/3", "1/2"])
    shapes = [(1, ((1,),)), (2, ((1,), (2,))), (2, ((1, 2),))]
    for (k1, b1), (k2, b2) in itertools.product(shapes, repeat=2):
        f, cf = dominance.random_dominated_pair(sp, b1, rng)
        g, cg = dominance.random_dominated_pair(sp, b2, rng)
        s2 = max(cf.sigma_sq, cg.sigma_sq)
        cf, cg = dominance.relax_sigma(cf, s2), dominance.relax_sigma(cg, s2)
        for name, h, ch in (("f", f, cf), ("g", g, cg)):
            res.record(dominance.verify_certificate(h, ch), 0.0, f"input certificate {name}")
            exact = max(map(_integral, ch.factors)) or ch.sigma_sq  # zero factors: any budget
            res.record(dominance.verify_certificate(h, dominance.DominanceCertificate(
                exact, ch.factors)), 0.0, f"input certificate {name} at the exact norm")
            above_product, above_one = _wrong_certificates(h, ch)
            res.record(not dominance.verify_certificate(*above_product), 0.0,
                       f"kernel entry past the factor product accepted for {name}")
            res.record(not dominance.verify_certificate(*above_one), 0.0,
                       f"factor entry above 1 accepted for {name}")
        for l in range(min(k1, k2) + 1):
            for p in range(l + 1):
                for d in diagrams.enumerate_diagrams(diagrams.DiagramClass(k1, k2, l, p)):
                    target = cf.rank + cg.rank - (l - p)
                    if target < 1:
                        continue
                    name = diagrams.format_diagram(d)
                    h = kernels.compact_relabel(diagrams.contract(f, g, d))
                    ct = dominance.contract_certificate(cf, cg, d)
                    res.record(ct.rank == target, 0.0, f"rank {ct.rank} != {target} for {name}")
                    res.record(dominance.verify_certificate(h, ct), 0.0,
                               f"transport {name}")
                    cc = dominance.collapse_certificate(h, cf, cg)
                    res.record(dominance.verify_certificate(h, cc), 0.0, f"fallback {name}")


def _wrong_certificates(f: kernels.Kernel, cert: dominance.DominanceCertificate):
    """Two (kernel, certificate) pairs made from a valid exact one, each wrong
    at the first cell: f's entry there is -((P + 1)/2 + 1/1000), P the factors'
    product there, whose square passes P, and the first factor's entry there
    is 1001/1000, with the budget relaxed to 1 so that, as a rule, the
    factor's integral clause still holds."""
    cell = (0,) * f.arity
    product = kernels.labeled_product(f.space, [(h, h.axis_labels) for h in cert.factors],
                                      f.axis_labels)
    raised = f.values.copy()
    raised[cell] = -(product.values[cell] + 1) / 2 - Fraction(1, 1000)
    first, *rest = cert.factors
    over = first.values.copy()
    over[(0,) * first.arity] = Fraction(1001, 1000)
    over_one = dominance.DominanceCertificate(
        1, (kernels.Kernel(first.space, over, first.axis_labels), *rest))
    return ((kernels.Kernel(f.space, raised, f.axis_labels), cert), (f, over_one))


def run_suite_constants(res: SuiteResult, rng: np.random.Generator) -> None:
    """Frozen values and exact inequalities for the constant tables."""
    res.record(combinatorics.damping_factor(0) == 17, note="damping(0)")
    res.record(combinatorics.damping_factor(4) == 2, note="damping(4)")
    res.record(combinatorics.damping_factor(10) == Fraction(65, 64), note="damping(10)")
    for k in range(1, 5):
        res.record(combinatorics.cumulative_constant(k, 0) == 1, note=f"cumulative({k},0)")
    res.record(combinatorics.cumulative_constant(1, 1) == 17, note="cumulative(1,1)")
    for (l, p, k, m), want in RECURSION_WEIGHTS.items():
        res.record(combinatorics.recursion_weight(l, p, k, m) == want,
                   note=f"recursion weight A({l},{p},{k},{m})")
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


# Longest first (median CPU times of 40.3, 17.5, 17.1, 12.8, 8.8 and 2.7 ms
# over verify seeds 1000-1015, three passes, all six suites in one process;
# 2 cores, Python 3.11), so that the processes claiming them finish close
# together: Graham's LPT list scheduling.
_LONGEST_FIRST = ("dominance", "diagram", "expectation", "norms", "moments", "constants")


def _claim(claims: int, order: list[str], seed: int) -> dict[str, SuiteResult]:
    """{name: result} for each suite this process claims: the next byte
    read from the pipe ``claims`` indexes ``order``, until the pipe is
    empty.  A one-byte read from a pipe is atomic, so no two processes
    claim the same suite.  An exception a suite raises ends that suite as
    one more failed check, noted ``raised <Type>: <message>`` even past the
    cap on notes, with ``error`` and ``traceback`` set."""
    done = {}
    while byte := os.read(claims, 1):
        name = order[byte[0]]
        code, suite = SUITES[name]  # looked up at run time, also in a fork: patches included
        res = done[name] = SuiteResult(name, code)
        try:
            suite(res, np.random.default_rng(seed))
        except Exception as e:
            import traceback

            res.record(False)
            res.notes.append(f"raised {type(e).__name__}: {e}")
            res.error = str(e)
            if not isinstance(e, EmpintError):
                res.traceback = traceback.format_exc()
    return done


def _claim_all(order: list[str], seed: int, workers: int) -> dict[str, SuiteResult]:
    """``_claim``'s dict for every suite in ``order``, claimed by this
    process and ``workers`` - 1 forked children, if any.  Each child pickles
    its results back over its own pipe; every child is reaped before this
    returns or raises.  A child that cannot be forked, dies, or sends bytes
    that do not unpickle raises ``WorkerFailed``."""
    import pickle

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
            done.update(pickle.loads(data))
        except Exception as e:  # unpickling runs the classes' own code
            raise WorkerFailed(f"verify worker {pid} sent an unreadable result: {e!r}") from e
    return done


def run_all(seed: int, suites: list[str] | None = None, workers: int = 1) -> list[SuiteResult]:
    """The results of ``suites`` (default: all, in ``SUITES`` order), in the
    order asked for.  This process and ``workers`` - 1 forked children (at
    most one process per distinct suite; no child without ``os.fork``)
    claim the suites longest first from one pipe, and every claimed suite
    runs.  A suite that raises is returned failed, with what it raised
    recorded (see ``_claim``); a child that cannot be forked or ends without
    sending its results raises ``WorkerFailed``."""
    names = suites if suites is not None else list(SUITES)
    unknown = [s for s in names if s not in SUITES]
    if unknown:
        raise ValueError(f"unknown suites: {unknown}")
    order = sorted(set(names), key=_LONGEST_FIRST.index)
    done = _claim_all(order, seed, min(len(order), workers) if hasattr(os, "fork") else 1)
    return [done[name] for name in names]
