"""Acceptance gate: one test per release criterion.

Each test sweeps the full advertised parameter range, prints a single
PASS/FAIL line through tests._report (echoed in the terminal summary), and
then asserts.  Identity checks are exact rational; numeric checks carry the
tolerance stated next to them.  All randomness is seeded per criterion.
"""

import csv
import json
import math
import time
from fractions import Fraction as F

import numpy as np
import pytest

from empint.bounds import crossover_level, moment_growth_bound
from empint.combinatorics import (check_moment_recursion, cumulative_constant,
                                  damping_factor, expectation_coefficient,
                                  moment_oracle, profile_maximizer,
                                  profile_weight, set_partitions)
from empint.diagrams import (DiagramClass, contract, contract_class_average,
                             enumerate_diagrams, is_gaussian)
from empint.dominance import (collapse_certificate, contract_certificate,
                              random_dominated_pair, relax_sigma,
                              verify_certificate)
from empint.errors import RankTooSmall
from empint.integrals import (check_canonical_ustat_identity,
                              check_product_formula, product_formula_terms)
from empint.kernels import (canonical_project, compact_relabel, integrate_axis,
                            l1_norm, l2_norm_sq, random_kernel, sup_norm)
from empint.montecarlo import (McConfig, binomial_tail_oracle, estimate_tail,
                               fit_constants, replicate_counts)
from empint.space import Sample, make_space, uniform_space

import _report


def record(line):
    _report.record(line)


def random_space(n_atoms, rng):
    raw = [int(x) for x in rng.integers(1, 7, size=n_atoms)]
    total = sum(raw)
    return make_space([F(x, total) for x in raw])


def full_mean(f):
    out = f
    for label in tuple(out.axis_labels):
        out = integrate_axis(out, label)
    return out.value_at(())


def test_01_product_identity_exact():
    """Pathwise product identity, exact in rationals.

    Sweep: k1, k2 in {1,2,3}, n in {2..6}, 2..4 atoms; one fresh kernel
    pair per cell (135 pairs) and 20 samples per pair.  Tolerance: zero.
    """
    rng = np.random.default_rng(1101)
    t0 = time.time()
    pairs = checks = violations = 0
    for k1 in (1, 2, 3):
        for k2 in (1, 2, 3):
            for n_atoms in (2, 3, 4):
                space = random_space(n_atoms, rng)
                for n in range(2, 7):
                    f = random_kernel(space, k1, rng, max_den=5)
                    g = random_kernel(space, k2, rng, max_den=5)
                    terms = product_formula_terms(f, g)
                    pairs += 1
                    for _ in range(20):
                        pts = tuple(int(x) for x in
                                    rng.integers(0, n_atoms, size=n))
                        res = check_product_formula(f, g, Sample(space, pts),
                                                    terms=terms)
                        checks += 1
                        if not (res.ok and res.lhs == res.rhs):
                            violations += 1
    elapsed = time.time() - t0
    ok = violations == 0 and pairs >= 100 and elapsed < 300
    record(f"ACCEPTANCE 1 {'PASS' if ok else 'FAIL'} - product identity: "
           f"{pairs} kernel pairs, {checks} exact sample checks, "
           f"{violations} violations, {elapsed:.1f}s")
    assert ok


def test_02_expectation_identity_exact():
    """E[statistic] equals the coefficient prediction exactly.

    Sweep: k <= 3, n <= 5, up to 3 atoms, 54 random kernels.
    """
    rng = np.random.default_rng(1102)
    kernels = violations = 0
    for k in (1, 2, 3):
        for n_atoms in (2, 3):
            for _ in range(9):
                space = random_space(n_atoms, rng)
                f = random_kernel(space, k, rng, max_den=5)
                kernels += 1
                mean_f = full_mean(f)
                for n in range(1, 6):
                    from empint.combinatorics import expected_integral_oracle
                    got = expected_integral_oracle(f, n)
                    want = expectation_coefficient(n, k) * mean_f
                    if got != want:
                        violations += 1
    ok = violations == 0 and kernels >= 50
    record(f"ACCEPTANCE 2 {'PASS' if ok else 'FAIL'} - expectation identity: "
           f"{kernels} kernels x n<=5, {violations} violations")
    assert ok


def test_03_scaled_coefficients_closed_forms():
    """Scaled coefficients: 0 at k=1, -1/2 at k=2, n/3 descaled at k=3,
    exactly for 1 <= n <= 30."""
    violations = []
    for n in range(1, 31):
        if expectation_coefficient(n, 1) != 0:
            violations.append((n, 1))
        # scaled value r n^{k/2}; at k=2 the power is integral, stay rational
        if expectation_coefficient(n, 2) * n != F(-1, 2):
            violations.append((n, 2))
        # k=3 target n^{-1/2}/3: multiply both sides by n^{3/2} -> r n^2 = 1/3
        if expectation_coefficient(n, 3) * n * n != F(1, 3):
            violations.append((n, 3))
    ok = not violations
    record(f"ACCEPTANCE 3 {'PASS' if ok else 'FAIL'} - closed-form scaled "
           f"coefficients for n=1..30, violations: {violations[:3]}")
    assert ok


def test_04_coefficient_growth_bound():
    """|scaled coefficient| k^{k/2} <= 10^k for k <= 8, ceil(k/2) <= n <= 30.

    Checked exactly in squared form: r^2 n^k k^k <= 100^k.
    """
    worst = {}
    violations = []
    for k in range(1, 9):
        worst[k] = 0.0
        for n in range(max(1, (k + 1) // 2), 31):
            r = expectation_coefficient(n, k)
            lhs_sq = r * r * F(n) ** k * F(k) ** k
            if lhs_sq > F(100) ** k:
                violations.append((n, k))
            worst[k] = max(worst[k], math.sqrt(float(lhs_sq)))
    ok = not violations
    peaks = ", ".join(f"k={k}:{v:.3g}" for k, v in worst.items())
    record(f"ACCEPTANCE 4 {'PASS' if ok else 'FAIL'} - growth bound 10^k; "
           f"per-k empirical max of |B| k^(k/2): {peaks}")
    assert ok


def test_05_contraction_norm_inequalities():
    """Contraction norms, exactly, on 504 random pairs with sup <= 1.

    For every colored diagram with k1, k2 <= 3:
      squared general bound   (L2^2 of the contraction)^2 <= L2^2(f) L2^2(g)
      improved Gaussian bound  L2^2 of the contraction <= L2^2(f) L2^2(g)
    and on the diagonal cells the class-average L1 bound
      L1(f o f averaged over a class) <= L2^2(f).
    """
    rng = np.random.default_rng(1105)
    t0 = time.time()
    pairs = checks = violations = l1_checks = 0
    for k1 in (1, 2, 3):
        for k2 in (1, 2, 3):
            n_atoms = 2 if k1 + k2 >= 5 else 3
            for _ in range(56):
                space = random_space(n_atoms, rng)
                f = random_kernel(space, k1, rng, max_den=4)
                g = random_kernel(space, k2, rng, max_den=4)
                pairs += 1
                nf, ng = l2_norm_sq(f), l2_norm_sq(g)
                for l in range(min(k1, k2) + 1):
                    for p in range(l + 1):
                        cls = DiagramClass(k1, k2, l, p)
                        for d in enumerate_diagrams(cls):
                            h = contract(f, g, d)
                            nh = l2_norm_sq(h)
                            checks += 1
                            if nh * nh > nf * ng:
                                violations += 1
                            if is_gaussian(d) and nh > nf * ng:
                                violations += 1
            if k1 == k2:
                # class-average self-contraction, one fresh kernel per cell
                space = random_space(2, rng)
                f = random_kernel(space, k1, rng, max_den=4)
                for l in range(k1 + 1):
                    for p in range(l + 1):
                        cls = DiagramClass(k1, k1, l, p)
                        avg = contract_class_average(f, f, cls)
                        l1_checks += 1
                        if l1_norm(avg) > l2_norm_sq(f):
                            violations += 1
    elapsed = time.time() - t0
    ok = violations == 0 and pairs >= 500
    record(f"ACCEPTANCE 5 {'PASS' if ok else 'FAIL'} - norm inequalities: "
           f"{pairs} pairs, {checks} diagram checks + {l1_checks} class L1 "
           f"checks, {violations} violations, {elapsed:.1f}s")
    assert ok


def test_06_canonical_statistic_identity():
    """Descaled U-statistic equals the multiple integral pathwise for
    canonical kernels, k <= 3, 50 samples per kernel, exact."""
    rng = np.random.default_rng(1106)
    kernels = checks = violations = 0
    for k in (1, 2, 3):
        for n_atoms in (2, 3):
            space = random_space(n_atoms, rng)
            f = canonical_project(random_kernel(space, k, rng, max_den=4))
            kernels += 1
            for _ in range(50):
                n = int(rng.integers(k, k + 4))
                pts = tuple(int(x) for x in rng.integers(0, n_atoms, size=n))
                res = check_canonical_ustat_identity(f, Sample(space, pts))
                checks += 1
                if not (res.ok and res.lhs == res.rhs):
                    violations += 1
    ok = violations == 0
    record(f"ACCEPTANCE 6 {'PASS' if ok else 'FAIL'} - canonical identity: "
           f"{kernels} kernels x 50 samples, {violations} violations")
    assert ok


def test_07_dominance_certificates_sound():
    """Every transformed or fallback certificate verifies (pointwise tol
    1e-10, rank exact) over the full diagram sweep k1, k2 <= 3 and all
    block partitions on both sides."""
    rng = np.random.default_rng(1107)
    t0 = time.time()
    space = uniform_space(2)
    transformed = fallbacks = rank_refusals = violations = 0
    for k1 in (1, 2, 3):
        for k2 in (1, 2, 3):
            for bf in set_partitions(k1):
                for bg in set_partitions(k2):
                    f, cf = random_dominated_pair(space, bf, rng)
                    g, cg = random_dominated_pair(space, bg, rng)
                    sig = max(cf.sigma_sq, cg.sigma_sq)
                    cf, cg = relax_sigma(cf, sig), relax_sigma(cg, sig)
                    for l in range(min(k1, k2) + 1):
                        for p in range(l + 1):
                            cls = DiagramClass(k1, k2, l, p)
                            for d in enumerate_diagrams(cls):
                                h = contract(f, g, d)
                                target = cf.rank + cg.rank - (l - p)
                                if target >= 1:
                                    out = contract_certificate(cf, cg, d)
                                    transformed += 1
                                    if out.rank != target:
                                        violations += 1
                                    if not verify_certificate(
                                            compact_relabel(h), out):
                                        violations += 1
                                else:
                                    try:
                                        contract_certificate(cf, cg, d)
                                        violations += 1
                                    except RankTooSmall:
                                        rank_refusals += 1
                                back = collapse_certificate(h, cf, cg)
                                fallbacks += 1
                                if not verify_certificate(h, back):
                                    violations += 1
    elapsed = time.time() - t0
    ok = violations == 0
    record(f"ACCEPTANCE 7 {'PASS' if ok else 'FAIL'} - certificates: "
           f"{transformed} transformed + {fallbacks} fallback verified, "
           f"{rank_refusals} correct rank refusals, {violations} violations, "
           f"{elapsed:.1f}s")
    assert ok


def test_08_recursion_constants():
    """The moment-recursion inequality on k <= 8, m <= 16; the k=0 column;
    stabilization of the k=1 running product by m=60 (9 significant
    digits); and the profile maximizer identity to relative 1e-12."""
    bad = check_moment_recursion(8, 16)
    col_ok = all(cumulative_constant(k, 0) == 1 for k in range(1, 9))
    c60 = cumulative_constant(1, 60)
    limit_proxy = cumulative_constant(1, 200)
    stab = abs(float(limit_proxy) / float(c60) - 1.0)
    stab_ok = stab < 1e-9
    max_rel = 0.0
    for k in range(1, 7):
        for m in range(0, 13):
            v = profile_maximizer(k, m)
            top = profile_weight(k, m, v)
            want = float(damping_factor(m)) ** (2 * k)
            max_rel = max(max_rel, abs(top / want - 1.0))
    ident_ok = max_rel <= 1e-12
    ok = not bad and col_ok and stab_ok and ident_ok
    record(f"ACCEPTANCE 8 {'PASS' if ok else 'FAIL'} - recursion grid clean: "
           f"{not bad}, C(k,0)=1: {col_ok}, m=60 stabilization "
           f"{stab:.1e} < 1e-9: {stab_ok}, maximizer identity worst rel "
           f"{max_rel:.1e} <= 1e-12: {ident_ok}")
    assert ok


def test_09_crossover_exponents_agree():
    """At the crossover level the two tail exponents coincide to relative
    1e-12, for k <= 6 over randomized (n, sigma)."""
    rng = np.random.default_rng(1109)
    worst = 0.0
    for k in range(1, 7):
        for _ in range(25):
            n = int(10 ** rng.uniform(0.5, 6))
            sigma = float(rng.uniform(0.05, 1.0))
            x = crossover_level(k, sigma, n)
            e_gauss = (x / sigma) ** (2.0 / k)
            e_emp = (n * x * x) ** (1.0 / (k + 1))
            worst = max(worst, abs(e_gauss / e_emp - 1.0))
    ok = worst <= 1e-12
    record(f"ACCEPTANCE 9 {'PASS' if ok else 'FAIL'} - crossover exponents "
           f"agree, worst relative gap {worst:.2e} (tol 1e-12)")
    assert ok


def test_10_monte_carlo_validity(tmp_path):
    """Arity-1 centered indicator against the exact binomial tail: every
    grid point within 3 exact standard errors at 1e5 replicates, and the
    CSV artifacts are byte-identical under 1 and 8 workers."""
    t0 = time.time()
    grid = [0.2, 0.45, 0.7, 1.0, 1.35]
    replicates, n, seed = 100000, 30, 31415
    cfg = {"space": {"weights": ["1/2", "1/2"]},
           "kernel": {"arity": 1, "values": ["1", "0"]},
           "canonicalize": True, "replicates": replicates, "n": n,
           "x_grid": grid, "seed": seed}
    cfg_path = tmp_path / "tails.json"
    cfg_path.write_text(json.dumps(cfg))

    from empint.cli import main
    outs = {}
    for workers in (1, 8):
        outs[workers] = tmp_path / f"w{workers}"
        rc = main(["tails", "--config", str(cfg_path),
                   "--out-dir", str(outs[workers]), "--workers", str(workers)])
        assert rc == 0
    identical = all(
        (outs[1] / name).read_bytes() == (outs[8] / name).read_bytes()
        for name in ("tails.csv", "self_check.csv", "manifest.json"))

    exact = binomial_tail_oracle(F(1, 2), n, grid)
    with open(outs[1] / "tails.csv") as fh:
        rows = list(csv.reader(fh))[1:]
    worst_z = 0.0
    for (x, p_hat, _se, _b13, _b16), p in zip(rows, exact):
        se = math.sqrt(p * (1 - p) / replicates)
        worst_z = max(worst_z, abs(float(p_hat) - p) / se)
    elapsed = time.time() - t0
    ok = identical and worst_z <= 3.0 and elapsed < 120
    record(f"ACCEPTANCE 10 {'PASS' if ok else 'FAIL'} - MC vs binomial "
           f"oracle: worst z {worst_z:.2f} <= 3, byte-identical across "
           f"workers: {identical}, {elapsed:.1f}s")
    assert ok


def test_11_tail_shape_fit_stable():
    """Two-regime fit for a rank-one canonical kernel at k=2, n=100,
    1e5 replicates: the lifted bound dominates every empirical point and
    the fitted decay rate moves < 20% between disjoint seed sets.  The
    fitted constants are recorded, not asserted against outside values."""
    from empint.bounds import two_regime_tail_bound
    from empint.kernels import indicator_kernel, tensor_product
    t0 = time.time()
    sp = uniform_space(2)
    c = canonical_project(indicator_kernel(sp, 0))
    f = tensor_product(c, c)
    grid = (0.1, 0.2, 0.35, 0.55, 0.8, 1.1)
    fits = []
    dominated = True
    for seed in (20601, 20602):
        cfg = McConfig(replicates=100000, seed=seed, n=100, target="integral")
        est = estimate_tail(f, cfg, replicate_counts(sp, cfg), grid)
        params = fit_constants(est, "two_regime")
        fits.append(params)
        for x, p in zip(est.x_grid, est.p_hat):
            if two_regime_tail_bound(x, est.k, est.sigma, est.n, params) < p:
                dominated = False
    a1, a2 = fits[0].alpha, fits[1].alpha
    drift = abs(a1 - a2) / max(abs(a1), abs(a2))
    elapsed = time.time() - t0
    ok = dominated and drift <= 0.20
    record(f"ACCEPTANCE 11 {'PASS' if ok else 'FAIL'} - tail fit: "
           f"C={fits[0].C:.3f}/{fits[1].C:.3f}, "
           f"alpha={a1:.3f}/{a2:.3f} (drift {drift:.1%} <= 20%), "
           f"bound dominates: {dominated}, {elapsed:.1f}s")
    assert ok


def test_12_moment_shape_constant():
    """Exact even moments sit under the growth bound with the frozen shape
    constant; the tightest constant observed per k is reported."""
    from empint.verify import MOMENT_SHAPE_C
    rng = np.random.default_rng(1112)
    tightest = {1: 0.0, 2: 0.0}
    cases = violations = 0
    for k in (1, 2):
        for n_atoms in (2, 3):
            for _ in range(4):
                space = random_space(n_atoms, rng)
                f = canonical_project(random_kernel(space, k, rng, max_den=4))
                s = sup_norm(f)
                if s > 1:
                    f = f.scale(F(1) / F(s))
                sig2 = l2_norm_sq(f)
                if sig2 == 0:
                    continue
                sigma = math.sqrt(float(sig2))
                for M in (1, 2):
                    for n in range(max(1, k * M), 7):
                        e_stat = moment_oracle(f, n, 2 * M) * F(n) ** (k * M)
                        bound = moment_growth_bound(k, M, sigma, n,
                                                    C=MOMENT_SHAPE_C)
                        cases += 1
                        if float(e_stat) > bound * (1 + 1e-12):
                            violations += 1
                        deficit = max(1.0, M / (n * sigma * sigma)) ** M
                        need = ((float(e_stat) / deficit) ** (1.0 / M)
                                / (sigma * sigma * float(M) ** k))
                        tightest[k] = max(tightest[k], need)
    ok = violations == 0 and all(tightest[k] <= MOMENT_SHAPE_C for k in tightest)
    record(f"ACCEPTANCE 12 {'PASS' if ok else 'FAIL'} - moment shapes: "
           f"{cases} exact moments under the bound at C={MOMENT_SHAPE_C}, "
           f"tightest C_1={tightest[1]:.3f}, C_2={tightest[2]:.3f}, "
           f"{violations} violations")
    assert ok
