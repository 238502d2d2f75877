"""
Seeded Monte Carlo with an exact self-check
===========================================

Tail estimation runs on a replicate-indexed stream: replicate r always
gets the substream of (seed, r), so results are byte-identical from run
to run and machine to machine.  For arity-1 centered indicators
the exact tail is a binomial sum, which calibrates the whole pipeline.
"""
import numpy as np

from empint import (McConfig, binomial_tail_oracle, canonical_project,
                    estimate_tail, fit_constants, indicator_kernel, l2_norm_sq,
                    replicate_counts, replicate_values, two_regime_tail_bound,
                    uniform_space)

space = uniform_space(2)
f = canonical_project(indicator_kernel(space, 0))

cfg = McConfig(replicates=20000, seed=424242, n=30, target="integral")
grid = (0.2, 0.45, 0.7, 1.0, 1.35)

# determinism: the same seed gives the same replicates on every run
a = replicate_values(f, cfg)
b = replicate_values(f, cfg)
print("byte-identical across runs:", a.tobytes() == b.tobytes())

# estimated exceedance vs the exact binomial tail
est = estimate_tail(f, cfg, replicate_counts(space, cfg), grid)
exact = binomial_tail_oracle("1/2", cfg.n, grid)
print(" x      p_hat     p_exact   z")
for x, p_hat, se, p in zip(est.x_grid, est.p_hat, est.stderr, exact):
    z = abs(p_hat - p) / se if se else 0.0
    print(f"{x:4.2f}  {p_hat:.5f}  {p:.5f}  {z:4.2f}")

# fit the two-regime constants so the bound dominates every observed point
params = fit_constants(est, "two_regime")
print(f"fitted C = {params.C:.3f}, alpha = {params.alpha:.3f}")
for x, p_hat in zip(est.x_grid, est.p_hat):
    assert two_regime_tail_bound(x, est.k, est.sigma, est.n, params) >= p_hat
print("fitted bound dominates the empirical tail")

# moments from the same replicates: E J^2 = ||f||_2^2 for canonical arity-1
squares = a**2
value, exact = float(np.mean(squares)), float(l2_norm_sq(f))
se = float(np.std(squares, ddof=1)) / np.sqrt(cfg.replicates)
print(f"MC second moment {value:.5f} vs exact {exact:.5f} (stderr {se:.5f})")
assert abs(value - exact) <= 4 * se
