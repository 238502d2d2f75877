"""
Seeded Monte Carlo with an exact self-check
===========================================

Tail estimation runs on a replicate-indexed stream: replicate r always
gets the same substream whatever ``workers`` says, so results are
byte-identical from laptop to cluster.  For arity-1 centered indicators
the exact tail is a binomial sum, which calibrates the whole pipeline.
"""
import numpy as np

from empint import (McConfig, binomial_tail_oracle, canonical_project,
                    estimate_tail, fit_constants, indicator_kernel,
                    replicate_values, two_regime_tail_bound, uniform_space)

space = uniform_space(2)
f = canonical_project(indicator_kernel(space, 0))

cfg = McConfig(replicates=20000, seed=424242, n=30,
               x_grid=(0.2, 0.45, 0.7, 1.0, 1.35), target="integral")

# determinism: the same seed gives the same replicates under any worker count
a = replicate_values(f, cfg, workers=1)
b = replicate_values(f, cfg, workers=8)
print("byte-identical across workers:", a.tobytes() == b.tobytes())

# estimated exceedance vs the exact binomial tail
est = estimate_tail(f, cfg, workers=8)
exact = binomial_tail_oracle("1/2", cfg.n, cfg.x_grid)
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

# moments from the same stream: E J^2 = ||f||_2^2 for canonical arity-1
from empint import estimate_moments, l2_norm_sq
[(order, value, se)] = estimate_moments(f, cfg, orders=(2,), workers=8)
print(f"MC second moment {value:.5f} vs exact {float(l2_norm_sq(f)):.5f} "
      f"(stderr {se:.5f})")
