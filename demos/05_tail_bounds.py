"""
Closed-form tail bounds and the crossover between regimes
=========================================================

The tail of a k-fold empirical integral has two regimes: a Gaussian-chaos
shape exp(-alpha (x/sigma)^{2/k}) for moderate levels and a Poissonian
shape exp(-alpha (n x^2)^{1/(k+1)}) past the crossover level
x* = n^{k/2} sigma^{k+1}.  A Bernstein-type form interpolates both.
"""
from empint import (BoundParams, bernstein_tail_bound, crossover_level,
                    moment_growth_bound, regime_report, two_regime_tail_bound)

k, sigma, n = 2, 0.3, 200
xc = crossover_level(k, sigma, n)
print(f"crossover level x* = {xc:.4f}")

# at x* both exponents coincide; below it the Gaussian branch is smaller
for t in (0.5, 1.0, 2.0):
    x = xc * t
    g = (x / sigma) ** (2 / k)
    e = (n * x * x) ** (1 / (k + 1))
    print(f"x = {t:3.1f} x*: gaussian exponent {g:8.3f}, empirical {e:8.3f}")

# the report tabulates both bounds and marks the active branch
rows = regime_report(k, sigma, n, [xc * t for t in (0.3, 0.7, 1.0, 1.8, 4.0)])
for x, b13, b16, branch, log_ratio in rows:
    print(f"x={x:8.4f}  two-regime {b13:.3e}  bernstein {b16:.3e}  "
          f"{branch:9s}  log-ratio {log_ratio:+.3f}")

# constants shift the curves without changing the shape
p = BoundParams(C=2.0, alpha=0.5)
print("with C=2, alpha=1/2:", two_regime_tail_bound(xc, k, sigma, n, p))
print("bernstein at x*    :", bernstein_tail_bound(xc, k, sigma, n))

# even moments obey the growth bound
print("E J^4 growth bound (M=2, C=2):", moment_growth_bound(k, 2, sigma, n, C=2.0))
