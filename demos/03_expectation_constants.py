"""
Expectation coefficients and the constant tables
================================================

The expectation of the k-fold empirical integral is a universal rational
multiple of the kernel's full mean.  The multiplier has closed forms for
small k and obeys a clean growth bound; all of it is computable exactly.
"""
from fractions import Fraction

from empint import (cumulative_constant, damping_factor,
                    expectation_coefficient, expected_integral_oracle,
                    kernel_from_values, make_space)

# closed forms at small k: 0, -1/(2n), 1/(3n^2)
for n in (2, 5, 10):
    print(f"n={n:3d}:",
          expectation_coefficient(n, 1),
          expectation_coefficient(n, 2),
          expectation_coefficient(n, 3))

# scaled by n^{k/2} the k=2 value is the constant -1/2 for every n
scaled = [expectation_coefficient(n, 2) * n for n in (2, 9, 25)]
print("scaled k=2:", [str(r) for r in scaled])
assert scaled == [Fraction(-1, 2)] * 3

# the prediction agrees with a brute-force average over all samples
space = make_space(["1/4", "3/4"])
f = kernel_from_values(space, [["1", "2"], ["-1", "1/2"]])
mean_f = Fraction(1, 16) + Fraction(2, 16) * 3 - Fraction(3, 16) + Fraction(1, 2) * Fraction(9, 16)
for n in (2, 3, 4):
    oracle = expected_integral_oracle(f, n)
    prediction = expectation_coefficient(n, 2) * mean_f
    print(f"n={n}: oracle {oracle} == prediction {prediction}")
    assert oracle == prediction

# the recursion constants: damping factors D(m) = 1 + 2^{4-m} and their
# running products, exact as Fractions
print("damping:", [damping_factor(m) for m in range(6)])
print("cumulative k=1:", [cumulative_constant(1, m) for m in range(5)])

# the infinite product converges; by m = 60 nothing moves at 9 digits
a, b = cumulative_constant(1, 60), cumulative_constant(1, 200)
print("relative tail of the product:", float(abs(b - a) / b))
