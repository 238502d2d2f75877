"""
The product identity for empirical multiple integrals
=====================================================

The product of two normalized empirical integrals expands into a finite
combination of single integrals of contracted kernels, with combinatorial
coefficients and explicit powers of 1/n.  On a finite space the identity
is pathwise and exact, so we can check it sample by sample in rationals.
"""
import numpy as np

from empint import (DiagramClass, Sample, check_product_formula,
                    enumerate_diagrams, eval_integral, format_diagram,
                    product_formula_coefficient, product_formula_terms,
                    random_kernel, uniform_space)

space = uniform_space(3)
rng = np.random.default_rng(11)
f = random_kernel(space, 2, rng)
g = random_kernel(space, 1, rng)

# the statistic itself: a descaled value coeff * n^{k/2}
sample = Sample(space, (0, 0, 2, 1))
qf = eval_integral(f, sample)
qg = eval_integral(g, sample)
print("q_f =", qf.coeff, " q_g =", qg.coeff, " (n = 4)")

# the expansion collects one contracted kernel per class (l edges, p colored)
terms = product_formula_terms(f, g)
for (l, p), kernel in sorted(terms.items()):
    coeff = product_formula_coefficient(f.arity, g.arity, l, p)
    print(f"  class (l={l}, p={p}): coefficient {coeff}, "
          f"contracted arity {kernel.arity}")

# and the identity holds exactly on this sample
res = check_product_formula(f, g, sample, terms=terms)
print("lhs =", res.lhs)
print("rhs =", res.rhs)
assert res.ok and res.lhs == res.rhs

# the classes are averages over explicit colored diagrams; enumerate one
diagrams = list(enumerate_diagrams(DiagramClass(2, 1, 1, 0)))
print("diagrams in class (2,1,l=1,p=0):", len(diagrams))
for d in diagrams:
    print("   ", format_diagram(d))

# the identity is pathwise: every sample of every size works
for n in (1, 2, 3):
    for pts in np.ndindex(*(3,) * n):
        assert check_product_formula(f, g, Sample(space, tuple(pts)), terms=terms).ok
print("exact on all samples with n <= 3")
