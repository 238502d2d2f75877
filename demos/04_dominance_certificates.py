"""
Dominance certificates and how contractions preserve them
=========================================================

A certificate bounds |f| pointwise by a product of nonnegative factors on
disjoint blocks of coordinates, each factor with sup <= 1 and L2 mass at
most sigma^2.  It holds each factor as its square, so every clause is
rational: f^2 <= the product of the squares, each square in [0, 1] with
integral at most sigma^2.  Contracting two dominated kernels along a
colored diagram yields a kernel that is dominated again, at an exactly
predictable rank; the constructive transform below produces the witness,
exact for exact inputs, and we verify every clause of the definition
against it with no tolerance.
"""
import numpy as np

from empint import (ColoredDiagram, collapse_certificate, compact_relabel,
                    contract, contract_certificate, random_dominated_pair,
                    relax_sigma, uniform_space, verify_certificate)

space = uniform_space(2)
rng = np.random.default_rng(23)

# a kernel of 3 arguments dominated on blocks {1,2} | {3}, and one of 2
# arguments dominated on {1} | {2}
f, cf = random_dominated_pair(space, ((1, 2), (3,)), rng)
g, cg = random_dominated_pair(space, ((1,), (2,)), rng)
print("f rank:", cf.rank, " sigma^2:", cf.sigma_sq)
print("g rank:", cg.rank, " sigma^2:", cg.sigma_sq)
assert verify_certificate(f, cf) and verify_certificate(g, cg)

# align the budgets before combining
sig = max(cf.sigma_sq, cg.sigma_sq)
cf, cg = relax_sigma(cf, sig), relax_sigma(cg, sig)

# contract along a diagram with one plain edge (3,4) and one colored (1,5):
# plain edges merge blocks (rank -1 each), colored edges do not
d = ColoredDiagram(3, 2, ((1, 5), (3, 4)), frozenset({1}))
h = compact_relabel(contract(f, g, d))
cert = contract_certificate(cf, cg, d)
print("contracted arity:", h.arity,
      " target rank r1+r2-(l-p):", cf.rank + cg.rank - 1,
      " got:", cert.rank)
assert cert.rank == cf.rank + cg.rank - 1
assert cert.exact and verify_certificate(h, cert)
print("transformed certificate is exact and verifies")

# when the structured transform cannot reach the target rank there is a
# rank-1 fallback, the square of the contraction itself, with the enlarged
# budget (sigma^2)^floor((r1+r2)/2)
back = collapse_certificate(contract(f, g, d), cf, cg)
print("fallback rank:", back.rank, " budget:", back.sigma_sq)
assert back.sigma_sq == sig ** ((cf.rank + cg.rank) // 2)
assert verify_certificate(contract(f, g, d), back)
print("fallback certificate verifies")
