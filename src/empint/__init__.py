"""Exact and Monte Carlo computation of multiple stochastic integrals with
respect to normalized empirical measures on finite spaces.

The package evaluates, in exact rational arithmetic, the k-fold integral
of a kernel against the centered and scaled empirical measure of an i.i.d.
sample (diagonals excluded), together with the surrounding calculus: the
product expansion over colored contraction diagrams, U-statistic
identities, closed-form expectation coefficients, dominance certificates
and their transport, moment-recursion constant tables, and the tail bound
shapes those constants feed.  A seeded Monte Carlo layer estimates tails
reproducibly and checks them against the exact oracles.
"""

from .space import (AtomSpace, Sample, make_space, uniform_space, draw_sample, draw_counts,
                    enumerate_samples, enumerate_counts)
from .kernels import (Kernel, constant_kernel, indicator_kernel, kernel_from_values,
                      sup_norm, l1_norm, l2_norm_sq, l2_norm, labeled_product, tensor_product,
                      integrate_axis, center_axis, symmetrize, canonical_project, is_canonical,
                      compact_relabel, random_kernel, kernel_to_json, kernel_from_json)
from .diagrams import (DiagramClass, ColoredDiagram, enumerate_diagrams,
                       contract, contract_class_average, is_gaussian,
                       product_formula_coefficient, format_diagram, parse_diagram)
from .integrals import (ScaledValue, eval_integral, eval_ustat, eval_batch, CheckResult,
                        check_canonical_ustat_identity, check_product_formula,
                        product_formula_terms)
from .combinatorics import (set_partitions, stirling2, partition_count_bound,
                            expectation_coefficient, expectation_coefficient_bruteforce,
                            expected_integral_oracle, moment_oracle, ustat_moment_oracle,
                            damping_factor, cumulative_constant, recursion_weight,
                            check_moment_recursion, profile_weight, profile_maximizer,
                            moment_constant_table, canonical_second_moment)
from .dominance import (DominanceCertificate, verify_certificate, relax_sigma,
                        contract_certificate, collapse_certificate, random_dominated_pair)
from .bounds import (BoundParams, levels, two_regime_exponent, bernstein_exponent,
                     two_regime_tail_bound, bernstein_tail_bound, crossover_level,
                     moment_growth_bound, regime_report)
from .montecarlo import (McConfig, TailEstimate, exceedance, estimate_tail, binomial_band,
                         binomial_tail_oracle, fit_constants, tail_rows, self_check, auto_grid)

__version__ = "0.1.0"
