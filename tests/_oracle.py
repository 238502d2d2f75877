"""The recursive evaluator of the statistic, kept as the reference that the
count-polynomial evaluator in ``empint.integrals`` is checked against.

It follows the definition directly: for every subset S of coordinates, the
kernel with the other coordinates integrated out is summed over injective
assignments of sample positions to the slots of S, one slot at a time.
"""
import itertools
import math

import numpy as np

from empint.scalars import mode_of


def subset_tables(f) -> dict:
    """For every subset S of axis positions, f with the complement of S
    integrated out against the base measure; axes follow S in order."""
    w = f.space.weight_vector
    k = f.arity
    tables = {}
    for s_size in range(k, -1, -1):
        for S in itertools.combinations(range(k), s_size):
            if s_size == k:
                tables[S] = f.values
                continue
            missing = sorted(set(range(k)) - set(S))
            parent = tuple(sorted(S + (missing[0],)))
            tables[S] = np.tensordot(tables[parent], w, axes=([parent.index(missing[0])], [0]))
    return tables


def _injection_sum(table: np.ndarray, counts: list[int], zero):
    """Sum of table[a_1,...,a_s] over injective assignments of sample
    positions to the s slots, grouped by atom: each slot holding atom a
    contributes a factor of the positions still unused for a."""
    if table.ndim == 0:
        return table[()]
    A = len(counts)
    rem = list(counts)

    def rec(sub: np.ndarray):
        acc = zero
        if sub.ndim == 1:
            for a in range(A):
                m = rem[a]
                if m:
                    acc = acc + m * sub[a]
            return acc
        for a in range(A):
            m = rem[a]
            if m == 0:
                continue
            rem[a] = m - 1
            acc = acc + m * rec(sub[a])
            rem[a] = m
        return acc

    return rec(table)


def integral_coeff(f, sample):
    """The descaled centered integral q of f at the sample."""
    k, n = f.arity, sample.n
    mode = mode_of(f)
    total = mode.zero
    for S, table in subset_tables(f).items():
        inner = _injection_sum(table, list(sample.counts), mode.zero)
        total = total + (-1) ** (k - len(S)) * mode.inv(n) ** len(S) * inner
    return total * mode.inv_factorial(k)


def ustat(f, sample):
    """The U-statistic: (1/k!) times the injective sum of f itself."""
    mode = mode_of(f)
    return _injection_sum(f.values, list(sample.counts), mode.zero) / mode.cast(
        math.factorial(f.arity))
