"""Reference definitions that the fast paths in ``empint`` are checked
against.

The count polynomial below sorts, ``np.unique``-s and groups the slots of
every table afresh, where the library reuses one monomial plan per table
shape.  The operations and their order are the same, so its blocks must
match the library's with ``==``, and in float mode bit for bit.

The recursive evaluator of the statistic follows the definition directly:
for every subset S of coordinates, the kernel with the other coordinates
integrated out is summed over injective assignments of sample positions to
the slots of S, one slot at a time.  The labeled product, the norms, the
canonical test and the certificate clauses below apply their definitions
entry by entry to the kernels' own values (``Fraction`` objects in exact
mode), where the library runs on integer numerators and divides once.  The
certificate transport below runs every step's einsum on the factors' own
values too: its factors must equal the library's with ``==``, and in float
mode bit for bit.

``substitute_axis`` and ``diagram_count`` are the step-by-step and
closed-form references for ``diagrams.contract`` and
``diagrams.enumerate_diagrams``, and ``replicate_generator`` is numpy's own
stream for a replicate, which ``space.draw_counts`` ports to whole arrays.
``pcg64_state`` is PCG64's seeding in Python ints, one LCG step at a time,
the scalar reference for ``space._pcg_states``.
``pull_back`` and ``refine`` move a kernel to a relabeled or refined atom
space on which every integral of it is the same.
"""
import itertools
import math
from fractions import Fraction
from itertools import groupby

import numpy as np

from empint.errors import BlockMismatch
from empint.dominance import DominanceCertificate
from empint.kernels import Kernel, integrate_axis
from empint.scalars import mode_of
from empint.space import make_space

# PCG64's 128-bit LCG multiplier (O'Neill's default for 128-bit state)
PCG_MULT = 0x2360_ED05_1FC6_5DA4_4385_DF64_9FCC_F645


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


def _monomials(table: np.ndarray, scale: int) -> tuple:
    s = table.ndim
    slots = np.sort(np.indices(table.shape).reshape(s, table.size), axis=0)
    keys = np.ravel_multi_index(slots, table.shape).reshape(table.size)
    _, first, which = np.unique(keys, return_index=True, return_inverse=True)
    coeffs = np.zeros(len(first), dtype=table.dtype)
    np.add.at(coeffs, which.ravel(), table.ravel())
    return tuple((c * scale, tuple((a, len(list(run))) for a, run in groupby(row)))
                 for row, c in zip(slots[:, first].T.tolist(), coeffs.tolist()) if c)


def count_polynomial(f) -> tuple:
    """(blocks, den) of f's count polynomial, built for this kernel alone."""
    mode = mode_of(f)
    k = f.arity
    values, d_f = mode.numerators(f.values)
    w, d_w = mode.numerators(f.space.weight_vector)
    sums = [values]
    for _ in range(k):
        integrated = [np.tensordot(t, w, axes=([s], [0])) for s, t in enumerate(sums)]
        sums = [integrated[0], *(a + b for a, b in zip(integrated[1:], sums)), sums[-1]]
    blocks = tuple(_monomials(t, (-1) ** (k - s) * d_w**s) for s, t in enumerate(sums))
    return blocks, math.factorial(k) * d_f * d_w**k


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


def sup_norm(f):
    return max(abs(x) for x in f.values.flat)


def _full_contraction(values, space):
    w = space.weight_vector
    v = np.asarray(values)
    while v.ndim > 0:
        v = np.asarray(np.tensordot(v, w, axes=([v.ndim - 1], [0])))
    return v[()]


def l1_norm(f):
    return _full_contraction(np.abs(f.values), f.space)


def l2_norm_sq(f):
    return _full_contraction(f.values * f.values, f.space)


def is_canonical(f, tol=1e-12):
    slack = mode_of(f).slack(tol)
    return all(abs(x) <= slack for j in f.axis_labels for x in integrate_axis(f, j).values.flat)


def labeled_product(space, factors, out, integrate=()):
    """The labeled product's values as one ``np.einsum`` over the operands
    themselves, ``Fraction`` objects in exact mode, with the weight vector
    for every integrated label."""
    operands = [*factors, *((space.weight_vector, [j]) for j in integrate)]
    args = [x for values, labels in operands for x in (values, list(labels))]
    return np.asarray(np.einsum(*args, list(out)), dtype=np.result_type(*args[::2]))


def verify_certificate(f, cert, tol=1e-10):
    """Every clause of the dominance definition, on factors held as
    squares, entry by entry."""
    flat = [j for block in cert.blocks for j in block]
    if sorted(flat) != sorted(f.axis_labels) or len(flat) != len(set(flat)):
        raise BlockMismatch(f"blocks {cert.blocks} do not partition labels {f.axis_labels}")
    slack = mode_of(cert, f).slack(tol)
    if not 0 < cert.sigma_sq <= 1 + slack:
        return False
    for h in cert.factors:
        if any(x < -slack for x in h.values.flat):
            return False
        if sup_norm(h) > 1 + slack:
            return False
        if _full_contraction(h.values, h.space) > cert.sigma_sq + slack:
            return False
    prod = labeled_product(f.space, [(h.values, h.axis_labels) for h in cert.factors],
                           f.axis_labels)
    gap = np.asarray(f.values * f.values - prod)
    return all(x <= slack for x in gap.flat)


def contract_certificate(cf, cg, d):
    """The certificate transport built from kernels in the pair's joint
    mode: every Schwarz step and every group is one einsum on the factors'
    own values, in the order the library keeps them."""
    target = cf.rank + cg.rank - (d.l - d.p)
    mode = mode_of(cf, cg)
    space = mode.form(cf.factors[0].space)
    pair = cf.factors + tuple(Kernel(h.space, h.values, tuple(j + d.k1 for j in h.axis_labels))
                              for h in cg.factors)
    colored = {j for edge in d.colored_edges() for j in edge}
    factors = []
    for h in (mode.form(h) for h in pair):
        keep = [j for j in h.axis_labels if j not in colored]
        drop = [j for j in h.axis_labels if j in colored]
        if drop:
            h = Kernel(space, labeled_product(space, [(h.values, h.axis_labels)], keep, drop),
                       tuple(keep))
        factors.append(h)
    rename = {j2: j for j, j2 in d.uncolored_edges()}
    groups = []
    for h in factors:
        labels = [rename.get(j, j) for j in h.axis_labels]
        joined = [g for g in groups if g[0].intersection(labels)]
        groups = [g for g in groups if not g[0].intersection(labels)]
        groups.append((set(labels).union(*(g[0] for g in joined)),
                       [(h, labels)] + [op for g in joined for op in g[1]]))
    while len(groups) > target:
        groups.sort(key=lambda g: min(g[0], default=0))
        (l1, o1), (l2, o2) = groups[:2]
        groups[:2] = [(l1 | l2, o1 + o2)]
    frame = {j: i + 1 for i, j in enumerate(sorted(set().union(*(g[0] for g in groups))))}
    products = []
    for labels, ops in groups:
        out = sorted(frame[j] for j in labels)
        values = labeled_product(space, [(h.values, [frame[j] for j in ls]) for h, ls in ops], out)
        products.append(Kernel(space, values, tuple(out)))
    return DominanceCertificate(mode.cast(cf.sigma_sq), tuple(products))


def recursion_weight(l, p, k, m):
    """The recursion weight as its closed form reads, in ``Fraction`` powers
    and products:
    2^{2l(4-m)} (2k)^{2k-l+p} (2k-l-p)^{3l-p-2k} / (2l)^{2l}."""
    return (Fraction(2) ** (2 * l * (4 - m)) * Fraction(2 * k) ** (2 * k - l + p)
            * Fraction(2 * k - l - p) ** (3 * l - p - 2 * k) / Fraction(2 * l) ** (2 * l))


def substitute_axis(f, keep, drop):
    """Identify the 'drop' argument with the 'keep' argument (diagonal
    restriction); the result no longer depends on 'drop'."""
    pk, pd = f.axis_position(keep), f.axis_position(drop)
    diag = np.diagonal(f.values, 0, pk, pd)
    labels = tuple(j for j in f.axis_labels if j != drop)
    vals = np.moveaxis(diag, -1, labels.index(keep))
    return Kernel(f.space, np.ascontiguousarray(vals), labels)


def diagram_count(cls):
    """k1! k2! / ((k1-l)! (k2-l)! (l-p)! p!), the size of the class."""
    return (math.factorial(cls.k1) * math.factorial(cls.k2)
            // (math.factorial(cls.k1 - cls.l) * math.factorial(cls.k2 - cls.l)
                * math.factorial(cls.l - cls.p) * math.factorial(cls.p)))


def replicate_generator(seed, r):
    """numpy's generator for replicate r of a run seeded with ``seed``."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(r,))))


def pcg64_state(words):
    """The state of ``PCG64`` seeded with the four generate_state words, one
    128-bit LCG step at a time in Python ints, as numpy's ``PCG64.state``
    dict: ``pcg64_set_seed`` sets state 0 and inc = sequence << 1 | 1, steps,
    adds the seed and steps again."""
    w0, w1, w2, w3 = (int(w) for w in words)
    mask = (1 << 128) - 1
    inc = ((w2 << 64 | w3) << 1 | 1) & mask
    state = (0 * PCG_MULT + inc) & mask
    state = ((state + (w0 << 64 | w1)) * PCG_MULT + inc) & mask
    return {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
            "has_uint32": 0, "uinteger": 0}


def pull_back(f, space, atoms):
    """f read on ``space``, whose atom a stands for f's atom ``atoms[a]``."""
    return Kernel(space, f.values[np.ix_(*[atoms] * f.arity)], f.axis_labels)


def refine(space, f, atom, t):
    """f, a kernel on ``space``, on the space with ``atom`` split into two
    atoms of weights t w and (1 - t) w, the second one appended last; both
    read f's values at ``atom``."""
    weights = list(space.weights)
    weights[atom], split = t * weights[atom], (1 - t) * weights[atom]
    return pull_back(f, make_space([*weights, split]), [*range(space.n_atoms), atom])
