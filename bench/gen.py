"""Seeded input generation for the empint benchmark.

Every input the program sees is built here from the workload seed, as
plain JSON-ready data (weights and kernel entries as "p/q" strings).  This
module does not import empint: a change to the library cannot change the
inputs it is measured on.
"""
from __future__ import annotations

from fractions import Fraction

import numpy as np

WORKLOADS = ("mc_tails", "exact_product", "verify_sweep")

MC_REPLICATES = 1000
MC_SIZES = (30, 100, 300)
MC_TARGETS = ("integral", "ustat")
PRODUCT_ARITIES = (1, 2, 3)
PRODUCT_ATOMS = (2, 3, 4)
PRODUCT_SAMPLES = 20
VERIFY_ROUNDS = 16
BOUNDS_POINTS = 200


def _rng(workload: str, seed: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=[seed, WORKLOADS.index(workload)])
    return np.random.default_rng(ss)


def _weights(rng: np.random.Generator, atoms: int, distinct: bool = False) -> list[str]:
    """Random rational weights from integers 1..6; with ``distinct`` the
    result is never uniform."""
    while True:
        raw = [int(x) for x in rng.integers(1, 7, size=atoms)]
        if not distinct or len(set(raw)) > 1:
            break
    total = sum(raw)
    return [str(Fraction(r, total)) for r in raw]


def _entries(rng: np.random.Generator, count: int, max_den: int) -> list[str]:
    """Random rationals num/den with den <= max_den and |num| <= den, so
    every entry lies in [-1, 1]."""
    out = []
    for _ in range(count):
        den = int(rng.integers(1, max_den + 1))
        num = int(rng.integers(-den, den + 1))
        out.append(str(Fraction(num, den)))
    return out


def canonical_projection(weights: list[str], arity: int, values: list[str]) -> np.ndarray:
    """The kernel with every single-argument marginal subtracted, in exact
    rationals; an independent reimplementation used to vet random kernels."""
    atoms = len(weights)
    w = np.array([Fraction(x) for x in weights], dtype=object)
    arr = np.array([Fraction(v) for v in values], dtype=object).reshape((atoms,) * arity)
    for axis in range(arity):
        marg = np.tensordot(arr, w, axes=([axis], [0]))
        arr = arr - np.expand_dims(marg, axis)
    return arr


def _random_canonical(rng: np.random.Generator, weights: list[str], arity: int) -> list[str]:
    """Random entries in [-1, 1] whose canonical projection is nonzero, so
    the statistic is not identically zero."""
    while True:
        values = _entries(rng, len(weights) ** arity, max_den=6)
        if any(x != 0 for x in canonical_projection(weights, arity, values).flat):
            return values


def mc_tails(seed: int) -> list[dict]:
    """24 ``empint tails`` configurations: 4 kernels x 3 sizes x 2 targets,
    auto grid, canonicalized.  Raw entries lie in [-1, 1], so the
    projection has sigma <= 1 as the bound evaluators require."""
    rng = _rng("mc_tails", seed)
    half = ["1/2", "1/2"]
    kernels = [
        ("indicator", half, 1, ["1", "0"]),
        ("rank_one", half, 2, ["1", "0", "0", "0"]),
    ]
    for name, atoms, arity in (("random_k2", 4, 2), ("random_k3", 3, 3)):
        weights = _weights(rng, atoms, distinct=True)
        kernels.append((name, weights, arity, _random_canonical(rng, weights, arity)))
    jobs = []
    for name, weights, arity, values in kernels:
        for n in MC_SIZES:
            for target in MC_TARGETS:
                jobs.append({
                    "name": f"{name}-n{n}-{target}",
                    "config": {
                        "space": {"weights": weights},
                        "kernel": {"arity": arity, "values": values},
                        "canonicalize": True,
                        "replicates": MC_REPLICATES,
                        "n": n,
                        "target": target,
                        "seed": int(rng.integers(0, 2**31 - 1)),
                    },
                })
    return jobs


def exact_product(seed: int) -> list[dict]:
    """One kernel pair per cell k1, k2 in {1,2,3}, atoms in {2,3,4}, each
    with 20 samples of size 2..6 (the acceptance-1 sweep)."""
    rng = _rng("exact_product", seed)
    pairs = []
    for k1 in PRODUCT_ARITIES:
        for k2 in PRODUCT_ARITIES:
            for atoms in PRODUCT_ATOMS:
                weights = _weights(rng, atoms)
                f = _entries(rng, atoms**k1, max_den=5)
                g = _entries(rng, atoms**k2, max_den=5)
                samples = [[int(x) for x in rng.integers(0, atoms, size=int(rng.integers(2, 7)))]
                           for _ in range(PRODUCT_SAMPLES)]
                pairs.append({
                    "name": f"k{k1}{k2}-A{atoms}",
                    "weights": weights,
                    "f": {"arity": k1, "values": f},
                    "g": {"arity": k2, "values": g},
                    "samples": samples,
                })
    return pairs


def verify_sweep(seed: int) -> list[dict]:
    """16 rounds on consecutive verify seeds.  Each bounds grid stops
    where both bound exponents are still below 200, so no bound
    underflows to zero."""
    rng = _rng("verify_sweep", seed)
    base = int(rng.integers(0, 2**31 - VERIFY_ROUNDS))
    rounds = []
    for r in range(VERIFY_ROUNDS):
        k = int(rng.integers(1, 5))
        sigma = round(float(rng.uniform(0.05, 1.0)), 6)
        n = int(rng.integers(10, 1001))
        lo = round(float(rng.uniform(0.01, 0.1)), 6)
        cap = (200.0 ** (k + 1) / n) ** 0.5
        hi = round(min(lo * float(rng.uniform(10.0, 100.0)), cap), 6)
        rounds.append({
            "name": f"round{r}",
            "verify_seed": base + r,
            "bounds": {"k": k, "sigma": sigma, "n": n,
                       "x_grid": f"{lo}:{hi}:{BOUNDS_POINTS}"},
        })
    return rounds


GENERATORS = {"mc_tails": mc_tails, "exact_product": exact_product,
              "verify_sweep": verify_sweep}


def generate(workload: str, seed: int) -> list[dict]:
    return GENERATORS[workload](seed)
