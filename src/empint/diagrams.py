"""Colored two-row diagrams and the contraction of kernel pairs along them.

A diagram pairs some arguments of a kernel f (first row, labels 1..k1) with
arguments of a kernel g (second row, labels k1+1..k1+k2).  Each edge (j, j')
identifies argument j' of the pair with argument j; a *colored* edge
additionally integrates the identified argument out against the base
measure.  Contracting f and g along a diagram with l edges, p of them
colored, produces a kernel of arity k1 + k2 - l - p.

Diagrams with the same (l, p) form a class; the product of two multiple
integrals expands over classes with explicit combinatorial coefficients,
which is what makes the product identity checkable term by term.
The diagram's labels are the subscripts of a single ``np.einsum``, so a
contraction never builds the full A^(k1+k2) tensor product.
"""
from __future__ import annotations

import functools
import itertools
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .errors import InvalidClass, InvalidDiagram
from .kernels import Kernel, compact_relabel, labeled_product
from .scalars import mode_of

__all__ = [
    "DiagramClass", "ColoredDiagram", "enumerate_diagrams",
    "contract", "contract_class_average", "is_gaussian",
    "product_formula_coefficient", "format_diagram", "parse_diagram",
]


@dataclass(frozen=True)
class DiagramClass:
    """All diagrams between rows of sizes k1, k2 with l edges, p colored."""

    k1: int
    k2: int
    l: int
    p: int

    def __post_init__(self):
        if self.k1 < 0 or self.k2 < 0:
            raise InvalidClass(f"row sizes must be non-negative, got {self.k1}, {self.k2}")
        if not 0 <= self.p <= self.l <= min(self.k1, self.k2):
            raise InvalidClass(f"need 0 <= p <= l <= min(k1, k2), got l={self.l}, p={self.p}")

    @property
    def result_arity(self) -> int:
        return self.k1 + self.k2 - self.l - self.p


@dataclass(frozen=True)
class ColoredDiagram:
    """A concrete pairing.  Edges are (first-row label, second-row label),
    stored sorted by first label; second labels are pairwise distinct.
    ``colored`` holds 1-based positions into the edge tuple."""

    k1: int
    k2: int
    edges: tuple[tuple[int, int], ...]
    colored: frozenset[int] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "edges", tuple(tuple(e) for e in self.edges))
        object.__setattr__(self, "colored", frozenset(self.colored))
        firsts = [e[0] for e in self.edges]
        seconds = [e[1] for e in self.edges]
        if firsts != sorted(set(firsts)):
            raise InvalidDiagram(f"first endpoints must be strictly increasing, got {firsts}")
        if len(set(seconds)) != len(seconds):
            raise InvalidDiagram(f"second endpoints must be distinct, got {seconds}")
        for j, j2 in self.edges:
            if not (1 <= j <= self.k1 < j2 <= self.k1 + self.k2):
                raise InvalidDiagram(f"edge ({j}, {j2}) leaves rows 1..{self.k1} x "
                                     f"{self.k1 + 1}..{self.k1 + self.k2}")
        for t in self.colored:
            if not 1 <= t <= len(self.edges):
                raise InvalidDiagram(f"colored position {t} out of range")

    @property
    def l(self) -> int:
        return len(self.edges)

    @property
    def p(self) -> int:
        return len(self.colored)

    def colored_edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(self.edges[t - 1] for t in sorted(self.colored))

    def uncolored_edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(e for t, e in enumerate(self.edges, 1) if t not in self.colored)


def is_gaussian(d: ColoredDiagram) -> bool:
    """True when every edge is colored; only these diagrams survive in the
    classical product formula for Gaussian integrals."""
    return len(d.colored) == len(d.edges)


def enumerate_diagrams(cls: DiagramClass) -> Iterator[ColoredDiagram]:
    """All diagrams of the class, in a stable lexicographic order."""
    firsts_pool = range(1, cls.k1 + 1)
    seconds_pool = range(cls.k1 + 1, cls.k1 + cls.k2 + 1)
    for firsts in itertools.combinations(firsts_pool, cls.l):
        for seconds in itertools.permutations(seconds_pool, cls.l):
            edges = tuple(zip(firsts, seconds))
            for colored in itertools.combinations(range(1, cls.l + 1), cls.p):
                yield ColoredDiagram(cls.k1, cls.k2, edges, frozenset(colored))


@functools.lru_cache
def product_formula_coefficient(k1: int, k2: int, l: int, p: int) -> Fraction:
    """Class coefficient in the product expansion of two normalized multiple
    integrals: (k1+k2-l-p)! / ((k1-l)! (k2-l)! (l-p)! p!)."""
    cls = DiagramClass(k1, k2, l, p)
    return Fraction(math.factorial(cls.result_arity),
                    math.factorial(k1 - l) * math.factorial(k2 - l)
                    * math.factorial(l - p) * math.factorial(p))


def contract(f: Kernel, g: Kernel, d: ColoredDiagram) -> Kernel:
    """Contract the pair (f, g) along the diagram.

    f's arguments carry labels 1..k1 and g's carry k1+1..k1+k2; every edge
    renames its second-row label to its first-row label, and the first-row
    endpoint of every colored edge is integrated out.  All of it is one
    labeled product (SpaceMismatch unless f and g share a measure).  The
    result keeps the surviving original labels; apply compact_relabel for
    the 1..arity form.
    """
    if f.arity != d.k1 or g.arity != d.k2:
        raise InvalidDiagram(f"diagram rows ({d.k1}, {d.k2}) do not match "
                             f"arities ({f.arity}, {g.arity})")
    rename = {j2: j for j, j2 in d.edges}
    g_labels = [rename.get(j, j) for j in range(d.k1 + 1, d.k1 + d.k2 + 1)]
    colored = [j for j, _ in d.colored_edges()]
    out = [j for j in range(1, d.k1 + d.k2 + 1) if j not in rename and j not in colored]
    return labeled_product(f.space, [(f, range(1, d.k1 + 1)), (g, g_labels)], out, colored)


def contract_class_average(f: Kernel, g: Kernel, cls: DiagramClass) -> Kernel:
    """Average of the compact-relabeled contractions over the whole class."""
    members = [compact_relabel(contract(f, g, d)) for d in enumerate_diagrams(cls)]
    total = functools.reduce(Kernel.add, members)
    return total.scale(mode_of(total).inv(len(members)))


# -- text form --------------------------------------------------------------

_DIAGRAM_RE = re.compile(r"B\((\d+),\s*(\d+);\s*((?:\(\d+,\s*\d+\)[+-]\s*)*)\)", re.ASCII)
_EDGE_RE = re.compile(r"\((\d+),\s*(\d+)\)([+-])", re.ASCII)


def format_diagram(d: ColoredDiagram) -> str:
    """Stable text form, e.g. 'B(2,2; (1,3)+ (2,4)-)'; '+' marks colored."""
    parts = []
    for t, (j, j2) in enumerate(d.edges, 1):
        parts.append(f"({j},{j2})" + ("+" if t in d.colored else "-"))
    body = " ".join(parts)
    return f"B({d.k1},{d.k2};" + (f" {body})" if body else ")")


def parse_diagram(text: str) -> ColoredDiagram:
    """Read the text form of format_diagram; anything else, a non-string
    included, raises InvalidDiagram."""
    m = _DIAGRAM_RE.fullmatch(text.strip()) if isinstance(text, str) else None
    if not m:
        raise InvalidDiagram(f"cannot parse diagram {text!r}")
    k1, k2, rest = m.groups()
    found = _EDGE_RE.findall(rest)
    try:
        k1, k2 = int(k1), int(k2)
        edges = tuple((int(a), int(b)) for a, b, _ in found)
    except ValueError:  # more digits than int() converts
        raise InvalidDiagram(f"cannot parse diagram {text!r}") from None
    return ColoredDiagram(k1, k2, edges, frozenset(t for t, (*_, sign) in enumerate(found, 1)
                                                   if sign == "+"))
