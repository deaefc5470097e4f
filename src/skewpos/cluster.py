"""Initial cluster seed of a skew shaped positroid, quiver mutation, exchange ratios.

Quiver vertices are the diagram boxes; the frozen ones are exactly the boundary
ribbon boxes.  Seeds are value-level: each vertex carries the rational value of
its Pluecker coordinate at a fixed point, read off the point's chart, not a symbolic
variable.  The quiver is built once per diagram, and exchange products are integer pairs.
Mutation is matrix mutation (Fomin-Zelevinsky) on the net arrow counts of the quiver.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from math import prod

from .diagram import BoxRef, InvariantError, SkewDiagram
from .variety import PointV

Arrow = tuple[BoxRef, BoxRef]


@dataclass(frozen=True)
class Quiver:
    """Ice quiver: boxes as vertices, arrow multiset, frozen = ribbon boxes."""

    vertices: tuple[BoxRef, ...]
    frozen: frozenset[BoxRef]
    arrows: tuple[tuple[Arrow, int], ...]  # ((src, dst), multiplicity), multiplicity >= 1
    _arrows_at: dict = field(init=False, repr=False, compare=False)  # box -> (arrows into, arrows out)

    def __post_init__(self):
        vs = set(self.vertices)
        seen = set()
        for (src, dst), m in self.arrows:
            if src not in vs or dst not in vs:
                raise ValueError(f"arrow endpoint not a vertex: {src} -> {dst}")
            if src == dst:
                raise ValueError(f"loop at {src}")
            if (dst, src) in seen:
                raise ValueError(f"2-cycle between {src} and {dst}")
            if (src, dst) in seen:
                raise ValueError(f"duplicate arrow entry {src} -> {dst}")
            if m < 1:
                raise ValueError("nonpositive multiplicity")
            seen.add((src, dst))
        object.__setattr__(self, "arrows", tuple(sorted(self.arrows, key=lambda e: e[0])))
        at = {v: ([], []) for v in self.vertices}
        for (src, dst), m in self.arrows:
            at[dst][0].append((src, m))
            at[src][1].append((dst, m))
        object.__setattr__(self, "_arrows_at", at)

    def is_mutable(self, box: BoxRef) -> bool:
        return box in self._arrows_at and box not in self.frozen

    def arrows_into(self, box: BoxRef) -> list[tuple[BoxRef, int]]:
        return list(self._arrows_at[box][0]) if box in self._arrows_at else []

    def arrows_out(self, box: BoxRef) -> list[tuple[BoxRef, int]]:
        return list(self._arrows_at[box][1]) if box in self._arrows_at else []


def quiver(d: SkewDiagram) -> Quiver:
    """Initial quiver: three arrow types, kept only when an endpoint is mutable.  Built once per
    diagram and kept on it: a Quiver is immutable, so every seed on d shares it.  A neighbour is
    looked up as a plain (a, i) tuple, and the arrows hold the diagram's kept boxes."""
    if "quiver" not in d._memo:
        boxes = d.boxes()
        present = dict(zip(boxes, boxes))
        frozen = frozenset(d.ribbon().R)  # the skew boxes on the ribbon of lambda
        arrows: list[tuple[Arrow, int]] = []
        for b in boxes:
            a, i = b
            for dst in map(present.get, ((a + 1, i), (a, i - 1), (a - 1, i + 1))):
                if dst is not None and (b not in frozen or dst not in frozen):
                    arrows.append(((b, dst), 1))
        d._memo["quiver"] = Quiver(tuple(boxes), frozen, tuple(arrows))
    return d._memo["quiver"]


@dataclass(frozen=True)
class Seed:
    """Quiver together with the rational value of each vertex at a point."""

    quiver: Quiver
    values: tuple[tuple[BoxRef, Fraction], ...]
    _value: dict = field(init=False, repr=False, compare=False)
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)  # box -> its ``_products``

    def __post_init__(self):
        value = dict(self.values)
        if value.keys() != set(self.quiver.vertices):
            raise ValueError("seed values must cover exactly the quiver vertices")
        object.__setattr__(self, "_value", value)

    def value(self, box: BoxRef) -> Fraction:
        return self._value[box]


def seed_at(V: PointV) -> Seed:
    """Initial seed values: the minor of each box (a, i) at its long label, read off V's chart a column
    at a time (``PointV.column_minors``, in the quiver's vertex order); kept on the point."""
    if "seed" in V._memo:
        return V._memo["seed"]
    d = V.diagram
    q = quiver(d)
    minors = chain.from_iterable(V.column_minors(a) for a in range(1, d.n - d.k + 1))
    values = tuple(zip(q.vertices, minors, strict=True))
    zero = next((b for b, x in values if x == 0 and b in q.frozen), None)
    if zero is not None:
        raise InvariantError(f"frozen value vanishes at ({zero.a},{zero.i})")
    V._memo["seed"] = Seed(q, values)
    return V._memo["seed"]


def _mutate_quiver(q: Quiver, box: BoxRef) -> Quiver:
    """Matrix mutation (Fomin-Zelevinsky) on net counts b(u, v) = -b(v, u): each path u -> box -> v adds
    m1 * m2 to b(u, v) unless u and v are both frozen, the counts at the box change sign, and the positive
    counts are the new arrows, so a 2-cycle cancels as it forms."""
    b: dict[Arrow, int] = {}
    for (u, v), m in q.arrows:
        b[u, v] = -m if box in (u, v) else m
        b[v, u] = -b[u, v]
    into, out = q.arrows_into(box), q.arrows_out(box)
    for u, m1 in into:
        for v, m2 in out:
            if u not in q.frozen or v not in q.frozen:
                b[u, v] = b.get((u, v), 0) + m1 * m2
                b[v, u] = -b[u, v]
    return Quiver(q.vertices, q.frozen, tuple((e, m) for e, m in b.items() if m > 0))


def mutate(s: Seed, box: BoxRef) -> Seed:
    """Seed mutation at a mutable vertex; an involution."""
    q = s.quiver
    if not q.is_mutable(box):
        raise ValueError(f"cannot mutate frozen or missing vertex ({box.a},{box.i})")
    old = s.value(box)
    if old == 0:
        raise ValueError(f"cannot mutate at ({box.a},{box.i}): its value vanishes")
    prod_in, prod_out = exchange_products(s, box)
    new = (prod_in + prod_out) / old
    return Seed(_mutate_quiver(q, box), tuple((b, new if b == box else v) for b, v in s.values))


def exchange_products(s: Seed, box: BoxRef) -> tuple[Fraction, Fraction]:
    """(product over in-arrows, product over out-arrows) of the neighbour values at a mutable vertex."""
    return tuple(Fraction(*p) for p in _products(s, box))


def _products(s: Seed, box: BoxRef) -> tuple[tuple[int, int], tuple[int, int]]:
    """``exchange_products`` as integer pairs (numerator, denominator > 0), not reduced, kept on the seed:
    V keeps its seed, so every cut of V reads V's products, computed once per box."""
    if box not in s._memo:
        if not s.quiver.is_mutable(box):
            raise ValueError(f"exchange ratio is defined at mutable vertices only: ({box.a},{box.i})")
        s._memo[box] = tuple((prod(s.value(b).numerator ** m for b, m in arrows),
                              prod(s.value(b).denominator ** m for b, m in arrows)) for arrows in s.quiver._arrows_at[box])
    return s._memo[box]


def quiver_dot(d: SkewDiagram) -> str:
    """DOT rendering: ids a{a}i{i}, frozen drawn as boxes, labels the sorted box subsets."""
    q = quiver(d)
    lines = ["digraph quiver {"]
    for b in q.vertices:
        label = ",".join(map(str, d.long_label(b.a, b.i)))
        shape = "box" if b in q.frozen else "ellipse"
        lines.append(f'  a{b.a}i{b.i} [shape={shape}, label="{label}"];')
    for (src, dst), m in q.arrows:
        for _ in range(m):
            lines.append(f"  a{src.a}i{src.i} -> a{dst.a}i{dst.i};")
    lines.append("}")
    return "\n".join(lines)


def quiver_json(d: SkewDiagram) -> dict:
    """The quiver as a JSON document: each vertex's long label is its tuple and each arrow's endpoints are
    BoxRefs, which ``cli``'s writer and json.dumps both write as lists."""
    q = quiver(d)
    return {
        "vertices": [
            {
                "a": b.a,
                "i": b.i,
                "frozen": b in q.frozen,
                "label": d.long_label(b.a, b.i),
            }
            for b in q.vertices
        ],
        "arrows": [
            {"from": src, "to": dst, "multiplicity": m}
            for (src, dst), m in q.arrows
        ],
    }
