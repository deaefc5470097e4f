"""Initial cluster seed of a skew shaped positroid, quiver mutation, exchange ratios.

Quiver vertices are the diagram boxes; the frozen ones are exactly the boundary
ribbon boxes.  Seeds are value-level: each vertex carries the rational value of
its Pluecker coordinate at a fixed point, not a symbolic variable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .diagram import BoxRef, SkewDiagram
from .variety import PointV, membership

Arrow = tuple[BoxRef, BoxRef]


@dataclass(frozen=True)
class Quiver:
    """Ice quiver: boxes as vertices, arrow multiset, frozen = ribbon boxes."""

    vertices: tuple[BoxRef, ...]
    frozen: frozenset[BoxRef]
    arrows: tuple[tuple[Arrow, int], ...]  # ((src, dst), multiplicity), multiplicity >= 1

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
        object.__setattr__(self, "arrows", tuple(sorted(
            self.arrows, key=lambda e: (e[0][0].a, e[0][0].i, e[0][1].a, e[0][1].i))))

    def is_mutable(self, box: BoxRef) -> bool:
        return box in self.vertices and box not in self.frozen

    def arrows_into(self, box: BoxRef) -> list[tuple[BoxRef, int]]:
        return [(src, m) for (src, dst), m in self.arrows if dst == box]

    def arrows_out(self, box: BoxRef) -> list[tuple[BoxRef, int]]:
        return [(dst, m) for (src, dst), m in self.arrows if src == box]


def quiver(d: SkewDiagram) -> Quiver:
    """Initial quiver: three arrow types, kept only when an endpoint is mutable."""
    boxes = d.boxes()
    present = {(b.a, b.i) for b in boxes}
    frozen = frozenset(b for b in boxes if d.is_frozen(b.a, b.i))
    arrows: list[tuple[Arrow, int]] = []
    for b in boxes:
        for (ta, ti) in ((b.a + 1, b.i), (b.a, b.i - 1), (b.a - 1, b.i + 1)):
            if (ta, ti) in present:
                dst = BoxRef(ta, ti)
                if b not in frozen or dst not in frozen:
                    arrows.append(((b, dst), 1))
    return Quiver(tuple(boxes), frozen, tuple(arrows))


@dataclass(frozen=True)
class Seed:
    """Quiver together with the rational value of each vertex at a point."""

    quiver: Quiver
    values: tuple[tuple[BoxRef, Fraction], ...]

    def __post_init__(self):
        boxes = {b for b, _ in self.values}
        if boxes != set(self.quiver.vertices):
            raise ValueError("seed values must cover exactly the quiver vertices")

    def value(self, box: BoxRef) -> Fraction:
        for b, x in self.values:
            if b == box:
                return x
        raise KeyError(box)


def seed_at(V: PointV) -> Seed:
    """Initial seed values: the ascending-order minor of each box label."""
    d = V.diagram
    if not membership(V.matrix, d):
        raise ValueError("point does not lie on the variety of its diagram")
    q = quiver(d)
    values = []
    for b in q.vertices:
        x = V.delta(tuple(sorted(d.long_label(b.a, b.i))))
        if b in q.frozen and x == 0:
            raise AssertionError(f"frozen value vanishes at {b}")
        values.append((b, x))
    return Seed(q, tuple(values))


def _mutate_quiver(q: Quiver, box: BoxRef) -> Quiver:
    mult: dict[Arrow, int] = {e: m for e, m in q.arrows}
    into, out = q.arrows_into(box), q.arrows_out(box)
    # insert composites i -> j for i -> box -> j, unless both endpoints frozen
    for src, m1 in into:
        for dst, m2 in out:
            if src in q.frozen and dst in q.frozen:
                continue
            mult[(src, dst)] = mult.get((src, dst), 0) + m1 * m2
    # reverse arrows incident to the mutated vertex
    for src, m in into:
        del mult[(src, box)]
        mult[(box, src)] = mult.get((box, src), 0) + m
    for dst, m in out:
        del mult[(box, dst)]
        mult[(dst, box)] = mult.get((dst, box), 0) + m
    # cancel two-cycles
    for (u, v) in list(mult):
        if (v, u) in mult and (u, v) in mult:
            m1, m2 = mult[(u, v)], mult[(v, u)]
            c = min(m1, m2)
            for e, m in (((u, v), m1 - c), ((v, u), m2 - c)):
                if m:
                    mult[e] = m
                else:
                    mult.pop(e, None)
    return Quiver(q.vertices, q.frozen, tuple(mult.items()))


def mutate(s: Seed, box: BoxRef) -> Seed:
    """Seed mutation at a mutable vertex; an involution."""
    q = s.quiver
    if not q.is_mutable(box):
        raise ValueError(f"cannot mutate frozen or missing vertex {box}")
    old = s.value(box)
    if old == 0:
        raise ValueError(f"cannot mutate at {box}: its value vanishes")
    prod_in, prod_out = exchange_products(s, box)
    new = (prod_in + prod_out) / old
    return Seed(_mutate_quiver(q, box), tuple((b, new if b == box else v) for b, v in s.values))


def exchange_products(s: Seed, box: BoxRef) -> tuple[Fraction, Fraction]:
    """(product over in-arrows, product over out-arrows) of the neighbour values at a mutable vertex."""
    q = s.quiver
    if not q.is_mutable(box):
        raise ValueError(f"exchange ratio is defined at mutable vertices only: {box}")
    num = Fraction(1)
    for src, m in q.arrows_into(box):
        num *= s.value(src) ** m
    den = Fraction(1)
    for dst, m in q.arrows_out(box):
        den *= s.value(dst) ** m
    return num, den


def exchange_ratio(s: Seed, box: BoxRef) -> Fraction:
    """Ratio of in-arrow to out-arrow value products at a mutable vertex."""
    num, den = exchange_products(s, box)
    if den == 0:
        raise ZeroDivisionError(f"out-product vanishes at {box}")
    return num / den


def quiver_dot(d: SkewDiagram) -> str:
    """DOT rendering: ids a{a}i{i}, frozen drawn as boxes, labels the sorted box subsets."""
    q = quiver(d)
    lines = ["digraph quiver {"]
    for b in q.vertices:
        label = ",".join(str(x) for x in sorted(d.long_label(b.a, b.i)))
        shape = "box" if b in q.frozen else "ellipse"
        lines.append(f'  a{b.a}i{b.i} [shape={shape}, label="{label}"];')
    for (src, dst), m in q.arrows:
        for _ in range(m):
            lines.append(f"  a{src.a}i{src.i} -> a{dst.a}i{dst.i};")
    lines.append("}")
    return "\n".join(lines)


def quiver_json(d: SkewDiagram) -> dict:
    q = quiver(d)
    return {
        "vertices": [
            {
                "a": b.a,
                "i": b.i,
                "frozen": b in q.frozen,
                "label": sorted(d.long_label(b.a, b.i)),
            }
            for b in q.vertices
        ],
        "arrows": [
            {"from": [src.a, src.i], "to": [dst.a, dst.i], "multiplicity": m}
            for (src, dst), m in q.arrows
        ],
    }
