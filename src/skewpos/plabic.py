"""Lattice-trip model of the plabic graph attached to a skew diagram.

Trips run on the lattice of the k x (n-k) rectangle.  Lattice points are (x, y)
with x = 0..n-k measured from the left edge and y = 0..k from the bottom; the
box in left-column c, bottom-row r spans [c-1, c] x [r-1, r].  The n boundary
edges are the steps of the boundary path of lambda from the southeast corner to
the northwest corner (counterclockwise enumeration), so vertical steps carry
the labels in I_lambda.

A trip enters at its boundary edge, staircases southwest by alternating unit
steps, and when the next step would leave the skew shape it reflects (south to
north, or west to east) and runs straight to the boundary.  Clockwise trips
label the boxes they enclose; counterclockwise trips label the boxes outside
their enclosure together with the mu region.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .diagram import BoxRef, SkewDiagram
from .permutations import baf

Pt = tuple[int, int]


def _boundary_steps(d: SkewDiagram) -> list[dict]:
    """The n steps of the boundary path of lambda, labeled 1..n from the SE corner."""
    x, y = d.n - d.k, 0
    vertical = set(d.I_lambda())
    steps = []
    for t in range(1, d.n + 1):
        if t in vertical:
            steps.append({"t": t, "kind": "vertical", "start": (x, y), "end": (x, y + 1)})
            y += 1
        else:
            steps.append({"t": t, "kind": "horizontal", "start": (x, y), "end": (x - 1, y)})
            x -= 1
    assert (x, y) == (0, d.k)
    return steps


@dataclass(frozen=True)
class LatticeTrip:
    """One trip: entry edge, lattice path, orientation, exit edge, labeled boxes."""

    start: int
    end: int
    orientation: str  # "clockwise" | "counterclockwise"
    path: tuple[Pt, ...]
    boxes: tuple[BoxRef, ...]  # skew-diagram boxes labeled by this trip
    labels_mu_region: bool

    def labeled_box_count(self) -> int:
        """Printed labels in the diagram: skew boxes plus one for the mu region."""
        return len(self.boxes) + (1 if self.labels_mu_region else 0)


def _in_skew(d: SkewDiagram, c: int, r: int) -> bool:
    """Box membership in left-column/bottom-row coordinates."""
    return d.contains_box(d.n - d.k + 1 - c, r)


def _edge_allowed(d: SkewDiagram, pos: Pt, direction: str) -> bool:
    """A unit step is allowed when its edge borders at least one skew-diagram box."""
    x, y = pos
    if direction == "W":
        return x - 1 >= 0 and (_in_skew(d, x, y + 1) or _in_skew(d, x, y))
    if direction == "S":
        return y - 1 >= 0 and (_in_skew(d, x, y) or _in_skew(d, x + 1, y))
    raise ValueError(direction)


def _move(pos: Pt, direction: str) -> Pt:
    x, y = pos
    return {"W": (x - 1, y), "S": (x, y - 1), "E": (x + 1, y), "N": (x, y + 1)}[direction]


def trip(d: SkewDiagram, i: int) -> LatticeTrip:
    """The lattice trip starting at boundary edge i."""
    if not 1 <= i <= d.n:
        raise ValueError(f"boundary edge {i} out of range 1..{d.n}")
    steps = _boundary_steps(d)
    step = steps[i - 1]
    vertical_starts = {s["start"]: s["t"] for s in steps if s["kind"] == "vertical"}
    horizontal_ends = {s["end"]: s["t"] for s in steps if s["kind"] == "horizontal"}

    if step["kind"] == "vertical":
        pos: Pt = step["start"]
        direction = "W"
    else:
        pos = step["end"]
        direction = "S"
    path = [pos]
    budget = 4 * d.k * (d.n - d.k) + 8
    run: str | None = None
    end = None
    while budget > 0:
        budget -= 1
        if run == "E":
            if pos in vertical_starts:
                end = vertical_starts[pos]
                break
            pos = _move(pos, "E")
            path.append(pos)
        elif run == "N":
            if pos in horizontal_ends:
                end = horizontal_ends[pos]
                break
            pos = _move(pos, "N")
            path.append(pos)
        elif _edge_allowed(d, pos, direction):
            pos = _move(pos, direction)
            path.append(pos)
            direction = "S" if direction == "W" else "W"
        else:
            run = "E" if direction == "W" else "N"
    else:
        raise RuntimeError(f"trip {i} failed to terminate; manual inspection required")
    if end is None:
        raise RuntimeError(f"trip {i} failed to terminate; manual inspection required")

    orientation = "counterclockwise" if run == "E" else "clockwise"
    enclosed = _enclosed_boxes(d, steps, i, end, path, orientation)
    if orientation == "clockwise":
        boxes = enclosed
        labels_mu = False
    else:
        inside = set(enclosed)
        boxes = tuple(b for b in d.boxes() if b not in inside)
        labels_mu = True
    return LatticeTrip(i, end, orientation, tuple(path), boxes, labels_mu)


def _enclosed_boxes(d, steps, start: int, end: int, path, orientation: str) -> tuple[BoxRef, ...]:
    """Boxes inside the loop formed by the trip and the boundary arc closing it."""
    if len(path) <= 1:  # lollipop: nothing enclosed
        return ()
    closure: list[Pt] = []
    if orientation == "clockwise":
        # exit is the end point of horizontal step `end`; walk the boundary back (southeast)
        for t in range(end, start, -1):
            closure.append(steps[t - 1]["start"])
    else:
        # exit is the start point of vertical step `end`; walk the boundary forward (northwest)
        for t in range(end, start):
            closure.append(steps[t - 1]["end"])
    polygon = list(path) + closure
    out = []
    for b in d.boxes():
        c = d.n - d.k + 1 - b.a
        cx, cy = Fraction(2 * c - 1, 2), Fraction(2 * b.i - 1, 2)
        if _inside(polygon, cx, cy):
            out.append(b)
    return tuple(out)


def _inside(polygon: list[Pt], cx: Fraction, cy: Fraction) -> bool:
    """Ray casting east from (cx, cy); polygon edges are axis-aligned integer segments."""
    crossings = 0
    m = len(polygon)
    for t in range(m):
        (x1, y1), (x2, y2) = polygon[t], polygon[(t + 1) % m]
        if x1 == x2 and x1 > cx and min(y1, y2) < cy < max(y1, y2):
            crossings += 1
    return crossings % 2 == 1


def trips(d: SkewDiagram) -> tuple[LatticeTrip, ...]:
    """The n lattice trips, trips(d)[i - 1] = trip(d, i)."""
    return tuple(trip(d, i) for i in range(1, d.n + 1))


def trip_permutation(ts: tuple[LatticeTrip, ...]) -> tuple[tuple[int, ...], dict[int, str]]:
    """(one-line trip permutation, loop decorations); agrees with the affine permutation mod n."""
    perm = tuple(T.end for T in ts)
    decorations = {T.start: T.orientation for T in ts if T.end == T.start}
    return perm, decorations


def source_labels(d: SkewDiagram, ts: tuple[LatticeTrip, ...]) -> dict[BoxRef, tuple[int, ...]]:
    """Accumulated trip labels per skew-diagram box; equals the boundary-path labels."""
    acc: dict[BoxRef, list[int]] = {b: [] for b in d.boxes()}
    for T in ts:
        for b in T.boxes:
            acc[b].append(T.start)
    return {b: tuple(sorted(labels)) for b, labels in acc.items()}


def mu_region_label(ts: tuple[LatticeTrip, ...]) -> tuple[int, ...]:
    """Labels collected by the southwest region: the counterclockwise trip starts."""
    return tuple(sorted(T.start for T in ts if T.labels_mu_region))


def trips_json(d: SkewDiagram) -> dict:
    ts = trips(d)
    return {
        "trips": [
            {
                "start": T.start,
                "end": T.end,
                "orientation": T.orientation,
                "path": [list(p) for p in T.path],
                "boxes": [[b.a, b.i] for b in T.boxes],
                "labels_mu_region": T.labels_mu_region,
            }
            for T in ts
        ],
        "labels": {f"a{b.a}i{b.i}": list(v) for b, v in source_labels(d, ts).items()},
        "mu_region": list(mu_region_label(ts)),
    }


def ascii_grid(d: SkewDiagram) -> str:
    """Plain text grid of the box labels, rows printed top down."""
    labels = source_labels(d, trips(d))
    cells: dict[tuple[int, int], str] = {}
    width = 1
    for b, v in labels.items():
        s = ",".join(str(x) for x in v)
        cells[(b.a, b.i)] = s
        width = max(width, len(s))
    lines = []
    for i in range(d.k, 0, -1):
        row = []
        for c in range(1, d.n - d.k + 1):
            a = d.n - d.k + 1 - c
            if d.contains_box(a, i):
                row.append(cells[(a, i)].center(width))
            elif d.in_mu(a, i):
                row.append("mu".center(width))
            else:
                row.append(" " * width)
        lines.append("|" + "|".join(row) + "|")
    return "\n".join(lines)


def verify_trips(d: SkewDiagram) -> None:
    """Cross-check the lattice model against the diagram combinatorics; raises on failure."""
    ts = trips(d)
    perm, decorations = trip_permutation(ts)
    assert perm == baf(d).mod_n(), "trip permutation differs from the affine permutation"
    assert decorations == baf(d).fixed_point_decorations()
    I_mu = set(d.I_mu())
    for T in ts:
        assert (T.orientation == "counterclockwise") == (T.start in I_mu)
    for b, v in source_labels(d, ts).items():
        assert len(v) == d.k, f"box {b} received {len(v)} labels"
        assert v == tuple(sorted(d.long_label(b.a, b.i)))
    assert mu_region_label(ts) == d.I_mu()
