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
their enclosure together with the mu region.  A trip's loop is closed along the
boundary arc from its exit back to its entry, and box (a, i) is enclosed iff an
odd number of the loop's vertical edges crossing row i lie east of its left edge.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, compress
from operator import or_, xor

from .diagram import BoxRef, InvariantError, SkewDiagram
from .permutations import baf

Pt = tuple[int, int]
_BITS = bytes.maketrans(b"01", b"\x00\x01")


def _boundary_path(d: SkewDiagram) -> tuple[list[Pt], set[int]]:
    """The n + 1 lattice points of lambda's boundary path from the SE corner, and I_lambda.

    Step t runs from point t - 1 to point t; it is vertical exactly when t is in I_lambda.
    """
    x, y = d.n - d.k, 0
    vertical = set(d.I_lambda())
    pts = [(x, y)]
    for t in range(1, d.n + 1):
        if t in vertical:
            y += 1
        else:
            x -= 1
        pts.append((x, y))
    if pts[-1] != (0, d.k):
        raise InvariantError(f"boundary path ends at {pts[-1]}, not at {(0, d.k)}")
    return pts, vertical


@dataclass(frozen=True)
class LatticeTrip:
    """One trip: entry edge, lattice path, orientation, exit edge, labeled boxes."""

    start: int
    end: int
    orientation: str  # "clockwise" | "counterclockwise"
    path: tuple[Pt, ...]
    boxes: tuple[BoxRef, ...]  # skew-diagram boxes labeled by this trip
    labels_mu_region: bool


def _trip_inputs(d: SkewDiagram):
    """What every trip of d reads: the boundary path, I_lambda, the exit lookup by orientation
    (clockwise trips exit at the end of a horizontal step), the boxes and three masks, box j being
    bit j: ``rows[r][c]``, the box in left-column c, bottom-row r, or 0 where there is none (rows
    0..k + 1, columns 0..n - k + 1, so a step off the rectangle meets no box); ``east[r][x]``, the
    boxes of row r west of x, which a vertical edge at x across row r moves to the other side of a
    loop; and ``arc[t]``, ``east`` XORed over the boundary's vertical steps 1..t."""
    pts, vertical = _boundary_path(d)
    exits = {True: {pts[t]: t for t in range(1, d.n + 1) if t not in vertical},
             False: {pts[t - 1]: t for t in vertical}}
    boxes = d.boxes()
    rows = [[0] * (d.n - d.k + 2) for _ in range(d.k + 2)]
    for j, (a, i) in enumerate(boxes):
        rows[i][d.n - d.k + 1 - a] = 1 << j  # box (a, i) has its left edge at x = n - k - a
    east = [list(accumulate(row, or_)) for row in rows]
    steps = (east[y + 1][x] if t in vertical else 0 for t, (x, y) in enumerate(pts[:-1], 1))
    return pts, vertical, exits, boxes, rows, east, list(accumulate(steps, xor, initial=0))


def trip(d: SkewDiagram, i: int) -> LatticeTrip:
    """The lattice trip starting at boundary edge i."""
    if not 1 <= i <= d.n:
        raise ValueError(f"boundary edge {i} out of range 1..{d.n}")
    return _trip(d, i, *_trip_inputs(d))


def _trip(d: SkewDiagram, i: int, pts: list[Pt], vertical: set[int], exits: dict, boxes, rows, east,
          arc) -> LatticeTrip:
    (x, y), west = (pts[i - 1], True) if i in vertical else (pts[i], False)
    path, inside = [(x, y)], 0  # inside: the boxes the path's vertical edges move across
    while True:  # staircase southwest while the next edge borders a box of the skew shape
        if west:
            if not (rows[y + 1][x] or rows[y][x]):
                break
            x -= 1
        else:
            if not (rows[y][x] or rows[y][x + 1]):
                break
            inside ^= east[y][x]
            y -= 1
        path.append((x, y))
        west = not west
    # reflect, then run north to the end of a horizontal step or east to the start of a vertical one
    clockwise = not west
    exit_at = exits[clockwise]
    while (x, y) not in exit_at:
        if (y == d.k) if clockwise else (x == d.n - d.k):
            raise InvariantError(f"trip {i} reached {(x, y)} on the edge of the rectangle with no exit on its run")
        if clockwise:
            y += 1
            inside ^= east[y][x]
        else:
            x += 1
        path.append((x, y))
    end = exit_at[x, y]
    # the loop closes along the boundary arc from the exit back to the entry, whose vertical
    # steps are those t with i <= t < end (clockwise) or end <= t < i (counterclockwise)
    inside ^= arc[end - 1] ^ arc[i - 1]
    side = inside if clockwise else inside ^ (1 << len(boxes)) - 1
    # side's binary digits, lowest first, as 0/1 bytes pick the boxes in the order of d.boxes()
    enclosed = compress(boxes, bin(side)[:1:-1].encode().translate(_BITS))
    orientation = "clockwise" if clockwise else "counterclockwise"
    return LatticeTrip(i, end, orientation, tuple(path), tuple(enclosed), labels_mu_region=not clockwise)


def trips(d: SkewDiagram) -> tuple[LatticeTrip, ...]:
    """The n lattice trips, trips(d)[i - 1] = trip(d, i); their common inputs are built once."""
    inputs = _trip_inputs(d)
    return tuple(_trip(d, i, *inputs) for i in range(1, d.n + 1))


def trip_permutation(ts: tuple[LatticeTrip, ...]) -> tuple[tuple[int, ...], dict[int, str]]:
    """(one-line trip permutation, loop decorations); agrees with the affine permutation mod n."""
    perm = tuple(T.end for T in ts)
    decorations = {T.start: T.orientation for T in ts if T.end == T.start}
    return perm, decorations


def source_labels(d: SkewDiagram, ts: tuple[LatticeTrip, ...]) -> dict[BoxRef, tuple[int, ...]]:
    """Accumulated trip labels per skew-diagram box; equals the boundary-path labels.  ``ts`` is the tuple
    ``trips(d)``, in increasing start order, so each box's labels come in increasing order, unsorted."""
    acc: dict[BoxRef, list[int]] = {b: [] for b in d.boxes()}
    for T in ts:
        for b in T.boxes:
            acc[b].append(T.start)
    return {b: tuple(labels) for b, labels in acc.items()}


def mu_region_label(ts: tuple[LatticeTrip, ...]) -> tuple[int, ...]:
    """Labels collected by the southwest region: the counterclockwise trip starts."""
    return tuple(sorted(T.start for T in ts if T.labels_mu_region))


def trips_json(d: SkewDiagram) -> dict:
    """The trips, box labels and mu-region label as a JSON document; each path, box list and label is the
    tuple (of tuples or BoxRefs) that the trips hold, which ``cli``'s writer and json.dumps write as lists."""
    ts = trips(d)
    return {
        "trips": [
            {
                "start": T.start,
                "end": T.end,
                "orientation": T.orientation,
                "path": T.path,
                "boxes": T.boxes,
                "labels_mu_region": T.labels_mu_region,
            }
            for T in ts
        ],
        "labels": {f"a{b.a}i{b.i}": v for b, v in source_labels(d, ts).items()},
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
    """Cross-check the lattice model against the diagram combinatorics; raises InvariantError."""
    ts = trips(d)
    perm, decorations = trip_permutation(ts)
    f = baf(d)
    if perm != f.mod_n():
        raise InvariantError("trip permutation differs from the affine permutation")
    if decorations != f.fixed_point_decorations():
        raise InvariantError("trip loop orientations differ from the fixed-point decorations")
    I_mu = set(d.I_mu())
    for T in ts:
        if (T.orientation == "counterclockwise") != (T.start in I_mu):
            raise InvariantError(f"trip {T.start} is {T.orientation}, against I_mu")
    for b, v in source_labels(d, ts).items():
        if len(v) != d.k:
            raise InvariantError(f"box ({b.a},{b.i}) received {len(v)} labels")
        if v != d.long_label(b.a, b.i):
            raise InvariantError(f"trip labels of box ({b.a},{b.i}) differ from its long label")
    if mu_region_label(ts) != d.I_mu():
        raise InvariantError("mu-region label differs from I_mu")
