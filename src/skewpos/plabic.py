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
_STEP = {"W": (-1, 0), "S": (0, -1), "E": (1, 0), "N": (0, 1)}
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
    dx, dy = _STEP[direction]
    return pos[0] + dx, pos[1] + dy


def _trip_inputs(d: SkewDiagram):
    """What every trip of d reads: the boundary path, I_lambda, the exit lookup by orientation
    (clockwise trips exit at the end of a horizontal step), the boxes and two masks, box j being
    bit j: ``east[r][x]``, the boxes of row r west of x, which a vertical edge at x across row r
    moves to the other side of a loop, and ``arc[t]``, ``east`` XORed over the boundary's
    vertical steps 1..t."""
    pts, vertical = _boundary_path(d)
    exits = {True: {pts[t]: t for t in range(1, d.n + 1) if t not in vertical},
             False: {pts[t - 1]: t for t in vertical}}
    boxes = d.boxes()
    rows = [[0] * (d.n - d.k + 1) for _ in range(d.k + 1)]
    for j, (a, i) in enumerate(boxes):
        rows[i][d.n - d.k + 1 - a] = 1 << j  # box (a, i) has its left edge at x = n - k - a
    east = [list(accumulate(row, or_)) for row in rows]
    steps = (east[y + 1][x] if t in vertical else 0 for t, (x, y) in enumerate(pts[:-1], 1))
    return pts, vertical, exits, boxes, east, list(accumulate(steps, xor, initial=0))


def trip(d: SkewDiagram, i: int) -> LatticeTrip:
    """The lattice trip starting at boundary edge i."""
    if not 1 <= i <= d.n:
        raise ValueError(f"boundary edge {i} out of range 1..{d.n}")
    return _trip(d, i, *_trip_inputs(d))


def _trip(d: SkewDiagram, i: int, pts: list[Pt], vertical: set[int], exits: dict, boxes, east, arc) -> LatticeTrip:
    pos, direction = (pts[i - 1], "W") if i in vertical else (pts[i], "S")
    path = [pos]
    while _edge_allowed(d, pos, direction):  # staircase southwest
        pos = _move(pos, direction)
        path.append(pos)
        direction = "S" if direction == "W" else "W"
    # reflect, then run north to the end of a horizontal step or east to the start of a vertical one
    clockwise = direction == "S"
    run, exit_at = ("N" if clockwise else "E"), exits[clockwise]
    while pos not in exit_at:
        if len(path) > 2 * d.n:
            raise RuntimeError(f"trip {i} failed to terminate; manual inspection required")
        pos = _move(pos, run)
        path.append(pos)
    end = exit_at[pos]
    # the loop closes along the boundary arc from the exit back to the entry, whose vertical
    # steps are those t with i <= t < end (clockwise) or end <= t < i (counterclockwise)
    inside = arc[end - 1] ^ arc[i - 1]
    for (x, y1), (x2, y2) in zip(path, path[1:]):
        if x == x2:
            inside ^= east[max(y1, y2)][x]
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
            raise InvariantError(f"box {b} received {len(v)} labels")
        if v != d.long_label(b.a, b.i):
            raise InvariantError(f"trip labels of box {b} differ from its long label")
    if mu_region_label(ts) != d.I_mu():
        raise InvariantError("mu-region label differs from I_mu")
