"""Exact rational points of skew shaped positroid varieties and the braid-variety dictionary.

A point is a k x n matrix of rank k over Q with the gauge Delta_{I_mu} = 1.
The maps here translate a point into a labeling of the braid diagram of the
associated positive braid (region subspaces, boundary framing, right flag,
torus coordinates) and back, exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .diagram import BoxRef, SkewDiagram
from .linalg import (
    FlagK,
    RatMatrix,
    Subspace,
    Vector,
    _echelon,
    minor,
    rat_from_str,
    rat_to_str,
    transversal,
    unit_vector,
    vec_add,
    vec_scale,
    zero_vector,
)
from .permutations import BoundedAffinePermutation, GrassmannNecklace, baf


def _cyclic_column(M: RatMatrix, t: int) -> Vector:
    """Column t of a k x n matrix, any integer t, with v_{t+n} = (-1)^{k-1} v_t."""
    q, r = divmod(t - 1, M.ncols)
    v = M.column(r + 1)
    return v if (q * (M.nrows - 1)) % 2 == 0 else vec_scale(Fraction(-1), v)


@dataclass(frozen=True)
class PointV:
    """Gauge-fixed point: rank-k matrix with Delta_{I_mu} = 1."""

    diagram: SkewDiagram
    matrix: RatMatrix
    seed: int | None = None

    def __post_init__(self):
        d = self.diagram
        if (self.matrix.nrows, self.matrix.ncols) != (d.k, d.n):
            raise ValueError("matrix shape does not match the diagram")
        if minor(self.matrix, d.I_mu()) != 1:
            raise ValueError("Delta_{I_mu} != 1; use PointV.from_matrix to re-gauge")

    @classmethod
    def from_matrix(cls, d: SkewDiagram, M: RatMatrix, seed: int | None = None) -> "PointV":
        """Accept any rank-k representative and re-gauge so that v_{b_i} = e_i."""
        delta = minor(M, d.I_mu())
        if delta == 0:
            raise ValueError("columns at I_mu are dependent; not a point of the variety")
        aug = [list(row) + [unit_vector(d.k, r + 1)[c] for c in range(d.k)]
               for r, row in enumerate(zip(*(M.column(b) for b in d.I_mu())))]
        red = _echelon(aug)
        inv_rows = [r[d.k:] for r in red]
        new_rows = [
            tuple(sum(inv_rows[r][s] * M.rows[s][c] for s in range(d.k)) for c in range(M.ncols))
            for r in range(d.k)
        ]
        return cls(d, RatMatrix(tuple(new_rows)), seed)

    def column(self, t: int) -> Vector:
        """Column t with the cyclic extension v_{t+n} = (-1)^{k-1} v_t."""
        return _cyclic_column(self.matrix, t)

    def delta(self, J) -> Fraction:
        """Signed minor in the listed column order (cyclic indices allowed)."""
        return minor(RatMatrix.from_columns([self.column(t) for t in J]), range(1, self.diagram.k + 1))

    def subspace(self, a: int, i: int) -> Subspace:
        """V(a, i) = span of the short-label columns of box (a, i)."""
        return Subspace.span(self.diagram.k, [self.column(t) for t in self.diagram.short_label(a, i)])

    def W(self, j: int) -> Subspace:
        """W_j = span(v_{b_{k-j+1}}, ..., v_{b_k})."""
        d = self.diagram
        return Subspace.span(d.k, [self.column(d.b(t)) for t in range(d.k - j + 1, d.k + 1)])

    def W_op(self, j: int) -> Subspace:
        """W^op_j = span(v_{b_1}, ..., v_{b_j})."""
        d = self.diagram
        return Subspace.span(d.k, [self.column(d.b(t)) for t in range(1, j + 1)])

    def flag_W(self) -> FlagK:
        d = self.diagram
        return FlagK.from_columns([self.column(d.b(t)) for t in range(d.k, 0, -1)])

    def flag_W_op(self) -> FlagK:
        d = self.diagram
        return FlagK.from_columns([self.column(d.b(t)) for t in range(1, d.k + 1)])

    def regauged(self) -> "PointV":
        """Representative with v_{b_i} = e_i."""
        return PointV.from_matrix(self.diagram, self.matrix, self.seed)

    def to_json(self) -> dict:
        return {
            "diagram": self.diagram.to_json(),
            "seed": self.seed,
            "matrix": [[rat_to_str(e) for e in row] for row in self.matrix.rows],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "PointV":
        d = SkewDiagram.from_json(obj["diagram"])
        M = RatMatrix(tuple(tuple(rat_from_str(e) for e in row) for row in obj["matrix"]))
        p = cls(d, M, obj.get("seed"))
        if not membership(M, d):
            raise ValueError("deserialized point fails membership")
        return p


# -- point invariants ---------------------------------------------------------------


def f_of_point(M: RatMatrix) -> BoundedAffinePermutation:
    """f(i) = min{ j >= i : v_i in span(v_{i+1}, .., v_j) }, cyclic columns."""
    k, n = M.nrows, M.ncols
    if M.rank() != k:
        raise ValueError("rank-deficient matrix")
    window = []
    for i in range(1, n + 1):
        vi = _cyclic_column(M, i)
        span = Subspace.zero(k)
        j = i
        while True:
            if span.contains_vector(vi):
                break
            j += 1
            if j > i + n:  # pragma: no cover - impossible at full rank
                raise AssertionError("cyclic span never captured the column")
            span = span.add(Subspace.span(k, [_cyclic_column(M, j)]))
        window.append(j)
    return BoundedAffinePermutation(n, k, tuple(window))


def membership(M: RatMatrix, d: SkewDiagram) -> bool:
    """True iff the matrix represents a point of the skew shaped positroid of d."""
    if (M.nrows, M.ncols) != (d.k, d.n) or M.rank() != d.k:
        return False
    return f_of_point(M).window == baf(d).window


def _gale_descending(i: int, n: int):
    """Ground set in decreasing <_{i+1} order: i, i-1, ..., i+1 (cyclically)."""
    return (((i - t - 1) % n) + 1 for t in range(n))


def necklace_of_point(M: RatMatrix) -> GrassmannNecklace:
    """Gale-maximal nonvanishing k-subsets, by greedy matroid selection."""
    k, n = M.nrows, M.ncols
    if M.rank() != k:
        raise ValueError("rank-deficient matrix")
    entries = []
    for i in range(1, n + 1):
        span = Subspace.zero(k)
        chosen: list[int] = []
        for t in _gale_descending(i, n):
            cand = span.add(Subspace.span(k, [M.column(t)]))
            if cand.dim > span.dim:
                span = cand
                chosen.append(t)
                if len(chosen) == k:
                    break
        entries.append(tuple(sorted(chosen)))
    return GrassmannNecklace(n, k, tuple(entries))


# -- sampling -------------------------------------------------------------------------


def sample(d: SkewDiagram, seed: int, bound: int = 100, normalize_r1: bool = False,
           max_retries: int = 32) -> PointV:
    """Random exact rational point of the variety, gauge v_{b_i} = e_i.

    Columns b_i are set to e_i; each remaining column a+mu_bar_a is a random
    integer combination of the columns strictly to its right within its
    dependency window, redrawn (whole matrix) until membership holds.
    """
    rng = random.Random(seed)
    n, k = d.n, d.k
    target = baf(d).window
    for _ in range(max_retries):
        cols: dict[int, Vector] = {d.b(j): unit_vector(k, j) for j in range(1, k + 1)}
        for a in range(n - k, 0, -1):
            t0 = a + d.mu_bar[a]
            if d.mu_bar[a] == d.lambda_bar[a]:
                cols[t0] = zero_vector(k)
                continue
            v = zero_vector(k)
            for t in range(t0 + 1, a + d.lambda_bar[a] + 1):
                v = vec_add(v, vec_scale(Fraction(rng.randint(-bound, bound)), cols[t]))
            cols[t0] = v
        M = RatMatrix.from_columns([cols[t] for t in range(1, n + 1)])
        if M.rank() == k and f_of_point(M).window == target:
            point = PointV(d, M, seed)
            if normalize_r1:
                point = _normalize_r1(point)
            return point
    raise RuntimeError(f"sampler failed after {max_retries} attempts (bound={bound})")


def _normalize_r1(V: PointV) -> PointV:
    """Rescale the free columns so that Delta_{I'(a, lambda_bar_a)} = 1 on R^1 boxes."""
    d = V.diagram
    cols = {t: V.matrix.column(t) for t in range(1, d.n + 1)}
    for a in range(d.n - d.k, 0, -1):
        if d.mu_bar[a] == d.lambda_bar[a]:
            continue
        t0 = a + d.mu_bar[a]
        J = d.long_label(a, d.lambda_bar[a])
        val = minor(RatMatrix.from_columns([cols[t] for t in J]), range(1, d.k + 1))
        cols[t0] = vec_scale(1 / val, cols[t0])
    return PointV(d, RatMatrix.from_columns([cols[t] for t in range(1, d.n + 1)]), V.seed)


# -- the braid-variety dictionary ------------------------------------------------------


@dataclass(frozen=True)
class BraidLabeling:
    """Point of the braid variety attached to the diagram's braid, in region form.

    regions: subspace right of the crossing of each box (all skew boxes carried,
    so that reconstruction can read the flag of every column); boundary_basis:
    the framing vectors of the left flag; right_flag: the flag on the right
    boundary; torus: one nonzero scalar per top-of-column box.
    """

    diagram: SkewDiagram
    regions: tuple[tuple[BoxRef, Subspace], ...]
    boundary_basis: tuple[Vector, ...]
    right_flag: FlagK
    torus: tuple[tuple[BoxRef, Fraction], ...]

    def region(self, a: int, i: int) -> Subspace:
        for box, S in self.regions:
            if (box.a, box.i) == (a, i):
                return S
        raise KeyError(f"no region for box ({a},{i})")

    def torus_value(self, a: int) -> Fraction:
        for box, c in self.torus:
            if box.a == a:
                return c
        raise KeyError(f"no torus coordinate for column {a}")

    def with_torus(self, a: int, value: Fraction) -> "BraidLabeling":
        if value == 0:
            raise ValueError("torus coordinates must be nonzero")
        torus = tuple((box, value if box.a == a else c) for box, c in self.torus)
        return BraidLabeling(self.diagram, self.regions, self.boundary_basis, self.right_flag, torus)


def omega(V: PointV) -> BraidLabeling:
    """Label the braid diagram by the region subspaces, framing, right flag and torus scalars."""
    d = V.diagram
    if not membership(V.matrix, d):
        raise ValueError("point does not lie on the variety of its diagram")
    regions = tuple((box, V.subspace(box.a, box.i)) for box in d.boxes())
    boundary = tuple(V.column(d.b(j)) for j in range(1, d.k + 1))
    right = FlagK.from_columns([V.column(t) for t in d.I_lambda()])
    torus = tuple(
        (box, V.delta(d.long_label(box.a, box.i))) for box in d.ribbon().R1
    )
    labeling = BraidLabeling(d, regions, boundary, right, torus)
    check_labeling(labeling)
    return labeling


def check_labeling(L: BraidLabeling) -> None:
    """Region conditions of the braid diagram; raises AssertionError on violation."""
    d = L.diagram
    region = {(box.a, box.i): S for box, S in L.regions}
    ribbon = {(box.a, box.i) for box in d.ribbon().R}
    for (a, i), S in region.items():
        assert S.dim == i, f"dim V({a},{i}) = {S.dim} != {i}"
    for (a, i), S in region.items():
        if (a, i + 1) in region:
            assert region[(a, i + 1)].contains(S), f"V({a},{i}) not in V({a},{i+1})"
        if (a + 1, i) in region and (a, i + 1) in region:
            assert region[(a, i + 1)].contains(region[(a + 1, i)])
        if (a + 1, i) in region:
            if (a, i) in ribbon and (a + 1, i) in ribbon:
                assert S == region[(a + 1, i)], f"ribbon equality fails at ({a},{i})"
            if (a, i) not in ribbon:
                assert S != region[(a + 1, i)], f"non-ribbon inequality fails at ({a},{i})"
    k = d.k
    boundary = L.boundary_basis
    assert len(boundary) == k
    w_op = [Subspace.span(k, boundary[:j]) for j in range(k + 1)]
    assert w_op[k].dim == k, "boundary framing is not a basis"
    for a in range(1, d.n - d.k + 1):
        for i in range(1, d.mu_bar[a] + 1):
            # the boundary conditions live at the crossing above, so they apply
            # only when the box (a-1, i+1) is part of the diagram
            if d.contains_box(a - 1, i) and (a - 1, i + 1) in region:
                assert region[(a - 1, i + 1)].contains(w_op[i])
                assert w_op[i] != region[(a - 1, i)], f"W^op_{i} = V({a-1},{i})"
    flag_w = FlagK.from_columns(list(reversed(boundary)))
    assert transversal(L.right_flag, flag_w), "right flag not transversal to F^W"
    for box, c in L.torus:
        assert c != 0, f"torus coordinate at column {box.a} vanishes"


def xi(L: BraidLabeling) -> PointV:
    """Reconstruct the point from a braid labeling; exact inverse of omega."""
    d = L.diagram
    k, n = d.k, d.n
    cols: dict[int, Vector] = {d.b(j): L.boundary_basis[j - 1] for j in range(1, k + 1)}

    def W(j: int) -> Subspace:
        return Subspace.span(k, [cols[d.b(t)] for t in range(k - j + 1, k + 1)])

    for a in range(n - k, 0, -1):
        t0 = a + d.mu_bar[a]
        if d.mu_bar[a] == d.lambda_bar[a]:
            cols[t0] = zero_vector(k)
            continue
        line = L.region(a, d.mu_bar[a] + 1).intersect(W(k - d.mu_bar[a]))
        if line.dim != 1:
            raise ValueError(f"intersection at column {a} is {line.dim}-dimensional")
        z = line.basis[0]
        J = d.long_label(a, d.lambda_bar[a])
        current = minor(
            RatMatrix.from_columns([z if t == t0 else cols[t] for t in J]), range(1, k + 1)
        )
        if current == 0:
            raise ValueError(f"pinning minor vanishes at column {a}; labeling invalid")
        cols[t0] = vec_scale(L.torus_value(a) / current, z)
    M = RatMatrix.from_columns([cols[t] for t in range(1, n + 1)])
    return PointV(d, M)
