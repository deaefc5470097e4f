"""Exact rational points of skew shaped positroid varieties and the braid-variety dictionary.

A point is a k x n matrix on the variety of its diagram with the gauge Delta_{I_mu} = 1.
The maps here translate a point into a labeling of the braid diagram of the
associated positive braid (region subspaces, boundary framing, right flag,
torus coordinates) and back, exactly.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

from .diagram import BoxRef, InvariantError, SkewDiagram, json_key
from .linalg import (
    FlagK,
    RatMatrix,
    Subspace,
    _extend,
    _primitive,
    _reduce,
    _reduced,
    det,
    minor,
    rat_to_str,
    transversal,
)
from .permutations import BoundedAffinePermutation, GrassmannNecklace, baf, baf_to_necklace


def _cyclic_column(M: RatMatrix, t: int) -> tuple[int, ...]:
    """Column t of ``M.num``, any integer t, with v_{t+n} = (-1)^{k-1} v_t."""
    q, r = divmod(t - 1, M.ncols)
    v = M.column(r + 1)
    return v if (q * (M.nrows - 1)) % 2 == 0 else tuple(-x for x in v)


def _gauge_rows(d: SkewDiagram, M: RatMatrix) -> tuple[list[list[int]], int]:
    """(rows, D) with rows / D = B^-1 M for B the columns of M at I_mu: with those columns
    moved first, the RREF of [B | rest] is B^-1 [B | rest] exactly when B is invertible."""
    I_mu = d.I_mu()
    order = list(I_mu) + [t for t in range(1, M.ncols + 1) if t not in I_mu]
    red = _reduced([[row[t - 1] for t in order] for row in M.num])
    if len(red) < d.k or red[-1][0] != d.k - 1:
        raise ValueError("columns at I_mu are dependent; not a point of the variety")
    D = lcm(*(p[c] for c, p in red))
    at = {t: j for j, t in enumerate(order)}
    return [[p[at[t]] * (D // p[c]) for t in range(1, M.ncols + 1)] for c, p in red], D


def _is_odd(perm: list[int]) -> bool:
    """True iff the permutation of 0..len-1 with these images is odd: the parity of the swaps that sort it."""
    perm, odd = list(perm), False
    for i in range(len(perm)):
        while perm[i] != i:
            j = perm[i]
            perm[i], perm[j], odd = perm[j], j, not odd
    return odd


class OffVariety(ValueError):
    """The matrix is not a point of the variety of its diagram; the counterpart of ``OffChart``."""


@dataclass(frozen=True)
class PointV:
    """Point of the variety of its diagram, with the gauge Delta_{I_mu} = 1: construction runs
    ``membership`` and raises OffVariety off the variety.  ``_memo`` keeps what is computed
    once per point, on first use: the chart (``delta``) and the seed (``cluster.seed_at``)."""

    diagram: SkewDiagram
    matrix: RatMatrix
    seed: int | None = None
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        d = self.diagram
        if (self.matrix.nrows, self.matrix.ncols) != (d.k, d.n):
            raise ValueError("matrix shape does not match the diagram")
        if minor(self.matrix, d.I_mu()) != 1:
            raise ValueError("Delta_{I_mu} != 1; use PointV.from_matrix to re-gauge")
        if not membership(self.matrix, d):
            raise OffVariety("point does not lie on the variety of its diagram")

    @classmethod
    def from_matrix(cls, d: SkewDiagram, M: RatMatrix, seed: int | None = None) -> "PointV":
        """Accept any rank-k representative and re-gauge so that v_{b_i} = e_i."""
        return cls(d, RatMatrix(*_gauge_rows(d, M)), seed)

    def _chart(self) -> tuple[list[list[int]], int, dict[int, int]]:
        """(rows, D, row of R at each 0-based column at I_mu) of the chart R = B^-1 M = rows / D."""
        if "chart" not in self._memo:
            row_of = {t - 1: j for j, t in enumerate(self.diagram.I_mu())}
            self._memo["chart"] = (*_gauge_rows(self.diagram, self.matrix), row_of)
        return self._memo["chart"]

    def column(self, t: int) -> tuple[int, ...]:
        """Column t of ``matrix.num`` with the cyclic extension v_{t+n} = (-1)^{k-1} v_t."""
        return _cyclic_column(self.matrix, t)

    def delta(self, J) -> Fraction:
        """Signed minor in the listed column order (cyclic indices allowed).

        Read off the chart R: det B = Delta_{I_mu} = 1, so Delta_J(M) = Delta_J(R), and
        the column of R at the j-th element of I_mu is e_j.  Laplace expansion along
        the columns of J at I_mu leaves the minor of R on the other rows and the
        other columns of J; two columns of J at one column of I_mu give 0.
        """
        rows, D, row_of = self._chart()
        k, n = len(rows), self.matrix.ncols
        if len(J) != k:
            raise ValueError(f"need {k} column indices, got {len(J)}")
        perm, rest, shifts = [None] * k, [], 0  # perm: position in J -> row of R
        for p, t in enumerate(J):
            q, r = divmod(t - 1, n)
            shifts += q
            if r in row_of:
                perm[p] = row_of[r]
            else:
                rest.append((p, r))
        others = sorted(set(range(k)).difference(perm))
        if len(others) != len(rest):
            return Fraction(0)
        for (p, _), j in zip(rest, others):
            perm[p] = j
        value = Fraction(det([[rows[j][r] for _, r in rest] for j in others]), D ** len(rest))
        return -value if ((k - 1) * shifts) % 2 != _is_odd(perm) else value

    def subspace(self, a: int, i: int) -> Subspace:
        """V(a, i) = span of the short-label columns of box (a, i)."""
        return Subspace.span(self.diagram.k, [self.column(t) for t in self.diagram.short_label(a, i)])

    def to_json(self) -> dict:
        return {
            "diagram": self.diagram.to_json(),
            "seed": self.seed,
            "matrix": [[rat_to_str(e) for e in row] for row in self.matrix.rows],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "PointV":
        diagram = json_key(obj, "point", "diagram", lambda x: isinstance(x, dict), "an object")
        d = SkewDiagram.from_json(diagram)
        rows = json_key(obj, "point", "matrix", _rational_rows, "a list of rows of integers or strings")
        # only the text rat_to_str writes: Fraction(str) also takes spaces, decimals and exponents
        bad = next((e for r in rows for e in r if type(e) is str and not re.fullmatch(r"-?[0-9]+(/[0-9]+)?", e)), None)
        if bad is not None:
            raise ValueError(f"point key 'matrix' has an entry {bad!r} that is not an integer or 'p/q' text")
        try:
            M = RatMatrix.from_rationals(rows)
        except ZeroDivisionError:
            raise ValueError("point key 'matrix' has an entry with denominator 0") from None
        seed = obj.get("seed")
        if seed is not None and type(seed) is not int:
            raise ValueError(f"point key 'seed' must be an integer or null, got {seed!r}")
        return cls(d, M, seed)


def _rational_rows(x) -> bool:
    return isinstance(x, list) and all(
        isinstance(r, list) and all(type(e) in (int, str) for e in r) for r in x)


# -- point invariants ---------------------------------------------------------------


def f_of_point(M: RatMatrix) -> BoundedAffinePermutation:
    """f(i) = min{ j >= i : v_i in span(v_{i+1}, .., v_j) }, cyclic columns.

    For each i the columns v_{i+1}, v_{i+2}, .. join the pivot rows one at a
    time, and v_i's residual is reduced against each new row only.  The sign of
    v_{t+n} = (-1)^{k-1} v_t changes no span, so the columns are used unsigned.
    f(i) > n iff v_i is not in span(v_{i+1}, .., v_n), so the number of such i is the rank.
    """
    k, n = M.nrows, M.ncols
    cols = [_primitive(c) for c in zip(*M.num)]
    window = []
    for i in range(1, n + 1):
        pivots: list = []
        residual, j = cols[i - 1], i
        while any(residual):
            if j == i + n:  # pragma: no cover - at full rank the n columns span Q^k
                raise InvariantError("cyclic span never captured the column")
            if _extend(pivots, cols[j % n]):
                residual = _reduce(pivots[-1:], residual)
            j += 1
        window.append(j)
    if sum(j > n for j in window) < k:
        raise ValueError("rank-deficient matrix")
    return BoundedAffinePermutation(n, k, tuple(window))


def membership(M: RatMatrix, d: SkewDiagram) -> bool:
    """True iff the matrix represents a point of the skew shaped positroid of d."""
    if (M.nrows, M.ncols) != (d.k, d.n):
        return False
    try:
        f = f_of_point(M)
    except ValueError:  # rank-deficient
        return False
    return f.window == baf(d).window


def necklace_of_point(M: RatMatrix) -> GrassmannNecklace:
    """Gale-maximal nonvanishing k-subsets, read off f by the necklace-permutation bijection."""
    return baf_to_necklace(f_of_point(M))


# -- sampling -------------------------------------------------------------------------


_SAMPLE_ATTEMPTS = 32


def sample(d: SkewDiagram, seed: int, bound: int = 100, normalize_r1: bool = False) -> PointV:
    """Random exact rational point of the variety, gauge v_{b_i} = e_i.

    Columns b_i are set to e_i; each remaining column a+mu_bar_a is a random
    integer combination of the columns strictly to its right within its
    dependency window, redrawn (whole matrix) until it builds a PointV.
    """
    rng = random.Random(seed)
    n, k = d.n, d.k
    off = None
    for _ in range(_SAMPLE_ATTEMPTS):
        cols = {d.b(j): tuple(int(i == j) for i in range(1, k + 1)) for j in range(1, k + 1)}
        for a in range(n - k, 0, -1):
            window = [(rng.randint(-bound, bound), cols[t])
                      for t in range(a + d.mu_bar[a] + 1, a + d.lambda_bar[a] + 1)]
            cols[a + d.mu_bar[a]] = tuple(sum(c * v[r] for c, v in window) for r in range(k))
        try:
            point = PointV(d, RatMatrix.from_columns([cols[t] for t in range(1, n + 1)]), seed)
        except OffVariety as exc:
            off = exc
            continue
        return _normalize_r1(point) if normalize_r1 else point
    raise RuntimeError(f"sampler failed after {_SAMPLE_ATTEMPTS} attempts (bound={bound})") from off


def _normalize_r1(V: PointV) -> PointV:
    """Rescale the free columns so that Delta_{I'(a, lambda_bar_a)} = 1 on R^1 boxes.
    Column t becomes scale[t] times column t of V, so a minor is V's times the scales of its columns."""
    d, M = V.diagram, V.matrix
    scale = [Fraction(1)] * (d.n + 1)
    for a in range(d.n - d.k, 0, -1):
        if d.mu_bar[a] == d.lambda_bar[a]:
            continue
        J = d.long_label(a, d.lambda_bar[a])
        val = minor(M, J)
        for t in J:
            val *= scale[t]
        scale[a + d.mu_bar[a]] /= val
    rows = ([scale[t] * x for t, x in enumerate(r, start=1)] for r in M.rows)
    return PointV(d, RatMatrix.from_rationals(rows), V.seed)


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
    boundary_basis: tuple[tuple[Fraction, ...], ...]
    right_flag: FlagK
    torus: tuple[tuple[BoxRef, Fraction], ...]
    _region: dict = field(init=False, repr=False, compare=False)
    _torus: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_region", {(box.a, box.i): S for box, S in self.regions})
        object.__setattr__(self, "_torus", {box.a: c for box, c in self.torus})

    def region(self, a: int, i: int) -> Subspace:
        try:
            return self._region[(a, i)]
        except KeyError:
            raise KeyError(f"no region for box ({a},{i})") from None

    def torus_value(self, a: int) -> Fraction:
        try:
            return self._torus[a]
        except KeyError:
            raise KeyError(f"no torus coordinate for column {a}") from None


def omega(V: PointV) -> BraidLabeling:
    """Label the braid diagram by the region subspaces, framing, right flag and torus scalars."""
    d = V.diagram
    regions = tuple((box, V.subspace(box.a, box.i)) for box in d.boxes())
    rows = V.matrix.rows
    boundary = tuple(tuple(r[d.b(j) - 1] for r in rows) for j in range(1, d.k + 1))
    right = FlagK.from_columns([V.column(t) for t in d.I_lambda()])
    torus = tuple(
        (box, V.delta(d.long_label(box.a, box.i))) for box in d.ribbon().R1
    )
    labeling = BraidLabeling(d, regions, boundary, right, torus)
    check_labeling(labeling)
    return labeling


def check_labeling(L: BraidLabeling) -> None:
    """Region conditions of the braid diagram; raises InvariantError on violation."""
    d = L.diagram
    region = L._region
    ribbon = {(box.a, box.i) for box in d.ribbon().R}
    for (a, i), S in region.items():
        if S.dim != i:
            raise InvariantError(f"dim V({a},{i}) = {S.dim} != {i}")
    for (a, i), S in region.items():
        if (a, i + 1) in region and not region[(a, i + 1)].contains(S):
            raise InvariantError(f"V({a},{i}) not in V({a},{i+1})")
        if (a + 1, i) in region and (a, i + 1) in region:
            if not region[(a, i + 1)].contains(region[(a + 1, i)]):
                raise InvariantError(f"V({a+1},{i}) not in V({a},{i+1})")
        if (a + 1, i) in region:
            if (a, i) in ribbon and (a + 1, i) in ribbon and S != region[(a + 1, i)]:
                raise InvariantError(f"ribbon equality fails at ({a},{i})")
            if (a, i) not in ribbon and S == region[(a + 1, i)]:
                raise InvariantError(f"non-ribbon inequality fails at ({a},{i})")
    k = d.k
    boundary = L.boundary_basis
    if len(boundary) != k:
        raise InvariantError(f"boundary framing has {len(boundary)} vectors, not {k}")
    w_op = [Subspace.span(k, boundary[:j]) for j in range(k + 1)]
    if w_op[k].dim != k:
        raise InvariantError("boundary framing is not a basis")
    for a in range(1, d.n - d.k + 1):
        for i in range(1, d.mu_bar[a] + 1):
            # the boundary conditions live at the crossing above, so they apply
            # only when the box (a-1, i+1) is part of the diagram
            if d.contains_box(a - 1, i) and (a - 1, i + 1) in region:
                if not region[(a - 1, i + 1)].contains(w_op[i]):
                    raise InvariantError(f"W^op_{i} not in V({a-1},{i+1})")
                if w_op[i] == region[(a - 1, i)]:
                    raise InvariantError(f"W^op_{i} = V({a-1},{i})")
    flag_w = FlagK.from_columns(list(reversed(boundary)))
    if not transversal(L.right_flag, flag_w):
        raise InvariantError("right flag not transversal to F^W")
    for box, c in L.torus:
        if c == 0:
            raise InvariantError(f"torus coordinate at column {box.a} vanishes")


def xi(L: BraidLabeling) -> PointV:
    """Reconstruct the point from a braid labeling; exact inverse of omega."""
    d = L.diagram
    k, n = d.k, d.n
    cols = {d.b(j): L.boundary_basis[j - 1] for j in range(1, k + 1)}

    def W(j: int) -> Subspace:
        return Subspace.span(k, [cols[d.b(t)] for t in range(k - j + 1, k + 1)])

    for a in range(n - k, 0, -1):
        t0 = a + d.mu_bar[a]
        if d.mu_bar[a] == d.lambda_bar[a]:
            cols[t0] = (0,) * k
            continue
        line = L.region(a, d.mu_bar[a] + 1).intersect(W(k - d.mu_bar[a]))
        if line.dim != 1:
            raise ValueError(f"intersection at column {a} is {line.dim}-dimensional")
        z = line.basis[0]
        J = d.long_label(a, d.lambda_bar[a])
        # the minor of the columns of J, by the rows of the transpose
        current = minor(RatMatrix.from_rationals([z if t == t0 else cols[t] for t in J]), range(1, k + 1))
        if current == 0:
            raise ValueError(f"pinning minor vanishes at column {a}; labeling invalid")
        c = L.torus_value(a) / current
        cols[t0] = tuple(c * x for x in z)
    return PointV(d, RatMatrix.from_rationals(zip(*(cols[t] for t in range(1, n + 1)))))
