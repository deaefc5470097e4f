from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain, combinations
from math import gcd, lcm, prod
from types import SimpleNamespace

import pytest
from hypothesis import strategies as st

from skewpos import Partition, SkewDiagram
from skewpos.cli import random_diagram
from skewpos.diagram import InvariantError
from skewpos.linalg import RatMatrix, _is_odd, _tableau


@pytest.fixture
def running():
    """(n, k) = (12, 5), lambda = (7,7,5,3,1), mu = (3,3,2)."""
    return SkewDiagram(12, 5, Partition((7, 7, 5, 3, 1)), Partition((3, 3, 2)))


@pytest.fixture
def intro():
    """(n, k) = (12, 5), lambda = (7,7,5,3,1), mu = (3,1)."""
    return SkewDiagram(12, 5, Partition((7, 7, 5, 3, 1)), Partition((3, 1)))


@pytest.fixture
def disconnected():
    """(n, k) = (9, 4), lambda = (5,5,2,2), mu = (3,3)."""
    return SkewDiagram(9, 4, Partition((5, 5, 2, 2)), Partition((3, 3)))


# -- exact Fraction vectors: src/ keeps a matrix as integer rows over one denominator ----------


def vec(entries) -> tuple[Fraction, ...]:
    return tuple(map(Fraction, entries))


def unit_vector(k: int, i: int) -> tuple[Fraction, ...]:
    """Standard basis vector e_i (1-based) in dimension k."""
    return tuple(Fraction(j == i) for j in range(1, k + 1))


def zero_vector(k: int) -> tuple[Fraction, ...]:
    return (Fraction(0),) * k


def vec_add(u, v) -> tuple[Fraction, ...]:
    return tuple(a + b for a, b in zip(u, v))


def vec_scale(c, v) -> tuple[Fraction, ...]:
    return tuple(c * a for a in v)


def qcol(P, t: int) -> tuple[Fraction, ...]:
    """Column t of a RatMatrix, or of a point (cyclic t allowed), as exact Fractions."""
    M = getattr(P, "matrix", P)
    return tuple(Fraction(x, M.den) for x in P.column(t))


def qcols(M) -> list[tuple[Fraction, ...]]:
    return [qcol(M, j) for j in range(1, M.ncols + 1)]


def qrows(M) -> tuple[tuple[Fraction, ...], ...]:
    """The rows of a RatMatrix as exact Fractions."""
    return tuple(tuple(Fraction(x, M.den) for x in r) for r in M.num)


def from_qcols(columns) -> RatMatrix:
    """The matrix of columns of rationals."""
    return RatMatrix.from_rationals(zip(*columns))


# -- oracles: subspaces in canonical echelon form and flags as their steps, which the bases that
# -- span them replaced (a braid labeling's regions, framing and right flag), tested by rank --------


def _primitive(v) -> list[int]:
    """v, of ints or Fractions, scaled to a primitive integer vector (coprime entries); the span is unchanged."""
    den = lcm(*(x.denominator for x in v))
    ints = [x.numerator * (den // x.denominator) for x in v]
    g = gcd(*ints)
    return [x // g for x in ints] if g > 1 else ints


def _echelon(rows, ncols: int) -> tuple[list[tuple[int, ...]], list[int]]:
    """(rows, pivot columns) of the integer rows' reduced row echelon form, each row scaled to
    coprime integers with a positive pivot entry: the canonical form of their span."""
    if any(len(r) != ncols for r in rows):
        raise ValueError("vector of wrong ambient dimension")
    T, D, cols, _ = _tableau(rows, range(ncols))
    g = [gcd(*r) if D > 0 else -gcd(*r) for r in T]  # every row of T has the entry D at its pivot
    return [tuple(x // h for x in r) for r, h in zip(T, g)], cols


@dataclass(frozen=True)
class Subspace:
    """Subspace of Q^k in canonical form: the reduced echelon rows, each scaled to coprime
    integers with a positive pivot entry (``_echelon``), so equality and hash are exact."""

    ambient: int
    basis: tuple[tuple[int, ...], ...]

    @classmethod
    def span(cls, ambient: int, vectors) -> "Subspace":
        vectors = [_primitive(v) for v in vectors]  # of ints or Fractions
        return cls(ambient, tuple(_echelon(vectors, ambient)[0]))

    def extend(self, v) -> "Subspace":
        """self + span(v), the flags' step builder: self's canonical rows and the primitive v in one ``_echelon``."""
        return Subspace(self.ambient, tuple(_echelon([*self.basis, _primitive(v)], self.ambient)[0]))

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, other: "Subspace") -> bool:
        if self.ambient != other.ambient:
            raise ValueError("ambient dimensions differ")
        return len(_tableau(self.basis + other.basis, range(self.ambient))[2]) == self.dim


def flag(k: int, columns) -> tuple[Subspace, ...]:
    """The steps F_0 = 0, F_1, .. of the flag of the columns in Q^k, F_i the span of the first i:
    each step is the one before extended by one column, so it contains that step by construction."""
    return tuple(accumulate(columns, Subspace.extend, initial=Subspace(k, ())))


def check_labeling_oracle(L) -> None:
    """``check_labeling`` on a labeling whose regions are ``Subspace``s: the region conditions by
    canonical forms, one ``contains`` tableau per containment and ``flag`` for W^op, which the
    regions as the bases that span them, tested by rank, replaced; on the eager kernel
    (``tableau_oracle``, ``pivot_oracle``).  Raises InvariantError."""
    d = L.diagram
    k = d.k
    region = L._region
    if [box for box, _ in L.regions] != d.boxes():
        raise InvariantError(f"regions do not label the {d.size()} boxes of the diagram once each, in column order")
    if tuple(box for box, _ in L.torus) != d.ribbon().R1:
        raise InvariantError(f"torus coordinates do not label the {len(d.ribbon().R1)} R^1 boxes once each, in order")
    ribbon = {(box.a, box.i) for box in d.ribbon().R}
    for (a, i), S in region.items():
        if S.ambient != k:
            raise InvariantError(f"V({a},{i}) is in Q^{S.ambient}, not Q^{k}")
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
    F, R = L.boundary_basis, L.right_flag
    if (F.nrows, F.ncols) != (k, k):
        raise InvariantError(f"boundary framing is {F.nrows} x {F.ncols}, not {k} x {k}")
    square = (R.nrows, R.ncols) == (k, k)
    T, D, basis, _ = tableau_oracle([w + r for w, r in zip(F.num, R.num)] if square else F.num, range(k))
    if len(basis) < k:
        raise InvariantError("boundary framing is not a basis")
    w_op = flag(k, [F.column(j) for j in range(1, max(d.mu_bar) + 1)])
    for a in range(1, d.n - d.k + 1):
        for i in range(1, d.mu_bar[a] + 1):
            # the boundary conditions live at the crossing above, so they apply
            # only when the box (a-1, i+1) is part of the diagram
            if d.contains_box(a - 1, i) and (a - 1, i + 1) in region:
                if not region[(a - 1, i + 1)].contains(w_op[i]):
                    raise InvariantError(f"W^op_{i} not in V({a-1},{i+1})")
                if w_op[i] == region[(a - 1, i)]:
                    raise InvariantError(f"W^op_{i} = V({a-1},{i})")
    if not square:
        raise InvariantError(f"right flag basis is {R.nrows} x {R.ncols}, not {k} x {k}")
    # Row i takes r_{i+1} in turn.  Before, on the basis r_1..r_i, w_{i+1}..w_k, Cramer's rule makes T[i][k + i]
    # a nonzero multiple of det[r_1..r_{i+1}, w_{i+2}..w_k]: det R at i = k - 1, else, for R a basis, zero iff
    # span(r_1..r_{i+1}) meets F^W_{k-i-1} = span(w_{i+2}..w_k).  On a zero, R's block of T (R's rank) says which.
    for i in range(k):
        if not T[i][k + i]:
            singular = len(tableau_oracle([r[k:] for r in T], range(k))[2]) < k
            raise InvariantError("right flag is not a basis" if singular else "right flag not transversal to F^W")
        D = pivot_oracle(T, i, k + i, D)
    for box, c in L.torus:
        if c == 0:
            raise InvariantError(f"torus coordinate at column {box.a} vanishes")


def det_one_matrix(rng, k: int) -> list[list[Fraction]]:
    """L D U: unit lower and upper triangular L, U and a diagonal D of determinant 1, with
    entries p/q drawn from |p| <= 3, 1 <= q <= 4."""

    def entry(nonzero=False):
        return Fraction(rng.choice([p for p in range(-3, 4) if p or not nonzero]), rng.randint(1, 4))

    L = [[entry() if j < i else Fraction(i == j) for j in range(k)] for i in range(k)]
    U = [[entry() if j > i else Fraction(i == j) for j in range(k)] for i in range(k)]
    D = [entry(nonzero=True) for _ in range(k - 1)]
    D.append(1 / prod(D, start=Fraction(1)))
    return [[sum(L[i][s] * D[s] * U[s][j] for s in range(k)) for j in range(k)] for i in range(k)]


def gauged(V, g):
    """The point g V: the same point of the variety, with v_{b_j} = g e_j instead of e_j."""
    from skewpos.variety import PointV

    rows = qrows(V.matrix)
    k = len(rows)
    return PointV(V.diagram, RatMatrix.from_rationals(
        [sum(g[i][s] * rows[s][c] for s in range(k)) for c in range(len(rows[0]))] for i in range(k)
    ))


def other_gauge(V) -> RatMatrix:
    """V's matrix with row 0 made 3 v_0 - v_1, over 7 den: the same point in a gauge where Delta_{I_mu} != 1,
    which ``PointV.from_matrix`` re-gauges back to V."""
    num = V.matrix.num
    return RatMatrix((tuple(3 * x - y for x, y in zip(num[0], num[1])),) + num[1:], 7 * V.matrix.den)


def intro_off_chart_point(seed_range=range(1, 40)):
    """A genuine point of the intro diagram outside the column-5 chart.

    Column 6 of the matrix is rebuilt inside its dependency window so that the
    mutable minor at box (5, 2) vanishes while membership is preserved.
    """
    from skewpos import in_U_a, membership, sample
    from skewpos.variety import PointV

    d = SkewDiagram(12, 5, Partition((7, 7, 5, 3, 1)), Partition((3, 1)))
    label = d.long_label(5, 2)  # (5, 6, 10, 11, 12), linear in column 6
    for seed in seed_range:
        V = sample(d, seed=seed)
        anchor7 = V.delta(tuple(7 if t == 6 else t for t in label))
        if anchor7 == 0:
            continue
        c7, c8, c9 = solve_columns([qcol(V, t) for t in (7, 8, 9)], qcol(V, 6))
        delta8 = V.delta(tuple(8 if t == 6 else t for t in label))
        delta9 = V.delta(tuple(9 if t == 6 else t for t in label))
        new_c7 = -(c8 * delta8 + c9 * delta9) / anchor7
        v6 = zero_vector(5)
        for c, t in ((new_c7, 7), (c8, 8), (c9, 9)):
            v6 = vec_add(v6, vec_scale(c, qcol(V, t)))
        M = from_qcols(v6 if t == 6 else qcol(V, t) for t in range(1, 13))
        if membership(M, d):
            W = PointV(d, M)
            if not in_U_a(W, 5):
                return W
    raise RuntimeError("no off-chart point found in the seed range")


def solve_columns(columns, target) -> list[Fraction]:
    """Coefficients c with target = sum c_j * columns[j]; raises if unsolvable or dependent."""
    k = len(target)
    m = len(columns)
    aug = [_primitive([columns[j][r] for j in range(m)] + [target[r]]) for r in range(k)]
    rows, pivots = _echelon(aug, m + 1)
    if m in pivots:
        raise ValueError("target not in the span of the given columns")
    if len(pivots) < m:
        raise ValueError("given columns are linearly dependent")
    return [Fraction(r[m], r[j]) for j, r in enumerate(rows)]  # the pivots are the columns 0..m-1, in order


def W_span(V, j: int):
    """W_j = span(v_{b_{k-j+1}}, ..., v_{b_k})."""
    d = V.diagram
    return Subspace.span(d.k, [V.column(d.b(t)) for t in range(d.k - j + 1, d.k + 1)])


def flag_W(V):
    """The steps W_0 c W_1 c ... c W_k of the opposite boundary flag."""
    d = V.diagram
    return flag(d.k, [V.column(d.b(t)) for t in range(d.k, 0, -1)])


def region(V, a: int, i: int):
    """V(a, i) = span of the short-label columns of box (a, i) in canonical form: the span of
    ``omega``'s region at (a, i), which is those columns as they are."""
    return Subspace.span(V.diagram.k, [V.column(t) for t in V.diagram.short_label(a, i)])


def zassenhaus(A, B):
    """Exact intersection of two subspaces by Zassenhaus's algorithm, the ``Subspace.intersect``
    that ``xi``'s dependency line and ``transversal``'s rank test replaced.

    The rows of the reduced echelon form of (a | a), a in A, and (b | 0), b in B,
    that pivot in the right half are (0 | x), and their x are the reduced echelon basis of
    the intersection, already in canonical form.
    """
    if A.ambient != B.ambient:
        raise ValueError("ambient dimensions differ")
    k = A.ambient
    rows, cols = _echelon([a + a for a in A.basis] + [b + (0,) * k for b in B.basis], 2 * k)
    return Subspace(k, tuple(r[k:] for r, c in zip(rows, cols) if c >= k))


def transversal(F1, F2) -> bool:
    """True iff F1_i ^ F2_{k-i} = 0 for all i (relative position w_0), for the steps F_0 .. F_k of two
    complete flags (``flag``): each pair's stacked rows have rank k.  The k - 1 tableaux that
    ``check_labeling``'s one tableau of both bases, walked down its diagonal, replaced."""
    if F1[0].ambient != F2[0].ambient:
        raise ValueError("flags in different ambient spaces")
    k = F1[0].ambient
    return all(len(_tableau(F1[i].basis + F2[k - i].basis, range(k))[2]) == k for i in range(1, k))


def transversal_oracle(F1, F2) -> bool:
    """True iff F1_i ^ F2_{k-i} = 0 for all i, by k - 1 Zassenhaus intersections of the steps
    F_0 .. F_k; ``transversal`` tests the rank of each pair's stacked rows instead."""
    if F1[0].ambient != F2[0].ambient:
        raise ValueError("flags in different ambient spaces")
    k = F1[0].ambient
    return all(zassenhaus(F1[i], F2[k - i]).dim == 0 for i in range(1, k))


def necklace_entry_exhaustive(M, i: int) -> tuple[int, ...]:
    """All-subsets oracle for one necklace entry (n <= ~12); checks baf_to_necklace(f_of_point(M))."""
    k, n = M.nrows, M.ncols
    start = (i % n) + 1
    keyed = [
        tuple(sorted((x - start) % n for x in J))
        for J in combinations(range(1, n + 1), k)
        if minor(M, J) != 0
    ]
    best = max(keyed)
    if not all(all(a <= b for a, b in zip(key, best)) for key in keyed):
        raise AssertionError("no Gale maximum among nonvanishing subsets")
    return tuple(sorted((p + start - 1) % n + 1 for p in best))


# -- oracle: the k x k minor of a matrix's columns, which the chart and the integer columns replaced --


def minor(M: RatMatrix, J) -> Fraction:
    """Signed maximal minor of the columns listed in J (1-based, in the given order).

    Alternating in the order of J: swapping two entries negates the value.  Each column is made
    primitive first: over a common denominator it can carry a large factor through every step.
    """
    J = tuple(J)
    if len(J) != M.nrows:
        raise ValueError(f"need {M.nrows} column indices, got {len(J)}")
    cols, scale = [], 1
    for v in map(M.column, J):
        g = gcd(*v)
        cols.append([x // g for x in v] if g > 1 else v)
        scale *= g or 1
    return Fraction(scale * det(cols), M.den ** len(J))  # det of the transpose


# -- oracles: the eager exchange kernel, which rescaled every row at each exchange, that the
# -- kernel with deferred row scaling (``_pivot`` with a divisor per row) replaced -----------------


def pivot_oracle(T: list[list[int]], r: int, c: int, D: int) -> int:
    """Fraction-free exchange (Edmonds): row r of the tableau T = D B^-1 A takes column c into the
    basis B.  Every other row becomes (p row - row[c] T[r]) / D with p = T[r][c], which divides
    exactly; row r stays.  Returns the new D = p."""
    p, top = T[r][c], T[r]
    for i, row in enumerate(T):
        f = row[c]
        if f and i != r:
            T[i] = [(p * x - f * y) // D for x, y in zip(row, top)]
        elif not f and p != D:
            T[i] = [p * x // D for x in row]
    return p


def tableau_oracle(rows, order) -> tuple[list[list[int]], int, list[int], bool]:
    """(T, D, basis, odd): fraction-free Gauss-Jordan on the integer rows, taking the 0-based columns
    of ``order`` greedily while they are independent.  T keeps the pivoted rows in the order of their
    pivot columns ``basis``, so T = D B^-1 A for B = A at the basis, and every entry of T is a minor
    of A (up to sign, Edmonds); D = Delta_basis(A), negated iff ``odd``."""
    T, D, col = [list(r) for r in rows], 1, [None] * len(rows)
    for c in order:
        r = next((r for r, row in enumerate(T) if row[c] and col[r] is None), None)
        if r is not None:
            D, col[r] = pivot_oracle(T, r, c, D), c
            if None not in col:
                break
    held = sorted((r for r, c in enumerate(col) if c is not None), key=col.__getitem__)
    return [T[r] for r in held], D, [col[r] for r in held], len(held) == len(T) and _is_odd(held)


def walk_oracle(T: list[list[int]], D: int, basis: list[int], n: int) -> tuple[int, ...]:
    """Window of f by the Grassmann-necklace exchange, from the greedy tableau of rank k.

    Column i lies in the basis taken greedily in the order i, i-1, .., 1, n, .., i+1 unless
    v_i = 0 (f(i) = i).  Going down from i = n, the first column j of that order after i with a
    nonzero entry in the row of i enters the basis in its place, and f(j) = i (+ n if j > i); if
    there is none, v_i is a coloop and f(i) = i + n.  Each exchange is one integer ``pivot_oracle``
    on a copy of T, so the entries stay maximal minors.
    """
    T, row_of, window = list(T), {c: j for j, c in enumerate(basis)}, [0] * n
    for i in range(n - 1, -1, -1):
        r = row_of.pop(i, None)
        if r is None:
            window[i] = i + 1
            continue
        row = T[r]
        j = next((j for j in chain(range(i - 1, -1, -1), range(n - 1, i, -1)) if row[j]), i)
        if j == i:
            window[i], row_of[i] = i + 1 + n, r
            continue
        window[j] = i + 1 + n * (j > i)
        D, row_of[j] = pivot_oracle(T, r, j, D), r
    return tuple(window)


# -- oracles: the from-scratch Fraction eliminations the integer kernel replaced ---------


def echelon_oracle(rows) -> list[list[Fraction]]:
    """Reduced row echelon form by Gauss-Jordan over Fraction; returns the nonzero rows."""
    rows = [[Fraction(e) for e in r] for r in rows]
    m = len(rows[0]) if rows else 0
    r = 0
    for c in range(m):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = rows[r][c]
        rows[r] = [e / inv for e in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [e - f * p for e, p in zip(rows[i], rows[r])]
        r += 1
    return rows[:r]


def det_oracle(rows) -> Fraction:
    """Determinant by Gaussian elimination over Fraction."""
    n = len(rows)
    m = [[Fraction(e) for e in r] for r in rows]
    sign, result = 1, Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            sign = -sign
        result *= m[c][c]
        inv = m[c][c]
        for r in range(c + 1, n):
            if m[r][c] != 0:
                factor = m[r][c] / inv
                for cc in range(c, n):
                    m[r][cc] -= factor * m[c][cc]
    return sign * result


# -- oracle: Bareiss's determinant, which the chart's leading-minor walk (``_leading_minors``) and +-D of
# -- one ``_tableau`` replaced in src/ ------------------------------------------------------------------


def det(rows: list[list[int]]) -> int:
    """Determinant of a square integer matrix by Bareiss's fraction-free elimination."""
    n, m = len(rows), [list(r) for r in rows]
    if any(len(r) != n for r in m):
        raise ValueError("determinant of a non-square matrix")
    sign, prev = 1, 1
    for c in range(n):
        piv = c  # a loop, not a generator: most blocks are 1 x 1 or 2 x 2
        while not m[piv][c]:
            piv += 1
            if piv == n:
                return 0
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            sign = -sign
        top, p = m[c][c + 1:], m[c][c]
        for r in range(c + 1, n):
            row, f = m[r], m[r][c]
            row[c + 1:] = [(x * p - f * y) // prev for x, y in zip(row[c + 1:], top)]
        prev = p
    return sign * prev


def contains_vector_oracle(basis, v) -> bool:
    """v lies in the span of basis iff appending it and re-echelonning keeps the dimension."""
    return len(echelon_oracle(list(basis) + [v])) == len(echelon_oracle(basis))


def intersect_oracle(ambient: int, A, B) -> list[list[Fraction]]:
    """RREF basis of span(A) ^ span(B), from the nullspace of [A^T | -B^T]."""
    A, B = echelon_oracle(A), echelon_oracle(B)
    if not A or not B:
        return []
    system = [[a[r] for a in A] + [-b[r] for b in B] for r in range(ambient)]
    red = echelon_oracle(system)
    pivots = [next(c for c, x in enumerate(r) if x) for r in red]
    vectors = []
    for fc in (c for c in range(len(A) + len(B)) if c not in pivots):
        coeffs = [Fraction(0)] * (len(A) + len(B))
        coeffs[fc] = Fraction(1)
        for r, pc in zip(red, pivots):
            coeffs[pc] = -r[fc]
        vectors.append([sum(coeffs[j] * A[j][t] for j in range(len(A))) for t in range(ambient)])
    return echelon_oracle(vectors)


def f_of_point_oracle(M) -> tuple[int, ...]:
    """Window of f(i) = min{j >= i : v_i in span(v_{i+1..j})}, re-echelonning for every j.

    Uses the signed cyclic columns v_{t+n} = (-1)^{k-1} v_t.
    """
    k, n = M.nrows, M.ncols
    if len(echelon_oracle(qrows(M))) != k:
        raise ValueError("rank-deficient matrix")

    def column(t):
        q, r = divmod(t - 1, n)
        v = M.column(r + 1)
        return v if q * (k - 1) % 2 == 0 else tuple(-x for x in v)

    window = []
    for i in range(1, n + 1):
        span, j = [], i
        while not contains_vector_oracle(span, column(i)):
            j += 1
            span.append(column(j))
        window.append(j)
    return tuple(window)


def f_of_point_incremental_oracle(M) -> tuple[int, ...]:
    """Window of f by n incremental eliminations (the kernel's loop before the necklace walk).

    For each i the columns v_{i+1}, v_{i+2}, .. join the pivot rows one at a time, and v_i's
    residual is reduced against each new row only; the columns are used unsigned.
    """
    def _reduce(pivots, v):
        """v with each pivot column cleared in turn by its primitive row, kept primitive."""
        for c, p in pivots:
            if v[c]:
                g = gcd(p[c], v[c])
                a, b = p[c] // g, v[c] // g
                v = [a * x - b * y for x, y in zip(v, p)]
                g = gcd(*v)
                if g > 1:
                    v = [x // g for x in v]
        return v

    k, n = M.nrows, M.ncols
    cols = [_primitive(c) for c in zip(*M.num)]
    window = []
    for i in range(1, n + 1):
        pivots: list = []
        residual, j = cols[i - 1], i
        while any(residual):
            v = _reduce(pivots, cols[j % n])
            c = next((c for c, x in enumerate(v) if x), None)
            if c is not None:  # the span grew: reduce the residual against the new row only
                pivots.append((c, v))
                residual = _reduce(pivots[-1:], residual)
            j += 1
        window.append(j)
    if sum(j > n for j in window) < k:
        raise ValueError("rank-deficient matrix")
    return tuple(window)


def membership_oracle(M, d) -> bool:
    """f of the matrix, by re-echelonning, is the bounded affine permutation of d."""
    from skewpos import baf

    try:
        return f_of_point_oracle(M) == baf(d).window
    except ValueError:  # rank-deficient
        return False


# -- oracles: the augmented-inverse from_matrix, the cut flag and the two right-factor pipelines ---


def from_matrix_oracle(d, M, seed=None):
    """Re-gauge to v_{b_i} = e_i by inverting B = M[:, I_mu] and multiplying out B^-1 M."""
    from skewpos.variety import PointV

    if minor(M, d.I_mu()) == 0:
        raise ValueError("columns at I_mu are dependent; not a point of the variety")
    aug = [list(row) + list(unit_vector(d.k, r + 1))
           for r, row in enumerate(zip(*(qcol(M, b) for b in d.I_mu())))]
    inv_rows, rows = [r[d.k:] for r in echelon_oracle(aug)], qrows(M)
    new_rows = [
        tuple(sum(inv_rows[r][s] * rows[s][c] for s in range(d.k)) for c in range(M.ncols))
        for r in range(d.k)
    ]
    return PointV(d, RatMatrix.from_rationals(new_rows), seed)


def flag_at_cut(V, a: int):
    """The steps F_0 .. F_k of the complete flag on the interface of the two column groups, one
    span per step, each checked to have dimension i and to contain the one before."""
    d = V.diagram
    steps = [Subspace(d.k, ())]
    for i in range(1, d.mu_bar[a] + 1):
        steps.append(Subspace.span(d.k, [V.column(d.b(t)) for t in range(1, i + 1)]))
    for i in range(d.mu_bar[a] + 1, d.lambda_bar[a] + 1):
        steps.append(region(V, a, i))
    for i in range(d.lambda_bar[a] + 1, d.k + 1):
        # level of the rightmost box in row i; rows with lambda_i = mu_i have no
        # such skew box and the label formula degenerates to a boundary prefix
        cols = [V.column(min(d.d(i) + j - 1, d.b(j))) for j in range(1, i + 1)]
        steps.append(Subspace.span(d.k, cols))
    for i in range(1, d.k + 1):
        if steps[i].dim != i or not steps[i].contains(steps[i - 1]):
            raise ValueError(f"cut flag at column {a} is not a complete flag at step {i}")
    return tuple(steps)


def A_factor_oracle(V, a: int, t: int) -> Fraction:
    """Rescaling of column t by the cut at a: seed(a, i) / seed(a, i+1), i = t - a; seed(a, mu_bar_a) = 1,
    and 1 outside the window a+mu_bar_a .. a+lambda_bar_a-1."""
    from skewpos import BoxRef, seed_at

    d = V.diagram
    if not a + d.mu_bar[a] <= t <= a + d.lambda_bar[a] - 1:
        return Fraction(1)
    i, seed = t - a, seed_at(V)
    upper = 1 if i == d.mu_bar[a] else seed.value(BoxRef(a, i))
    return upper / seed.value(BoxRef(a, i + 1))


def chart_is_everything(d, a: int) -> bool:
    """Diagram predicate: the whole column a sits on the boundary ribbon, whose boxes are the frozen ones."""
    return all((a, i) in d.ribbon().R for i in range(d.mu_bar[a] + 1, d.lambda_bar[a] + 1))


def right_point_oracle(V, a: int):
    """Right factor from the cut flag: a transversality test against the opposite boundary
    flag, then F_i ^ W_{k-i+1} by intersection, normalised by solving for its v_{b_i} part."""
    from skewpos.variety import PointV

    d = V.diagram
    k = d.k
    right = d.cut(a)[1]
    mu_bar = d.mu_bar[a]
    I_mu_right = tuple(d.b(i) for i in range(1, mu_bar + 1)) + tuple(
        a + i - 1 for i in range(mu_bar + 1, k + 1)
    )
    if right.I_mu() != I_mu_right:
        raise AssertionError("cut boundary labels disagree with the right diagram")
    F = flag_at_cut(V, a)
    if not transversal(F, flag_W(V)):
        raise AssertionError("cut flag not transversal to the opposite boundary flag")
    cols = {}
    for i in range(1, k + 1):
        line = zassenhaus(F[i], W_span(V, k - i + 1))
        if line.dim != 1:
            raise AssertionError(f"cut intersection at level {i} is {line.dim}-dimensional")
        z = line.basis[0]
        coeffs = solve_columns([qcol(V, d.b(j)) for j in range(i, k + 1)], z)
        if coeffs[0] == 0:
            raise AssertionError(f"cut vector at level {i} has no leading boundary component")
        cols[I_mu_right[i - 1]] = vec_scale(1 / coeffs[0], z)
    for ap in range(1, a):
        t = ap + d.mu_bar[ap]
        cols[t] = qcol(V, t)
    return PointV(right, from_qcols(cols[t] for t in range(1, k + a)), V.seed)


def right_point_minor_oracle(V, a: int):
    """Right factor by Cramer's rule as ratios of minors: v_{b_i} - sum_{r>i} Delta_{J_i[b_r->b_i]} /
    Delta_{J_i} v_{b_r}, each minor a ``chart_minor_oracle`` (k - i + 1 of them at level i)."""
    from math import lcm

    from skewpos.variety import PointV

    d = V.diagram
    k = d.k
    right = d.cut(a)[1]
    mu_bar = d.mu_bar[a]
    B = d.I_mu()
    I_mu_right = B[:mu_bar] + tuple(a + i - 1 for i in range(mu_bar + 1, k + 1))
    if right.I_mu() != I_mu_right:
        raise InvariantError("cut boundary labels disagree with the right diagram")
    cols: dict[int, tuple[tuple[int, ...], int]] = {}  # t -> (integer column, its denominator / V.den)
    for i in range(1, k + 1):
        c = max(a, d.d(i))
        J = tuple(min(c + j - 1, B[j - 1]) for j in range(1, i + 1)) + B[i:]
        D = chart_minor_oracle(V, J)
        if D == 0:
            raise InvariantError("cut flag not transversal to the opposite boundary flag")
        coeffs = [D] + [-chart_minor_oracle(V, J[:r - 1] + (B[i - 1],) + J[r:]) for r in range(i + 1, k + 1)]
        L = lcm(*(x.denominator for x in coeffs))
        terms = [(x.numerator * (L // x.denominator), V.column(b)) for x, b in zip(coeffs, B[i - 1:]) if x]
        cols[I_mu_right[i - 1]] = tuple(sum(x * v[s] for x, v in terms) for s in range(k)), terms[0][0]
    for ap in range(1, a):
        t = ap + d.mu_bar[ap]
        cols[t] = V.column(t), 1
    den = lcm(*(q for _, q in cols.values()))
    M = RatMatrix.from_columns([[x * (den // q) for x in v] for v, q in map(cols.get, range(1, k + a))],
                               den * V.matrix.den)
    return PointV(right, M, V.seed)


# -- oracles: the factors of a cut by a fresh greedy tableau of their matrices, which the charts
# -- derived from V's (``PointV.restrict``, ``PointV.reframe``) replaced ------------------------------


def left_point_oracle(V, a: int):
    """Left factor as a new ``PointV`` of V's columns b_1, .., b_mu_bar_a, a + mu_bar_a, .., n over V's den,
    which runs its own greedy tableau."""
    from skewpos.variety import PointV

    d = V.diagram
    m = d.mu_bar[a]
    cols = [V.column(d.b(j)) for j in range(1, m + 1)] + [V.column(t) for t in range(a + m, d.n + 1)]
    return PointV(d.cut(a)[0], RatMatrix.from_columns(cols, V.matrix.den), V.seed)


def frame_point_oracle(V, d, C):
    """The point of d on V's frame C (``PointV.cut_columns``) as a new ``PointV``, which runs its own greedy
    tableau: at the i-th label of I_mu(d) the column sum_{r>=i} C_ri v_{b_r} / g_{b_r} over C_ii / g_{b_i},
    at every other t V's column t, all over one lcm of those denominators."""
    from math import lcm

    from skewpos.variety import PointV

    B, k = V.diagram.I_mu(), V.diagram.k
    g = [gcd(*V.column(b)) for b in B]
    cols = {t: (V.column(t), 1) for t in range(1, d.n + 1) if t not in d.I_mu()}
    for i, t in enumerate(d.I_mu()):
        cols[t] = [sum(C[i][r] * V.column(B[r])[s] // g[r] for r in range(i, k)) for s in range(k)], C[i][i] // g[i]
    den = lcm(*(q for _, q in cols.values()))
    M = RatMatrix.from_columns([[x * (den // q) for x in v] for v, q in map(cols.get, range(1, d.n + 1))],
                               den * V.matrix.den)
    return PointV(d, M, V.seed)


# -- oracle: the k x k determinant of the columns over Fraction ------------------------------------


def delta_oracle(V, J) -> Fraction:
    """Signed minor of the cyclic columns v_t, t in J, in the listed order, by one k x k determinant."""
    return det_oracle([qcol(V, t) for t in J])


# -- oracles: the per-label chart reader the column pass replaced, and the per-box reader on it -----


def chart_minor_oracle(V, J) -> Fraction:
    """Signed minor of the cyclic columns t in J, in the listed order, off V's chart, the block of J
    built from nothing.  The chart is R = B^-1 M with R_jt = T_jt g_t / (D g_{b_j}) and the column of
    R at b_j the unit column e_j.  Laplace expansion along the columns of J at I_mu (two at one b_j
    give 0) leaves A = T[U][F]: U the rows no column of J covers, F the columns of J off I_mu.  The
    minor is +-det A prod_F g_t / (D^|F| prod_U g_{b_u}), the sign the parity of the map of positions
    to rows that sends F to U in order, times (-1)^{(k-1)q} for each column t = r + qn."""
    T, D, basis, g = V._memo["chart"]
    k, n, B, row_of = V.diagram.k, V.diagram.n, V.diagram.I_mu(), {c: j for j, c in enumerate(basis)}
    rows = [row_of.get((t - 1) % n) for t in J]
    U = sorted(set(range(k)).difference(rows))
    F = [(t - 1) % n for t, r in zip(J, rows) if r is None]
    if len(U) != len(F):
        return Fraction(0)
    det_A = det([[T[u][t] for t in F] for u in U])
    free = iter(U)
    if _is_odd([next(free) if r is None else r for r in rows]) != (k - 1) * sum((t - 1) // n for t in J) % 2:
        det_A = -det_A
    return Fraction(det_A * prod(g[t] for t in F), D ** len(F) * prod(g[B[u] - 1] for u in U))


def box_minor_oracle(V, a: int, i: int) -> Fraction:
    """The minor at box (a, i)'s long label I'(a, i) = t_1, .., t_i, b_{i+1}, .., b_k with
    t_j = min(a+j-1, b_j), off its own chart block, built from nothing for this box alone."""
    B = V.diagram.I_mu()
    return chart_minor_oracle(V, [min(a + j, B[j]) for j in range(i)] + list(B[i:]))


# -- oracles: the seed by one minor per box and the exchange check on Fractions, which the chart
# -- blocks of the label prefixes and the integer products replaced ------------------------------


def seed_at_delta_oracle(V):
    """Initial seed values: the minor of each box at its long label, which is ascending.
    One ``chart_minor_oracle`` per box; nothing is kept on the point, and the quiver is built on a
    fresh copy of the diagram, so it is not the one ``cluster.quiver`` keeps on ``V.diagram``."""
    from skewpos.cluster import Seed, quiver

    d = V.diagram
    q = quiver(SkewDiagram(d.n, d.k, d.lam, d.mu))
    values = []
    for b in q.vertices:
        x = chart_minor_oracle(V, d.long_label(b.a, b.i))
        if b in q.frozen and x == 0:
            raise InvariantError(f"frozen value vanishes at ({b.a},{b.i})")
        values.append((b, x))
    return Seed(q, tuple(values))


def exchange_products_oracle(s, box) -> tuple[Fraction, Fraction]:
    """(product over in-arrows, product over out-arrows) of the neighbour values, as Fractions."""
    num = Fraction(1)
    for src, m in s.quiver.arrows_into(box):
        num *= s.value(src) ** m
    den = Fraction(1)
    for dst, m in s.quiver.arrows_out(box):
        den *= s.value(dst) ** m
    return num, den


def mutate_quiver_oracle(q, box):
    """Quiver mutation in three passes over the arrow list: add the composites, turn the box's arrows
    round, cancel 2-cycles; ``cluster._mutate_quiver`` is one pass over net counts instead."""
    from skewpos.cluster import Quiver

    mult = {e: m for e, m in q.arrows}
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


def verify_exchange_ratios_oracle(c) -> list[dict]:
    """Exchange ratios of both factors against the full seed, as products of Fractions compared
    cross-multiplied; returns violations."""
    from skewpos.diagram import BoxRef
    from skewpos.linalg import ratio_to_str

    violations = []
    for side, s, shift in (("right", c.right_seed, 0), ("left", c.left_seed, c.a - 1)):
        for box in s.quiver.vertices:
            if s.quiver.is_mutable(box):
                got = exchange_products_oracle(s, box)
                want = exchange_products_oracle(c.seed, BoxRef(box.a + shift, box.i))
                if got[0] * want[1] != want[0] * got[1]:
                    violations.append({"side": side, "box": [box.a, box.i],
                                       "ratio": ratio_to_str(*got), "expected": ratio_to_str(*want)})
    return violations


# -- oracle: the step-dict polygon and Fraction ray casting the row-parity enclosure replaced --


def enclosed_boxes_oracle(d, start: int, end: int, path, orientation: str):
    """Boxes inside the loop of a trip, by casting a ray east from each box centre."""
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
    if len(path) <= 1:  # lollipop: nothing enclosed
        return ()
    if orientation == "clockwise":
        # the exit is the end point of horizontal step `end`; walk the boundary back (southeast)
        closure = [steps[t - 1]["start"] for t in range(end, start, -1)]
    else:
        # the exit is the start point of vertical step `end`; walk the boundary forward (northwest)
        closure = [steps[t - 1]["end"] for t in range(end, start)]
    polygon = list(path) + closure
    m = len(polygon)
    out = []
    for b in d.boxes():
        c = d.n - d.k + 1 - b.a
        cx, cy = Fraction(2 * c - 1, 2), Fraction(2 * b.i - 1, 2)
        crossings = 0
        for t in range(m):
            (x1, y1), (x2, y2) = polygon[t], polygon[(t + 1) % m]
            if x1 == x2 and x1 > cx and min(y1, y2) < cy < max(y1, y2):
                crossings += 1
        if crossings % 2 == 1:
            out.append(b)
    return tuple(out)


# -- oracle: the per-box bisection the bit-mask enclosure replaced --------------------------


def boxes_by_side_oracle(d, polygon, inside: bool):
    """Boxes inside a closed lattice polygon, or outside it, tested one by one: box (a, i) is
    inside iff an odd number of the sorted crossings of row i lie east of its left edge x = n-k-a."""
    crossings: dict[int, list[int]] = {}
    for (x1, y1), (x2, y2) in zip(polygon, polygon[1:] + polygon[:1]):
        if x1 == x2:
            for r in range(min(y1, y2) + 1, max(y1, y2) + 1):
                crossings.setdefault(r, []).append(x1)
    rows = {r: sorted(xs) for r, xs in crossings.items()}
    w = d.n - d.k
    return tuple(b for b in d.boxes() if (len(xs := rows.get(b.i, ())) - bisect_right(xs, w - b.a)) % 2 == inside)


# -- oracle: the per-box scan the ribbon's column ranges replaced ------------------------------


def in_lambda_oracle(d, a: int, i: int) -> bool:
    if not (1 <= a <= d.n - d.k and 1 <= i <= d.k):
        return False
    return i <= d.lambda_bar[a]


def in_ribbon_lambda_oracle(d, a: int, i: int) -> bool:
    """Box of lambda whose northeast neighbor (a-1, i+1) falls outside lambda: the per-box frozen test."""
    return in_lambda_oracle(d, a, i) and not in_lambda_oracle(d, a - 1, i + 1)


def ribbon_oracle(d):
    """(R, Rbar) by testing every box of lambda for a northeast neighbour outside lambda."""
    from skewpos.diagram import BoxRef

    R, Rbar = [], []
    for a in range(1, d.n - d.k + 1):
        for i in range(1, d.lambda_bar[a] + 1):
            if in_ribbon_lambda_oracle(d, a, i):
                (R if i > d.mu_bar[a] else Rbar).append(BoxRef(a, i))
    return tuple(R), tuple(Rbar)


# -- oracle: the per-box label formula the kept label table replaced ---------------------------


def long_label_oracle(d, a: int, i: int) -> tuple[int, ...]:
    """I'(a, i) = (min(a, b_1), .., min(a + i - 1, b_i)) followed by b_{i+1}, .., b_k."""
    I_mu = d.I_mu()
    return tuple(map(min, range(a, a + i), I_mu[:i])) + I_mu[i:]


# -- oracle: the step-by-step walk the row-mask staircase replaced ------------------------------

_STEP = {"W": (-1, 0), "S": (0, -1), "E": (1, 0), "N": (0, 1)}


def _in_skew(d, c: int, r: int) -> bool:
    """Box membership in left-column/bottom-row coordinates."""
    return d.contains_box(d.n - d.k + 1 - c, r)


def _edge_allowed(d, pos, direction: str) -> bool:
    """A unit step is allowed when its edge borders at least one skew-diagram box."""
    x, y = pos
    if direction == "W":
        return x - 1 >= 0 and (_in_skew(d, x, y + 1) or _in_skew(d, x, y))
    if direction == "S":
        return y - 1 >= 0 and (_in_skew(d, x, y) or _in_skew(d, x + 1, y))
    raise ValueError(direction)


def _move(pos, direction: str):
    dx, dy = _STEP[direction]
    return pos[0] + dx, pos[1] + dy


def trip_walk_oracle(d, i: int):
    """(path, end, orientation) of trip i: a staircase southwest, one membership test per step,
    then a straight run north (clockwise) or east (counterclockwise) to its exit on the boundary."""
    from skewpos.plabic import _boundary_path

    pts, vertical = _boundary_path(d)
    exits = {True: {pts[t]: t for t in range(1, d.n + 1) if t not in vertical},
             False: {pts[t - 1]: t for t in vertical}}
    pos, direction = (pts[i - 1], "W") if i in vertical else (pts[i], "S")
    path = [pos]
    while _edge_allowed(d, pos, direction):  # staircase southwest
        pos = _move(pos, direction)
        path.append(pos)
        direction = "S" if direction == "W" else "W"
    clockwise = direction == "S"
    run, exit_at = ("N" if clockwise else "E"), exits[clockwise]
    while pos not in exit_at:
        if len(path) > 2 * d.n:
            raise RuntimeError(f"trip {i} failed to terminate; manual inspection required")
        pos = _move(pos, run)
        path.append(pos)
    return tuple(path), exit_at[pos], "clockwise" if clockwise else "counterclockwise"



# -- oracles: the transpose, the per-letter word product and the translation-window
# -- factorization that the column heights, position swaps and one-line check replaced ------------


def conjugate(p: Partition) -> Partition:
    """Transpose partition: conjugate(p).part(j) counts parts of p that are >= j; the heights oracle."""
    if not p.parts:
        return Partition()
    return Partition(tuple(sum(1 for q in p.parts if q >= j) for j in range(1, p.parts[0] + 1)))


def from_word_oracle(n: int, word) -> tuple[int, ...]:
    """The word multiplied out by composing with the one-line s_i of each letter in turn."""
    from skewpos.permutations import compose

    w = tuple(range(1, n + 1))
    for i in word:
        s = list(range(1, n + 1))
        s[i - 1], s[i] = s[i], s[i - 1]
        w = compose(w, tuple(s))
    return w


def w_grassmannian_oracle(p: Partition, n: int, k: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(one-line, column word) of the k-Grassmannian permutation, the column heights read off conjugate(p)."""
    pt = conjugate(p)
    one_line = tuple(n - k - p.part(i) + i for i in range(1, k + 1)) + tuple(
        a + pt.part(n - k + 1 - a) for a in range(1, n - k + 1)
    )
    word: list[int] = []
    for j in range(n - k, 0, -1):
        word.extend(range(j + pt.part(n - k + 1 - j), k + j))
    return one_line, tuple(word)


def f_factorization_oracle(d) -> bool:
    """baf(d) = w_lambda t_k w_mu^{-1}, composed affinely with the window [1+n, .., k+n, k+1, .., n] of t_k."""
    from skewpos.permutations import baf, inverse

    n, k = d.n, d.k
    wl = w_grassmannian_oracle(d.lam, n, k)[0]
    wm_inv = inverse(w_grassmannian_oracle(d.mu, n, k)[0])
    tk = tuple(range(1 + n, k + n + 1)) + tuple(range(k + 1, n + 1))

    def affine(window, i):
        q, r = divmod(i - 1, n)
        return window[r] + q * n

    return tuple(affine(wl, affine(tk, wm_inv[i - 1])) for i in range(1, n + 1)) == baf(d).window

def _cyclically_less(x: int, y: int, start: int, n: int) -> bool:
    """x <_start y in the cyclic order start < start+1 < ... < start-1."""
    return (x - start) % n < (y - start) % n


def baf_to_necklace_oracle(f):
    """Each entry by a cyclic-order test of every pair (i, a); ``permutations.baf_to_necklace`` reads
    I_i = { j mod n : i - n < j <= i < f(j) } instead."""
    from skewpos.permutations import GrassmannNecklace

    n = f.n
    loops = {a for a in range(1, n + 1) if f(a) == a + n}
    fbar = f.mod_n()
    entries = []
    for i in range(1, n + 1):
        entry = set(loops)
        for a in range(1, n + 1):
            if fbar[a - 1] != a and _cyclically_less(fbar[a - 1], a, (i % n) + 1, n):
                entry.add(a)
        entries.append(tuple(sorted(entry)))
    return GrassmannNecklace(n, f.k, tuple(entries))


def all_bounded_affine_permutations(n: int):
    """Every bounded affine permutation of [n], every k: a permutation of the residues, with both
    f(i) = i and f(i) = i + n at each fixed residue."""
    from itertools import permutations, product

    from skewpos.permutations import BoundedAffinePermutation

    for w in permutations(range(1, n + 1)):
        choices = [(i, i + n) if wi == i else (wi if wi > i else wi + n,) for i, wi in enumerate(w, start=1)]
        for window in product(*choices):
            yield BoundedAffinePermutation(n, sum(fi > n for fi in window), window)


def staircase(n: int) -> SkewDiagram:
    """k = (3n + 7) // 8 and, with w = n - k, lambda_j = max(w - j, 1), mu_j = max(w - j - 3, 0)."""
    k = (3 * n + 7) // 8
    w = n - k
    lam = tuple(max(w - j, 1) for j in range(1, k + 1))
    return SkewDiagram(n, k, Partition(lam), Partition(tuple(max(w - j - 3, 0) for j in range(1, k + 1))))


def random_band(rng, n: int, k: int) -> SkewDiagram:
    """k rows of lambda drawn from 1..n-k and mu_j = max(lambda_j - 3, 0): about 3k boxes."""
    lam = sorted((rng.randint(1, n - k) for _ in range(k)), reverse=True)
    return SkewDiagram(n, k, Partition(tuple(lam)), Partition(tuple(max(p - 3, 0) for p in lam)))


def all_skew_diagrams(max_n: int):
    """Every skew diagram mu <= lambda in a k x (n-k) rectangle with 2 <= n <= max_n, 0 < k < n."""

    def parts(length, cap):  # weakly decreasing, entry j at most cap[j]
        if not length:
            yield ()
            return
        for p in range(cap[0] + 1):
            for rest in parts(length - 1, [min(p, c) for c in cap[1:]]):
                yield (p,) + rest

    for n in range(2, max_n + 1):
        for k in range(1, n):
            for lam in parts(k, [n - k] * k):
                for mu in parts(k, lam):
                    yield SkewDiagram(n, k, Partition(lam), Partition(mu))


@st.composite
def skew_diagrams(draw, max_n=10):
    """The diagrams of ``skewpos verify`` (``cli.random_diagram``), with 4 <= n <= max_n.

    Each ``randint(lo, hi)`` of the generator is drawn by Hypothesis, so failures shrink.
    """
    rng = SimpleNamespace(randint=lambda lo, hi: draw(st.integers(lo, hi)))
    return random_diagram(rng, max_n)
