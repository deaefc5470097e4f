"""Exact rational vectors, matrices, signed minors, subspaces and flags.

All arithmetic uses ``fractions.Fraction``; there are no tolerances anywhere.
Vectors are tuples of Fractions, matrices are row-major tuples of row tuples.
Column indices are 1-based in the public operations, matching the labeling of
diagram boxes by matrix columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

Rat = Fraction
Vector = tuple[Fraction, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


def vec(entries) -> Vector:
    return tuple(Fraction(e) for e in entries)


def zero_vector(k: int) -> Vector:
    return (ZERO,) * k


def unit_vector(k: int, i: int) -> Vector:
    """Standard basis vector e_i (1-based) in dimension k."""
    return tuple(ONE if j == i else ZERO for j in range(1, k + 1))


def vec_add(u: Vector, v: Vector) -> Vector:
    return tuple(a + b for a, b in zip(u, v))

def vec_sub(u: Vector, v: Vector) -> Vector:
    return tuple(a - b for a, b in zip(u, v))

def vec_scale(c: Fraction, v: Vector) -> Vector:
    return tuple(c * a for a in v)

def is_zero_vector(v: Vector) -> bool:
    return all(a == 0 for a in v)


@dataclass(frozen=True)
class RatMatrix:
    """Immutable k x m matrix of Fractions, row-major."""

    rows: tuple[Vector, ...]

    def __post_init__(self):
        rows = tuple(tuple(Fraction(e) for e in r) for r in self.rows)
        if not rows or not rows[0]:
            raise ValueError("matrix must have positive dimensions")
        if len({len(r) for r in rows}) != 1:
            raise ValueError("ragged rows")
        object.__setattr__(self, "rows", rows)

    @classmethod
    def from_columns(cls, columns) -> "RatMatrix":
        cols = [vec(c) for c in columns]
        return cls(tuple(zip(*cols)))

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0])

    def column(self, j: int) -> Vector:
        """Column j, 1-based."""
        if not 1 <= j <= self.ncols:
            raise IndexError(f"column {j} out of range 1..{self.ncols}")
        return tuple(r[j - 1] for r in self.rows)

    def columns(self) -> list[Vector]:
        return [self.column(j) for j in range(1, self.ncols + 1)]

    def rank(self) -> int:
        return len(_echelon([list(r) for r in self.rows]))


def det(rows: list[list[Fraction]]) -> Fraction:
    """Determinant by fraction-free-ish Gaussian elimination (exact)."""
    n = len(rows)
    m = [list(r) for r in rows]
    sign = 1
    result = ONE
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c] != 0), None)
        if piv is None:
            return ZERO
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


def minor(M: RatMatrix, J) -> Fraction:
    """Signed maximal minor of the columns listed in J (1-based, in the given order).

    Alternating in the order of J: swapping two entries negates the value.
    """
    J = tuple(J)
    if len(J) != M.nrows:
        raise ValueError(f"need {M.nrows} column indices, got {len(J)}")
    cols = [M.column(j) for j in J]
    return det([list(r) for r in zip(*cols)])


def _echelon(rows: list[list[Fraction]]) -> list[list[Fraction]]:
    """Reduced row echelon form; returns the nonzero rows (pivots normalized to 1)."""
    rows = [list(r) for r in rows]
    m = len(rows[0]) if rows else 0
    pivots = []
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
        pivots.append(c)
        r += 1
    return [rows[i] for i in range(r)]


@dataclass(frozen=True)
class Subspace:
    """Subspace of Q^k in canonical (reduced echelon) form; equality is decidable."""

    ambient: int
    basis: tuple[Vector, ...]  # canonical: RREF rows of the generators

    @classmethod
    def span(cls, ambient: int, vectors) -> "Subspace":
        vectors = [vec(v) for v in vectors]
        for v in vectors:
            if len(v) != ambient:
                raise ValueError("vector of wrong ambient dimension")
        rows = _echelon([list(v) for v in vectors]) if vectors else []
        return cls(ambient, tuple(tuple(r) for r in rows))

    @classmethod
    def zero(cls, ambient: int) -> "Subspace":
        return cls(ambient, ())

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains_vector(self, v: Vector) -> bool:
        return Subspace.span(self.ambient, list(self.basis) + [v]).dim == self.dim

    def contains(self, other: "Subspace") -> bool:
        return all(self.contains_vector(v) for v in other.basis)

    def add(self, other: "Subspace") -> "Subspace":
        self._check(other)
        return Subspace.span(self.ambient, list(self.basis) + list(other.basis))

    def _check(self, other: "Subspace"):
        if self.ambient != other.ambient:
            raise ValueError("ambient dimensions differ")

    def intersect(self, other: "Subspace") -> "Subspace":
        """Exact intersection via the nullspace of [basis_self | -basis_other]."""
        self._check(other)
        if self.dim == 0 or other.dim == 0:
            return Subspace.zero(self.ambient)
        acols = list(self.basis)
        bcols = list(other.basis)
        # rows of the system: ambient equations, unknowns = coefficients on both bases
        system = [
            [acols[j][r] for j in range(len(acols))] + [-bcols[j][r] for j in range(len(bcols))]
            for r in range(self.ambient)
        ]
        vectors = []
        for sol in _nullspace(system):
            coeffs = sol[: len(acols)]
            v = zero_vector(self.ambient)
            for cjf, col in zip(coeffs, acols):
                v = vec_add(v, vec_scale(cjf, col))
            vectors.append(v)
        return Subspace.span(self.ambient, vectors)


def _nullspace(rows: list[list[Fraction]]) -> list[list[Fraction]]:
    """Basis of the right nullspace of the matrix given by rows."""
    if not rows:
        return []
    m = len(rows[0])
    work = [list(r) for r in rows]
    red = _echelon(work)
    pivots = []
    for r in red:
        pivots.append(next(c for c in range(m) if r[c] != 0))
    free = [c for c in range(m) if c not in pivots]
    basis = []
    for fc in free:
        sol = [ZERO] * m
        sol[fc] = ONE
        for r, pc in zip(red, pivots):
            sol[pc] = -r[fc]
        basis.append(sol)
    return basis


def solve_columns(columns: list[Vector], target: Vector) -> list[Fraction]:
    """Coefficients c with target = sum c_j * columns[j]; raises if unsolvable or dependent."""
    k = len(target)
    m = len(columns)
    aug = [[columns[j][r] for j in range(m)] + [target[r]] for r in range(k)]
    red = _echelon(aug)
    coeffs = [ZERO] * m
    pivots = 0
    for r in red:
        pc = next(c for c in range(m + 1) if r[c] != 0)
        if pc == m:
            raise ValueError("target not in the span of the given columns")
        coeffs[pc] = r[m]
        pivots += 1
    if pivots < m:
        raise ValueError("given columns are linearly dependent")
    return coeffs


@dataclass(frozen=True)
class FlagK:
    """Complete flag F_1 c F_2 c ... c F_k = Q^k."""

    steps: tuple[Subspace, ...]

    def __post_init__(self):
        k = self.steps[0].ambient if self.steps else 0
        if len(self.steps) != k:
            raise ValueError("a complete flag needs k subspaces")
        for i, s in enumerate(self.steps, start=1):
            if s.dim != i:
                raise ValueError(f"flag step {i} has dimension {s.dim}")
            if i > 1 and not s.contains(self.steps[i - 2]):
                raise ValueError(f"flag step {i} does not contain step {i - 1}")

    @classmethod
    def from_columns(cls, columns: list[Vector]) -> "FlagK":
        k = len(columns)
        return cls(tuple(Subspace.span(k, columns[:i]) for i in range(1, k + 1)))

    @property
    def ambient(self) -> int:
        return len(self.steps)

    def step(self, i: int) -> Subspace:
        """F_i, 1-based; F_0 is the zero subspace."""
        if i == 0:
            return Subspace.zero(self.ambient)
        return self.steps[i - 1]


def rel_position(F1: FlagK, F2: FlagK) -> tuple[int, ...]:
    """The permutation w of [k] with dim(F1_i ^ F2_j) = |{1..i} ^ {w(1)..w(j)}|.

    Returned in one-line notation, 1-based: w[j-1] = w(j).
    """
    if F1.ambient != F2.ambient:
        raise ValueError("flags in different ambient spaces")
    k = F1.ambient
    dims = [[0] * (k + 1) for _ in range(k + 1)]
    for i in range(1, k + 1):
        for j in range(1, k + 1):
            dims[i][j] = F1.step(i).intersect(F2.step(j)).dim
    w = []
    for j in range(1, k + 1):
        i = next(
            i
            for i in range(1, k + 1)
            if dims[i][j] == dims[i - 1][j] + 1 and dims[i][j] == dims[i][j - 1] + 1
            and dims[i - 1][j] == dims[i - 1][j - 1]
        )
        w.append(i)
    return tuple(w)


def transversal(F1: FlagK, F2: FlagK) -> bool:
    """True iff F1_i ^ F2_{k-i} = 0 for all i, i.e. relative position w_0."""
    if F1.ambient != F2.ambient:
        raise ValueError("flags in different ambient spaces")
    k = F1.ambient
    return all(F1.step(i).intersect(F2.step(k - i)).dim == 0 for i in range(1, k))


def rat_to_str(x: Fraction) -> str:
    """Serialize as "p/q", or "p" when the denominator is 1."""
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def rat_from_str(s: str) -> Fraction:
    return Fraction(s)
