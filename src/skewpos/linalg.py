"""Exact rational matrices, signed minors, subspaces and flags.

All arithmetic is exact; there are no tolerances anywhere.  A matrix is integer rows
over one denominator; Fractions appear only in ``RatMatrix.rows``, minors and the
echelon bases of ``Subspace``.  Eliminations run on primitive integer vectors
(``_reduce``) and determinants by Bareiss's fraction-free elimination.  Column indices
are 1-based in the public operations, matching the labeling of diagram boxes by matrix columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm


@dataclass(frozen=True)
class RatMatrix:
    """Immutable k x m rational matrix ``num / den``: integer rows over one positive denominator,
    in lowest terms (the gcd of ``den`` and every entry is 1), so equality and hash are exact."""

    num: tuple[tuple[int, ...], ...]
    den: int = 1

    def __post_init__(self):
        num = tuple(map(tuple, self.num))
        if not num or not num[0]:
            raise ValueError("matrix must have positive dimensions")
        if len({len(r) for r in num}) != 1:
            raise ValueError("ragged rows")
        if self.den < 1:
            raise ValueError(f"denominator must be positive, got {self.den}")
        g = gcd(self.den, *(x for r in num for x in r))
        if g > 1:
            num = tuple(tuple(x // g for x in r) for r in num)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", self.den // g)

    @classmethod
    def from_rationals(cls, rows) -> "RatMatrix":
        """The matrix of rows of ints, Fractions or their text, over the lcm of the denominators."""
        rows = [[Fraction(x) for x in r] for r in rows]
        den = lcm(*(x.denominator for r in rows for x in r))
        return cls(tuple(tuple(x.numerator * (den // x.denominator) for x in r) for r in rows), den)

    @classmethod
    def from_columns(cls, columns, den: int = 1) -> "RatMatrix":
        """The matrix of integer columns over den."""
        return cls(tuple(zip(*columns)), den)

    @property
    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        """The entries as Fractions."""
        return tuple(tuple(Fraction(x, self.den) for x in r) for r in self.num)

    @property
    def nrows(self) -> int:
        return len(self.num)

    @property
    def ncols(self) -> int:
        return len(self.num[0])

    def column(self, j: int) -> tuple[int, ...]:
        """Column j of ``num``, 1-based: den times column j of the matrix."""
        if not 1 <= j <= self.ncols:
            raise IndexError(f"column {j} out of range 1..{self.ncols}")
        return tuple(r[j - 1] for r in self.num)


def _primitive(v) -> list[int]:
    """v, of ints or Fractions, scaled to a primitive integer vector (coprime entries); the span is unchanged."""
    den = lcm(*(x.denominator for x in v))
    ints = [x.numerator * (den // x.denominator) for x in v]
    g = gcd(*ints)
    return [x // g for x in ints] if g > 1 else ints


def _reduce(pivots: list[tuple[int, list[int]]], v: list[int]) -> list[int]:
    """v with each pivot column cleared in turn by its row, kept primitive.

    ``pivots`` holds (column, primitive integer row) pairs, each row nonzero at its column
    and every later row zero there; the result is zero iff v lies in the rows' span.
    """
    for c, p in pivots:
        b = v[c]
        if b:
            a = p[c]
            g = gcd(a, b)
            a, b = a // g, b // g
            v = [a * x - b * y for x, y in zip(v, p)]
            g = gcd(*v)
            if g > 1:
                v = [x // g for x in v]
    return v


def _extend(pivots: list[tuple[int, list[int]]], v: list[int]) -> bool:
    """Add v to the span of the pivot rows; True iff the span grew."""
    v = _reduce(pivots, v)
    c = next((c for c, x in enumerate(v) if x), None)
    if c is None:
        return False
    pivots.append((c, v))
    return True


def _pivot_rows(vectors) -> list[tuple[int, list[int]]]:
    pivots: list = []
    for v in vectors:
        _extend(pivots, _primitive(v))
    return pivots


def _reduced(rows) -> list[tuple[int, list[int]]]:
    """(pivot column c, integer row p) pairs in pivot order; p / p[c] are the RREF rows."""
    pivots = sorted(_pivot_rows(rows))
    for j, (c, p) in enumerate(pivots):
        # later rows vanish left of their own pivots, so cleared columns stay zero
        pivots[j] = (c, _reduce(pivots[j + 1:], p))
    return pivots


def _echelon(rows) -> list[list[Fraction]]:
    """Reduced row echelon form of the span of the rows; returns the nonzero rows (pivots 1)."""
    return [[Fraction(x, p[c]) for x in p] for c, p in _reduced(rows)]


def det(rows: list[list[int]]) -> int:
    """Determinant of a square integer matrix by Bareiss's fraction-free elimination."""
    n, m = len(rows), [list(r) for r in rows]
    if any(len(r) != n for r in m):
        raise ValueError("determinant of a non-square matrix")
    sign, prev = 1, 1
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c]), None)
        if piv is None:
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


@dataclass(frozen=True)
class Subspace:
    """Subspace of Q^k in canonical (reduced echelon) form; equality is decidable."""

    ambient: int
    basis: tuple[tuple[Fraction, ...], ...]  # canonical: RREF rows of the generators

    @classmethod
    def span(cls, ambient: int, vectors) -> "Subspace":
        vectors = list(vectors)  # of ints or Fractions
        for v in vectors:
            if len(v) != ambient:
                raise ValueError("vector of wrong ambient dimension")
        return cls(ambient, tuple(map(tuple, _echelon(vectors))))

    @classmethod
    def zero(cls, ambient: int) -> "Subspace":
        return cls(ambient, ())

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, other: "Subspace") -> bool:
        self._check(other)
        pivots = _pivot_rows(self.basis)
        return not any(any(_reduce(pivots, _primitive(v))) for v in other.basis)

    def _check(self, other: "Subspace"):
        if self.ambient != other.ambient:
            raise ValueError("ambient dimensions differ")

    def intersect(self, other: "Subspace") -> "Subspace":
        """Exact intersection by Zassenhaus's algorithm.

        Of the pivot rows of (a | a), a in self, and (b | 0), b in other, those
        with a zero left half are (0 | x) for x in a basis of the intersection.
        """
        self._check(other)
        k = self.ambient
        pivots = _pivot_rows([a + a for a in self.basis] + [b + (0,) * k for b in other.basis])
        return Subspace(k, tuple(map(tuple, _echelon(p[k:] for c, p in pivots if c >= k))))


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
    def from_columns(cls, columns) -> "FlagK":
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


def transversal(F1: FlagK, F2: FlagK) -> bool:
    """True iff F1_i ^ F2_{k-i} = 0 for all i, i.e. relative position w_0."""
    if F1.ambient != F2.ambient:
        raise ValueError("flags in different ambient spaces")
    k = F1.ambient
    return all(F1.step(i).intersect(F2.step(k - i)).dim == 0 for i in range(1, k))


def rat_to_str(x: Fraction) -> str:
    """Serialize as "p/q", or "p" when the denominator is 1."""
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def ratio_to_str(num: Fraction, den: Fraction) -> str:
    """Serialize num / den, or "(num)/0" when den vanishes."""
    return rat_to_str(num / den) if den else f"({rat_to_str(num)})/0"
