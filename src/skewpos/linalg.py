"""Exact rational matrices and the fraction-free elimination kernel.

All arithmetic is exact; there are no tolerances anywhere.  A matrix is integer rows over one denominator, in
lowest terms: the constructor scans every entry for the gcd, and ``RatMatrix._lowest`` takes rows its caller
reduced by a gcd it holds (a cut's factor, off the contents of V's chart).  Fractions appear only as scalars
and where ``RatMatrix.from_rationals`` reads a point's JSON rows.  A subspace or a flag is the list of integer
vectors that span it, kept as given: there is no canonical form, so two bases of one subspace are compared by
rank.  One exchange, ``_pivot``, does every elimination.  Ranks, containment, determinants and a point's basis
exchanges run the fraction-free Gauss-Jordan tableau (``_tableau``) on integer rows, and the leading minors of
a block are read off one walk down its diagonal (``_leading_minors``): the minors of a chart block, and the
test that two flags are transversal, on one tableau of both bases.  An exchange rewrites only the rows it
eliminates, each row keeping its own divisor until its result is brought to one D; a walk retires a row it will
read no more as a zero row, which no later exchange rewrites.  Column indices are 1-based in the public
operations, matching the labeling of diagram boxes by matrix columns.
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
    def _lowest(cls, num: tuple[tuple[int, ...], ...], den: int) -> "RatMatrix":
        """num / den from tuple rows its caller has put in lowest terms by a gcd it holds: no scan."""
        M = object.__new__(cls)
        object.__setattr__(M, "num", num)
        object.__setattr__(M, "den", den)
        return M

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


def _pivot(T: list[list[int]], r: int, c: int, D: int, div: list[int]) -> int:
    """Fraction-free exchange (Edmonds) with deferred row scaling: row i of the tableau D B^-1 A is
    T[i] D / div[i], exactly.  Row r, made true, takes column c into the basis B.  Each row with a nonzero
    entry in column c becomes (p row - row[c] T[r]) / div[i], p = T[r][c], which divides exactly; every other
    row stays the same list.  Row r and the rows rewritten get divisor p, the new D, which it returns."""
    top = T[r] = T[r] if div[r] == D else [x * D // div[r] for x in T[r]]
    p = div[r] = top[c]
    for i, (row, q) in enumerate(zip(T, div)):
        f = row[c]
        if f and i != r:
            T[i], div[i] = [(p * x - f * y) // q for x, y in zip(row, top)], p
    return p


def _tableau(rows, order) -> tuple[list[list[int]], int, list[int], bool]:
    """(T, D, basis, odd): fraction-free Gauss-Jordan on the integer rows, taking the 0-based columns
    of ``order`` greedily while they are independent.  T keeps the pivoted rows in the order of their
    pivot columns ``basis``, each brought to D once at the end, so T = D B^-1 A for B = A at the basis,
    and every entry of T is a minor of A (up to sign, Edmonds); D = Delta_basis(A), negated iff ``odd``."""
    T, D, col, div = [list(r) for r in rows], 1, [None] * len(rows), [1] * len(rows)
    for c in order:
        r = next((r for r, row in enumerate(T) if row[c] and col[r] is None), None)
        if r is not None:
            D, col[r] = _pivot(T, r, c, D, div), c
            if None not in col:
                break
    held = sorted((r for r, c in enumerate(col) if c is not None), key=col.__getitem__)
    T = [T[r] if div[r] == D else [x * D // div[r] for x in T[r]] for r in held]
    return T, D, [col[r] for r in held], len(held) == len(col) and _is_odd(held)


def _is_odd(perm: list[int]) -> bool:
    """True iff the permutation of 0..len-1 with these images is odd: the parity of the swaps that sort it."""
    perm, odd = list(perm), False
    for i in range(len(perm)):
        while perm[i] != i:
            j = perm[i]
            perm[i], perm[j], odd = perm[j], j, not odd
    return odd


def _leading_minors(rows, pivots):
    """Walk down the diagonal of the integer rows at the rows ``pivots``, step s pivoting (``_pivot``) at row
    pivots[s] and column s.  Before each step it yields (m, column): column s brought to the walk's D, whose
    entry at a row r not among pivots[:s] is the minor of the rows pivots[:s], r at the columns 0..s (Edmonds),
    and m, that entry at pivots[s], the leading minor.  A zero m ends the pivots.  Each later minor at r, expanded
    along its last row, is row r times the kernel vector z of the rows pivots[:s], off one ``_tableau`` (z = 0 on
    rank loss): at its one free column f, z_f = (-1)^(s+f) det(the basis columns) = +-D, and z_b = -+T[b][f]."""
    T, D, div, done = list(rows), 1, [1] * len(rows), [0] * len(pivots)
    for s, r in enumerate(pivots):
        if D:
            column = [row[s] if q == D else row[s] * D // q for row, q in zip(T, div)]
        else:
            U, E, basis, odd = _tableau([rows[p][:s + 1] for p in pivots[:s]], range(s + 1))
            f = min(set(range(s + 1)).difference(basis))
            sign = (-1) ** (s + f + odd) if len(basis) == s else 0
            z = [sign * E if c == f else -sign * U[basis.index(c)][f] if c in basis else 0 for c in range(s + 1)]
            column = [sum(x * y for x, y in zip(row, z)) for row in rows]
        yield column[r], column
        D, T[r] = D and column[r] and _pivot(T, r, s, D, div), done  # a pivoted row is read no more


def quotient_to_str(p: int, q: int) -> str:
    """p / q, for q > 0, in lowest terms as "p/q", or "p" when that denominator is 1: ``str`` of the
    Fraction, without building it."""
    g = gcd(p, q)
    return str(p // g) if g == q else f"{p // g}/{q // g}"


def ratio_to_str(num: Fraction, den: Fraction) -> str:
    """Serialize num / den as ``str`` of the Fraction, or "(num)/0" when den vanishes."""
    return str(num / den) if den else f"({num})/0"
