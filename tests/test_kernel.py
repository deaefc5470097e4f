"""The integer elimination kernel against the Fraction eliminations it replaced.

The oracles in conftest are the from-scratch Gauss-Jordan routines the package
used before: reduced echelon forms, determinants, membership of a vector in a
span, intersections and the cyclic rank function f of a point.  The canonical
spans and flag steps that the package replaced by the bases that span them
(conftest's ``Subspace`` and ``flag``, built on the integer tableau) are checked
against the Fraction echelon form and one span per prefix, and ``check_labeling``'s
one-tableau test of transversality against the k - 1 rank tests it replaced
(``transversal``) and k - 1 Zassenhaus intersections (``zassenhaus``, itself
checked against the nullspace oracle).  The exchange kernel with deferred row
scaling, which rewrites only the rows an exchange eliminates, is checked against
the eager kernel it replaced (``tableau_oracle``, ``walk_oracle``).
"""

import random
from dataclasses import replace
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from skewpos import (
    Cut, InvariantError, Partition, SkewDiagram, baf, f_of_point, in_U_a, necklace_of_point, omega, sample,
)
from skewpos.linalg import RatMatrix, _leading_minors, _pivot, _tableau
from skewpos.variety import _necklace_tableau, _walk, check_labeling

from conftest import (
    Subspace,
    contains_vector_oracle,
    det,
    det_oracle,
    echelon_oracle,
    f_of_point_incremental_oracle,
    flag,
    f_of_point_oracle,
    from_qcols,
    intersect_oracle,
    minor,
    necklace_entry_exhaustive,
    pivot_oracle,
    qcols,
    qrows,
    staircase,
    tableau_oracle,
    transversal,
    transversal_oracle,
    walk_oracle,
    zassenhaus,
)

INTEGERS = st.integers(-9, 9).map(Fraction)
WIDE = st.integers(-(2**80), 2**80).map(Fraction)  # sampled points carry 41-82-bit entries
RATIONALS = st.fractions(min_value=-6, max_value=6, max_denominator=7)


@st.composite
def column_lists(draw, k, m, entries):
    """m columns of length k; some are zero, some repeat an earlier column."""
    cols = []
    for _ in range(m):
        kind = draw(st.sampled_from(["fresh", "fresh", "zero", "repeat"]))
        if kind == "zero":
            cols.append((Fraction(0),) * k)
        elif kind == "repeat" and cols:
            cols.append(draw(st.sampled_from(cols)))
        else:
            cols.append(tuple(draw(st.lists(entries, min_size=k, max_size=k))))
    return cols


@st.composite
def matrices(draw, max_k=5, max_n=9, square=False, full_rank=False):
    """Integer or rational k x n matrices, also of low rank (a product through rank r < k) unless
    ``full_rank``, for a test that discards rank-deficient matrices anyway."""
    entries = draw(st.sampled_from([INTEGERS, WIDE, RATIONALS]))
    k = draw(st.integers(1, max_k))
    n = k if square else draw(st.integers(k, max_n))
    if full_rank or draw(st.booleans()):
        cols = draw(column_lists(k, n, entries))
    else:
        r = draw(st.integers(0, k - 1))
        left = draw(column_lists(k, r, entries))
        coeffs = draw(column_lists(r, n, INTEGERS))
        cols = [tuple(sum((c[j] * left[j][t] for j in range(r)), Fraction(0)) for t in range(k))
                for c in coeffs]
    return from_qcols(cols)


@given(matrices())
@settings(max_examples=100, deadline=None)
def test_f_of_point_matches_oracle(M):
    try:
        want = f_of_point_oracle(M)
    except ValueError as exc:
        assert str(exc) == "rank-deficient matrix"
        with pytest.raises(ValueError, match="rank-deficient matrix"):
            f_of_point(M)
    else:
        assert f_of_point(M).window == want


@given(matrices(max_k=6, max_n=11))
@settings(max_examples=300, deadline=None)
def test_necklace_walk_matches_both_oracles(M):
    """The walk on the greedy tableau, against the incremental eliminations it replaced and the
    re-echelonning oracle: full rank, rank-deficient, zero and repeated columns."""
    T, D, basis, odd, g = _necklace_tableau(M, range(M.ncols - 1, -1, -1))
    assert len(basis) == len(echelon_oracle(qrows(M)))
    try:
        want = f_of_point_oracle(M)
    except ValueError:
        with pytest.raises(ValueError, match="rank-deficient matrix"):
            f_of_point_incremental_oracle(M)
        return
    assert f_of_point_incremental_oracle(M) == want
    assert _walk(T, D, basis, M.ncols) == want
    # T = D B^-1 A for A the primitive columns, D = Delta_basis(A) up to the sign odd
    A = [[x // (h or 1) for x, h in zip(r, g)] for r in M.num]
    assert (-D if odd else D) == det_oracle([[row[c] for row in A] for c in basis])
    for t in range(M.ncols):  # A_basis T_t = D A_t
        assert [sum(r[c] * row[t] for c, row in zip(basis, T)) for r in A] == [D * r[t] for r in A]


@given(matrices(max_n=8, full_rank=True))
@settings(max_examples=60, deadline=None)
def test_necklace_of_point_matches_exhaustive(M):
    """The necklace read off f by the bijection is the Gale-maximal nonvanishing subsets."""
    assume(len(echelon_oracle(qrows(M))) == M.nrows)
    N = necklace_of_point(M)
    assert N.entries == tuple(necklace_entry_exhaustive(M, i) for i in range(1, M.ncols + 1))


@pytest.mark.parametrize("k", [2, 4])
def test_f_of_point_even_k(k):
    """Even k: the cyclic columns change sign, which the kernel ignores and the oracle keeps."""
    rng = random.Random(k)
    for _ in range(20):
        cols = [tuple(Fraction(rng.randint(-2, 2)) for _ in range(k)) for _ in range(k + 4)]
        M = from_qcols(cols)
        if len(echelon_oracle(qrows(M))) == k:
            assert f_of_point(M).window == f_of_point_oracle(M)


def last_leading_minor(rows) -> int:
    """The determinant of a square integer matrix off the leading-minor walk down its diagonal."""
    *_, (m, _) = _leading_minors(rows, range(len(rows)))
    return m


@given(matrices(square=True))
@settings(max_examples=150, deadline=None)
def test_det_matches_oracle(M):
    assert last_leading_minor(M.num) == det([list(r) for r in M.num]) == det_oracle(M.num)
    assert minor(M, range(1, M.ncols + 1)) == det_oracle(qrows(M))


@pytest.mark.parametrize("rows, value", [
    ([[Fraction(7, 3)]], Fraction(7, 3)),
    ([[Fraction(0)]], 0),
    ([[1, 2], [2, 4]], 0),
    ([[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 4), Fraction(1, 6)]], 0),
    ([[0, 1], [1, 0]], -1),
])
def test_det_small_and_singular(rows, value):
    """The last leading minor of the integer rows over den ** k, Bareiss's det of them, and minor, which reads
    them so; [[0, 1], [1, 0]] has a zero leading minor, so its determinant comes off a tableau."""
    M = RatMatrix.from_rationals(rows)
    value_of = Fraction(last_leading_minor(M.num), M.den ** M.nrows)
    assert value_of == Fraction(det(M.num), M.den ** M.nrows) == minor(M, range(1, M.ncols + 1)) == det_oracle(rows) == value


def test_det_rejects_a_non_square_matrix():
    with pytest.raises(ValueError, match="non-square"):
        det([[1, 2]])


def monic(basis) -> list[list[Fraction]]:
    """Each canonical basis row divided by its pivot (first nonzero) entry: the oracle's RREF rows."""
    return [[Fraction(x, p) for x in r] for r in basis for p in [next(x for x in r if x)]]


@given(matrices())
@settings(max_examples=100, deadline=None)
def test_span_is_the_oracle_echelon_form(M):
    S = Subspace.span(M.nrows, qcols(M))
    assert monic(S.basis) == echelon_oracle(qcols(M))


@given(matrices(), st.data())
@settings(max_examples=100, deadline=None)
def test_span_is_canonical(M, data):
    """The span of rescaled, reordered generators padded with integer combinations of them is the
    same Subspace, hash included; each basis row is primitive with a positive pivot entry."""
    k, cols = M.nrows, qcols(M)
    S = Subspace.span(k, cols)
    nonzero = st.integers(-5, 5).filter(bool).map(Fraction)
    rescaled = [tuple(c * x for x in v) for v in cols for c in [data.draw(nonzero)]]
    for _ in range(data.draw(st.integers(0, 3))):
        coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=len(cols), max_size=len(cols)))
        rescaled.append(tuple(sum((c * v[t] for c, v in zip(coeffs, cols)), Fraction(0)) for t in range(k)))
    T = Subspace.span(k, data.draw(st.permutations(rescaled)))
    assert T == S and hash(T) == hash(S)
    for row in S.basis:
        assert all(type(x) is int for x in row) and gcd(*row) == 1 and next(x for x in row if x) > 0


@given(matrices(), st.data())
@settings(max_examples=100, deadline=None)
def test_contains_vector_matches_oracle(M, data):
    cols = qcols(M)
    S = Subspace.span(M.nrows, cols[:-1])
    v = data.draw(st.sampled_from([cols[-1], cols[0], (Fraction(0),) * M.nrows]))
    assert S.contains(Subspace.span(M.nrows, [v])) == contains_vector_oracle(cols[:-1], v)


@given(matrices(), st.integers(0, 9))
@settings(max_examples=100, deadline=None)
def test_add_and_intersect_match_oracle(M, split):
    k, cols = M.nrows, qcols(M)
    A, B = cols[:split], cols[split:]
    SA, SB = Subspace.span(k, A), Subspace.span(k, B)
    assert monic(Subspace.span(k, SA.basis + SB.basis).basis) == echelon_oracle(cols)
    assert monic(zassenhaus(SA, SB).basis) == intersect_oracle(k, A, B)


class TestFlagStepOracle:
    """The oracles' ``Subspace.extend``, the step builder of flags, and ``flag`` on it, against one
    from-scratch ``Subspace.span`` per prefix of the columns."""

    @given(matrices())
    @settings(max_examples=100, deadline=None)
    def test_steps_are_the_prefix_spans(self, M):
        """Integer and Fraction columns, zero and dependent ones among them: step i is the span of
        the first i columns, in canonical form."""
        k = M.nrows
        for cols in (qcols(M), [M.column(j) for j in range(1, M.ncols + 1)]):
            assert flag(k, cols) == tuple(Subspace.span(k, cols[:i]) for i in range(len(cols) + 1))

    @given(matrices(square=True))
    @settings(max_examples=100, deadline=None)
    def test_flag_from_columns(self, M):
        """k columns give the prefix spans F_0 .. F_k, step i of dimension i for every i iff the
        columns are a basis, which the top step alone tells: each step contains the one before."""
        k, cols = M.nrows, qcols(M)
        steps = flag(k, cols)
        assert steps == tuple(Subspace.span(k, cols[:i]) for i in range(k + 1))
        assert all(T.contains(S) for S, T in zip(steps, steps[1:]))
        basis = det([M.column(j) for j in range(1, k + 1)]) != 0
        assert ([S.dim for S in steps] == list(range(k + 1))) == (steps[k].dim == k) == basis

    @pytest.mark.parametrize("build", [
        lambda: Subspace.span(3, [(1, 2, 3), (1, 2)]),
        lambda: Subspace.span(3, [(1, 0, 0)]).extend((1, 2, 3, 4)),
        lambda: flag(2, [(1, 0), (0, 1, 0)]),
    ], ids=["span", "extend", "flag"])
    def test_vector_of_the_wrong_length_is_rejected(self, build):
        with pytest.raises(ValueError, match="^vector of wrong ambient dimension$"):
            build()


@st.composite
def bases(draw, k):
    """k independent columns of length k, of one entry kind."""
    entries = draw(st.sampled_from([INTEGERS, WIDE, RATIONALS]))
    cols = draw(st.lists(st.tuples(*[entries] * k), min_size=k, max_size=k))
    assume(Subspace.span(k, cols).dim == k)
    return cols


@st.composite
def square_matrices(draw, k):
    """k columns of length k: a basis, or one whose column j is a combination of the others (zero if k = 1)."""
    cols = draw(bases(k))
    if draw(st.booleans()):
        j, c = draw(st.integers(0, k - 1)), draw(st.lists(st.integers(-2, 2), min_size=k, max_size=k))
        cols[j] = tuple(sum(c[i] * v[r] for i, v in enumerate(cols) if i != j) for r in range(k))
    return cols


class TestTransversalOracle:
    """``check_labeling``'s one tableau of the framing W and the right flag R, walked down its diagonal,
    against ``transversal``'s k - 1 rank tests and ``transversal_oracle``'s k - 1 Zassenhaus
    intersections of R's flag and F^W, W's flag read backwards."""

    @staticmethod
    def verdict(W, R):
        """What ``check_labeling`` says of the framing W and the right flag R, given by their columns,
        on a diagram with no mu, so that no W^op condition applies: None, or the error's text."""
        k = len(W)
        d = SkewDiagram(k + 1, k, Partition((1,)), Partition(()))
        framing, right = (RatMatrix.from_rationals(list(zip(*C))) for C in (W, R))
        try:
            check_labeling(replace(omega(sample(d, seed=1)), boundary_basis=framing, right_flag=right))
        except InvariantError as exc:
            return str(exc)

    @given(st.integers(1, 6).flatmap(lambda k: st.tuples(square_matrices(k), square_matrices(k))), st.data())
    @settings(max_examples=150, deadline=None)
    def test_random_flag_pairs(self, pair, data):
        """W against a random R, possibly singular, itself (always transversal), its reversed basis
        (never transversal for k > 1) and a permuted basis."""
        W, B = pair
        k = len(W)
        if flag(k, W)[k].dim < k:
            assert self.verdict(W, B) == "boundary framing is not a basis"
            return
        for R in (B, W, W[::-1], data.draw(st.permutations(W))):
            F, G = flag(k, R), flag(k, W[::-1])
            if F[k].dim < k:
                assert self.verdict(W, R) == "right flag is not a basis"
                continue
            assert transversal(F, G) == transversal_oracle(F, G) == transversal(G, F)
            assert self.verdict(W, R) == (None if transversal(F, G) else "right flag not transversal to F^W")
        reversed_verdict = None if k == 1 else "right flag not transversal to F^W"
        assert [self.verdict(W, R) for R in (W, W[::-1])] == [None, reversed_verdict]

    def test_flags_in_different_ambient_spaces_are_rejected(self):
        F2, F3 = (flag(k, [tuple(int(i == j) for i in range(k)) for j in range(k)]) for k in (2, 3))
        with pytest.raises(ValueError, match="^flags in different ambient spaces$"):
            transversal(F2, F3)


@st.composite
def tableau_inputs(draw):
    """Integer rows and an order of their 0-based columns: the rows of ``matrices`` (zero, repeated and
    dependent columns, low rank), transposed or not, with zero rows and repeats of a row put in, and an
    order that is a permutation of the columns or any list of them, with gaps and repeats."""
    rows = [list(r) for r in draw(matrices(max_k=6, max_n=8)).num]
    if draw(st.booleans()):
        rows = [list(c) for c in zip(*rows)]
    for _ in range(draw(st.integers(0, 2))):
        rows.insert(draw(st.integers(0, len(rows))), list(draw(st.sampled_from([[0] * len(rows[0]), *rows]))))
    m = len(rows[0])
    return rows, draw(st.one_of(st.permutations(range(m)), st.lists(st.integers(0, m - 1), max_size=2 * m)))


class TestKernelOracle:
    """The exchange kernel with deferred row scaling (``_pivot`` with a divisor per row) against the eager
    kernel it replaced, which rescaled every row at each exchange: ``_tableau`` must return exactly the
    eager (T, D, basis, odd), and the necklace walk, which reads only zero patterns, the eager window."""

    @given(tableau_inputs())
    @settings(max_examples=300, deadline=None)
    def test_tableau_equals_the_eager_tableau(self, case):
        rows, order = case
        given_rows = [list(r) for r in rows]
        assert _tableau(rows, order) == tableau_oracle(rows, order)
        assert rows == given_rows

    @given(matrices(max_k=6, max_n=11))
    @settings(max_examples=200, deadline=None)
    def test_walk_equals_the_eager_walk(self, M):
        """On the greedy tableau, full rank or not; neither walk changes a row of the tableau it is given."""
        T, D, basis, _, _ = _necklace_tableau(M, range(M.ncols - 1, -1, -1))
        chart = [list(r) for r in T]
        assert _walk(T, D, basis, M.ncols) == walk_oracle(T, D, basis, M.ncols)
        assert T == chart

    @pytest.mark.parametrize("n", [32, 64, 128])
    def test_walk_equals_the_eager_walk_on_the_staircase(self, n):
        """At the sizes where the walk retires most of its rows: the greedy chart of the sampled staircase
        point, and at n = 32 both factor charts (``restrict``, ``reframe``) of every on-chart cut; the walk
        leaves each chart as it was."""
        V = sample(staircase(n), seed=1)
        d, points = V.diagram, [V]
        if n == 32:
            cuts = [Cut.at(V, a) for a in range(1, d.n - d.k + 1) if in_U_a(V, a)]
            points += [P for c in cuts for P in (c.left, c.right)]
            assert len(cuts) > 1
        for P in points:
            T, D, basis, _ = P._memo["chart"]
            chart, m = [list(r) for r in T], P.diagram.n
            assert _walk(T, D, basis, m) == walk_oracle(T, D, basis, m) == baf(P.diagram).window
            assert T == chart

    def test_a_pivot_rewrites_only_the_rows_it_eliminates(self):
        """A row with a zero entering entry stays the same list, unscaled, with its divisor; each row times
        D over its divisor is the eager exchange's row, also after a pivot on a row not yet brought to D."""
        T = [[2, 1, 0, 3], [0, 5, 1, 1], [4, 0, 6, 2]]
        rows, div, eager = list(T), [1, 1, 1], [list(r) for r in T]
        D = _pivot(T, 0, 0, 1, div)
        assert D == pivot_oracle(eager, 0, 0, 1) == 2 and div == [2, 1, 2]
        assert T[1] is rows[1] and T[1] == [0, 5, 1, 1] and T[2] is not rows[2]
        assert [[x * D // q for x in r] for r, q in zip(T, div)] == eager
        D = _pivot(T, 1, 1, D, div)
        assert D == pivot_oracle(eager, 1, 1, 2) == 10 and div == [10, 10, 10]
        assert [[x * D // q for x in r] for r, q in zip(T, div)] == eager


@st.composite
def walk_blocks(draw):
    """k x m integer rows, k >= m, and m distinct pivot rows in any order.  Each pivot row may have its
    leading s + 1 entries replaced by a combination of the earlier pivot rows' (all zero at s = 0), so
    that leading block is singular while the blocks after it need not be."""
    m = draw(st.integers(1, 5))
    k = draw(st.integers(m, 7))
    rows = [draw(st.lists(st.integers(-9, 9), min_size=m, max_size=m)) for _ in range(k)]
    pivots = draw(st.permutations(range(k)))[:m]
    for s, p in enumerate(pivots):
        if draw(st.integers(0, 3)) == 0:
            coeffs = draw(st.lists(st.integers(-3, 3), min_size=s, max_size=s))
            lead = [sum(c * rows[q][t] for c, q in zip(coeffs, pivots)) for t in range(s + 1)]
            rows[p] = lead + rows[p][s + 1:]
    return rows, pivots


class TestLeadingMinorOracle:
    """The walk down a block's diagonal (``_leading_minors``), which reads every minor of a column of the
    chart and the right factor's frame, against determinants over Fraction (``det_oracle``)."""

    @given(walk_blocks())
    @settings(max_examples=300, deadline=None)
    def test_walk_matches_det_oracle(self, block):
        """Each m is the leading minor at the rows pivots[:s+1], and the column's entry at every row r not
        among pivots[:s] is the minor at the rows pivots[:s], r, before and after a zero leading minor; the
        rows given stay as they were."""
        rows, pivots = block
        given_rows = [list(r) for r in rows]
        for s, (m, column) in enumerate(_leading_minors(rows, pivots)):
            assert m == column[pivots[s]] == det_oracle([rows[p][:s + 1] for p in pivots[:s + 1]])
            for r in set(range(len(rows))).difference(pivots[:s]):
                assert column[r] == det_oracle([rows[p][:s + 1] for p in [*pivots[:s], r]]), (s, r)
        assert s == len(pivots) - 1 and rows == given_rows

    @pytest.mark.parametrize("rows, minors", [
        ([[0, 1], [1, 0]], [0, -1]),
        ([[1, 2, 3], [2, 4, 1], [0, 1, 1]], [1, 0, 5]),
        ([[0, 0], [0, 0]], [0, 0]),
        ([[2, 1, 0], [4, 2, 0], [1, 1, 0]], [2, 0, 0]),
    ])
    def test_singular_leading_blocks(self, rows, minors):
        """A zero leading minor below a nonzero one, and rank loss after it."""
        assert [m for m, _ in _leading_minors(rows, range(len(rows)))] == minors
