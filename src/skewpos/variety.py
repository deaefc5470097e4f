"""Exact rational points of skew shaped positroid varieties and the braid-variety dictionary.

A point is a k x n matrix on the variety of its diagram with the gauge Delta_{I_mu} = 1.  Building one runs
a single fraction-free Gauss-Jordan on its primitive integer columns, the columns at I_mu taken first.  The
tableau T = D B^-1 M gives the gauge (D), the chart that ``PointV`` alone reads (the minors at box labels
and the cut columns, each column's off one walk down a chart block, ``_prefix_walk``) and, walked by n
integer pivots along the Grassmann necklace, the bounded affine permutation f that decides membership.  A
cut's factors get charts derived exactly from V's (``restrict``, ``reframe``, one builder ``_factor``; their
oracle is the greedy tableau of the factor's matrix, ``_necklace_tableau``); every chart meets the same
gauge check, zero-pattern test and walk.  The maps here translate a point into a labeling of the braid
diagram of the associated positive braid (regions, the boundary framing and right flag as the integer bases
that span them, torus coordinates) and back, exactly; ``check_labeling`` tests the region conditions by rank
and reads the framing and the right flag off one tableau of both bases, the right flag by the leading minors
of its block; ``xi`` and the R^1 slice of ``sample`` set the pinning minors by one routine, ``_pinned``.
"""

from __future__ import annotations

import random
import re
from dataclasses import InitVar, dataclass, field
from fractions import Fraction
from itertools import chain, islice
from math import gcd, lcm, prod

from .diagram import BoxRef, InvariantError, SkewDiagram, json_key
from .linalg import RatMatrix, _leading_minors, _pivot, _tableau, quotient_to_str
from .permutations import BoundedAffinePermutation, baf


class OffVariety(ValueError):
    """The matrix is not a point of the variety of its diagram; the counterpart of ``OffChart``."""


@dataclass(frozen=True)
class PointV:
    """Point of the variety of its diagram, with the gauge Delta_{I_mu} = 1: construction takes the tableau
    of the matrix pivoted at I_mu first, or a cut's factor's chart, derived from V's (``_chart``, given by
    ``_factor`` alone), and on either runs one sequence of checks: the gauge, then the greedy basis I_mu by T's
    zero pattern and f by the necklace walk (raising OffVariety off the variety; a left factor resumes V's walk,
    ``_start``).  It keeps the chart, which ``column_minors`` and ``cut_columns`` read in walks up a column.
    ``_memo`` keeps what is computed once per point: the chart, the walk states a left factor resumes from
    (``restrict``; None on a factor's chart), and on first use the seed (``cluster.seed_at``), the cut columns
    above lambda_bar_a and the entries' texts (a factor's start as V's)."""

    diagram: SkewDiagram
    matrix: RatMatrix
    seed: int | None = None
    _chart: InitVar[tuple | None] = None
    _start: InitVar[tuple | None] = None
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self, _chart, _start):
        d, M = self.diagram, self.matrix
        if (M.nrows, M.ncols) != (d.k, d.n):
            raise ValueError("matrix shape does not match the diagram")
        I_mu = [b - 1 for b in d.I_mu()]
        if _chart is None:  # the columns at I_mu first, then the rest: the basis has M's rank
            T, D, basis, odd, g = _necklace_tableau(M, [*I_mu, *(t for t in range(d.n) if t not in I_mu)])
            if len(basis) < d.k:
                raise ValueError(f"matrix has rank {len(basis)} < k = {d.k}; not a point of Gr(k, n)")
            minor = -D if odd else D
        else:  # given by the caller, pivoted at I_mu, Delta_{I_mu} > 0
            T, D, basis, g = _chart
            minor = abs(D)
        if basis != I_mu or minor * prod(g[b] for b in I_mu) != M.den ** d.k:
            raise ValueError("Delta_{I_mu} != 1; use PointV.from_matrix to re-gauge")
        # Taken greedily from n down, the basis is the Gale-largest basis of the point's matroid.
        # On the variety that matroid is the skew shaped positroid, a lattice path matroid whose
        # bases are the k-sets Gale-between I_lambda and I_mu (Bonin, de Mier and Noy, JCTA 104
        # (2003)), so the greedy basis is I_mu: on T, pivoted at I_mu, iff T[r][t] = 0 for b_r < t.
        steps = self._memo["walk"] = [] if _chart is None else None  # a fresh point's, for ``restrict``
        if any(any(r[b + 1:]) for r, b in zip(T, basis)) or _walk(T, D, basis, d.n, _start, steps) != baf(d).window:
            raise OffVariety("point does not lie on the variety of its diagram")
        self._memo["chart"] = T, D, basis, g

    @classmethod
    def from_matrix(cls, d: SkewDiagram, M: RatMatrix, seed: int | None = None) -> "PointV":
        """Accept any rank-k representative and re-gauge so that v_{b_i} = e_i: B^-1 M = T / D for the
        tableau pivoted at I_mu.  The constructor builds that point as any other (its chart takes k pivots on
        the unit columns at I_mu), so it records the walk states its left factors resume from."""
        T, D, basis, _ = _tableau(M.num, [b - 1 for b in d.I_mu()])
        if len(basis) < M.nrows:
            raise ValueError("columns at I_mu are dependent; not a point of the variety")
        return cls(d, RatMatrix(T, D) if D > 0 else RatMatrix([[-x for x in r] for r in T], -D), seed)

    def column(self, t: int) -> tuple[int, ...]:
        """Column t of ``matrix.num``, any integer t, with the cyclic extension v_{t+n} = (-1)^{k-1} v_t."""
        q, r = divmod(t - 1, self.matrix.ncols)
        v = self.matrix.column(r + 1)
        return v if q * (self.diagram.k - 1) % 2 == 0 else tuple(-x for x in v)

    def _texts(self) -> list[tuple[str, ...]]:
        """Each column's entries as ``str`` of their Fractions, kept in ``_memo["texts"]``; None is formatted on use."""
        texts, den = self._memo.setdefault("texts", [None] * self.matrix.ncols), self.matrix.den
        for t in [t for t, v in enumerate(texts) if v is None]:  # over den = 1, and at 0, an entry is its integer
            texts[t] = tuple(quotient_to_str(r[t], den) if r[t] and den > 1 else str(r[t]) for r in self.matrix.num)
        return texts

    def delta(self, J) -> Fraction:
        """Signed minor in the listed column order (cyclic indices allowed): +-D of one ``_tableau`` of the
        k columns, which ``column`` signs, or 0 on rank loss.  The column walks read the minors at labels."""
        k = self.diagram.k
        if len(J) != k:
            raise ValueError(f"need {k} column indices, got {len(J)}")
        _, D, basis, odd = _tableau([self.column(t) for t in J], range(k))
        return Fraction(0 if len(basis) < k else -D if odd else D, self.matrix.den ** k)

    def column_minors(self, a: int) -> list[Fraction]:
        """The minors at the long labels I'(a, i) of column a's boxes, bottom up, off one ``_prefix_walk``."""
        d = self.diagram
        levels = _prefix_walk(self._memo["chart"], d.I_mu(), a, d.lambda_bar[a])
        return [Fraction(m * num, den) for m, _, num, den in islice(levels, d.mu_bar[a], None)]

    def cut_columns(self, a: int) -> list[tuple[int, ...]]:
        """The frame C of the right factor of the cut at a (``reframe``): k integer columns, C_ri = 0 for
        r < i, boundary column i being sum_r C_ri v_{b_r} / g_{b_r} over C_ii / g_{b_i}, C_ii = |m_i| g_{b_i}.

        At level i the flag at the cut is spanned by t_j = min(c+j-1, b_j), j <= i, c = max(a, d_i); with
        b_{i+1}, .., b_k they make J_i (for i <= lambda_bar_a the long label I'(a, i)).  Column i is the vector
        x of that step in v_{b_i} + span(v_{b_r}, r > i), which exists iff Delta_{J_i} != 0 (the flag is
        transversal to the opposite boundary flag).  On the chart R = B^-1 P, x = sum_j y_j R[:, t_j] with
        R[rows <= i] y = e_i, whose rows of M_i (``_prefix_walk``) hold no y_j of a t_j = b_j.  So by Cramer's
        rule x_r g_{b_r} / g_{b_i} = e_r / m_i, r >= i, e the walk's column at level i (carrying every row of T)
        from row i down, e_i = m_i; where t_i = b_i, x = v_{b_i} and e = (m_i, 0, .., 0).  The walk runs at c = a
        up to lambda_bar_a, and at c = d_i above, where it does not depend on a and its column is kept in
        ``_memo["cut"]``."""
        d = self.diagram
        chart, B, top, above = self._memo["chart"], d.I_mu(), d.lambda_bar[a], self._memo.setdefault("cut", {})

        def solve(i, m, e, *_):
            if m == 0:
                raise InvariantError("cut flag not transversal to the opposite boundary flag")
            h = chart[3][B[i - 1] - 1]
            return (0,) * (i - 1) + tuple(x * (h if m > 0 else -h) for x in e)

        C = [solve(i, *level) for i, level in enumerate(_prefix_walk(chart, B, a, top, True), 1)]
        above.update((i, solve(i, *list(_prefix_walk(chart, B, d.d(i), i, True))[-1]))
                     for i in range(top + 1, d.k + 1) if i not in above)
        return C + [above[i] for i in range(top + 1, d.k + 1)]

    def _factor(self, d: SkewDiagram, cols, den: int, T, D: int, texts, start=None) -> "PointV":
        """A cut's factor: the point of d of columns s_t v_t / den, cols[t] = (v_t, s_t, h_t), h_t the content of
        v_t, on the chart T, D pivoted at I_mu(d), with the texts given (None: formatted on use) and the walk from
        ``start``.  G = gcd(den, each s_t h_t) puts it in lowest terms, with contents s_t h_t / G; a column of scale
        G enters as it is."""
        G = gcd(den, *(s * h for _, s, h in cols))
        M = RatMatrix._lowest(tuple(zip(*(v if s == G else [x * s // G for x in v] for v, s, _ in cols))), den // G)
        factor = PointV(d, M, self.seed, (T, D, [b - 1 for b in d.I_mu()], [s * h // G for _, s, h in cols]), start)
        factor._memo["texts"] = texts
        return factor

    def restrict(self, d: SkewDiagram, columns: list[int]) -> "PointV":
        """The point of d of V's columns at ``columns`` (increasing, V's I_mu among them at I_mu(d)), over V's den
        (``_factor``): its tableau pivoted at I_mu pivots as V's, so its chart is that selection of V's T, with V's D,
        and its texts are V's.  Its necklace walk exchanges as V's on the same rows cut to ``columns`` (a row's first
        nonzero entry in the walk's order is the same where it lies in a kept column), so it resumes V's at the state
        before V's first exchange that enters a column it drops (``_walk`` records those), relabeled with the window
        entries of V's steps above it; if there is none, every step is shared: it takes V's whole window, relabeled,
        at top -1 and runs no exchange.  A factor records no states, so its own left factors walk from the top."""
        T, D, _, g = self._memo["chart"]
        n, new, steps, start = self.diagram.n, {t - 1: s for s, t in enumerate(columns)}, self._memo["walk"], None
        if steps is not None:
            _, i, S, div, E, row_of = next((step for step in steps if step[0] not in new), (-1, -1, [], [], D, {}))
            window = [0] * d.n
            for p, v in enumerate(baf(self.diagram).window):  # V's entries of the steps before step i
                if p in new and (v - 1) % n > i:
                    window[new[p]] = new[(v - 1) % n] + 1 + d.n * (v > n)
            start = (new.get(i, -1), [[r[t - 1] for t in columns] for r in S], div, E,
                     {new[c]: r for c, r in row_of.items()}, window)
        V_columns, texts = list(zip(*self.matrix.num)), self._texts()
        return self._factor(d, [(V_columns[t - 1], 1, g[t - 1]) for t in columns], self.matrix.den,
                            [[r[t - 1] for t in columns] for r in T], D, [texts[t - 1] for t in columns], start)

    def reframe(self, d: SkewDiagram, C: list[tuple[int, ...]]) -> "PointV":
        """The point of d with V's frame C (``cut_columns``) at I_mu(d), V's column t at each t off it (``_factor``).
        Frame column i is x_i / q_i, x_i = sum_r C_ri v_{b_r} / g_{b_r}, q_i = C_ii / g_{b_i}, all over their lcm.
        With h_i the content of x_i the basis is B C diag(h)^-1, so the chart's column t is h C^-1 T[:, t] / D over
        D_R = |D| prod C_ii / prod h: forward substitution on the integral prod C_ii C^-1, each division exact (else
        InvariantError).  Off the frame its texts are V's."""
        T, D, _, g = self._memo["chart"]
        B, k, I_R, V_columns = self.diagram.I_mu(), self.diagram.k, d.I_mu(), list(zip(*self.matrix.num))
        p, x = [[(s, y // g[b - 1]) for s, y in enumerate(V_columns[b - 1]) if y] for b in B], [[0] * k for _ in C]
        for i, r in ((i, r) for i in range(k) for r in range(i, k) if C[i][r]):
            for s, y in p[r]:
                x[i][s] += C[i][r] * y
        q, h = [c[i] // g[b - 1] for i, (c, b) in enumerate(zip(C, B))], [gcd(*v) for v in x]
        den, free = lcm(*q), [t for t in range(1, d.n + 1) if t not in I_R]
        at_frame = {t: (v, den // q_i, h_i) for t, v, q_i, h_i in zip(I_R, x, q, h)}  # column, scale, content
        P, H = prod(c[i] for i, c in enumerate(C)), prod(h)
        (D_R, rem), sP = divmod(abs(D) * P, H), P if D > 0 else -P
        lower = [[(i, C[i][r]) for i in range(r) if C[i][r]] for r in range(k)]
        R = [[0] * (b - 1) + [D_R] + [0] * (d.n - b) for b in I_R]
        for t in free:
            z = [0] * k
            for r in range(k):
                z_r = sP * T[r][t - 1] - sum(c * z[i] for i, c in lower[r])
                if z_r:  # else z_r and R's entry are 0, as they stand
                    z[r], e = divmod(z_r, C[r][r])
                    R[r][t - 1], f = divmod(h[r] * z[r], H)
                    rem |= e | f
        if rem:  # every entry of the chart is a minor of the new matrix, so this is a bug
            raise InvariantError("a derived chart entry is not an integer")
        cols = [at_frame.get(t) or (V_columns[t - 1], den, g[t - 1]) for t in range(1, d.n + 1)]
        texts = [None if t in at_frame else text for t, text in enumerate(self._texts()[:d.n], 1)]
        return self._factor(d, cols, den * self.matrix.den, R, D_R, texts)

    def to_json(self) -> dict:
        return {
            "diagram": self.diagram.to_json(),
            "seed": self.seed,
            "matrix": [list(row) for row in zip(*self._texts())],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "PointV":
        diagram = json_key(obj, "point", "diagram", lambda x: isinstance(x, dict), "an object")
        d = SkewDiagram.from_json(diagram)
        rows = json_key(obj, "point", "matrix", _rational_rows, "a list of rows of integers or strings")
        # only the text str(Fraction) writes: Fraction(str) also takes spaces, decimals and exponents
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


def _necklace_tableau(M: RatMatrix, order) -> tuple[list[list[int]], int, list[int], bool, list[int]]:
    """``_tableau`` of M's columns made primitive, taken greedily in the 0-based ``order`` (``PointV``: the
    columns at I_mu first; ``f_of_point`` and ``membership``: from column n down to 1), and the contents g_t
    of the columns (0 at a zero column): without them a common factor of a column would run through every minor."""
    g = [gcd(*c) for c in zip(*M.num)]
    return (*_tableau([[x // (h or 1) for x, h in zip(r, g)] for r in M.num], order), g)


def _walk(T: list[list[int]], D: int, basis: list[int], n: int, start=None, steps=None) -> tuple[int, ...]:
    """Window of f by the Grassmann-necklace exchange, from a tableau of rank k on the basis taken greedily
    from column n down.

    Column i lies in the basis taken greedily in the order i, i-1, .., 1, n, .., i+1 unless
    v_i = 0 (f(i) = i).  Going down from i = n, the first column j of that order after i with a
    nonzero entry in the row of i enters the basis in its place, and f(j) = i (+ n if j > i); if
    there is none, v_i is a coloop and f(i) = i + n.  Each exchange is one integer ``_pivot`` on a
    copy of T; the walk reads only which entries are zero, so rows keep their own divisors.  It retires
    the rows it has passed: after step i the row of i is read again only as the row of j < i.  A coloop
    row (j = i) or a row whose entering column wrapped (j > i) holds a column the walk has passed, and
    only the column of the current step leaves the basis, so that row is never read again.  It becomes
    a zero row, which ``_pivot`` skips (as ``_leading_minors`` retires its pivoted rows), and its
    column leaves ``row_of``.  A walk given ``start`` = (i, T, div, D, row_of, window), the state before
    step i, runs from step i down in place of T, D and basis (``PointV.restrict``; i = -1 runs no step).  A
    list ``steps`` records (j, i, T, div, D, row_of), copied shallow (``_pivot`` replaces rows), before each
    exchange with j < i: on the variety it enters a column a + mu_bar_a off I_mu, which a left factor may
    drop; a wrap (j > i) enters a column of I_mu, which every left factor keeps.
    """
    top, T, div, D, row_of, window = start or (n - 1, T, [D] * len(T), D, {c: j for j, c in enumerate(basis)}, [0] * n)
    T, div, row_of, window, done = list(T), list(div), dict(row_of), list(window), [0] * n
    for i in range(top, -1, -1):
        r = row_of.pop(i, None)
        if r is None:
            window[i] = i + 1
            continue
        row = T[r]
        j = next((j for j in chain(range(i - 1, -1, -1), range(n - 1, i, -1)) if row[j]), i)
        window[j] = i + 1 + n * (j >= i)
        if j < i and steps is not None:
            steps.append((j, i, list(T), list(div), D, {**row_of, i: r}))
        if j != i:
            D = _pivot(T, r, j, D, div)
        if j < i:
            row_of[j] = r
        else:
            T[r] = done  # its column has passed: the row is read no more
    return tuple(window)


def _prefix_walk(chart, B: list[int], c: int, top: int, every_row: bool = False):
    """Level by level, i = 1..top, the minor at t_1, .., t_i, b_{i+1}, .., b_k, t_j = min(c+j-1, b_j), off one walk
    down a block of the chart (T, D, basis, g) pivoted at I_mu = B.  On R_jt = T_jt g_t / (D g_{b_j}) the column
    at b_j is e_j, so Laplace expansion along the t_j = b_j (each at its own row j: no sign) leaves the block
    M_i = R[rows][t_j] of the j <= i with t_j != b_j, in order, where a t_j = b_r, r < j, is a unit column.  So
    the minor is m_i prod g_{t_j} / (D^|M_i| prod g_{b_j}), m_i the leading minor of T at M_i's rows and columns
    (``_leading_minors``).  Yields (m_i, column, num, den), num / den the scale; if ``every_row``, column is the
    walk's column at level i from row i down, carrying every row of T, and (m_i, 0, .., 0) where t_i = b_i (the
    unit column e_i, M_i = M_{i-1}), else None."""
    T, D, _, g = chart
    rows = [j for j in range(top) if c + j < B[j]]
    block = [[row[c + j - 1] for j in rows] for row in (T if every_row else map(T.__getitem__, rows))]
    walk = _leading_minors(block, rows if every_row else range(len(rows)))
    m, num, den = 1, 1, 1
    for j in range(top):
        if c + j < B[j]:
            m, column = next(walk)
            num, den = num * g[c + j - 1], den * D * g[B[j] - 1]
            yield m, column[j:] if every_row else None, num, den
        else:
            yield m, [m] + [0] * (len(T) - j - 1) if every_row else None, num, den


def f_of_point(M: RatMatrix) -> BoundedAffinePermutation:
    """f(i) = min{ j >= i : v_i in span(v_{i+1}, .., v_j) }, cyclic columns, by ``_walk``.
    The sign of v_{t+n} = (-1)^{k-1} v_t changes no span, so the columns are used unsigned."""
    T, D, basis, _, _ = _necklace_tableau(M, range(M.ncols - 1, -1, -1))
    if len(basis) < M.nrows:
        raise ValueError("rank-deficient matrix")
    return BoundedAffinePermutation(M.ncols, M.nrows, _walk(T, D, basis, M.ncols))


def membership(M: RatMatrix, d: SkewDiagram) -> bool:
    """True iff the matrix represents a point of the skew shaped positroid of d."""
    if (M.nrows, M.ncols) != (d.k, d.n):
        return False
    T, D, basis, _, _ = _necklace_tableau(M, range(d.n - 1, -1, -1))
    return len(basis) == d.k and _walk(T, D, basis, d.n) == baf(d).window


# -- sampling -------------------------------------------------------------------------


_SAMPLE_ATTEMPTS = 32


def sample(d: SkewDiagram, seed: int, bound: int = 100, normalize_r1: bool = False) -> PointV:
    """Random exact rational point of the variety, gauge v_{b_i} = e_i.

    Columns b_i are set to e_i; each remaining column a+mu_bar_a is a random integer combination of the
    columns strictly to its right within its dependency window, redrawn (whole matrix) until it builds a
    PointV.  With ``normalize_r1``, the point of the R^1 slice: ``_pinned`` scales the drawn columns so that
    every R^1 minor is 1, as ``xi`` does at a unit torus.
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
        if not normalize_r1:
            return point
        ones = [(a, 1) for a in range(n - k, 0, -1) if d.mu_bar[a] < d.lambda_bar[a]]
        return PointV(d, _pinned(d, [cols[t] for t in range(1, n + 1)], 1, ones), seed)
    raise RuntimeError(f"sampler failed after {_SAMPLE_ATTEMPTS} attempts (bound={bound})") from off


# -- the braid-variety dictionary ------------------------------------------------------


@dataclass(frozen=True)
class BraidLabeling:
    """Point of the braid variety attached to the diagram's braid, in region form.

    regions: the region V(a, i) right of the crossing of each box, as i independent
    integer vectors of Q^k that span it (omega: the point's columns at J(a, i); all
    skew boxes carried, so that reconstruction can read the flag of every column);
    boundary_basis: the k x k matrix whose columns frame the left flag (the point's
    columns at I_mu); right_flag: the k x k matrix whose columns span the flag on
    the right boundary step by step (the point's columns at I_lambda); torus: one
    nonzero scalar per top-of-column box; seed: the point's seed, so that xi(omega(V)) == V.
    """

    diagram: SkewDiagram
    regions: tuple[tuple[BoxRef, tuple[tuple[int, ...], ...]], ...]
    boundary_basis: RatMatrix
    right_flag: RatMatrix
    torus: tuple[tuple[BoxRef, Fraction], ...]
    seed: int | None = None
    _region: dict = field(init=False, repr=False, compare=False)
    _torus: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_region", {(box.a, box.i): S for box, S in self.regions})
        object.__setattr__(self, "_torus", {box.a: c for box, c in self.torus})

    def region(self, a: int, i: int) -> tuple[tuple[int, ...], ...]:
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
    """Label the braid diagram: each region V(a, i) is V's columns at its short label J(a, i), as they are."""
    d, columns = V.diagram, (None, *zip(*V.matrix.num))  # columns[t]: column t of V's num, one tuple each
    regions = tuple((box, tuple(map(columns.__getitem__, d.short_label(*box)))) for box in d.boxes())
    boundary = RatMatrix.from_columns([columns[b] for b in d.I_mu()], V.matrix.den)
    right = RatMatrix.from_columns([columns[t] for t in d.I_lambda()], V.matrix.den)
    torus = tuple((box, V.column_minors(box.a)[-1]) for box in d.ribbon().R1)
    labeling = BraidLabeling(d, regions, boundary, right, torus, V.seed)
    check_labeling(labeling)
    return labeling


def check_labeling(L: BraidLabeling) -> None:
    """Region conditions of the braid diagram; raises InvariantError on violation.  A region V(a, i) is i vectors
    of Q^k of rank i (one tableau).  S lies in span(B), B independent, iff the vectors of S not among B's leave
    rank len(B), so omega's containments (J(a, i), J(a+1, i) in J(a, i+1)) run no tableau; in equal dimension it
    is equality.  One tableau T = D W^-1 [W | R] tells whether the framing W is a basis, and the leading minors of
    its R block (``_leading_minors``) whether the right flag R is one transversal to F^W."""
    d = L.diagram
    k = d.k
    region = L._region

    def inside(S, B) -> bool:
        new = [v for v in S if v not in B]
        return not new or len(_tableau([*B, *new], range(k))[2]) == len(B)

    if [box for box, _ in L.regions] != d.boxes():
        raise InvariantError(f"regions do not label the {d.size()} boxes of the diagram once each, in column order")
    if tuple(box for box, _ in L.torus) != d.ribbon().R1:
        raise InvariantError(f"torus coordinates do not label the {len(d.ribbon().R1)} R^1 boxes once each, in order")
    ribbon = {(box.a, box.i) for box in d.ribbon().R}
    for (a, i), S in region.items():
        wrong = next((v for v in S if len(v) != k), None)
        if wrong is not None:
            raise InvariantError(f"V({a},{i}) is in Q^{len(wrong)}, not Q^{k}")
        rank = len(_tableau(S, range(k))[2])
        if rank != i:
            raise InvariantError(f"dim V({a},{i}) = {rank} != {i}")
        if len(S) != i:
            raise InvariantError(f"V({a},{i}) is given by {len(S)} vectors of rank {i}, not a basis")
    for (a, i), S in region.items():
        if (a, i + 1) in region and not inside(S, region[(a, i + 1)]):
            raise InvariantError(f"V({a},{i}) not in V({a},{i+1})")
        if (a + 1, i) in region and (a, i + 1) in region:
            if not inside(region[(a + 1, i)], region[(a, i + 1)]):
                raise InvariantError(f"V({a+1},{i}) not in V({a},{i+1})")
        if (a + 1, i) in region:
            if (a, i) in ribbon and (a + 1, i) in ribbon and not inside(S, region[(a + 1, i)]):
                raise InvariantError(f"ribbon equality fails at ({a},{i})")
            if (a, i) not in ribbon and inside(S, region[(a + 1, i)]):
                raise InvariantError(f"non-ribbon inequality fails at ({a},{i})")
    F, R = L.boundary_basis, L.right_flag
    if (F.nrows, F.ncols) != (k, k):
        raise InvariantError(f"boundary framing is {F.nrows} x {F.ncols}, not {k} x {k}")
    square = (R.nrows, R.ncols) == (k, k)
    T, _, basis, _ = _tableau([w + r for w, r in zip(F.num, R.num)] if square else F.num, range(k))
    if len(basis) < k:
        raise InvariantError("boundary framing is not a basis")
    w_op = [F.column(j) for j in range(1, max(d.mu_bar) + 1)]  # W^op_i is spanned by the first i
    for a in range(1, d.n - d.k + 1):
        for i in range(1, d.mu_bar[a] + 1):
            # the boundary conditions live at the crossing above, so they apply
            # only when the box (a-1, i+1) is part of the diagram
            if d.contains_box(a - 1, i) and (a - 1, i + 1) in region:
                if not inside(w_op[:i], region[(a - 1, i + 1)]):
                    raise InvariantError(f"W^op_{i} not in V({a-1},{i+1})")
                if inside(w_op[:i], region[(a - 1, i)]):
                    raise InvariantError(f"W^op_{i} = V({a-1},{i})")
    if not square:
        raise InvariantError(f"right flag basis is {R.nrows} x {R.ncols}, not {k} x {k}")
    # On R's block of T = D W^-1 [W | R], the leading minor of rows and columns 1..i is D^i det W^-1 times
    # det[r_1..r_i, w_{i+1}..w_k] (``_leading_minors``): det R at i = k, else, for R a basis, zero iff
    # span(r_1..r_i) meets F^W_{k-i} = span(w_{i+1}..w_k).  On a zero, the block's rank (R's) says which.
    block = [r[k:] for r in T]
    if not all(m for m, _ in _leading_minors(block, range(k))):
        singular = len(_tableau(block, range(k))[2]) < k
        raise InvariantError("right flag is not a basis" if singular else "right flag not transversal to F^W")
    for box, c in L.torus:
        if c == 0:
            raise InvariantError(f"torus coordinate at column {box.a} vanishes")


def xi(L: BraidLabeling) -> PointV:
    """Reconstruct the point from a braid labeling; exact inverse of omega.

    Column t of the point is a rational scale times the integer vector cols[t] over the framing's
    denominator: a framing column with scale 1, or the primitive vector x, leading entry positive,
    of the line V(a, m+1) ^ span(f_{m+1}, .., f_k) in column a (m = mu_bar_a), scaled by ``_pinned``
    so that the pinning minor is the torus value.  That line is the one dependency among the vectors
    s_j of V(a, m+1) and the framing columns f_{m+1}, .., f_k: one tableau over them, in that order,
    leaves one column c out of its basis, and x = sum_j T[row of s_j][c] s_j, made primitive, so x does
    not depend on the basis of V(a, m+1) given.  Errors come as in one pass from column n - k down: the
    lines right of a failing one are pinned first, then its error is raised."""
    d, F = L.diagram, L.boundary_basis
    k, n, B = d.k, d.n, d.I_mu()
    framing = [F.column(j) for j in range(1, k + 1)]
    cols, lines, error = dict(zip(B, framing)), [], None
    for a in range(n - k, 0, -1):
        m = d.mu_bar[a]
        if m == d.lambda_bar[a]:
            continue
        S = L.region(a, m + 1)
        T, _, basis, _ = _tableau(list(zip(*S, *framing[m:])), range(k + 1))
        free = [c for c in range(k + 1) if c not in basis]
        terms = [(row[free[0]], S[j]) for row, j in zip(T, basis) if j < len(S)] if len(free) == 1 else []
        x = [sum(c * s[r] for c, s in terms) for r in range(k)]
        g = gcd(*x)
        if g == 0:  # no line, or one free framing column that the framing tail alone spans
            error = ValueError(f"intersection at column {a} is {len(free) if len(free) > 1 else 0}-dimensional")
            break
        cols[a + m] = tuple(y // (g if next(filter(None, x)) > 0 else -g) for y in x)
        lines.append(a)
    M = _pinned(d, [cols.get(t, (0,) * k) for t in range(1, n + 1)], F.den, ((a, L.torus_value(a)) for a in lines))
    if error:
        raise error
    return PointV(d, M, L.seed)


def _pinned(d: SkewDiagram, columns, den: int, values) -> RatMatrix:
    """The integer columns over den, column a + mu_bar_a scaled so that Delta_{I'(a, lambda_bar_a)} is the value,
    for each (a, value) in turn.  The minors come off one chart of the columns as they are (contents 1), pivoted
    at I_mu (``_prefix_walk``): den^k times J's minor is det of the columns at I_mu times J's minor on the chart,
    times the scales set so far.  Dependent columns at I_mu make no chart, and the first pinning minor is 0."""
    B, k = d.I_mu(), d.k
    T, D, basis, odd = _tableau(list(zip(*columns)), [b - 1 for b in B])
    chart, scale = (T, D, basis, [1] * d.n), [Fraction(1)] * (d.n + 1)
    for a, value in values:
        top = d.lambda_bar[a]
        m_J, _, num, q = list(_prefix_walk(chart, B, a, top))[-1] if len(basis) == k else (0, 0, 0, 1)
        current = Fraction((-D if odd else D) * m_J * num, q) * prod(scale[t] for t in d.long_label(a, top))
        if current == 0:
            raise ValueError(f"pinning minor vanishes at column {a}; labeling invalid")
        scale[a + d.mu_bar[a]] = value * den ** k / current
    m = lcm(*(c.denominator for c in scale[1:]))
    return RatMatrix.from_columns([[x * (c.numerator * (m // c.denominator)) for x in v]
                                   for v, c in zip(columns, scale[1:])], den * m)
