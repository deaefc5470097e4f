"""Splitting a point of a skew shaped positroid along a column of its diagram.

On the open chart where the column-a minors are nonzero, a point V maps to a pair (V_left, V_right)
of points on the two diagrams obtained by cutting along column a.  Both live in V's frame and are built
on charts derived from V's: the left factor is V's columns on V's chart restricted to them
(``PointV.restrict``); the right factor's boundary columns are V's frame (``PointV.cut_columns``),
triangular over V's columns at I_mu (``PointV.reframe``) with explicit rational scaling factors,
which is what the verification suite checks exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

from .cluster import Seed, _products, exchange_products, seed_at
from .diagram import BoxRef, InvariantError
from .linalg import ratio_to_str
from .variety import OffVariety, PointV


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


def left_point(V: PointV, a: int) -> PointV:
    """Left factor: boundary columns first, then the columns of V shifted by a-1, on V's chart restricted
    to them (``PointV.restrict``).  V must lie on the column-a chart, which ``Cut.at`` checks."""
    d, m = V.diagram, V.diagram.mu_bar[a]
    return V.restrict(d.cut(a)[0], [*d.I_mu()[:m], *range(a + m, d.n + 1)])


def right_point(V: PointV, a: int) -> PointV:
    """Right factor in the frame of V (the frame of the scaling identities), ``V.cut_columns(a)`` at I_mu
    and V's columns off it (``PointV.reframe``).  V must lie on the column-a chart (``Cut.at`` checks it)."""
    d = V.diagram
    mu_bar = d.mu_bar[a]
    I_mu_right = d.I_mu()[:mu_bar] + tuple(a + i - 1 for i in range(mu_bar + 1, d.k + 1))
    right = d.cut(a)[1]
    if right.I_mu() != I_mu_right:
        raise InvariantError("cut boundary labels disagree with the right diagram")
    return V.reframe(right, V.cut_columns(a))


def _factor(side: str, build, V: PointV, a: int) -> PointV:
    try:
        return build(V, a)
    except OffVariety as exc:
        raise InvariantError(f"{side} factor fails membership") from exc


@dataclass(frozen=True)
class Cut:
    """One splicing of V along column a: the two factors, the A-factors and the three seeds.

    The cut diagrams are ``left.diagram`` and ``right.diagram``; the boundary
    labels of the right factor are ``right.diagram.I_mu()``.  ``A`` maps each column
    t = a + i of the window a+mu_bar_a .. a+lambda_bar_a-1 to the rescaling of column t by
    the cut, seed(a, i) / seed(a, i+1) with seed(a, mu_bar_a) = 1; the factor is 1 outside it.
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
        seed = seed_at(V)
        mu_bar = d.mu_bar[a]
        A = {a + i: (seed.value(BoxRef(a, i)) if i > mu_bar else 1) / seed.value(BoxRef(a, i + 1))
             for i in range(mu_bar, d.lambda_bar[a])}
        return cls(V, a, left, right, A, seed, seed_at(left), seed_at(right))


def phi(V: PointV, a: int) -> tuple[PointV, PointV]:
    """The splicing map on the column-a chart."""
    c = Cut.at(V, a)
    return c.left, c.right


def verify_minor_scaling(c: Cut) -> list[dict]:
    """Check each right seed value at (a', i) against V's times the A-factors of the columns t < a' + i,
    and each left one against V's a-1 columns on: the left boxes are V's from column a on, in order
    (else InvariantError), so the left seed reads against the tail of V's.  Returns the violations."""
    violations, first = [], c.a + c.V.diagram.mu_bar[c.a]  # A's columns are first, first + 1, ..
    scale = [1, *accumulate(c.A.values(), Fraction.__mul__)]  # scale[j]: the product of A's first j factors
    for box, lhs in c.right_seed.values:
        rhs = c.seed.value(box) * scale[min(max(box.a + box.i - first, 0), len(c.A))]
        if lhs != rhs:
            violations.append(
                {"box": [box.a, box.i], "right_minor": str(lhs), "scaled_minor": str(rhs)}
            )
    tail = c.seed.values[len(c.right_seed.values):]
    left = c.left_seed.values
    if [b for b, _ in tail] != [(b.a + c.a - 1, b.i) for b, _ in left]:
        raise InvariantError(f"the left factor's boxes are not V's from column {c.a} on")
    violations += [{"side": "left", "box": [b.a, b.i], "left_minor": str(y), "minor": str(x)}
                   for (_, x), (b, y) in zip(tail, left) if x != y]
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
