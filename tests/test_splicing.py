import json
import random
import re
from dataclasses import replace
from fractions import Fraction
from itertools import combinations
from math import gcd, prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import skewpos
from skewpos import (
    BoxRef,
    Cut,
    InvariantError,
    OffChart,
    Partition,
    Seed,
    SkewDiagram,
    baf,
    beta,
    exchange_products,
    in_U_a,
    left_point,
    membership,
    phi,
    quiver,
    right_point,
    sample,
    seed_at,
    splice_report,
    verify_exchange_ratios,
    verify_minor_scaling,
)
from skewpos.cli import main, random_diagram, subseed
from skewpos.linalg import RatMatrix, quotient_to_str, ratio_to_str
from skewpos.splicing import _vanishing_chart_label
from skewpos.variety import OffVariety, PointV, _necklace_tableau, _walk

from conftest import (
    A_factor_oracle,
    Subspace,
    W_span,
    all_skew_diagrams,
    box_minor_oracle,
    chart_is_everything,
    chart_minor_oracle,
    delta_oracle,
    det_one_matrix,
    det_oracle,
    flag_at_cut,
    flag_W,
    frame_point_oracle,
    from_matrix_oracle,
    from_qcols,
    gauged,
    intro_off_chart_point,
    left_point_oracle,
    minor,
    other_gauge,
    qcol,
    qrows,
    region,
    right_point_minor_oracle,
    right_point_oracle,
    seed_at_delta_oracle,
    skew_diagrams,
    staircase,
    transversal,
    vec_add,
    vec_scale,
    verify_exchange_ratios_oracle,
    walk_oracle,
    zassenhaus,
)


def random_chart_triples(count, base_seed=0, max_n=10):
    """Deterministic (diagram, column, point) triples with the point on the chart."""
    out = []
    t = 0
    while len(out) < count:
        t += 1
        rng = random.Random(subseed(base_seed, "triple", t))
        d = random_diagram(rng, max_n=max_n)
        if d.size() == 0:
            continue
        a = rng.randint(1, d.n - d.k)
        V = sample(d, subseed(base_seed, "pt", t))
        if in_U_a(V, a):
            out.append((d, a, V))
    return out


class TestChart:
    def test_intro_conditions(self, intro):
        conditions = [
            intro.long_label(6, i) for i in range(intro.mu_bar[6] + 1, intro.lambda_bar[6] + 1)
        ]
        assert conditions == [(5, 7, 10, 11, 12), (5, 7, 8, 11, 12), (5, 7, 8, 9, 12)]
        V = sample(intro, seed=1)
        assert in_U_a(V, 6) == all(V.delta(J) != 0 for J in conditions)

    def test_ribbon_column_chart_is_everything(self, running):
        # column 6 of the running example consists of one ribbon box
        assert chart_is_everything(running, 6)
        assert not chart_is_everything(intro_col := running, 3)

    def test_empty_column_vacuous(self, disconnected):
        V = sample(disconnected, seed=2)
        assert in_U_a(V, 3)


class TestFlagAtCut:
    def test_running_example(self, running):
        V = sample(running, seed=3)
        F = flag_at_cut(V, 6)
        expected = [(5,), (5, 6), (5, 6, 8), (5, 6, 8, 9)]
        for j, cols in enumerate(expected, start=1):
            assert F[j] == Subspace.span(5, [V.column(t) for t in cols])

    def test_transversality_iff_chart(self, running):
        for seed in range(4, 10):
            V = sample(running, seed=seed)
            for a in range(1, 8):
                assert in_U_a(V, a) == transversal(flag_at_cut(V, a), flag_W(V))

    def test_boundary_column(self, running):
        V = sample(running, seed=5)
        F = flag_at_cut(V, 1)
        assert F[running.k].dim == running.k

    def test_transversality_iff_chart_random(self):
        for t in range(15):
            rng = random.Random(subseed(41, "diagram", t))
            d = random_diagram(rng, max_n=9)
            V = sample(d, seed=subseed(41, "pt", t))
            for a in range(1, d.n - d.k + 1):
                assert in_U_a(V, a) == transversal(flag_at_cut(V, a), flag_W(V))

    def test_intersection_dimension_running(self, running):
        V = sample(running, seed=30)
        inter = zassenhaus(region(V, 6, 4), W_span(V, 2))
        assert inter.dim == 1
        assert inter.contains(Subspace.span(running.k, [V.column(9)]))


class TestWorkedExample:
    """The cut a = 6 of lambda = (7,7,5,3,1), mu = (3,1)."""

    def point(self, seed):
        d = SkewDiagram(12, 5, Partition((7, 7, 5, 3, 1)), Partition((3, 1)))
        return d, sample(d, seed=seed)

    def test_left_columns(self, intro):
        for seed in range(1, 6):
            V = sample(intro, seed=seed)
            if not in_U_a(V, 6):
                continue
            L = left_point(V, 6)
            assert [qcol(L, j) for j in range(1, 8)] == [qcol(V, t) for t in (5, 7, 8, 9, 10, 11, 12)]
            assert L.delta(L.diagram.I_mu()) == 1

    def test_u7(self, intro):
        V = sample(intro, seed=7)
        assert in_U_a(V, 6)
        R = right_point(V, 6)
        assert qcol(R, 7) == vec_scale(1 / V.delta((5, 7, 10, 11, 12)), qcol(V, 7))

    def test_u8(self, intro):
        V = sample(intro, seed=7)
        R = right_point(V, 6)
        c1 = V.delta((5, 7, 8, 10, 12)) / V.delta((5, 7, 8, 11, 12))
        c2 = V.delta((5, 7, 8, 11, 10)) / V.delta((5, 7, 8, 11, 12))
        expected = vec_add(vec_add(qcol(V, 10), vec_scale(-c1, qcol(V, 11))), vec_scale(-c2, qcol(V, 12)))
        assert qcol(R, 8) == expected

    def test_u9(self, intro):
        V = sample(intro, seed=7)
        R = right_point(V, 6)
        c = V.delta((5, 7, 8, 11, 9)) / V.delta((5, 7, 8, 9, 12))
        assert qcol(R, 9) == vec_add(qcol(V, 11), vec_scale(c, qcol(V, 12)))

    def test_boundary_and_interior_columns(self, intro):
        V = sample(intro, seed=7)
        R = right_point(V, 6)
        for t in (1, 2, 3, 4, 5, 6):
            assert qcol(R, t) == qcol(V, t)
        assert qcol(R, 10) == qcol(V, 12)

    def test_running_u9_proportional(self, running):
        V = sample(running, seed=8)
        assert in_U_a(V, 6)
        R = right_point(V, 6)
        ratio = V.delta((5, 6, 8, 11, 12)) / V.delta((5, 6, 8, 9, 12))
        assert qcol(R, 9) == vec_scale(ratio, qcol(V, 9))

    def test_both_memberships(self, intro):
        hits = 0
        for seed in range(1, 40):
            V = sample(intro, seed=seed)
            if not in_U_a(V, 6):
                continue
            L, R = phi(V, 6)
            assert membership(L.matrix, L.diagram)
            assert membership(R.matrix, R.diagram)
            hits += 1
            if hits == 20:
                break
        assert hits == 20


class TestAFactor:
    def test_outside_window(self, intro):
        V = sample(intro, seed=9)
        assert A_factor_oracle(V, 6, 3) == 1
        assert A_factor_oracle(V, 6, 12) == 1

    def test_window_start(self, intro):
        V = sample(intro, seed=9)
        a = 6
        i = intro.mu_bar[a] + 1
        t = a + intro.mu_bar[a]
        assert A_factor_oracle(V, a, t) == 1 / V.delta(intro.long_label(a, i))

    def test_brute_ratio(self, intro):
        V = sample(intro, seed=10)
        a = 6
        for i in range(intro.mu_bar[a] + 2, intro.lambda_bar[a] + 1):
            t = a + i - 1
            assert A_factor_oracle(V, a, t) == V.delta(intro.long_label(a, i - 1)) / V.delta(
                intro.long_label(a, i)
            )


class TestTriangularity:
    def test_column_expansion(self, intro):
        V = sample(intro, seed=11)
        a = 6
        d = intro
        R = right_point(V, a)
        k = d.k
        window_start = a + d.mu_bar[a]
        # triangularity holds below the top of the cut column; the positions
        # past the window carry the boundary tail and obey the wedge identity
        for p in range(1, a + d.lambda_bar[a]):
            spanning = [V.column(b) for b in d.I_mu() if b < p]
            spanning += [V.column(s) for s in range(window_start, p) if s not in d.I_mu()]
            diff = vec_add(qcol(R, p), vec_scale(-A_factor_oracle(V, a, p), qcol(V, p)))
            assert Subspace.span(k, spanning).contains(Subspace.span(k, [diff]))

    def test_wedge_identity(self, intro):
        # the trailing column blocks of the right point and of V span the same
        # volume: every maximal minor of the two blocks agrees
        V = sample(intro, seed=12)
        a = 6
        R = Cut.at(V, a).right
        k = intro.k
        for i in range(1, k + 1):
            ublock = [qcol(R, b) for b in R.diagram.I_mu()[i - 1:]]
            vblock = [qcol(V, b) for b in intro.I_mu()[i - 1:]]
            w = k - i + 1
            for rows in combinations(range(k), w):
                mu_minor = det_oracle([[ublock[c][r] for c in range(w)] for r in rows])
                mv_minor = det_oracle([[vblock[c][r] for c in range(w)] for r in rows])
                assert mu_minor == mv_minor


def doubling_a_column_off_I_mu(build, doubled):
    """``build`` (``left_point`` or ``right_point``) with the first nonzero column off I_mu of the factor
    it builds doubled: a torus rescaling, so the factor stays on its variety and keeps every exchange
    ratio, but its seed values change.  Each (V, a) it doubled a column at is appended to ``doubled``."""
    def mutant(V, a):
        P = build(V, a)
        d, I_mu = P.diagram, P.diagram.I_mu()
        off = next((t for t in range(1, d.n + 1) if t not in I_mu and any(P.column(t))), None)
        if off is None:
            return P
        doubled.append((V, a))
        cols = [[2 * x for x in P.column(t)] if t == off else P.column(t) for t in range(1, d.n + 1)]
        return PointV(d, RatMatrix.from_columns(cols, P.matrix.den), P.seed)

    return mutant


class TestVerification:
    def test_minor_scaling_intro(self, intro):
        for seed in (1, 7, 13):
            V = sample(intro, seed=seed)
            if in_U_a(V, 6):
                assert verify_minor_scaling(Cut.at(V, 6)) == []

    def test_exchange_ratios_intro(self, intro):
        V = sample(intro, seed=7)
        assert verify_exchange_ratios(Cut.at(V, 6)) == []

    def test_exchange_ratios_off_the_cluster_torus(self):
        # the point `verify` samples for this diagram and seed has seed value 0 at box (3, 1)
        d = SkewDiagram(11, 8, Partition((3, 3, 2, 2)), Partition(()))
        V = sample(d, subseed(276030479, "point", 0))
        assert seed_at(V).value(BoxRef(3, 1)) == 0
        c = Cut.at(V, 1)
        box = BoxRef(2, 1)  # mutable in the left factor; at a = 1 it is also box (2, 1) of V
        assert exchange_products(c.left_seed, box)[1] == exchange_products(c.seed, box)[1] == 0
        assert ratio_to_str(*exchange_products(c.seed, box)).endswith(")/0")
        assert verify_exchange_ratios(c) == []

    def test_trivial_window_boxes_equal_on_the_nose(self, intro):
        V = sample(intro, seed=14)
        a = 6
        R = Cut.at(V, a).right
        for box in R.diagram.boxes():
            if box.a + box.i - 1 < a + intro.mu_bar[a]:
                assert R.delta(R.diagram.long_label(box.a, box.i)) == V.delta(
                    intro.long_label(box.a, box.i)
                )

    def test_random_triples(self,):
        for d, a, V in random_chart_triples(12, base_seed=99):
            c = Cut.at(V, a)
            assert verify_minor_scaling(c) == []
            assert verify_exchange_ratios(c) == []

    def test_left_minor_equality(self, intro):
        V = sample(intro, seed=15)
        a = 6
        L = Cut.at(V, a).left
        mu_bar = intro.mu_bar[a]
        for box in L.diagram.boxes():
            orig = intro.long_label(box.a + a - 1, box.i)
            relabeled = tuple(sorted(
                set(range(1, mu_bar + 1))
                | {t - a + 1 for t in orig if t not in intro.I_mu()[:mu_bar]}
            ))
            assert L.diagram.long_label(box.a, box.i) == relabeled
            assert L.delta(relabeled) == V.delta(orig)

    def test_left_mutant_fails_minor_scaling_up_to_n6(self, monkeypatch):
        """A left factor with its first nonzero column off I_mu doubled is a torus rescaling: it stays
        on its variety and keeps every exchange ratio, but its seed values leave V's.  Every on-chart
        cut with n <= 6 whose left factor has such a column reports a left violation."""
        doubled = []
        monkeypatch.setattr(skewpos.splicing, "left_point", doubling_a_column_off_I_mu(left_point, doubled))
        for d in all_skew_diagrams(6):
            V = sample(d, seed=1)
            for a in range(1, d.n - d.k + 1):
                if not in_U_a(V, a):
                    continue
                count = len(doubled)
                minors = splice_report(V, a)["checks"]["minor_scaling"]
                if len(doubled) > count:
                    assert minors != "pass" and any(v.get("side") == "left" for v in minors), (d, a)
                else:
                    assert minors == "pass", (d, a)
        assert doubled

    def test_right_mutant_fails_minor_scaling_up_to_n6(self, intro, monkeypatch, capsys):
        """The mirror on the right: a right factor with its first nonzero column off I_mu doubled stays on
        its variety, but its seed values leave V's times the A-factors.  Every on-chart cut with n <= 6
        whose right factor has such a column reports a right violation, and so does ``skewpos splice``,
        which exits 1."""
        doubled = []
        monkeypatch.setattr(skewpos.splicing, "right_point", doubling_a_column_off_I_mu(right_point, doubled))
        for d in all_skew_diagrams(6):
            V = sample(d, seed=1)
            for a in range(1, d.n - d.k + 1):
                if not in_U_a(V, a):
                    continue
                count = len(doubled)
                minors = splice_report(V, a)["checks"]["minor_scaling"]
                if len(doubled) > count:
                    assert minors != "pass", (d, a)
                    assert all(v.keys() == {"box", "right_minor", "scaled_minor"} for v in minors), (d, a)
                else:
                    assert minors == "pass", (d, a)
        assert doubled
        code = main(["splice", "--diagram", json.dumps(intro.to_json()), "--seed", "7", "--column", "6"])
        minors = json.loads(capsys.readouterr().out)["checks"]["minor_scaling"]
        assert code == 1
        assert minors and all(v.keys() == {"box", "right_minor", "scaled_minor"} for v in minors)
        assert all(Fraction(v["right_minor"]) != Fraction(v["scaled_minor"]) for v in minors)

    def test_left_boxes_must_be_the_tail_of_V(self, intro):
        """The left seed is read against the tail of V's only when its boxes are V's shifted by a - 1."""
        c = Cut.at(sample(intro, seed=15), 6)
        assert verify_minor_scaling(c) == []
        for wrong in (c.seed, c.right_seed):
            with pytest.raises(InvariantError, match="left factor's boxes"):
                verify_minor_scaling(replace(c, left_seed=wrong))

    def test_braid_length_bookkeeping(self, intro):
        for a in range(1, 8):
            left, right = intro.cut(a)
            assert len(beta(intro)[0]) == len(beta(left)[0]) + len(beta(right)[0])


class TestFullChart:
    def test_ribbon_column_always_spliceable(self, running):
        # column 6 of the running example is entirely frozen
        assert chart_is_everything(running, 6)
        for seed in range(1, 13):
            V = sample(running, seed=seed)
            assert in_U_a(V, 6)
            L, R = phi(V, 6)
            assert membership(L.matrix, L.diagram) and membership(R.matrix, R.diagram)

    def test_report_shape(self, intro):
        V = sample(intro, seed=16)
        doc = splice_report(V, 6)
        assert doc["checks"] == {"minor_scaling": "pass", "exchange_ratios": "pass",
                                 "membership": "pass"}
        assert doc["frozen_coverage"]["uncovered_frozen"] == []
        assert set(doc["A"]) == {"7", "8", "9"}

    def test_off_chart_rejected(self):
        W = intro_off_chart_point()
        assert not in_U_a(W, 5)
        with pytest.raises(OffChart, match="chart") as info:
            Cut.at(W, 5)
        d = W.diagram
        first = next(i for i in range(d.mu_bar[5] + 1, d.lambda_bar[5] + 1)
                     if W.delta(d.long_label(5, i)) == 0)
        assert isinstance(info.value, ValueError)
        assert (info.value.a, info.value.label) == (5, d.long_label(5, first))
        with pytest.raises(ValueError, match="chart"):
            phi(W, 5)


GAUGE_ENTRIES = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def det_one_matrices(draw, k):
    """L D U: unit lower and upper triangular L, U and a diagonal D of determinant 1."""
    L = [[draw(GAUGE_ENTRIES) if j < i else Fraction(i == j) for j in range(k)] for i in range(k)]
    U = [[draw(GAUGE_ENTRIES) if j > i else Fraction(i == j) for j in range(k)] for i in range(k)]
    D = [draw(GAUGE_ENTRIES.filter(bool)) for _ in range(k - 1)]
    D.append(1 / prod(D, start=Fraction(1)))
    return [[sum(L[i][s] * D[s] * U[s][j] for s in range(k)) for j in range(k)] for i in range(k)]


def outcome(f, *args):
    """The matrix f returns, or (is an AssertionError, message) for what it raises."""
    try:
        return f(*args).matrix
    except (AssertionError, ValueError) as exc:
        return isinstance(exc, AssertionError), str(exc)


class TestRightFactorOracle:
    """right_point and PointV.from_matrix against the pipelines they replaced (conftest)."""

    @given(skew_diagrams(max_n=9), st.integers(1, 200), st.data())
    @settings(max_examples=40, deadline=None)
    def test_match_oracles_in_a_nonidentity_gauge(self, d, seed, data):
        V = sample(d, seed=seed)
        g = data.draw(det_one_matrices(d.k))
        assume(any(g[i][j] != (i == j) for i in range(d.k) for j in range(d.k)))
        W = gauged(V, g)
        assert PointV.from_matrix(d, W.matrix) == from_matrix_oracle(d, W.matrix)
        assert PointV.from_matrix(d, W.matrix).matrix == V.matrix
        rows = qrows(W.matrix)
        scaled = RatMatrix.from_rationals((tuple(3 * x for x in rows[0]),) + rows[1:])
        assert PointV.from_matrix(d, scaled) == from_matrix_oracle(d, scaled)
        for a in range(1, d.n - d.k + 1):
            got = outcome(right_point, W, a)
            assert got == outcome(right_point_oracle, W, a) == outcome(right_point_minor_oracle, W, a)

    def test_dependent_gauge_columns_rejected_by_both(self, intro):
        V = sample(intro, seed=3)
        b1, b2 = intro.b(1), intro.b(2)
        M = RatMatrix.from_columns([V.column(b2 if t == b1 else t) for t in range(1, intro.n + 1)], V.matrix.den)
        assert outcome(PointV.from_matrix, intro, M) == outcome(from_matrix_oracle, intro, M)
        with pytest.raises(ValueError, match="dependent"):
            PointV.from_matrix(intro, M)

    def test_every_cut_up_to_n6(self):
        """Every cut of every skew diagram with n <= 6, one sampled point each: the degenerate
        rows lambda_i = mu_i above lambda_bar_a included."""
        cuts = 0
        for d in all_skew_diagrams(6):
            V = sample(d, seed=1)
            for a in range(1, d.n - d.k + 1):
                got = outcome(right_point, V, a)
                assert got == outcome(right_point_oracle, V, a), (d, a)
                assert got == outcome(right_point_minor_oracle, V, a), (d, a)
                cuts += 1
        assert cuts == 1707

    @pytest.mark.parametrize("n", [32, 64])
    def test_staircase_matches_minor_oracle(self, n):
        """Every on-chart column of the staircase, at the sampled point and at a copy in a gauge
        whose columns at I_mu carry contents g_{b_i} != 1, against the minor ratios."""
        d = staircase(n)
        V = sample(d, seed=1)
        W = gauged(V, det_one_matrix(random.Random(n), d.k))
        assert any(h != 1 for h in (W._memo["chart"][3][b - 1] for b in d.I_mu()))
        for P in (V, W):
            columns = [a for a in range(1, d.n - d.k + 1) if in_U_a(P, a)]
            assert columns
            for a in columns:
                assert right_point(P, a) == right_point_minor_oracle(P, a), (n, a)

    @pytest.mark.parametrize("n", [16, 24])
    @pytest.mark.parametrize("half", [False, True])
    def test_fat_shapes_match_minor_oracle(self, n, half):
        """The rectangle and the half-filled shape, whose walks run down blocks of up to k rows, at the sampled
        point and in a det_one_matrix gauge: every column, on the chart or not, against the minor ratios."""
        d = fat_shape(n, half)
        V = sample(d, seed=1)
        for P in (V, gauged(V, det_one_matrix(random.Random(n), d.k))):
            for a in range(1, d.n - d.k + 1):
                assert outcome(right_point, P, a) == outcome(right_point_minor_oracle, P, a), (n, half, a)

    def test_off_the_cluster_torus_fat_point(self):
        """A bound-1 point of the n = 16 rectangle, off the chart at all but columns 1, 2 and 5: each
        column as the minor ratios give it, or the same transversality error."""
        V = sample(fat_shape(16, False), 1, bound=1)
        outcomes = [outcome(right_point, V, a) for a in range(1, 11)]
        assert outcomes == [outcome(right_point_minor_oracle, V, a) for a in range(1, 11)]
        assert [a for a, got in enumerate(outcomes, 1) if isinstance(got, RatMatrix)] == [1, 2, 5]

    def test_a_zero_level_below_the_level_solved(self):
        """A bound-1 point off the torus where the cut at column 1 solves level 3 on the walk at c = d_3 = 2,
        whose level 1 vanishes: level 3's column comes off the kernel vector of the two rows above, both
        of its entries nonzero.  Every cut gives the frame of the minor ratios, or the same error."""
        d = SkewDiagram(8, 4, Partition((4, 4, 3, 2)), Partition(()))
        V = sample(d, 2, bound=1)
        assert V.column_minors(2)[0] == 0 and d.lambda_bar[1] == 2 and d.d(3) == 2
        for a in range(1, d.n - d.k + 1):
            assert outcome(right_point, V, a) == outcome(right_point_minor_oracle, V, a), a

    @pytest.mark.parametrize("g", [None, [[1, 2, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 2, 0, -1],
                                          [0, 0, 1, Fraction(1, 2), 0], [3, 0, 0, 0, 1]]])
    def test_off_chart_point_raises_at_column_5_in_both(self, g):
        W = intro_off_chart_point()
        if g is not None:
            W = gauged(W, g)
        for a in range(1, 8):
            got = outcome(right_point, W, a)
            assert got == outcome(right_point_oracle, W, a) == outcome(right_point_minor_oracle, W, a)
            if a == 5:
                assert got == (True, "cut flag not transversal to the opposite boundary flag")
            else:
                assert isinstance(got, RatMatrix)


def fat_shape(n: int, half: bool) -> SkewDiagram:
    """The staircase's k and w = n - k, lambda the full k x w rectangle, and mu empty or, for the
    half-filled shape, mu_j = max(w // 2 - j, 0)."""
    k = (3 * n + 7) // 8
    w = n - k
    mu = tuple(max(w // 2 - j, 0) for j in range(1, k + 1)) if half else ()
    return SkewDiagram(n, k, Partition((w,) * k), Partition(mu))


def chart_of_a_fresh_tableau(P) -> bool:
    """P's kept chart equals the greedy tableau of its matrix (``_necklace_tableau``): T / D entry by
    entry, |D|, the basis and the contents."""
    T, D, basis, g = P._memo["chart"]
    fresh, D_fresh, fresh_basis, _, contents = _necklace_tableau(P.matrix, range(P.diagram.n - 1, -1, -1))
    return (abs(D) == abs(D_fresh) and basis == fresh_basis and g == contents
            and len(T) == len(fresh) and all(x * D_fresh == y * D for r, f in zip(T, fresh) for x, y in zip(r, f)))


def right_outcome(build, V, a):
    """The right factor's matrix, or the error ``Cut.at`` turns its build into: (type name, message)."""
    try:
        return build(V, a).matrix
    except OffVariety:
        return "InvariantError", "right factor fails membership"
    except (InvariantError, ValueError) as exc:
        return type(exc).__name__, str(exc)


class TestFactorChartOracle:
    """Both factors of a cut are built on charts derived from V's (``PointV.restrict`` and
    ``PointV.reframe``), against the greedy tableau of each factor's matrix and the fresh build
    (``left_point_oracle``, ``frame_point_oracle`` on the same frame C)."""

    @staticmethod
    def cuts(V) -> int:
        d, count = V.diagram, 0
        for a in range(1, d.n - d.k + 1):
            if not in_U_a(V, a):
                continue
            c = Cut.at(V, a)
            assert c.left == left_point_oracle(V, a), (d, a)
            assert c.right == frame_point_oracle(V, c.right.diagram, V.cut_columns(a)), (d, a)
            for P in (c.left, c.right):
                assert chart_of_a_fresh_tableau(P), (d, a)
                assert P == PointV(P.diagram, P.matrix, P.seed), (d, a)
            count += 1
        return count

    def test_every_cut_up_to_n6(self):
        assert sum(self.cuts(sample(d, seed=1)) for d in all_skew_diagrams(6)) == 1707

    @pytest.mark.parametrize("n", [32, 64])
    def test_staircase_in_two_gauges(self, n):
        """The sampled point and a copy in a gauge whose contents at I_mu are not 1; at n = 64 the
        copy's tableau has D < 0, so the right chart's forward substitution runs with sign(D) = -1.  An
        L D U gauge pivots its rows in order, with D > 0, so rows 0 and 1 of one swap and the new row 0 is
        negated, which keeps det 1."""
        d = staircase(n)
        V = sample(d, seed=1)
        g = det_one_matrix(random.Random(n), d.k)
        g[0], g[1] = [-x for x in g[1]], g[0]
        W = gauged(V, g)
        assert any(h != 1 for h in (W._memo["chart"][3][b - 1] for b in d.I_mu()))
        assert (W._memo["chart"][1] < 0) == (n == 64)
        assert self.cuts(V) and self.cuts(W)

    @pytest.mark.parametrize("n", [16, 24])
    @pytest.mark.parametrize("half", [False, True])
    def test_fat_shapes(self, n, half):
        """The rectangle and the half-filled shape, whose chart blocks are up to k x k."""
        assert self.cuts(sample(fat_shape(n, half), seed=1))

    def test_a_broken_frame_fails_as_the_fresh_build(self, monkeypatch):
        """A frame changed below its diagonal puts the right factor off its variety, and a diagonal
        entry that g_{b_i} does not divide breaks its gauge: the derived chart raises what the fresh
        build raises on the same frame, and ``Cut.at`` turns the first into an InvariantError."""
        d, a = staircase(20), 3
        W = gauged(sample(d, seed=1), det_one_matrix(random.Random(20), d.k))
        g = W._memo["chart"][3]
        i = next(i for i, b in enumerate(d.I_mu()) if g[b - 1] > 1)
        right, frame = d.cut(a)[1], PointV.cut_columns
        assert in_U_a(W, a) and right_outcome(right_point, W, a) == right_point_minor_oracle(W, a).matrix
        outcomes = []
        for column, row in ((0, 1), (i, i)):
            def broken(P, a):
                C = [list(c) for c in frame(P, a)]
                C[column][row] += 1
                return [tuple(c) for c in C]

            monkeypatch.setattr(PointV, "cut_columns", broken)
            want = right_outcome(lambda V, a: frame_point_oracle(V, right, V.cut_columns(a)), W, a)
            assert right_outcome(right_point, W, a) == want
            with pytest.raises(InvariantError if want[0] == "InvariantError" else ValueError, match=re.escape(want[1])):
                Cut.at(W, a)
            outcomes.append(want)
        assert outcomes == [("InvariantError", "right factor fails membership"),
                            ("ValueError", "Delta_{I_mu} != 1; use PointV.from_matrix to re-gauge")]

    def test_an_inexact_chart_division_raises(self, monkeypatch):
        """``reframe`` divides exactly on V's chart whatever the frame, since each entry it derives is a minor of
        the factor's primitive columns.  With one entry of V's kept chart off by one, a division by the product of
        the frame's contents leaves a remainder, and ``reframe`` raises explicitly, so also under ``python -O``."""
        d, a = staircase(12), 2
        W = gauged(sample(d, seed=1), det_one_matrix(random.Random(12), d.k))
        right, C = d.cut(a)[1], W.cut_columns(a)
        assert W.reframe(right, C) == right_point(W, a)
        T, *rest = W._memo["chart"]
        monkeypatch.setitem(W._memo, "chart", ([[T[0][0] + 1, *T[0][1:]], *T[1:]], *rest))
        with pytest.raises(InvariantError, match="^a derived chart entry is not an integer$"):
            W.reframe(right, C)

    def test_right_diagram_must_carry_the_cut_labels(self, running, monkeypatch):
        """A right diagram whose I_mu is not the cut's boundary labels is refused before its factor is built."""
        V, cut = sample(running, seed=1), SkewDiagram.cut
        monkeypatch.setattr(SkewDiagram, "cut", lambda d, a: cut(d, a + 1))
        with pytest.raises(InvariantError, match="^cut boundary labels disagree with the right diagram$"):
            right_point(V, 2)

    def test_off_pattern_chart_is_rejected_before_the_walk(self, monkeypatch, intro):
        """A derived chart with T[r][t] != 0 for a column t off I_mu after b_r says the greedy basis is
        not I_mu: the point is off its variety, and no necklace walk runs on that chart."""
        L = Cut.at(sample(intro, seed=16), 6).left
        T, D, basis, g = L._memo["chart"]
        r, t = next((r, t) for r, b in enumerate(basis) for t in range(b + 1, L.diagram.n) if t not in basis)
        bad = [list(row) for row in T]
        bad[r][t] += D
        walks, walk = [], skewpos.variety._walk
        monkeypatch.setattr(skewpos.variety, "_walk", lambda *args: walks.append(args) or walk(*args))
        with pytest.raises(OffVariety, match="^point does not lie on the variety of its diagram$"):
            PointV(L.diagram, L.matrix, L.seed, (bad, D, basis, g))
        assert walks == []
        assert PointV(L.diagram, L.matrix, L.seed, (T, D, basis, g)) == L and len(walks) == 1

    def test_all_cuts_keep_the_levels_above_on_the_point(self, monkeypatch):
        """After every cut of V its memo holds the chart, the states of its necklace walk, the seed, the
        cut levels above lambda_bar_a and the texts its factors take, out of its eq, hash and repr; the cuts
        resume V's walk and neither extend nor rewrite its states; a second sweep reads only the walk up each
        column a on V."""
        d = staircase(20)
        V, W = sample(d, seed=1), sample(d, seed=1)
        h, text = hash(V), repr(V)
        columns = [a for a in range(1, d.n - d.k + 1) if in_U_a(V, a)]
        steps = list(V._memo["walk"])
        for a in columns:
            splice_report(V, a)
        assert set(V._memo) == {"chart", "walk", "seed", "cut", "texts"} and set(W._memo) == {"chart", "walk"}
        assert V._memo["walk"] == steps == W._memo["walk"]  # the states of V's one walk, as it left them
        assert set(V._memo["cut"]) == {i for a in columns for i in range(d.lambda_bar[a] + 1, d.k + 1)}
        assert V == W and hash(V) == hash(W) == h and repr(V) == repr(W) == text
        passes, walk = [], skewpos.variety._prefix_walk
        monkeypatch.setattr(skewpos.variety, "_prefix_walk", lambda *args: passes.append(args) or walk(*args))
        for a in columns:
            splice_report(V, a)
        assert [(c, top) for chart, _, c, top, *_ in passes if chart is V._memo["chart"]] == [
            (a, d.lambda_bar[a]) for a in columns]


def entry_texts(M: RatMatrix) -> list[list[str]]:
    """Each entry of M as the text ``str`` writes of its Fraction, entry by entry."""
    return [[quotient_to_str(x, M.den) if x and M.den > 1 else str(x) for x in row] for row in M.num]


class TestFactorMatrixOracle:
    """A cut's factors take V's integer columns, V's contents and V's texts as V holds them (``PointV.restrict``,
    ``PointV.reframe``): each factor's matrix is the one the public constructor reduces to lowest terms, field for
    field, its chart contents are its columns' contents, and its JSON is the text of each of its entries."""

    @staticmethod
    def cuts(V) -> int:
        d, count = V.diagram, 0
        assert V.to_json()["matrix"] == entry_texts(V.matrix)
        for a in range(1, d.n - d.k + 1):
            if not in_U_a(V, a):
                continue
            for P in (left_point(V, a), right_point(V, a)):
                fresh = RatMatrix(P.matrix.num, P.matrix.den)
                assert (P.matrix.num, P.matrix.den) == (fresh.num, fresh.den), (d, a)
                assert all(type(r) is tuple for r in P.matrix.num), (d, a)
                assert P._memo["chart"][3] == [gcd(*c) for c in zip(*P.matrix.num)], (d, a)
                assert P.to_json()["matrix"] == entry_texts(P.matrix), (d, a)
            count += 1
        return count

    @staticmethod
    def both_gauges(d, seed=1):
        """The sampled point and a copy in a det_one_matrix gauge, whose den is over 1."""
        V = sample(d, seed=seed)
        return V, gauged(V, det_one_matrix(random.Random(d.n * 100 + d.k), d.k))

    def test_every_cut_up_to_n7(self):
        counts = [self.cuts(P) for d in all_skew_diagrams(7) for P in self.both_gauges(d)]
        assert sum(counts[::2]) == sum(counts[1::2]) == 6705

    @pytest.mark.parametrize("n", [32, 64, 128])
    def test_staircase(self, n):
        V, W = self.both_gauges(staircase(n))
        assert V.matrix.den == 1 < W.matrix.den
        assert self.cuts(V) == self.cuts(W) > 0


class TestResumedWalkOracle:
    """The left factor's necklace walk resumes V's (``PointV.restrict``) at the first exchange that enters a
    column the factor drops, or, where there is none, takes V's whole window and runs no exchange: the window
    it ends with equals the full walk (``_walk``) and the eager walk (``walk_oracle``) on the factor's own
    chart."""

    @pytest.fixture
    def walks(self, monkeypatch):
        """(arguments, window) of every necklace walk run while the test runs."""
        calls, walk = [], skewpos.variety._walk
        monkeypatch.setattr(skewpos.variety, "_walk", lambda *args: calls.append((args, walk(*args))) or calls[-1][1])
        return calls

    @staticmethod
    def lefts(V, walks, columns=None) -> tuple[int, int]:
        """(cuts, resumed walks) over the on-chart cuts of V at ``columns`` (default all); every left factor of a
        point built from its matrix resumes V's walk, and none of a factor's."""
        d, cuts, resumed = V.diagram, 0, 0
        for a in columns or range(1, d.n - d.k + 1):
            if not in_U_a(V, a):
                continue
            walks.clear()
            L = left_point(V, a)
            [((T, D, basis, n, start, steps), window)] = walks
            assert (start is not None) == (V._memo["walk"] is not None), (d, a)
            assert steps is None and n == L.diagram.n, (d, a)
            assert window == _walk(T, D, basis, n) == walk_oracle(T, D, basis, n) == baf(L.diagram).window, (d, a)
            cuts, resumed = cuts + 1, resumed + (start is not None)
        return cuts, resumed

    def test_every_cut_up_to_n7(self, walks):
        counts = [self.lefts(sample(d, seed=1), walks) for d in all_skew_diagrams(7)]
        assert [sum(c) for c in zip(*counts)] == [6705, 6705]

    @pytest.mark.parametrize("n", [32, 64, 128])
    def test_staircase(self, walks, n):
        """On the sampled point, and at n = 32 on the same point built by ``PointV.from_matrix``."""
        V = sample(staircase(n), seed=1)
        for P in [V, PointV.from_matrix(V.diagram, other_gauge(V), V.seed)] if n == 32 else [V]:
            cuts, resumed = self.lefts(P, walks)
            assert cuts == resumed > 0

    def test_a_factor_s_own_cuts_walk_from_the_top(self, walks):
        """A factor, built on a chart derived from V's, records no walk states, so the left factors of its own
        cuts walk from the top."""
        V = sample(staircase(32), seed=1)
        for P in (left_point(V, 5), right_point(V, 5)):
            assert P._memo["walk"] is None
            cuts, resumed = self.lefts(P, walks)
            assert cuts > 0 and resumed == 0

    def test_the_left_factor_at_column_1_is_v(self, monkeypatch, walks, intro):
        """At a = 1 the factor keeps every column, so the whole walk is shared: it takes V's window at top -1,
        runs no exchange, and the factor is V."""
        V = sample(intro, seed=16)
        assert self.lefts(V, walks, [1]) == (1, 1)
        [((*_, start, _), _)] = walks
        exchanges, pivot = [], skewpos.variety._pivot
        monkeypatch.setattr(skewpos.variety, "_pivot", lambda *args: exchanges.append(args) or pivot(*args))
        assert start[0] == -1 and left_point(V, 1) == V and exchanges == []

    def test_a_restriction_that_diverges_at_the_first_exchange(self, walks):
        """V's first exchange enters column 3, which the left factor at a = 4 drops: the factor's walk
        resumes V's at the step of that exchange, before any exchange."""
        d = SkewDiagram(7, 3, Partition((3, 3, 3)), Partition((1, 1, 1)))
        V, columns = sample(d, seed=1), [*d.I_mu()[:d.mu_bar[4]], *range(4 + d.mu_bar[4], d.n + 1)]
        j, i = V._memo["walk"][0][:2]
        assert j + 1 == 3 and 3 not in columns
        assert self.lefts(V, walks, [4]) == (1, 1)
        [((*_, start, _), _)] = walks
        assert start[0] == columns.index(i + 1)


class TestSeedReads:
    """The cut reads box minors off the seeds of V and of the right factor."""

    def test_every_cut_up_to_n6(self):
        """Chart label, A-factors (``Cut.A`` against ``A_factor_oracle``) and both sides of the minor
        scaling equal the minors they read."""
        on_chart = 0
        for d in all_skew_diagrams(6):
            V = sample(d, seed=1)
            for a in range(1, d.n - d.k + 1):
                labels = [d.long_label(a, i) for i in range(d.mu_bar[a] + 1, d.lambda_bar[a] + 1)]
                label = next((J for J in labels if V.delta(J) == 0), None)
                assert _vanishing_chart_label(V, a) == label, (d, a)
                if label is not None:
                    continue
                c = Cut.at(V, a)
                for t in range(a + d.mu_bar[a], a + d.lambda_bar[a]):
                    i = t - a
                    upper = d.I_mu() if i == d.mu_bar[a] else d.long_label(a, i)
                    want = V.delta(upper) / V.delta(d.long_label(a, i + 1))
                    assert A_factor_oracle(V, a, t) == c.A[t] == want, (d, a, t)
                # the table holds the window alone; the oracle's factor is 1 outside it
                assert set(c.A) == set(range(a + d.mu_bar[a], a + d.lambda_bar[a])), (d, a)
                assert all(A_factor_oracle(V, a, t) == 1 for t in range(0, d.n + 2) if t not in c.A), (d, a)
                R = c.right.diagram
                for box in R.boxes():
                    assert c.right_seed.value(box) == c.right.delta(R.long_label(box.a, box.i))
                    assert c.seed.value(box) == V.delta(d.long_label(box.a, box.i))
                assert verify_minor_scaling(c) == []
                on_chart += 1
        assert on_chart == 1707  # seed 1 puts every cut on its chart


def box_minors(P, minor_of) -> tuple:
    """(box, minor at its long label) for every box of P's diagram, in the quiver's vertex order."""
    d = P.diagram
    return tuple((b, minor_of(d.long_label(b.a, b.i))) for b in d.boxes())


class TestSeedOracle:
    """``seed_at``, read off the chart block of each label prefix, against one ``chart_minor_oracle``
    per box, whose quiver is built on a fresh copy of the diagram.  That oracle reads the same chart,
    so the values are also compared with k x k determinants of the point's columns."""

    def test_every_cut_up_to_n6(self):
        """V and both factors of every cut of every skew diagram with n <= 6: values and quiver."""
        factors = 0
        for d in all_skew_diagrams(6):
            V = sample(d, seed=1)
            assert seed_at(V) == seed_at_delta_oracle(V), d
            for a in range(1, d.n - d.k + 1):
                c = Cut.at(V, a)
                for P in (c.left, c.right):
                    assert seed_at(P) == seed_at_delta_oracle(P), (d, a)
                    assert seed_at(P).values == box_minors(P, lambda J: delta_oracle(P, J)), (d, a)
                    factors += 1
        assert factors == 2 * 1707

    @pytest.mark.parametrize("n", [32, 64])
    def test_staircase_in_two_gauges(self, n):
        """V, a copy in a gauge whose columns at I_mu carry contents g_{b_i} != 1, and both factors
        of every on-chart cut of each."""
        d = staircase(n)
        V = sample(d, seed=1)
        W = gauged(V, det_one_matrix(random.Random(n), d.k))
        assert any(h != 1 for h in (W._memo["chart"][3][b - 1] for b in d.I_mu()))
        assert seed_at(V).values == box_minors(V, lambda J: minor(V.matrix, J))
        for P in (V, W):
            assert seed_at(P) == seed_at_delta_oracle(P)
            assert seed_at(P).values == seed_at(V).values  # det g = 1: the same minors
            columns = [a for a in range(1, d.n - d.k + 1) if in_U_a(P, a)]
            assert columns
            for a in columns:
                c = Cut.at(P, a)
                for F in (c.left, c.right):
                    assert seed_at(F) == seed_at_delta_oracle(F), (n, a)

    @pytest.mark.parametrize("n", [16, 24])
    @pytest.mark.parametrize("half", [False, True])
    def test_fat_shapes_in_two_gauges(self, n, half):
        """The rectangle and the half-filled shape, whose walks run down blocks of up to k rows: V, a copy
        in a det_one_matrix gauge, and both factors of every on-chart cut of each."""
        d = fat_shape(n, half)
        V = sample(d, seed=1)
        for P in (V, gauged(V, det_one_matrix(random.Random(n), d.k))):
            assert seed_at(P) == seed_at_delta_oracle(P)
            assert seed_at(P).values == seed_at(V).values
            for a in (a for a in range(1, d.n - d.k + 1) if in_U_a(P, a)):
                c = Cut.at(P, a)
                for F in (c.left, c.right):
                    assert seed_at(F) == seed_at_delta_oracle(F), (n, half, a)

    def test_off_the_cluster_torus(self):
        """The n = 11 point of ``test_exchange_ratios_off_the_cluster_torus``, where values vanish."""
        V = sample(SkewDiagram(11, 8, Partition((3, 3, 2, 2)), Partition(())), subseed(276030479, "point", 0))
        c = Cut.at(V, 1)
        seeds = [seed_at(P) for P in (V, c.left, c.right)]
        assert seeds == [seed_at_delta_oracle(P) for P in (V, c.left, c.right)]
        assert [s.values for s in seeds] == [box_minors(P, lambda J: delta_oracle(P, J)) for P in (V, c.left, c.right)]
        assert seeds[0].value(BoxRef(3, 1)) == 0


def column_reads(P) -> tuple:
    """``PointV.column_minors`` of every column of P's diagram, against ``box_minor_oracle`` box by box."""
    d = P.diagram
    got = [x for a in range(1, d.n - d.k + 1) for x in P.column_minors(a)]
    return got, [box_minor_oracle(P, b.a, b.i) for b in d.boxes()]


class TestColumnMinorsOracle:
    """``PointV.column_minors``, one walk up each column, against the per-box chart reader it
    replaced, which builds the block of each label prefix from nothing."""

    def test_every_cut_up_to_n6(self):
        """V and both factors of every cut of every skew diagram with n <= 6."""
        points = 0
        for d in all_skew_diagrams(6):
            V = sample(d, seed=1)
            got, want = column_reads(V)
            assert got == want, d
            for a in range(1, d.n - d.k + 1):
                c = Cut.at(V, a)
                for P in (c.left, c.right):
                    got, want = column_reads(P)
                    assert got == want, (d, a)
                    points += 1
        assert points == 2 * 1707

    @pytest.mark.parametrize("n", [32, 64])
    def test_staircase_in_two_gauges(self, n):
        """The sampled point, a copy in a gauge whose columns at I_mu carry contents g_{b_i} != 1,
        and both factors of every on-chart cut of each."""
        d = staircase(n)
        V = sample(d, seed=1)
        W = gauged(V, det_one_matrix(random.Random(n), d.k))
        assert any(h != 1 for h in (W._memo["chart"][3][b - 1] for b in d.I_mu()))
        for P in (V, W):
            got, want = column_reads(P)
            assert got == want == [x for _, x in seed_at(V).values]
            columns = [a for a in range(1, d.n - d.k + 1) if in_U_a(P, a)]
            assert columns
            for a in columns:
                c = Cut.at(P, a)
                for F in (c.left, c.right):
                    got, want = column_reads(F)
                    assert got == want, (n, a)

    def test_off_the_cluster_torus(self):
        """The n = 11 point of ``test_exchange_ratios_off_the_cluster_torus``, where values vanish."""
        d = SkewDiagram(11, 8, Partition((3, 3, 2, 2)), Partition(()))
        V = sample(d, subseed(276030479, "point", 0))
        c = Cut.at(V, 1)
        for P in (V, c.left, c.right):
            got, want = column_reads(P)
            assert got == want
        assert V.column_minors(3)[0] == box_minor_oracle(V, 3, 1) == 0

    @pytest.mark.parametrize("n", [16, 24])
    @pytest.mark.parametrize("half", [False, True])
    def test_fat_shapes_in_two_gauges(self, n, half):
        """The rectangle and the half-filled shape, whose walks run down blocks of up to k rows: the sampled
        point, a copy in a det_one_matrix gauge, and both factors of every on-chart cut of each."""
        d = fat_shape(n, half)
        V = sample(d, seed=1)
        for P in (V, gauged(V, det_one_matrix(random.Random(n), d.k))):
            got, want = column_reads(P)
            assert got == want == [x for _, x in seed_at(V).values]
            for a in (a for a in range(1, d.n - d.k + 1) if in_U_a(P, a)):
                c = Cut.at(P, a)
                for F in (c.left, c.right):
                    got, want = column_reads(F)
                    assert got == want, (n, half, a)

    def test_off_the_cluster_torus_fat_point(self):
        """A bound-1 point of the n = 16 rectangle whose column 3 has a zero level below a nonzero one: the
        walk stops at level 5 and reads level 6 off a tableau."""
        V = sample(fat_shape(16, False), 1, bound=1)
        got, want = column_reads(V)
        assert got == want
        assert [x != 0 for x in V.column_minors(3)] == [True] * 4 + [False, True]


class TestExchangeRatioOracle:
    """``verify_exchange_ratios`` on integer products against the Fraction version."""

    def test_mutant_cut(self, monkeypatch, intro):
        """One right-factor seed value scaled by 2: the same violations, texts included."""
        V, a, box = sample(intro, seed=16), 6, BoxRef(4, 1)
        right, real = intro.cut(a)[1], skewpos.splicing.seed_at
        assert quiver(right).is_mutable(box)

        def scaled(P):
            s = real(P)
            if P.diagram is not right:
                return s
            return Seed(s.quiver, tuple((b, 2 * x if b == box else x) for b, x in s.values))

        monkeypatch.setattr(skewpos.splicing, "seed_at", scaled)
        c = Cut.at(V, a)
        got = verify_exchange_ratios(c)
        assert got and got == verify_exchange_ratios_oracle(c)
        assert [(v["side"], v["box"]) for v in got] == [("right", [3, 1]), ("right", [4, 2])]  # box's neighbours

    def test_off_the_cluster_torus(self):
        V = sample(SkewDiagram(11, 8, Partition((3, 3, 2, 2)), Partition(())), subseed(276030479, "point", 0))
        c = Cut.at(V, 1)
        assert verify_exchange_ratios(c) == verify_exchange_ratios_oracle(c) == []

    @pytest.mark.parametrize("n", [12, 20])
    def test_rational_seeds(self, n):
        """Every on-chart cut of a staircase point whose columns off I_mu carry random rational
        scales, so that every denominator of the products takes part."""
        d, rng = staircase(n), random.Random(n)
        U = sample(d, seed=1)
        scales = [1 if t in d.I_mu() else Fraction(rng.choice([-3, -2, 1, 2, 5]), rng.randint(1, 7))
                  for t in range(1, d.n + 1)]
        V = PointV(d, from_qcols(vec_scale(x, qcol(U, t)) for t, x in zip(range(1, d.n + 1), scales)))
        assert any(x.denominator > 1 for _, x in seed_at(V).values)
        columns = [a for a in range(1, d.n - d.k + 1) if in_U_a(V, a)]
        assert columns
        for a in columns:
            c = Cut.at(V, a)
            assert verify_exchange_ratios(c) == verify_exchange_ratios_oracle(c) == [], a


def cyclic_labels(d):
    """k column indices in -n+1..3n, unsorted and possibly repeated; about half lie at I_mu mod n."""
    column = st.one_of(st.sampled_from(d.I_mu()), st.integers(1, d.n))
    shifted = st.tuples(column, st.integers(-1, 2)).map(lambda c: c[0] + c[1] * d.n)
    return st.lists(shifted, min_size=d.k, max_size=d.k)


def box_labels(d):
    """The long label of every box, sorted and reversed."""
    for b in d.boxes():
        J = d.long_label(b.a, b.i)
        yield from (tuple(sorted(J)), tuple(sorted(J, reverse=True)))


class TestDeltaOracle:
    """``PointV.delta``, +-D of one ``_tableau`` of the k columns, and ``chart_minor_oracle``, the per-label
    reader of the I_mu chart it replaced, against the k x k determinant of the columns over Fraction."""

    @given(skew_diagrams(max_n=9), st.integers(1, 200), st.data())
    @settings(max_examples=40, deadline=None)
    def test_cyclic_unsorted_and_repeated_labels(self, d, seed, data):
        V = sample(d, seed=seed)
        for J in [data.draw(cyclic_labels(d)) for _ in range(10)] + list(box_labels(d)):
            assert V.delta(J) == chart_minor_oracle(V, J) == delta_oracle(V, J)

    @given(skew_diagrams(max_n=9), st.integers(1, 200), st.data())
    @settings(max_examples=40, deadline=None)
    def test_points_in_a_nonidentity_gauge(self, d, seed, data):
        V = sample(d, seed=seed)
        g = data.draw(det_one_matrices(d.k))
        assume(any(g[i][j] != (i == j) for i in range(d.k) for j in range(d.k)))
        W = gauged(V, g)  # columns at I_mu are g e_j, not unit vectors
        c = data.draw(GAUGE_ENTRIES.filter(lambda x: x not in (0, 1)))
        rows = qrows(W.matrix)
        P = PointV.from_matrix(d, RatMatrix.from_rationals((tuple(c * x for x in rows[0]),) + rows[1:]))
        for J in [data.draw(cyclic_labels(d)) for _ in range(10)] + list(box_labels(d)):
            assert W.delta(J) == chart_minor_oracle(W, J) == delta_oracle(W, J) == V.delta(J)
            assert P.delta(J) == chart_minor_oracle(P, J) == delta_oracle(P, J) == V.delta(J)

    @given(skew_diagrams(max_n=9), st.integers(1, 200), st.data())
    @settings(max_examples=30, deadline=None)
    def test_cut_factors(self, d, seed, data):
        V = gauged(sample(d, seed=seed), data.draw(det_one_matrices(d.k)))
        for a in range(1, d.n - d.k + 1):
            if not in_U_a(V, a):
                continue
            c = Cut.at(V, a)
            for P in (c.left, c.right):
                for J in [data.draw(cyclic_labels(P.diagram)) for _ in range(3)] + list(box_labels(P.diagram)):
                    assert P.delta(J) == chart_minor_oracle(P, J) == delta_oracle(P, J)

    def test_every_cut_factor_up_to_n6(self):
        """Both factors of every cut of every diagram with n <= 6: every k-subset, in increasing order
        and rotated by one with its first column shifted by n, and every seed value."""
        factors = 0
        for d in all_skew_diagrams(6):
            V = sample(d, seed=1)
            for a in range(1, d.n - d.k + 1):
                c = Cut.at(V, a)
                for P in (c.left, c.right):
                    n = P.diagram.n
                    for J in combinations(range(1, n + 1), P.diagram.k):
                        for L in (J, J[1:] + (J[0] + n,)):
                            assert P.delta(L) == chart_minor_oracle(P, L) == delta_oracle(P, L), (d, a, L)
                    seed = seed_at(P)
                    for b in P.diagram.boxes():
                        assert seed.value(b) == delta_oracle(P, P.diagram.long_label(b.a, b.i)), (d, a, b)
                    factors += 1
        assert factors == 2 * 1707

    def test_label_of_the_wrong_length_is_rejected(self, intro):
        V = sample(intro, seed=16)
        with pytest.raises(ValueError):
            V.delta(intro.I_mu()[1:])
