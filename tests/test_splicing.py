import random
from itertools import combinations

import pytest

from skewpos import (
    A_factor,
    BoxRef,
    Cut,
    Partition,
    SkewDiagram,
    beta,
    chart_is_everything,
    exchange_products,
    exchange_ratio,
    flag_at_cut,
    in_U_a,
    left_point,
    membership,
    phi,
    right_point,
    sample,
    seed_at,
    splice_report,
    transversal,
    verify_exchange_ratios,
    verify_minor_scaling,
)
from skewpos.cli import random_diagram, subseed
from skewpos.linalg import Subspace, det, vec_add, vec_scale, vec_sub


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
            assert F.step(j) == Subspace.span(5, [V.column(t) for t in cols])

    def test_transversality_iff_chart(self, running):
        for seed in range(4, 10):
            V = sample(running, seed=seed)
            for a in range(1, 8):
                assert in_U_a(V, a) == transversal(flag_at_cut(V, a), V.flag_W())

    def test_boundary_column(self, running):
        V = sample(running, seed=5)
        F = flag_at_cut(V, 1)
        assert F.step(running.k).dim == running.k

    def test_transversality_iff_chart_random(self):
        for t in range(15):
            rng = random.Random(subseed(41, "diagram", t))
            d = random_diagram(rng, max_n=9)
            V = sample(d, seed=subseed(41, "pt", t))
            for a in range(1, d.n - d.k + 1):
                assert in_U_a(V, a) == transversal(flag_at_cut(V, a), V.flag_W())

    def test_intersection_dimension_running(self, running):
        V = sample(running, seed=30)
        inter = V.subspace(6, 4).intersect(V.W(2))
        assert inter.dim == 1
        assert inter.contains_vector(V.column(9))


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
            assert [L.matrix.column(j) for j in range(1, 8)] == [
                V.column(t) for t in (5, 7, 8, 9, 10, 11, 12)
            ]
            assert L.delta(L.diagram.I_mu()) == 1

    def test_u7(self, intro):
        V = sample(intro, seed=7)
        assert in_U_a(V, 6)
        R = right_point(V, 6)
        assert R.matrix.column(7) == vec_scale(1 / V.delta((5, 7, 10, 11, 12)), V.column(7))

    def test_u8(self, intro):
        V = sample(intro, seed=7)
        R = right_point(V, 6)
        c1 = V.delta((5, 7, 8, 10, 12)) / V.delta((5, 7, 8, 11, 12))
        c2 = V.delta((5, 7, 8, 11, 10)) / V.delta((5, 7, 8, 11, 12))
        expected = vec_sub(vec_sub(V.column(10), vec_scale(c1, V.column(11))),
                           vec_scale(c2, V.column(12)))
        assert R.matrix.column(8) == expected

    def test_u9(self, intro):
        V = sample(intro, seed=7)
        R = right_point(V, 6)
        c = V.delta((5, 7, 8, 11, 9)) / V.delta((5, 7, 8, 9, 12))
        assert R.matrix.column(9) == vec_add(V.column(11), vec_scale(c, V.column(12)))

    def test_boundary_and_interior_columns(self, intro):
        V = sample(intro, seed=7)
        R = right_point(V, 6)
        for t in (1, 2, 3, 4, 5, 6):
            assert R.matrix.column(t) == V.column(t)
        assert R.matrix.column(10) == V.column(12)

    def test_running_u9_proportional(self, running):
        V = sample(running, seed=8)
        assert in_U_a(V, 6)
        R = right_point(V, 6)
        ratio = V.delta((5, 6, 8, 11, 12)) / V.delta((5, 6, 8, 9, 12))
        assert R.matrix.column(9) == vec_scale(ratio, V.column(9))

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
        assert A_factor(V, 6, 3) == 1
        assert A_factor(V, 6, 12) == 1

    def test_window_start(self, intro):
        V = sample(intro, seed=9)
        a = 6
        i = intro.mu_bar[a] + 1
        t = a + intro.mu_bar[a]
        assert A_factor(V, a, t) == 1 / V.delta(intro.long_label(a, i))

    def test_brute_ratio(self, intro):
        V = sample(intro, seed=10)
        a = 6
        for i in range(intro.mu_bar[a] + 2, intro.lambda_bar[a] + 1):
            t = a + i - 1
            assert A_factor(V, a, t) == V.delta(intro.long_label(a, i - 1)) / V.delta(
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
            diff = vec_sub(R.matrix.column(p), vec_scale(A_factor(V, a, p), V.column(p)))
            assert Subspace.span(k, spanning).contains_vector(diff)

    def test_wedge_identity(self, intro):
        # the trailing column blocks of the right point and of V span the same
        # volume: every maximal minor of the two blocks agrees
        V = sample(intro, seed=12)
        a = 6
        R = Cut.at(V, a).right
        k = intro.k
        for i in range(1, k + 1):
            ublock = [R.matrix.column(b) for b in R.diagram.I_mu()[i - 1:]]
            vblock = [V.column(b) for b in intro.I_mu()[i - 1:]]
            w = k - i + 1
            for rows in combinations(range(k), w):
                mu_minor = det([[ublock[c][r] for c in range(w)] for r in rows])
                mv_minor = det([[vblock[c][r] for c in range(w)] for r in rows])
                assert mu_minor == mv_minor


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
        with pytest.raises(ZeroDivisionError):
            exchange_ratio(c.seed, box)
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
        from conftest import intro_off_chart_point

        W = intro_off_chart_point()
        assert not in_U_a(W, 5)
        with pytest.raises(ValueError, match="chart"):
            Cut.at(W, 5)
        with pytest.raises(ValueError, match="chart"):
            phi(W, 5)
