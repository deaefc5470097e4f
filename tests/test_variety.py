import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

from skewpos import (
    Partition,
    SkewDiagram,
    baf,
    f_of_point,
    membership,
    necklace,
    necklace_of_point,
    omega,
    sample,
    xi,
)
from skewpos.linalg import RatMatrix, unit_vector, vec_scale, zero_vector
from skewpos.variety import PointV, _normalize_r1

from conftest import necklace_entry_exhaustive, skew_diagrams


def identity_block(k, n):
    cols = [unit_vector(k, i) for i in range(1, k + 1)] + [zero_vector(k)] * (n - k)
    return RatMatrix.from_columns(cols)


class TestFOfPoint:
    def test_identity_block(self):
        f = f_of_point(identity_block(3, 7))
        assert f.window == (8, 9, 10, 4, 5, 6, 7)

    def test_zero_column_fixed_point(self):
        cols = [unit_vector(2, 1), zero_vector(2), unit_vector(2, 2)]
        f = f_of_point(RatMatrix.from_columns(cols))
        assert f(2) == 2

    def test_sampled_point(self, running):
        V = sample(running, seed=11)
        assert f_of_point(V.matrix).window == baf(running).window

    def test_rank_deficient(self):
        M = RatMatrix.from_columns([unit_vector(2, 1), unit_vector(2, 1), unit_vector(2, 1)])
        with pytest.raises(ValueError, match="rank"):
            f_of_point(M)


class TestNecklaceOfPoint:
    def test_identity_block(self):
        N = necklace_of_point(identity_block(3, 7))
        assert all(e == (1, 2, 3) for e in N.entries)

    def test_sampled_running(self, running):
        V = sample(running, seed=5)
        assert necklace_of_point(V.matrix).entries == necklace(running).entries

    def test_greedy_equals_exhaustive(self):
        rng = random.Random(12)
        for _ in range(12):
            k, n = rng.randint(1, 3), rng.randint(4, 7)
            M = RatMatrix(tuple(tuple(Fraction(rng.randint(-4, 4)) for _ in range(n))
                                for _ in range(k)))
            if M.rank() < k:
                continue
            N = necklace_of_point(M)
            for i in range(1, n + 1):
                assert N.entry(i) == necklace_entry_exhaustive(M, i)

    @given(skew_diagrams(max_n=9))
    @settings(max_examples=25, deadline=None)
    def test_greedy_equals_exhaustive_on_variety(self, d):
        V = sample(d, seed=23)
        N = necklace_of_point(V.matrix)
        for i in range(1, d.n + 1):
            assert N.entry(i) == necklace_entry_exhaustive(V.matrix, i)


class TestMembership:
    def test_sampler_output(self, running):
        V = sample(running, seed=7)
        assert membership(V.matrix, running)

    def test_dense_matrix_not_member(self, running):
        rng = random.Random(3)
        M = RatMatrix(tuple(tuple(Fraction(rng.randint(1, 50)) for _ in range(12))
                            for _ in range(5)))
        assert not membership(M, running)

    def test_ribbon_minor_vanishing_breaks_membership(self, running):
        V = sample(running, seed=9)
        # zero out a column that a ribbon minor needs: necklace entry changes
        cols = V.matrix.columns()
        cols[0] = zero_vector(5)
        assert not membership(RatMatrix.from_columns(cols), running)


class TestSample:
    def test_empty_skew(self):
        d = SkewDiagram(8, 3, Partition((4, 2)), Partition((4, 2)))
        V = sample(d, seed=1)
        for j, b in enumerate(d.I_mu(), start=1):
            assert V.matrix.column(b) == unit_vector(3, j)
        for t in range(1, 9):
            if t not in d.I_mu():
                assert V.matrix.column(t) == zero_vector(3)

    def test_one_box_cell(self):
        d = SkewDiagram(2, 1, Partition((1,)), Partition())
        V = sample(d, seed=4)
        c = V.matrix.rows[0][0]
        assert c != 0 and V.matrix.rows[0][1] == 1

    def test_all_necklace_minors_nonzero(self, running):
        V = sample(running, seed=1, bound=100)
        N = necklace(running)
        for i, entry in enumerate(N.entries, start=1):
            assert V.delta(entry) != 0

    def test_free_parameter_count(self, running):
        mu_bar, lambda_bar = running.mu_bar[1:], running.lambda_bar[1:]
        assert sum(l - m for m, l in zip(mu_bar, lambda_bar)) == running.size()

    def test_determinism(self, running):
        assert sample(running, seed=42).matrix == sample(running, seed=42).matrix

    def test_normalize_r1(self, running):
        V = sample(running, seed=6, normalize_r1=True)
        for box in running.ribbon().R1:
            assert V.delta(running.long_label(box.a, box.i)) == 1
        assert membership(V.matrix, running)

    @given(skew_diagrams())
    @settings(max_examples=40, deadline=None)
    def test_membership_random(self, d):
        V = sample(d, seed=17)
        assert membership(V.matrix, d)
        assert V.delta(d.I_mu()) == 1
        assert V.delta(d.I_lambda()) != 0


class TestPointV:
    def test_regauge(self, running):
        V = sample(running, seed=2)
        scaled = RatMatrix(tuple(tuple(3 * e for e in row) for row in V.matrix.rows))
        W = PointV.from_matrix(running, scaled)
        assert W.delta(running.I_mu()) == 1
        for j, b in enumerate(running.I_mu(), start=1):
            assert W.matrix.column(b) == unit_vector(5, j)

    def test_bad_gauge_rejected(self, running):
        V = sample(running, seed=2)
        scaled = RatMatrix(tuple(tuple(3 * e for e in row) for row in V.matrix.rows))
        with pytest.raises(ValueError, match="re-gauge"):
            PointV(running, scaled)

    def test_json_roundtrip(self, running):
        V = sample(running, seed=2)
        assert PointV.from_json(V.to_json()).matrix == V.matrix

    def test_cyclic_column_sign(self, running):
        V = sample(running, seed=2)
        assert V.column(1 + 12) == V.column(1)  # (-1)^{k-1} with k = 5


class TestOmega:
    def test_right_flag_running(self, running):
        V = sample(running, seed=13)
        L = omega(V)
        expected = [(1,), (1, 2), (1, 2, 5), (1, 2, 5, 8), (1, 2, 5, 8, 11)]
        for j, cols in enumerate(expected, start=1):
            span = L.right_flag.step(j)
            for t in cols:
                assert span.contains_vector(V.column(t))

    def test_region_equality_running(self, running):
        V = sample(running, seed=13)
        assert V.subspace(5, 4) == V.subspace(6, 4)

    def test_region_conditions(self, running):
        omega(sample(running, seed=14))  # raises on any violated region condition

    def test_empty_skew(self):
        d = SkewDiagram(8, 3, Partition((4, 2)), Partition((4, 2)))
        L = omega(sample(d, seed=1))
        assert L.regions == () and L.torus == ()

    def test_torus_values_nonzero(self, running):
        L = omega(sample(running, seed=15))
        assert all(c != 0 for _, c in L.torus)

    def test_v_in_W(self, running):
        V = sample(running, seed=16)
        for a in range(1, 8):
            mu_bar = running.mu_bar[a]
            assert V.W(running.k - mu_bar).contains_vector(V.column(a + mu_bar))


class TestXi:
    def test_roundtrip(self, running):
        V = sample(running, seed=21)
        assert xi(omega(V)).matrix == V.matrix

    @given(skew_diagrams())
    @settings(max_examples=25, deadline=None)
    def test_roundtrip_random(self, d):
        V = sample(d, seed=31)
        assert xi(omega(V)).matrix == V.matrix

    def test_omega_after_xi(self, running):
        L = omega(sample(running, seed=24))
        M = omega(xi(L))
        assert M.regions == L.regions
        assert M.boundary_basis == L.boundary_basis
        assert M.right_flag == L.right_flag
        assert M.torus == L.torus

    def test_unit_torus_gives_r1_slice(self, running):
        V = sample(running, seed=22)
        L = omega(V)
        for box, _ in L.torus:
            L = L.with_torus(box.a, Fraction(1))
        W = xi(L)
        assert membership(W.matrix, running)
        for box in running.ribbon().R1:
            assert W.delta(running.long_label(box.a, box.i)) == 1
        assert W.matrix == _normalize_r1(V).matrix

    def test_perturb_torus_column_one(self, running):
        V = sample(running, seed=25)
        L = omega(V)
        W = xi(L.with_torus(1, Fraction(7) * L.torus_value(1)))
        t0 = 1 + running.mu_bar[1]
        for t in range(1, 13):
            if t == t0:
                assert W.matrix.column(t) == vec_scale(Fraction(7), V.matrix.column(t))
            else:
                assert W.matrix.column(t) == V.matrix.column(t)

    def test_perturb_any_torus_keeps_membership(self, running):
        V = sample(running, seed=26)
        L = omega(V)
        for box, c in L.torus:
            W = xi(L.with_torus(box.a, 5 * c))
            assert membership(W.matrix, running)
