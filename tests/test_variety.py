import os
import random
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from itertools import permutations
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import skewpos
from skewpos import (
    InvariantError,
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
from skewpos import variety
from skewpos.linalg import RatMatrix, _tableau
from skewpos.variety import BraidLabeling, OffVariety, PointV, _necklace_tableau, check_labeling

from conftest import (
    Subspace,
    W_span,
    all_skew_diagrams,
    check_labeling_oracle,
    det,
    det_one_matrix,
    echelon_oracle,
    from_qcols,
    gauged,
    intersect_oracle,
    membership_oracle,
    necklace_entry_exhaustive,
    qcol,
    qcols,
    qrows,
    region,
    skew_diagrams,
    staircase,
    unit_vector,
    vec_scale,
    zassenhaus,
    zero_vector,
)


def unit_torus(L):
    """The labeling L with every torus coordinate 1: xi of it is the point of the R^1 slice."""
    return replace(L, torus=tuple((box, Fraction(1)) for box, _ in L.torus))


def identity_block(k, n):
    return from_qcols([unit_vector(k, i) for i in range(1, k + 1)] + [zero_vector(k)] * (n - k))


class TestFOfPoint:
    def test_identity_block(self):
        f = f_of_point(identity_block(3, 7))
        assert f.window == (8, 9, 10, 4, 5, 6, 7)

    def test_zero_column_fixed_point(self):
        cols = [unit_vector(2, 1), zero_vector(2), unit_vector(2, 2)]
        f = f_of_point(from_qcols(cols))
        assert f(2) == 2

    def test_sampled_point(self, running):
        V = sample(running, seed=11)
        assert f_of_point(V.matrix).window == baf(running).window

    def test_rank_deficient(self):
        M = from_qcols([unit_vector(2, 1), unit_vector(2, 1), unit_vector(2, 1)])
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
            M = RatMatrix(tuple(tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(k)))
            if len(echelon_oracle(qrows(M))) < k:
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
        M = RatMatrix(tuple(tuple(rng.randint(1, 50) for _ in range(12)) for _ in range(5)))
        assert not membership(M, running)

    def test_wrong_shape_is_not_member(self, running, monkeypatch):
        """A matrix that is not k x n is no point of the diagram: False, with no tableau run."""
        M = sample(running, seed=7).matrix
        monkeypatch.setattr(variety, "_necklace_tableau", None)
        assert not membership(RatMatrix(tuple(r[:-1] for r in M.num), M.den), running)
        assert not membership(RatMatrix(M.num[:-1], M.den), running)
        assert not membership(M, SkewDiagram(12, 4, Partition((7, 7, 5, 3)), Partition((3, 3, 2))))

    def test_ribbon_minor_vanishing_breaks_membership(self, running):
        V = sample(running, seed=9)
        # zero out a column that a ribbon minor needs: necklace entry changes
        cols = qcols(V.matrix)
        cols[0] = zero_vector(5)
        assert not membership(from_qcols(cols), running)

    @given(skew_diagrams(), st.integers(1, 200), st.data())
    @settings(max_examples=80, deadline=None)
    def test_perturbed_entries_against_oracle(self, d, seed, data):
        """1-3 entries of a sampled point changed outside I_mu (set to 0 or shifted): membership and
        the construction of a point agree with the re-echelonning oracle.  The gauge is untouched."""
        V = sample(d, seed=seed)
        free = [t for t in range(1, d.n + 1) if t not in d.I_mu()]
        assume(free)
        num = [list(r) for r in V.matrix.num]
        for _ in range(data.draw(st.integers(1, 3))):
            r, t = data.draw(st.integers(0, d.k - 1)), data.draw(st.sampled_from(free))
            num[r][t - 1] = data.draw(st.sampled_from([0, num[r][t - 1] + data.draw(st.integers(-3, 3))]))
        M = RatMatrix(tuple(map(tuple, num)), V.matrix.den)
        want = membership_oracle(M, d)
        assert membership(M, d) == want
        if want:
            assert PointV(d, M).matrix == M
        else:
            with pytest.raises(OffVariety):
                PointV(d, M)

    def test_greedy_basis_is_I_mu_on_every_diagram_up_to_n7(self):
        """The basis taken greedily from column n down to 1 is I_mu at a point of every diagram, so
        the chart pivoted at I_mu that ``PointV`` builds is the tableau its membership walks."""
        count = 0
        for d in all_skew_diagrams(7):
            V = sample(d, seed=count)
            assert _necklace_tableau(V.matrix, range(d.n - 1, -1, -1))[2] == [b - 1 for b in d.I_mu()]
            count += 1
        assert count == 2040


class TestSample:
    def test_empty_skew(self):
        d = SkewDiagram(8, 3, Partition((4, 2)), Partition((4, 2)))
        V = sample(d, seed=1)
        for j, b in enumerate(d.I_mu(), start=1):
            assert qcol(V.matrix, b) == unit_vector(3, j)
        for t in range(1, 9):
            if t not in d.I_mu():
                assert qcol(V.matrix, t) == zero_vector(3)

    def test_one_box_cell(self):
        d = SkewDiagram(2, 1, Partition((1,)), Partition())
        V = sample(d, seed=4)
        c = qrows(V.matrix)[0][0]
        assert c != 0 and qrows(V.matrix)[0][1] == 1

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

    def test_exhausted_sampler_chains_the_last_rejection(self, running, monkeypatch):
        monkeypatch.setattr(skewpos.variety, "_walk", lambda *args: ())
        with pytest.raises(RuntimeError, match=r"^sampler failed after 32 attempts \(bound=100\)$") as info:
            sample(running, seed=1)
        assert isinstance(info.value.__cause__, OffVariety)

    def test_normalize_r1(self, running):
        """On the running diagram, every non-empty diagram with n <= 6 and the staircases at n = 12, 20, 32:
        the R^1 slice has every R^1 minor 1 (by ``PointV.delta``, which shares no code with ``_pinned``), each
        column is the unnormalized draw's times a nonzero rational, 1 off the columns a + mu_bar_a, and xi at a
        unit torus gives the same point.  The same facts hold for xi at a unit torus in a det_one_matrix gauge."""
        V = sample(running, seed=6, normalize_r1=True)
        for box in running.ribbon().R1:
            assert V.delta(running.long_label(box.a, box.i)) == 1
        assert membership(V.matrix, running)
        diagrams = [d for d in all_skew_diagrams(6) if d.size()]
        assert len(diagrams) == 498
        for t, d in enumerate(diagrams + [running] + [staircase(n) for n in (12, 20, 32)]):
            V = sample(d, seed=t)
            N = sample(d, seed=t, normalize_r1=True)
            assert xi(unit_torus(omega(V))) == N
            self.check_r1_slice(N, V)
            W = gauged(V, det_one_matrix(random.Random(t), d.k))
            self.check_r1_slice(xi(unit_torus(omega(W))), W)

    @staticmethod
    def check_r1_slice(N, V):
        """N is V's point of the R^1 slice: its R^1 minors are 1 and only the pinned columns are rescaled."""
        d = V.diagram
        pinned = {a + d.mu_bar[a] for a in range(1, d.n - d.k + 1) if d.mu_bar[a] < d.lambda_bar[a]}
        assert [N.delta(d.long_label(box.a, box.i)) for box in d.ribbon().R1] == [1] * len(pinned), d
        for t in range(1, d.n + 1):
            u, v = qcol(N, t), qcol(V, t)
            c = next((x / y for x, y in zip(u, v) if y), Fraction(1)) if t in pinned else Fraction(1)
            assert c != 0 and u == vec_scale(c, v), (d, t)

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
        scaled = RatMatrix.from_rationals(tuple(3 * e for e in row) for row in qrows(V.matrix))
        W = PointV.from_matrix(running, scaled)
        assert W.delta(running.I_mu()) == 1
        for j, b in enumerate(running.I_mu(), start=1):
            assert qcol(W, b) == unit_vector(5, j)

    def test_bad_gauge_rejected(self, running):
        V = sample(running, seed=2)
        scaled = RatMatrix.from_rationals(tuple(3 * e for e in row) for row in qrows(V.matrix))
        with pytest.raises(ValueError, match="re-gauge"):
            PointV(running, scaled)

    def test_shape_mismatch_rejected(self, running):
        """A matrix that is not k x n for the diagram is refused before any tableau."""
        rows = sample(running, seed=2).matrix.num
        for M in (RatMatrix(rows[:4]), RatMatrix(tuple(r[:11] for r in rows))):
            with pytest.raises(ValueError, match="^matrix shape does not match the diagram$"):
                PointV(running, M)

    def test_rank_deficient_rejected(self, running):
        """A matrix of rank < k is refused by its rank, not by the gauge: no re-gauge can mend it."""
        rows = qrows(sample(running, seed=9).matrix)
        low = RatMatrix.from_rationals(rows[:3] + rows[:2])
        for M, rank in ((RatMatrix(((0,) * 12,) * 5), 0), (low, 3)):
            with pytest.raises(ValueError, match=rf"^matrix has rank {rank} < k = 5; not a point of Gr\(k, n\)$"):
                PointV(running, M)
            with pytest.raises(ValueError, match="columns at I_mu are dependent"):
                PointV.from_matrix(running, M)

    def test_gauge_is_checked_before_the_variety(self, running):
        """Off the variety and off the gauge, the gauge message wins, whichever basis the
        greedy tableau takes."""
        rng = random.Random(3)
        dense = RatMatrix(tuple(tuple(rng.randint(1, 50) for _ in range(12)) for _ in range(5)))
        assert _necklace_tableau(dense, range(11, -1, -1))[2] != [b - 1 for b in running.I_mu()]
        cols = qcols(sample(running, seed=9).matrix)
        cols[0] = zero_vector(5)
        off = RatMatrix.from_rationals(tuple(2 * e for e in row) for row in qrows(from_qcols(cols)))
        assert _necklace_tableau(off, range(11, -1, -1))[2] == [b - 1 for b in running.I_mu()]
        for M in (dense, off):
            with pytest.raises(ValueError, match=r"^Delta_\{I_mu\} != 1; use PointV.from_matrix to re-gauge$"):
                PointV(running, M)

    def test_off_variety_rejected(self, running):
        """A rank-k matrix in the gauge but off the variety, and a dense one re-gauged."""
        cols = qcols(sample(running, seed=9).matrix)
        cols[0] = zero_vector(5)
        M = from_qcols(cols)
        assert len(echelon_oracle(qrows(M))) == 5 and qcol(M, running.b(1)) == unit_vector(5, 1)
        with pytest.raises(OffVariety, match="^point does not lie on the variety of its diagram$"):
            PointV(running, M)
        rng = random.Random(3)
        dense = RatMatrix(tuple(tuple(rng.randint(1, 50) for _ in range(12)) for _ in range(5)))
        with pytest.raises(OffVariety):
            PointV.from_matrix(running, dense)

    def test_memo_is_not_part_of_the_value(self, running):
        """The chart and the states of the necklace walk (built with the point), and the seed and the texts of
        its entries (on first use) stay out of its eq, hash and repr."""
        V, W = sample(running, seed=2), sample(running, seed=2)
        h, r = hash(V), repr(V)
        skewpos.seed_at(V)
        assert V.delta(running.I_lambda()) != 0 and V.to_json()
        assert set(V._memo) == {"chart", "walk", "seed", "texts"} and set(W._memo) == {"chart", "walk"}
        assert V == W and hash(V) == hash(W) == h and repr(V) == repr(W) == r
        assert "_memo" not in r and set(replace(V, seed=3)._memo) == {"chart", "walk"}

    def test_json_roundtrip(self, running):
        """Over den = 1 and over a den > 1 with zero entries (the R^1 slice), each entry is the
        text ``str`` writes of its Fraction, and the JSON reads back to the point."""
        V = sample(running, seed=2)
        W = sample(running, seed=2, normalize_r1=True)
        assert V.matrix.den == 1 < W.matrix.den and 0 in W.matrix.num[0]
        for P in (V, W):
            assert P.to_json()["matrix"] == [[str(x) for x in row] for row in qrows(P.matrix)]
            assert PointV.from_json(P.to_json()).matrix == P.matrix

    def test_cyclic_column_sign(self, running):
        V = sample(running, seed=2)
        assert V.column(1 + 12) == V.column(1)  # (-1)^{k-1} with k = 5


class TestOmega:
    def test_right_flag_running(self, running):
        V = sample(running, seed=13)
        L = omega(V)
        expected = [(1,), (1, 2), (1, 2, 5), (1, 2, 5, 8), (1, 2, 5, 8, 11)]
        for j, cols in enumerate(expected, start=1):
            span = Subspace.span(running.k, [L.right_flag.column(c) for c in range(1, j + 1)])
            for t in cols:
                assert span.contains(Subspace.span(running.k, [V.column(t)]))

    def test_region_equality_running(self, running):
        V = sample(running, seed=13)
        assert region(V, 5, 4) == region(V, 6, 4)

    def test_region_conditions(self, running):
        omega(sample(running, seed=14))  # raises on any violated region condition

    def test_empty_skew(self):
        d = SkewDiagram(8, 3, Partition((4, 2)), Partition((4, 2)))
        L = omega(sample(d, seed=1))
        assert L.regions == () and L.torus == ()

    def test_torus_values_nonzero(self, running):
        L = omega(sample(running, seed=15))
        assert all(c != 0 for _, c in L.torus)

    def test_zero_regions_rejected(self, running):
        L = omega(sample(running, seed=13))
        Z = BraidLabeling(running, tuple((box, ()) for box, _ in L.regions), L.boundary_basis, L.right_flag, L.torus)
        with pytest.raises(InvariantError, match="dim V"):
            check_labeling(Z)

    @staticmethod
    def check_under_optimize(labeling: str) -> str:
        """What ``check_labeling`` says under ``python -O`` of the labeling that the expression
        ``labeling`` makes from L, omega's labeling of the running diagram at seed 13."""
        script = (
            "from dataclasses import replace\n"
            "from skewpos import InvariantError, Partition, SkewDiagram, omega, sample\n"
            "from skewpos.variety import BraidLabeling, check_labeling\n"
            "d = SkewDiagram(12, 5, Partition((7, 7, 5, 3, 1)), Partition((3, 3, 2)))\n"
            "L = omega(sample(d, seed=13))\n"
            f"Z = {labeling}\n"
            "try:\n"
            "    check_labeling(Z)\n"
            "    print(__debug__, 'accepted')\n"
            "except InvariantError as exc:\n"
            "    print(__debug__, 'rejected:', exc)\n"
        )
        src = Path(skewpos.__file__).resolve().parent.parent
        return subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": str(src)}, check=True).stdout

    def test_zero_regions_rejected_under_optimize(self):
        """``python -O`` strips assert statements; the region checks must still run."""
        out = self.check_under_optimize("BraidLabeling(d, tuple((b, ()) for b, _ in L.regions),"
                                        " L.boundary_basis, L.right_flag, L.torus)")
        assert out.startswith("False rejected: dim V("), out

    @pytest.mark.parametrize("labeling, message", [
        (lambda L: replace(L, regions=L.regions[:-1]), "^regions do not label the 15 boxes of the diagram"),
        (lambda L: replace(L, torus=L.torus[1:]), "^torus coordinates do not label the 7 R\\^1 boxes"),
        (lambda L: replace(L, regions=L.regions[::-1]), "^regions do not label the 15 boxes of the diagram"),
        (lambda L: replace(L, regions=((L.regions[0][0], ((1, 0, 0, 0, 0, 0),)), *L.regions[1:])),
         "^V\\(1,1\\) is in Q\\^6, not Q\\^5$"),
        (lambda L: replace(L, regions=(L.regions[0], (L.regions[1][0], (*L.regions[1][1], tuple(
            x + y for x, y in zip(*L.regions[1][1])))), *L.regions[2:])),
         "^V\\(1,2\\) is given by 3 vectors of rank 2, not a basis$"),
        (lambda L: replace(L, right_flag=RatMatrix(tuple(tuple(int(i == j) for i in range(6)) for j in range(6)))),
         "^right flag basis is 6 x 6, not 5 x 5$"),
        (lambda L: replace(L, torus=((L.torus[0][0], Fraction(0)), *L.torus[1:])),
         "^torus coordinate at column 1 vanishes$"),
    ], ids=["last region dropped", "first torus entry dropped", "regions reversed", "region in Q^6",
            "i + 1 vectors of rank i", "right flag in Q^6", "first torus coordinate 0"])
    def test_labeling_off_the_diagram_rejected(self, running, labeling, message):
        """Regions exactly on the boxes of the diagram in column order, nonzero torus coordinates exactly
        on its R^1 boxes, every region exactly i independent vectors of Q^k and the right flag's basis
        k x k, or an InvariantError.  i + 1 vectors that span a space of dimension i are not a basis
        of the region, though their span is the right one."""
        L = omega(sample(running, seed=13))
        assert L.regions[-1][0] == (7, 5) and L.torus[0][0] == (1, 2)
        with pytest.raises(InvariantError, match=message):
            check_labeling(labeling(L))

    @pytest.mark.parametrize("basis, message", [
        (lambda L: RatMatrix(tuple(r[:-1] for r in L.right_flag.num), L.right_flag.den),
         "^right flag basis is 5 x 4, not 5 x 5$"),
        (lambda L: RatMatrix.from_columns([L.right_flag.column(j) for j in (1, 2, 3, 4, 2)], L.right_flag.den),
         "^right flag is not a basis$"),
        (lambda L: RatMatrix(tuple(r[::-1] for r in L.boundary_basis.num), L.boundary_basis.den),
         "^right flag not transversal to F\\^W$"),
        (lambda L: RatMatrix.from_columns([*map(L.right_flag.column, (1, 2, 3)), tuple(
            x + y for x, y in zip(L.right_flag.column(1), L.boundary_basis.column(5))), L.right_flag.column(5)]),
         "^right flag not transversal to F\\^W$"),
    ], ids=["5 x 4", "singular", "the reversed framing", "r_4 = r_1 + w_5"])
    def test_right_flag_rejected(self, running, basis, message):
        """The right flag is a k x k basis transversal to F^W.  The framing read backwards spans F^W
        itself, which no flag with k > 1 is transversal to (read forwards it spans W^op, which is).
        With r_4 = r_1 + w_5 the right flag is a basis that meets F^W only at its step k - 1 = 4:
        span(r_1, .., r_4) contains w_5, which spans F^W_1."""
        L = omega(sample(running, seed=13))
        assert L.right_flag.den == L.boundary_basis.den == 1
        with pytest.raises(InvariantError, match=message):
            check_labeling(replace(L, right_flag=basis(L)))

    @pytest.mark.parametrize("framing, message", [
        (lambda V, F: RatMatrix(tuple(r[:-1] for r in F.num), F.den), "^boundary framing is 5 x 4, not 5 x 5$"),
        (lambda V, F: RatMatrix.from_columns([F.column(j) for j in (1, 2, 3, 4, 2)], F.den),
         "^boundary framing is not a basis$"),
        (lambda V, F: RatMatrix(tuple(tuple(int(i == j) for j in range(5)) for i in range(5))),
         "^W\\^op_1 not in V\\(4,2\\)$"),
        (lambda V, F: RatMatrix.from_columns([V.column(t) for t in (4, 6, 8, 11, 12)], V.matrix.den),
         "^W\\^op_1 = V\\(4,1\\)$"),
    ], ids=["5 x 4", "singular", "the identity", "w_1 = v_4"])
    def test_framing_rejected(self, running, framing, message):
        """The boundary framing is a k x k basis whose steps W^op_i lie in V(a-1, i+1) and differ from
        V(a-1, i).  The point is in a gauge of determinant 1, so the identity, the sampled gauge's
        framing, is not its framing: W^op_1 = span(e_1) leaves V(4,2).  The framing is V's columns at
        I_mu = (5, 6, 8, 11, 12); with v_4 for v_5, W^op_1 is V(4,1) = span(v_4), inside V(4,2) = span(v_4, v_5)."""
        V = gauged(sample(running, seed=13), det_one_matrix(random.Random(5), running.k))
        L = omega(V)
        with pytest.raises(InvariantError, match=message):
            check_labeling(replace(L, boundary_basis=framing(V, L.boundary_basis)))

    def test_uncovered_box_rejected_under_optimize(self):
        """The coverage check is an explicit raise, so it also runs under ``python -O``."""
        out = self.check_under_optimize("replace(L, regions=L.regions[:-1])")
        assert out == "False rejected: regions do not label the 15 boxes of the diagram once each, in column order\n"

    def test_lookups_stay_out_of_eq_hash_and_repr(self, running):
        L = omega(sample(running, seed=13))
        M = BraidLabeling(L.diagram, L.regions, L.boundary_basis, L.right_flag, L.torus, L.seed)
        assert L == M and hash(L) == hash(M) and repr(L) == repr(M)
        assert "_region" not in repr(L) and "_torus" not in repr(L)
        box = L.regions[3][0]
        assert L.region(box.a, box.i) is L.regions[3][1]
        with pytest.raises(KeyError, match="no region"):
            L.region(99, 1)
        with pytest.raises(KeyError, match="no torus"):
            L.torus_value(99)

    def test_v_in_W(self, running):
        V = sample(running, seed=16)
        for a in range(1, 8):
            mu_bar = running.mu_bar[a]
            assert W_span(V, running.k - mu_bar).contains(Subspace.span(running.k, [V.column(a + mu_bar)]))


class TestRegionOracle:
    """``omega``'s regions, V's columns at each short label J(a, i) as they are, against the canonical
    span of those columns (``region``) at every box: each is a basis of a space of dimension i, and the
    labeling with the canonical spans passes ``check_labeling_oracle``, the check on spans."""

    @staticmethod
    def check(V):
        d = V.diagram
        L = omega(V)
        assert L.regions == tuple((box, tuple(map(V.column, d.short_label(*box)))) for box in d.boxes())
        spans = tuple((box, region(V, *box)) for box in d.boxes())
        assert [S.dim for _, S in spans] == [box.i for box in d.boxes()] == [len(S) for _, S in L.regions]
        check_labeling_oracle(replace(L, regions=spans))

    def test_every_diagram_up_to_n7(self):
        diagrams = list(all_skew_diagrams(7))
        assert len(diagrams) == 2040
        for d in diagrams:
            self.check(sample(d, seed=1))

    @pytest.mark.parametrize("n", [32, 64])
    def test_staircase_in_a_det_one_gauge(self, n):
        """A point in a gauge of determinant 1, whose columns at I_mu are dense rather than the
        unit vectors of the sampled gauge."""
        d = staircase(n)
        V = gauged(sample(d, seed=1), det_one_matrix(random.Random(n), d.k))
        assert V.matrix.den > 1
        self.check(V)


class TestCheckLabelingOracle:
    """``check_labeling``, which tests regions given as bases by rank, against ``check_labeling_oracle``,
    the check on their canonical spans that it replaced, on every diagram with n <= 6 and on
    staircase(20), in the sampled gauge and in a det_one_matrix gauge.  omega's labeling with every
    region in a random integer basis of its span is accepted, and xi still returns V: the rank path
    on valid input.  One region replaced by another region of its dimension, by a rank-deficient
    basis or by vectors of the wrong length gets the oracle's verdict, text included."""

    @staticmethod
    def verdict(check, L):
        try:
            check(L)
        except InvariantError as exc:
            return str(exc)

    @classmethod
    def check(cls, V, rng):
        d, k = V.diagram, V.diagram.k
        L = omega(V)

        def combine(G, S):  # the rows of G times the vectors S
            return tuple(tuple(sum(c * v[r] for c, v in zip(g, S)) for r in range(k)) for g in G)

        def invertible(i):
            while True:
                G = [[rng.randint(-3, 3) for _ in range(i)] for _ in range(i)]
                if det(G):
                    return G

        rebased = replace(L, regions=tuple((box, combine(invertible(len(S)), S)) for box, S in L.regions))
        assert check_labeling(rebased) is None and xi(rebased) == V, d
        for j, (box, S) in enumerate(L.regions):
            other = next((T for b, T in L.regions[j + 1:] + L.regions[:j] if b.i == box.i), None)
            deficient = (*S[:-1], combine([[rng.randint(-3, 3) for _ in S[:-1]]], S[:-1])[0])  # 0 for i = 1
            longer = tuple((*v, 0) for v in S)
            for T in filter(None, (other, deficient, longer)):
                Z = replace(L, regions=L.regions[:j] + ((box, T),) + L.regions[j + 1:])
                spans = replace(Z, regions=tuple((b, Subspace.span(len(R[0]), R)) for b, R in Z.regions))
                assert cls.verdict(check_labeling, Z) == cls.verdict(check_labeling_oracle, spans), (d, box, T)

    def test_every_diagram_up_to_n6(self):
        rng = random.Random(6)
        for t, d in enumerate(all_skew_diagrams(6)):
            V = sample(d, seed=1)
            self.check(V, rng)
            self.check(gauged(V, det_one_matrix(random.Random(t), d.k)), rng)

    def test_staircase_20(self):
        d, rng = staircase(20), random.Random(20)
        V = sample(d, seed=1)
        self.check(V, rng)
        self.check(gauged(V, det_one_matrix(random.Random(20), d.k)), rng)


class TestXi:
    def test_roundtrip(self, running):
        V = sample(running, seed=21)
        assert xi(omega(V)) == V

    @given(skew_diagrams())
    @settings(max_examples=25, deadline=None)
    def test_roundtrip_random(self, d):
        V = sample(d, seed=31)
        assert xi(omega(V)) == V

    @pytest.mark.parametrize("n", [20, 32])
    def test_roundtrip_in_a_nonidentity_gauge(self, n):
        """W = g V with det g = 1: the framing is g, not the identity, and W has a denominator;
        both directions hold on W and on W at a unit torus (its R^1 minors normalized)."""
        d = staircase(n)
        W = gauged(sample(d, seed=1), det_one_matrix(random.Random(n), d.k))
        assert W.matrix.den > 1 and any(qcol(W, b) != unit_vector(d.k, j) for j, b in enumerate(d.I_mu(), start=1))
        for P in (W, xi(unit_torus(omega(W)))):
            L = omega(P)
            assert xi(L) == P
            assert omega(xi(L)) == L

    def test_roundtrip_with_a_framing_pivoted_out_of_row_order(self, running):
        """W = g V for g = [[0, 1], [-1, 0]] on the first two rows (det 1): the framing's tableau takes b_1 at
        row 2, an odd permutation of the rows, so det F = -D in every pinning minor."""
        k = running.k
        g = [[Fraction(1 if (i, j) == (0, 1) or i == j > 1 else -1 if (i, j) == (1, 0) else 0) for j in range(k)]
             for i in range(k)]
        W = gauged(sample(running, seed=21), g)
        F = omega(W).boundary_basis
        assert _tableau(F.num, range(k))[3]
        assert xi(omega(W)) == W

    def test_singular_framings_keep_their_errors(self):
        """Framing column j replaced by column i != j on the seed-1 staircase(12) labeling: xi rejects
        each of the 20 with the ValueError it raised when the line was a Zassenhaus intersection."""
        d = staircase(12)
        L = omega(sample(d, seed=1))
        F = L.boundary_basis
        got = {}
        for j, i in permutations(range(1, d.k + 1), 2):
            M = RatMatrix.from_columns([F.column(i if c == j else c) for c in range(1, d.k + 1)], F.den)
            with pytest.raises(ValueError) as exc:
                xi(replace(L, boundary_basis=M))
            got[(j, i)] = str(exc.value)
        zero = {(4, 5), (5, 4)}
        assert len(got) == 20 and got == {
            c: "intersection at column 7 is 0-dimensional" if c in zero
            else "pinning minor vanishes at column 7; labeling invalid" for c in got}

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
        W = xi(unit_torus(L))
        assert membership(W.matrix, running)
        for box in running.ribbon().R1:
            assert W.delta(running.long_label(box.a, box.i)) == 1
        assert W.matrix == sample(running, seed=22, normalize_r1=True).matrix

    def test_perturb_torus_column_one(self, running):
        V = sample(running, seed=25)
        L = omega(V)
        W = xi(replace(L, torus=tuple((box, 7 * c if box.a == 1 else c) for box, c in L.torus)))
        t0 = 1 + running.mu_bar[1]
        for t in range(1, 13):
            if t == t0:
                assert qcol(W, t) == vec_scale(Fraction(7), qcol(V, t))
            else:
                assert qcol(W, t) == qcol(V, t)

    def test_perturb_any_torus_keeps_membership(self, running):
        V = sample(running, seed=26)
        L = omega(V)
        for box, c in L.torus:
            W = xi(replace(L, torus=tuple((b, 5 * x if b == box else x) for b, x in L.torus)))
            assert membership(W.matrix, running)


class TestLineOracle:
    """xi's line in each column a with boxes (m = mu_bar_a), the one dependency of one tableau over
    the rows of V(a, m+1) and the framing columns f_{m+1}, .., f_k, against their Zassenhaus
    intersection (``zassenhaus``) and the nullspace oracle ``intersect_oracle``."""

    @pytest.fixture
    def lines(self, monkeypatch):
        """The integer columns that each xi call hands to ``_pinned``, before scaling."""
        read, pinned = [], variety._pinned
        monkeypatch.setattr(variety, "_pinned", lambda d, cols, *rest: read.append(cols) or pinned(d, cols, *rest))
        return read

    @staticmethod
    def check(V, lines):
        d, k = V.diagram, V.diagram.k
        L = omega(V)
        lines.clear()
        assert xi(L) == V and len(lines) == 1
        framing = [L.boundary_basis.column(j) for j in range(1, k + 1)]
        for a in range(1, d.n - k + 1):
            m = d.mu_bar[a]
            if m < d.lambda_bar[a]:
                x, S = lines[0][a + m - 1], L.region(a, m + 1)
                assert zassenhaus(Subspace.span(k, S), Subspace.span(k, framing[m:])).basis == (x,), (d, a)
                p = next(y for y in x if y)
                assert [[Fraction(y, p) for y in x]] == intersect_oracle(k, S, framing[m:]), (d, a)

    def test_every_diagram_up_to_n6(self, lines):
        """In the sampled gauge (the framing is the identity) and in a det_one_matrix gauge."""
        for t, d in enumerate(all_skew_diagrams(6)):
            V = sample(d, seed=1)
            self.check(V, lines)
            self.check(gauged(V, det_one_matrix(random.Random(t), d.k)), lines)

    def test_staircase_32(self, lines):
        self.check(sample(staircase(32), seed=1), lines)
