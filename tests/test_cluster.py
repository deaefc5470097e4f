import random
import re
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import skewpos.cluster
from skewpos import Partition, SkewDiagram, exchange_products, mutate, quiver, sample, seed_at
from skewpos.cluster import Quiver, Seed, _mutate_quiver, quiver_dot, quiver_json
from skewpos.diagram import BoxRef, InvariantError
from skewpos.variety import PointV

from conftest import all_skew_diagrams, intro_off_chart_point, mutate_quiver_oracle, skew_diagrams

RUNNING_MUTABLE = {(2, 1), (3, 1), (4, 1), (4, 2)}

# Arrows visible in the running-example quiver figure, as ((a,i) -> (a,i)) pairs.
RUNNING_FIGURE_ARROWS = {
    ((4, 2), (4, 1)), ((4, 3), (4, 2)), ((3, 2), (3, 1)), ((2, 2), (2, 1)),
    ((1, 1), (2, 1)), ((2, 1), (3, 1)), ((3, 1), (4, 1)), ((3, 2), (4, 2)),
    ((4, 1), (3, 2)), ((4, 2), (3, 3)), ((3, 1), (2, 2)), ((2, 1), (1, 2)),
}

INTRO_MUTABLE_LABELS = {
    (2, 8, 10, 11, 12), (3, 8, 10, 11, 12), (4, 8, 10, 11, 12), (4, 5, 10, 11, 12),
    (5, 6, 10, 11, 12), (5, 7, 10, 11, 12), (5, 7, 8, 11, 12), (5, 8, 9, 11, 12),
}


class TestQuiver:
    def test_running_mutable_and_frozen(self, running):
        q = quiver(running)
        mutable = {(b.a, b.i) for b in q.vertices if q.is_mutable(b)}
        assert mutable == RUNNING_MUTABLE
        assert len(q.frozen) == 11
        labels = {running.long_label(a, i) for a, i in mutable}
        assert labels == {(2, 6, 8, 11, 12), (3, 6, 8, 11, 12), (4, 6, 8, 11, 12),
                          (4, 5, 8, 11, 12)}

    def test_running_figure_arrows(self, running):
        q = quiver(running)
        arrows = {((s.a, s.i), (t.a, t.i)) for (s, t), _ in q.arrows}
        assert RUNNING_FIGURE_ARROWS <= arrows
        # no arrow between two frozen vertices
        for (s, t) in arrows:
            assert BoxRef(*s) not in q.frozen or BoxRef(*t) not in q.frozen

    def test_intro_mutable_labels(self, intro):
        q = quiver(intro)
        labels = {intro.long_label(b.a, b.i) for b in q.vertices if q.is_mutable(b)}
        assert labels == INTRO_MUTABLE_LABELS

    def test_empty_skew(self):
        d = SkewDiagram(8, 3, Partition((4, 2)), Partition((4, 2)))
        q = quiver(d)
        assert q.vertices == () and q.arrows == ()

    def test_adjacency_matches_arrow_scan_up_to_n7(self):
        """The lookups a quiver builds list each vertex's arrows as a scan of ``arrows`` does,
        in its order, on every initial quiver with n <= 7 and after each single mutation."""
        def scan(q, box):
            return ([(src, m) for (src, dst), m in q.arrows if dst == box],
                    [(dst, m) for (src, dst), m in q.arrows if src == box])

        for d in all_skew_diagrams(7):
            q = quiver(d)
            for p in [q] + [_mutate_quiver(q, b) for b in q.vertices if q.is_mutable(b)]:
                for b in p.vertices:
                    assert (p.arrows_into(b), p.arrows_out(b)) == scan(p, b)

    @given(skew_diagrams())
    def test_arrow_types(self, d):
        q = quiver(d)
        for (s, t), m in q.arrows:
            assert m == 1
            assert (t.a - s.a, t.i - s.i) in {(1, 0), (0, -1), (-1, 1)}

    def test_no_loops_or_two_cycles(self):
        with pytest.raises(ValueError, match="loop"):
            Quiver((BoxRef(1, 1),), frozenset(), (((BoxRef(1, 1), BoxRef(1, 1)), 1),))
        b1, b2 = BoxRef(1, 1), BoxRef(2, 1)
        with pytest.raises(ValueError, match="2-cycle"):
            Quiver((b1, b2), frozenset(), (((b1, b2), 1), ((b2, b1), 1)))

    def test_malformed_arrows_rejected(self):
        """An arrow from or to a box that is not a vertex, an arrow listed twice and a multiplicity
        below 1 are refused, each by its own text."""
        b1, b2, b3 = BoxRef(1, 1), BoxRef(2, 1), BoxRef(3, 1)
        for arrows, message in (
            ((((b1, b3), 1),), f"arrow endpoint not a vertex: {b1} -> {b3}"),
            ((((b3, b1), 1),), f"arrow endpoint not a vertex: {b3} -> {b1}"),
            ((((b1, b2), 1), ((b1, b2), 2)), f"duplicate arrow entry {b1} -> {b2}"),
            ((((b1, b2), 0),), "nonpositive multiplicity"),
        ):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                Quiver((b1, b2), frozenset(), arrows)


class TestSeed:
    def test_frozen_values_nonzero(self, running):
        V = sample(running, seed=3)
        s = seed_at(V)
        for b in s.quiver.frozen:
            assert s.value(b) != 0

    def test_vanishing_frozen_value_rejected(self, running, monkeypatch):
        """A frozen value of 0 is refused; a mutable one is not.  With column 2's minors read as 0, the
        mutable box (2, 1) passes and ``seed_at`` names the frozen box (2, 2)."""
        V = sample(running, seed=3)
        real = PointV.column_minors
        monkeypatch.setattr(PointV, "column_minors",
                            lambda self, a: [0 * x for x in real(self, a)] if a == 2 else real(self, a))
        assert quiver(running).is_mutable(BoxRef(2, 1)) and BoxRef(2, 2) in quiver(running).frozen
        with pytest.raises(InvariantError, match=r"^frozen value vanishes at \(2,2\)$"):
            seed_at(V)

    def test_r1_slice_values(self, running):
        V = sample(running, seed=4, normalize_r1=True)
        s = seed_at(V)
        for b in running.ribbon().R1:
            assert s.value(b) == 1

    def test_values_must_cover_the_vertices(self, running):
        """A seed with a vertex missing, or with a box that is not a vertex, is refused."""
        s = seed_at(sample(running, seed=3))
        for values in (s.values[1:], s.values + ((BoxRef(99, 1), Fraction(1)),)):
            with pytest.raises(ValueError, match="^seed values must cover exactly the quiver vertices$"):
                Seed(s.quiver, values)

    def test_value_lookup_stays_out_of_eq_hash_and_repr(self, running):
        s = seed_at(sample(running, seed=3))
        t = Seed(s.quiver, s.values)
        assert s == t and hash(s) == hash(t) and repr(s) == repr(t)
        assert "_value" not in repr(s)
        assert all(s.value(b) is x for b, x in s.values)
        with pytest.raises(KeyError):
            s.value(BoxRef(99, 1))

    def test_values_are_ascending_minors(self, running):
        V = sample(running, seed=5)
        s = seed_at(V)
        for b in s.quiver.vertices:
            assert s.value(b) == V.delta(running.long_label(b.a, b.i))
        assert V.delta(running.I_mu()) == 1


def toy_seed():
    """Rank-2 quiver 1 -> 2 with values (1, 1)."""
    b1, b2 = BoxRef(1, 1), BoxRef(2, 1)
    q = Quiver((b1, b2), frozenset(), (((b1, b2), 1),))
    return Seed(q, ((b1, Fraction(1)), (b2, Fraction(1)))), b1, b2


class TestMutation:
    def test_toy_exchange(self):
        s, b1, b2 = toy_seed()
        s2 = mutate(s, b2)
        assert s2.value(b2) == 2  # 1 * x' = 1 + 1

    def test_involution_toy(self):
        s, b1, b2 = toy_seed()
        assert mutate(mutate(s, b1), b1).values == s.values
        assert mutate(mutate(s, b1), b1).quiver.arrows == s.quiver.arrows

    def test_involution_on_variety_seeds(self, running):
        rng = random.Random(0)
        V = sample(running, seed=6)
        s = seed_at(V)
        mutables = [b for b in s.quiver.vertices if s.quiver.is_mutable(b)]
        for _ in range(20):
            b = rng.choice(mutables)
            s2 = mutate(mutate(s, b), b)
            assert s2.values == s.values
            assert set(s2.quiver.arrows) == set(s.quiver.arrows)

    def test_exchange_relation_recomputed(self, running):
        V = sample(running, seed=7)
        s = seed_at(V)
        for b in s.quiver.vertices:
            if not s.quiver.is_mutable(b):
                continue
            prod_in = Fraction(1)
            for src, m in s.quiver.arrows_into(b):
                prod_in *= s.value(src) ** m
            prod_out = Fraction(1)
            for dst, m in s.quiver.arrows_out(b):
                prod_out *= s.value(dst) ** m
            assert mutate(s, b).value(b) == (prod_in + prod_out) / s.value(b)

    def test_mutate_frozen_rejected(self, running):
        s = seed_at(sample(running, seed=8))
        frozen = next(iter(s.quiver.frozen))
        with pytest.raises(ValueError, match="frozen"):
            mutate(s, frozen)

    def test_mutate_vanishing_value_rejected(self):
        s = seed_at(intro_off_chart_point())
        assert s.value(BoxRef(5, 2)) == 0 and s.quiver.is_mutable(BoxRef(5, 2))
        with pytest.raises(ValueError, match=r"^cannot mutate at \(5,2\): its value vanishes$"):
            mutate(s, BoxRef(5, 2))

    def test_mutation_preserves_quiver_invariants(self, running):
        rng = random.Random(1)
        s = seed_at(sample(running, seed=9))
        for _ in range(12):
            mutables = [b for b in s.quiver.vertices if s.quiver.is_mutable(b)]
            b = rng.choice([b for b in mutables if s.value(b) != 0])
            s = mutate(s, b)  # Quiver constructor re-validates no loops/2-cycles


def skew_matrix(q):
    """Signed adjacency matrix of a quiver: entry (u, v) counts u->v minus v->u."""
    idx = {b: t for t, b in enumerate(q.vertices)}
    m = len(q.vertices)
    B = [[0] * m for _ in range(m)]
    for (s, t), mult in q.arrows:
        B[idx[s]][idx[t]] += mult
        B[idx[t]][idx[s]] -= mult
    return B, idx


def skew_matrix_mutation(B, k):
    """Independent oracle: standard mutation of a skew-symmetric integer matrix."""
    m = len(B)
    out = [[0] * m for _ in range(m)]
    for i in range(m):
        for j in range(m):
            if i == k or j == k:
                out[i][j] = -B[i][j]
            else:
                out[i][j] = B[i][j] + (abs(B[i][k]) * B[k][j] + B[i][k] * abs(B[k][j])) // 2
    return out


class TestMatrixMutationOracle:
    def test_quiver_mutation_matches_matrix_mutation(self, running, intro):
        rng = random.Random(2)
        for d in (running, intro):
            s = seed_at(sample(d, seed=11))
            for _ in range(8):
                q = s.quiver
                mutables = [b for b in q.vertices if q.is_mutable(b) and s.value(b) != 0]
                box = rng.choice(mutables)
                B, idx = skew_matrix(q)
                expected = skew_matrix_mutation(B, idx[box])
                s = mutate(s, box)
                got, idx2 = skew_matrix(s.quiver)
                assert idx2 == idx
                frozen = {idx[b] for b in q.frozen}
                for u in range(len(B)):
                    for v in range(len(B)):
                        # arrows between two frozen vertices are never stored
                        if u in frozen and v in frozen:
                            continue
                        assert got[u][v] == expected[u][v], (u, v)


def mutable_boxes(q):
    return [b for b in q.vertices if q.is_mutable(b)]


class TestMutateQuiverOracle:
    """The one pass over net counts against the three-pass rule it replaced (``mutate_quiver_oracle``)."""

    def test_every_single_mutation_up_to_n8(self):
        count = 0
        for d in all_skew_diagrams(8):
            q = quiver(d)
            for b in q.vertices:
                if q.is_mutable(b):
                    assert _mutate_quiver(q, b) == mutate_quiver_oracle(q, b), (d, b)
                    count += 1
        assert count == 3895

    @given(st.deferred(lambda: st.sampled_from([d for d in all_skew_diagrams(8) if mutable_boxes(quiver(d))])),
           st.lists(st.integers(0, 2**16), min_size=1, max_size=40))
    def test_random_paths(self, d, picks):
        q = quiver(d)
        mutables = mutable_boxes(q)
        for p in picks:
            box = mutables[p % len(mutables)]
            new = _mutate_quiver(q, box)
            assert new == mutate_quiver_oracle(q, box)
            q = new

    def test_two_cycle_cancels_as_it_forms(self):
        """u -> box twice, box -> v and v -> u: the path u -> box -> v adds 2 to b(u, v) = -1, so one arrow
        u -> v is left, and the box's arrows turn round."""
        v, box, u, w = BoxRef(1, 1), BoxRef(2, 1), BoxRef(3, 1), BoxRef(4, 1)
        q = Quiver((v, box, u, w), frozenset(), (((v, u), 1), ((u, box), 2), ((box, v), 1), ((u, w), 1)))
        new = _mutate_quiver(q, box)
        assert new == mutate_quiver_oracle(q, box)
        assert new.arrows == (((v, box), 1), ((box, u), 2), ((u, v), 1), ((u, w), 1))

    def test_arrows_between_frozen_vertices_are_not_added(self):
        f1, box, f2 = BoxRef(1, 1), BoxRef(2, 1), BoxRef(3, 1)
        q = Quiver((f1, box, f2), frozenset({f1, f2}), (((f1, box), 1), ((box, f2), 1)))
        assert _mutate_quiver(q, box).arrows == (((box, f1), 1), ((f2, box), 1))


def square_moves(d, seed: int, steps: int = 8) -> tuple[int, list]:
    """Walk a random path of mutations at degree-4 mutable vertices of the seed at ``sample(d, seed)``,
    each vertex carrying its long label.  At a labelled square (the in- and out-label multisets J1 + J3
    and J2 + J4 agree and hold J) the new value must be Delta_{J'} with J' = J1 + J3 - J, and the vertex
    takes J'.  Returns the number of checks and the failures; a square whose multisets disagree fails."""
    V = sample(d, seed=seed)
    s = seed_at(V)
    label = {b: Counter(d.long_label(b.a, b.i)) for b in s.quiver.vertices}
    rng = random.Random(seed)
    checks, failures = 0, []
    for _ in range(steps):
        q = s.quiver
        squares = [b for b in q.vertices if q.is_mutable(b) and s.value(b) != 0
                   and sum(m for _, m in q.arrows_into(b) + q.arrows_out(b)) == 4]
        if not squares:
            break
        box = rng.choice(squares)
        J_in, J_out = (sum((Counter({t: m * c for t, c in label[b].items()}) for b, m in arrows), Counter())
                       for arrows in (q.arrows_into(box), q.arrows_out(box)))
        checks += 1
        if J_in != J_out or label[box] - J_in:
            failures.append((d, seed, box, "not a labelled square"))
            break
        s, label[box] = mutate(s, box), J_in - label[box]
        if s.value(box) != V.delta(tuple(sorted(label[box].elements()))):
            failures.append((d, seed, box, "value is not the new label's minor"))
    return checks, failures


class TestSquareMoves:
    """Mutation checked against the point: along random paths of square moves, every mutated value is
    the Pluecker coordinate of the label the three-term relation gives (Scott, arXiv:math/0311148).
    Degree-6 vertices can leave the Pluecker coordinates, so only squares are checked."""

    def test_square_moves_land_on_pluecker_coordinates_up_to_n7(self):
        checks, failures = 0, []
        for d in all_skew_diagrams(7):
            for seed in (1, 2):
                c, f = square_moves(d, seed)
                checks, failures = checks + c, failures + f
        assert failures == []
        assert checks == 2496

    def test_exchange_sum_mutant_fails(self, running, monkeypatch):
        """A ``mutate`` with ``prod_in - prod_out`` leaves the minors at the first square."""
        real = skewpos.cluster.exchange_products
        monkeypatch.setattr(skewpos.cluster, "exchange_products", lambda s, box: (real(s, box)[0], -real(s, box)[1]))
        assert square_moves(running, 1)[1]


class TestExchangeRatio:
    """The exchange ratio as the pair (in-product, out-product) of ``exchange_products``."""

    def test_toy(self):
        s, b1, b2 = toy_seed()
        assert exchange_products(s, b2) == (s.value(b1), 1)

    def test_running_box(self, running):
        V = sample(running, seed=10)
        s = seed_at(V)
        box = BoxRef(4, 2)  # mutable; label (4,5,8,11,12)
        num = Fraction(1)
        for src, m in s.quiver.arrows_into(box):
            num *= s.value(src) ** m
        den = Fraction(1)
        for dst, m in s.quiver.arrows_out(box):
            den *= s.value(dst) ** m
        assert exchange_products(s, box) == (num, den)

    def test_frozen_rejected(self, running):
        s = seed_at(sample(running, seed=10))
        with pytest.raises(ValueError, match="mutable"):
            exchange_products(s, next(iter(s.quiver.frozen)))


class TestRendering:
    def test_dot_output(self, running):
        dot = quiver_dot(running)
        assert dot.startswith("digraph")
        assert "a4i2" in dot and "shape=box" in dot and "shape=ellipse" in dot

    def test_json_output(self, running):
        doc = quiver_json(running)
        assert len(doc["vertices"]) == 15
        assert sum(1 for v in doc["vertices"] if not v["frozen"]) == 4
