import re

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from skewpos import BoxRef, Partition, SkewDiagram, quiver, sample, seed_at, source_labels, trips

from conftest import (all_skew_diagrams, conjugate, in_ribbon_lambda_oracle, long_label_oracle, ribbon_oracle,
                      skew_diagrams)


def brute_conjugate(parts):
    """Independent oracle: count parts >= j."""
    if not parts:
        return ()
    return tuple(sum(1 for p in parts if p >= j) for j in range(1, max(parts) + 1))


class TestConjugate:
    def test_example(self):
        assert conjugate(Partition((7, 7, 5, 3, 1))).parts == brute_conjugate((7, 7, 5, 3, 1))
        assert conjugate(Partition((7, 7, 5, 3, 1))).parts == (5, 4, 4, 3, 3, 2, 2)

    def test_empty(self):
        assert conjugate(Partition()).parts == ()

    def test_column(self):
        assert conjugate(Partition((1, 1, 1))).parts == (3,)

    @given(skew_diagrams())
    def test_involution(self, d):
        assert conjugate(conjugate(d.lam)) == d.lam


class TestPartitionValidation:
    def test_trailing_zeros_normalized(self):
        assert Partition((3, 2, 0, 0)).parts == (3, 2)

    def test_not_decreasing(self):
        with pytest.raises(ValueError):
            Partition((1, 2))

    def test_mu_not_contained(self):
        with pytest.raises(ValueError, match="row 2"):
            SkewDiagram(6, 2, Partition((2, 1)), Partition((2, 2)))

    def test_negative_part(self):
        with pytest.raises(ValueError, match=r"^negative part in \(2, -1\)$"):
            Partition((2, -1, 0))

    @pytest.mark.parametrize("n, k, lam, message", [
        (3, 0, (), "need 0 < k <= n, got k=0, n=3"),
        (3, 4, (), "need 0 < k <= n, got k=4, n=3"),
        (5, 2, (1, 1, 1), "lambda has more than k=2 parts: (1, 1, 1)"),
        (5, 2, (4,), "lambda_1=4 exceeds n-k=3"),
    ], ids=["k-zero", "k-above-n", "lambda-too-long", "lambda-too-wide"])
    def test_diagram_outside_the_box(self, n, k, lam, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SkewDiagram(n, k, Partition(lam), Partition())


@st.composite
def boxed_diagrams(draw):
    """mu <= lambda in a k x w box, k <= 8 and w <= 8, each part drawn under its cap."""
    k, w = draw(st.integers(1, 8)), draw(st.integers(0, 8))
    lam = sorted((draw(st.integers(0, w)) for _ in range(k)), reverse=True)
    mu, cap = [], w
    for p in lam:
        cap = draw(st.integers(0, min(p, cap)))
        mu.append(cap)
    return SkewDiagram(k + w, k, Partition(tuple(lam)), Partition(tuple(mu)))


class TestColumnHeights:
    @given(boxed_diagrams())
    @example(SkewDiagram(7, 3, Partition(), Partition()))
    @example(SkewDiagram(3, 3, Partition(), Partition()))
    @example(SkewDiagram(7, 3, Partition((4, 4, 4)), Partition()))
    @example(SkewDiagram(7, 3, Partition((4, 4, 4)), Partition((4, 4, 4))))
    def test_one_pass_heights_are_the_conjugates(self, d):
        """lambda_bar and mu_bar against the conjugate partitions they were read from."""
        w = d.n - d.k
        for p, bar in ((d.lam, d.lambda_bar), (d.mu, d.mu_bar)):
            assert bar == (0,) + tuple(conjugate(p).part(w + 1 - a) for a in range(1, w + 1)), d

    def test_running(self, running):
        mu_bar, lambda_bar = running.mu_bar[1:], running.lambda_bar[1:]
        assert lambda_bar == (2, 2, 3, 3, 4, 4, 5)
        assert mu_bar == (0, 0, 0, 0, 2, 3, 3)

    def test_empty_skew(self):
        d = SkewDiagram(7, 3, Partition((4, 2)), Partition((4, 2)))
        assert d.mu_bar == d.lambda_bar

    def test_full_rectangle(self):
        d = SkewDiagram(7, 3, Partition((4, 4, 4)), Partition())
        mu_bar, lambda_bar = d.mu_bar[1:], d.lambda_bar[1:]
        assert lambda_bar == (3, 3, 3, 3) and mu_bar == (0, 0, 0, 0)

    @given(skew_diagrams())
    def test_monotone(self, d):
        mu_bar, lambda_bar = d.mu_bar[1:], d.lambda_bar[1:]
        for a in range(len(lambda_bar)):
            assert mu_bar[a] <= lambda_bar[a]
        assert list(lambda_bar) == sorted(lambda_bar)
        assert list(mu_bar) == sorted(mu_bar)


class TestBoundaryLabels:
    def test_I_mu_running(self, running):
        assert running.I_mu() == (5, 6, 8, 11, 12)

    def test_I_mu_intro(self, intro):
        assert intro.I_mu() == (5, 8, 10, 11, 12)

    def test_I_mu_empty_mu(self):
        d = SkewDiagram(9, 4, Partition((3, 2)), Partition())
        assert d.I_mu() == (6, 7, 8, 9)

    def test_I_lambda_running(self, running):
        assert running.I_lambda() == (1, 2, 5, 8, 11)

    def test_I_lambda_full_rectangle(self):
        d = SkewDiagram(9, 4, Partition((5, 5, 5, 5)), Partition())
        assert d.I_lambda() == (1, 2, 3, 4)

    def test_I_lambda_empty(self):
        d = SkewDiagram(9, 4, Partition(), Partition())
        assert d.I_lambda() == (6, 7, 8, 9) == d.I_mu()


# Grid of Example 3.16: short labels of the running example, keyed by (a, i).
RUNNING_SHORT = {
    (1, 1): (1,), (2, 1): (2,), (3, 1): (3,), (4, 1): (4,),
    (1, 2): (1, 2), (2, 2): (2, 3), (3, 2): (3, 4), (4, 2): (4, 5),
    (3, 3): (3, 4, 5), (4, 3): (4, 5, 6), (5, 3): (5, 6, 7),
    (5, 4): (5, 6, 7, 8), (6, 4): (5, 6, 8, 9), (7, 4): (5, 6, 8, 10),
    (7, 5): (5, 6, 8, 10, 11),
}

# Grid of Example 3.13 / the running-quiver figure: long labels.
RUNNING_LONG = {
    (1, 1): (1, 6, 8, 11, 12), (2, 1): (2, 6, 8, 11, 12),
    (3, 1): (3, 6, 8, 11, 12), (4, 1): (4, 6, 8, 11, 12),
    (1, 2): (1, 2, 8, 11, 12), (2, 2): (2, 3, 8, 11, 12),
    (3, 2): (3, 4, 8, 11, 12), (4, 2): (4, 5, 8, 11, 12),
    (3, 3): (3, 4, 5, 11, 12), (4, 3): (4, 5, 6, 11, 12), (5, 3): (5, 6, 7, 11, 12),
    (5, 4): (5, 6, 7, 8, 12), (6, 4): (5, 6, 8, 9, 12), (7, 4): (5, 6, 8, 10, 12),
    (7, 5): (5, 6, 8, 10, 11),
}


class TestShortLabel:
    def test_running_grid(self, running):
        for (a, i), expected in RUNNING_SHORT.items():
            assert running.short_label(a, i) == expected

    def test_bottom_of_column(self, running):
        for a in range(1, 8):
            if running.mu_bar[a] < running.lambda_bar[a]:
                i = running.mu_bar[a] + 1
                expected = tuple(running.b(j) for j in range(1, i)) + (a + running.mu_bar[a],)
                assert running.short_label(a, i) == expected

    def test_box_not_in_diagram(self, running):
        with pytest.raises(ValueError):
            running.short_label(5, 1)


class TestLongLabel:
    def test_running_grid(self, running):
        for (a, i), expected in RUNNING_LONG.items():
            assert running.long_label(a, i) == expected

    def test_intro_box(self, intro):
        assert intro.long_label(6, 4) == (5, 7, 8, 9, 12)

    def test_example_3_13(self, running):
        assert running.long_label(4, 2) == (4, 5, 8, 11, 12)
        assert running.long_label(1, 5 - 4) == (1, 6, 8, 11, 12)

    def test_running_label_sizes(self, running):
        for box in running.boxes():
            assert len(running.long_label(box.a, box.i)) == running.k
            assert len(running.short_label(box.a, box.i)) == box.i

    def test_table_matches_the_formula_up_to_n8(self):
        """Every label the kept table gives, long and short, is the per-box formula's."""
        for d in all_skew_diagrams(8):
            for a, i in d.boxes():
                want = long_label_oracle(d, a, i)
                assert d.long_label(a, i) == want and d.short_label(a, i) == want[:i], (d, (a, i))

    def test_strictly_ascending_up_to_n8(self):
        """min(a+j-1, b_j) and b_j both grow with j, so the seed reads minors unsorted."""
        for d in all_skew_diagrams(8):
            for box in d.boxes():
                J = d.long_label(box.a, box.i)
                assert all(s < t for s, t in zip(J, J[1:])), (d, box)


class TestTildeLabel:
    def test_running(self, running):
        assert running.tilde_label(6, 3) == (5, 6, 8)

    def test_full_prefix(self, running):
        assert running.tilde_label(6, 3) == running.I_mu()[:3]

    def test_disconnected(self, disconnected):
        assert disconnected.tilde_label(3, 2) == (3, 4)

    def test_undefined(self, running):
        with pytest.raises(ValueError):
            running.tilde_label(3, 1)


class TestRecursions:
    @given(skew_diagrams())
    def test_swap_right(self, d):
        for box in d.boxes():
            a, i = box.a, box.i
            if d.contains_box(a + 1, i):
                J0, J1 = set(d.short_label(a, i)), set(d.short_label(a + 1, i))
                assert J1 == (J0 - {a + d.mu_bar[a]}) | {a + i}

    @given(skew_diagrams())
    def test_add_up(self, d):
        for box in d.boxes():
            a, i = box.a, box.i
            if d.contains_box(a, i + 1):
                assert set(d.short_label(a, i + 1)) == set(d.short_label(a, i)) | {a + i}
                assert set(d.short_label(a, i)) <= set(d.short_label(a, i + 1))
                if d.contains_box(a + 1, i):
                    assert set(d.short_label(a + 1, i)) <= set(d.short_label(a, i + 1))

    @given(skew_diagrams())
    def test_contained_in_column_top(self, d):
        for box in d.boxes():
            top = set(d.short_label(box.a, d.lambda_bar[box.a]))
            assert set(d.short_label(box.a, box.i)) <= top

    @given(skew_diagrams())
    def test_tilde_union(self, d):
        for box in d.boxes():
            a, i = box.a, box.i
            if d.contains_box(a, i + 1) and d.in_mu(a + 1, i):
                assert set(d.short_label(a, i + 1)) == set(d.short_label(a, i)) | set(
                    d.tilde_label(a + 1, i)
                )


class TestRibbon:
    def test_running_frozen_count(self, running):
        rib = running.ribbon()
        assert len(rib.R) == 11 and len(rib.Rbar) == 0
        frozen_labels = {running.long_label(b.a, b.i) for b in rib.R}
        assert (1, 6, 8, 11, 12) in frozen_labels
        assert (1, 2, 8, 11, 12) in frozen_labels

    def test_disconnected(self, disconnected):
        rib = disconnected.ribbon()
        comps = {tuple(sorted((b.a, b.i) for b in rib.R if b.a <= 2)),
                 tuple(sorted((b.a, b.i) for b in rib.R if b.a >= 4))}
        assert comps == {((1, 1), (1, 2), (2, 2)), ((4, 3), (4, 4), (5, 4))}
        assert sorted((b.a, b.i) for b in rib.Rbar) == [(3, 2), (4, 2)]

    def test_empty_skew(self):
        d = SkewDiagram(7, 3, Partition((4, 2, 1)), Partition((4, 2, 1)))
        rib = d.ribbon()
        assert rib.R == () and len(rib.Rbar) > 0

    def test_column_ranges_match_the_per_box_scan(self):
        """Every diagram with n <= 7: column a's ribbon boxes are lambda_bar[a-1] (at least 1) .. lambda_bar[a]."""
        for d in all_skew_diagrams(7):
            rib = d.ribbon()
            assert (rib.R, rib.Rbar) == ribbon_oracle(d), d

    def test_frozen_boxes_are_the_ribbon(self):
        """Every diagram with n <= 7: the quiver's frozen set, the ribbon's R and the per-box ribbon test agree."""
        for d in all_skew_diagrams(7):
            frozen = set(d.ribbon().R)
            assert quiver(d).frozen == frozen, d
            assert frozen == {b for b in d.boxes() if in_ribbon_lambda_oracle(d, *b)}, d

    @given(skew_diagrams())
    def test_ribbon_size(self, d):
        rib = d.ribbon()
        if d.lam.size() > 0:
            assert len(rib.R) + len(rib.Rbar) == d.lam.part(1) + d.lambda_bar[d.n - d.k] - 1
        assert set(rib.R1) <= set(d.boxes())
        for b in rib.R1:
            assert b.i == d.lambda_bar[b.a]


class TestCut:
    def test_intro_cut(self, intro):
        left, right = intro.cut(6)
        assert left.to_json() == {"n": 7, "k": 5, "lambda": [2, 2, 2, 2, 1], "mu": [2, 1]}
        assert right.to_json() == {"n": 10, "k": 5, "lambda": [5, 5, 3, 1], "mu": [1]}

    def test_cut_at_one(self, running):
        left, right = running.cut(1)
        assert right.n == right.k == 5 and right.size() == 0
        assert left.n == running.n and left.lam == running.lam and left.mu == running.mu

    def test_cut_at_last(self, running):
        left, right = running.cut(7)
        assert left.n - left.k == 1

    def test_out_of_range(self, running):
        with pytest.raises(ValueError):
            running.cut(8)

    @given(skew_diagrams())
    def test_sizes(self, d):
        for a in range(1, d.n - d.k + 1):
            left, right = d.cut(a)
            assert left.n == d.n - a + 1 and right.n == d.k + a - 1
            assert left.size() + right.size() == d.size()


class TestBoxMembership:
    @given(skew_diagrams())
    def test_rectangle_scan(self, d):
        boxes = {(b.a, b.i) for b in d.boxes()}
        for a in range(1, d.n - d.k + 1):
            for i in range(1, d.k + 1):
                assert ((a, i) in boxes) == (d.mu_bar[a] < i <= d.lambda_bar[a])


class TestBoxRef:
    def test_a_tuple_of_its_coordinates(self):
        """A box equals and hashes as the pair (a, i), and keeps its fields, index and repr."""
        b = BoxRef(1, 2)
        assert b == (1, 2) and hash(b) == hash((1, 2))
        assert (b.a, b.i, b.index()) == (1, 2, 2)
        assert repr(b) == str(b) == "BoxRef(a=1, i=2)"

    def test_box_keyed_containers_hold_boxes(self, intro):
        """A plain pair finds a box in a dict or set, but the JSON writers read .a and .i, so every
        box-keyed container the package builds holds BoxRefs only."""
        q = quiver(intro)
        boxes = [*q.vertices, *q.frozen, *q._arrows_at, *(b for (e, _) in q.arrows for b in e)]
        boxes += [*source_labels(intro, trips(intro)), *(b for T in trips(intro) for b in T.boxes)]
        boxes += [b for b, _ in seed_at(sample(intro, seed=1)).values]
        assert {type(b) for b in boxes} == {BoxRef}
