import re
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import skewpos.permutations
from skewpos import (
    Partition,
    SkewDiagram,
    baf,
    baf_to_necklace,
    necklace,
    necklace_to_baf,
    verify_f_factorization,
    w_grassmannian,
    w_skew,
)
from skewpos.diagram import InvariantError
from skewpos.permutations import (
    BoundedAffinePermutation,
    GrassmannNecklace,
    PermWord,
    compose,
    from_word,
    inverse,
)

from conftest import (all_bounded_affine_permutations, all_skew_diagrams, baf_to_necklace_oracle,
                      f_factorization_oracle, from_word_oracle, skew_diagrams, w_grassmannian_oracle)

RUNNING_NECKLACE = (
    (1, 6, 8, 11, 12), (1, 2, 8, 11, 12), (2, 3, 8, 11, 12), (3, 4, 8, 11, 12),
    (3, 4, 5, 11, 12), (4, 5, 6, 11, 12), (5, 6, 7, 11, 12), (5, 6, 7, 8, 12),
    (5, 6, 8, 9, 12), (5, 6, 8, 10, 12), (5, 6, 8, 10, 11), (5, 6, 8, 11, 12),
)

DISCONNECTED_NECKLACE = (
    (1, 4, 8, 9), (1, 2, 8, 9), (2, 3, 8, 9), (3, 4, 8, 9), (3, 4, 8, 9),
    (3, 4, 6, 9), (3, 4, 6, 7), (3, 4, 7, 8), (3, 4, 8, 9),
)


class TestNecklace:
    def test_running(self, running):
        assert necklace(running).entries == RUNNING_NECKLACE

    def test_disconnected(self, disconnected):
        assert necklace(disconnected).entries == DISCONNECTED_NECKLACE

    def test_empty_skew(self):
        d = SkewDiagram(8, 3, Partition((4, 2, 1)), Partition((4, 2, 1)))
        N = necklace(d)
        assert all(e == d.I_mu() for e in N.entries)

    @given(skew_diagrams())
    def test_source_conditions(self, d):
        necklace(d)  # the constructor enforces the exchange axioms

    def test_invalid_necklace_rejected(self):
        with pytest.raises(ValueError):
            GrassmannNecklace(4, 2, ((1, 2), (3, 4), (1, 2), (1, 2)))

    @pytest.mark.parametrize("n, entries, message", [
        (4, ((1, 2), (2, 3), (3, 4)), "expected 4 entries, got 3"),
        (4, ((1, 2), (2, 3), (3,), (4, 1)), "entry (3,) is not a k-subset of [n]"),
        (4, ((1, 2), (2, 3), (3, 5), (4, 1)), "entry (3, 5) is not a k-subset of [n]"),
        (4, ((0, 2), (2, 3), (3, 4), (4, 1)), "entry (0, 2) is not a k-subset of [n]"),
        (4, ((1, 2), (2, 3), (3, 4), (1, 3)), "exchange condition fails at i=1"),
        # k elements with a repeat, where every exchange condition holds on the sets
        (4, ((1, 1),) * 4, "entry (1, 1) is not a k-subset of [n]"),
        (2, ((1, 1), (1, 1)), "entry (1, 1) is not a k-subset of [n]"),
    ], ids=["entry-count", "short-entry", "entry-above-n", "entry-below-1", "exchange", "repeat-n4", "repeat-n2"])
    def test_necklace_validation(self, n, entries, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            GrassmannNecklace(n, 2, entries)


class TestBaf:
    def test_running_values(self, running):
        f = baf(running)
        horizontal = {1: 3, 2: 4, 3: 6, 4: 7, 7: 9, 9: 10, 10: 12}
        vertical = {6: 2 + 12, 8: 5 + 12, 11: 8 + 12, 12: 11 + 12, 5: 1 + 12}
        for i, v in {**horizontal, **vertical}.items():
            assert f(i) == v

    def test_disconnected_fixed_point(self, disconnected):
        f = baf(disconnected)
        assert f(5) == 5
        assert f.fixed_point_decorations() == {5: "clockwise"}

    def test_full_rectangle(self):
        n, k = 7, 3
        d = SkewDiagram(n, k, Partition((4, 4, 4)), Partition((4, 4, 4)))
        f = baf(d)
        assert f.window == tuple(
            i + n if i <= k else i for i in range(1, n + 1)
        )

    def test_window_validation(self):
        with pytest.raises(ValueError, match="outside"):
            BoundedAffinePermutation(4, 2, (1, 2, 3, 3))
        with pytest.raises(ValueError, match="distinct"):
            BoundedAffinePermutation(4, 2, (1, 5, 3, 8))
        with pytest.raises(ValueError, match="equal k"):
            BoundedAffinePermutation(4, 2, (5, 6, 7, 4))
        with pytest.raises(ValueError, match="^window must have length n$"):
            BoundedAffinePermutation(4, 2, (5, 6, 3))
        BoundedAffinePermutation(4, 2, (5, 6, 3, 4))

    def test_affine_extension(self, running):
        f = baf(running)
        assert f(1 + 12) == f(1) + 12


class TestBijection:
    def test_running_pair(self, running):
        assert necklace_to_baf(necklace(running)).window == baf(running).window
        assert baf_to_necklace(baf(running)).entries == necklace(running).entries

    def test_constant_necklace(self):
        n, k = 7, 3
        N = GrassmannNecklace(n, k, tuple((1, 2, 3) for _ in range(n)))
        f = necklace_to_baf(N)
        assert f.window == tuple(range(1 + n, k + n + 1)) + tuple(range(k + 1, n + 1))
        assert baf_to_necklace(f).entries == N.entries

    @given(skew_diagrams())
    @settings(max_examples=150)
    def test_roundtrip(self, d):
        N, f = necklace(d), baf(d)
        assert necklace_to_baf(N).window == f.window
        assert baf_to_necklace(f).entries == N.entries


class TestNecklaceOracle:
    """I_i = { j mod n : i - n < j <= i < f(j) } against the cyclic-order test it replaced."""

    def test_every_bounded_affine_permutation_up_to_n6(self):
        count = 0
        for n in range(1, 7):
            for f in all_bounded_affine_permutations(n):
                assert baf_to_necklace(f) == baf_to_necklace_oracle(f), f
                count += 1
        assert count == 2371

    def test_baf_of_every_diagram_up_to_n8(self):
        for d in all_skew_diagrams(8):
            f = baf(d)
            assert baf_to_necklace(f) == baf_to_necklace_oracle(f) == necklace(d), d

    def test_loops(self):
        """f(i) = i + n puts i in every entry, f(i) = i in none."""
        f = BoundedAffinePermutation(3, 1, (4, 2, 3))
        assert baf_to_necklace(f).entries == ((1,), (1,), (1,))
        assert baf_to_necklace(BoundedAffinePermutation(3, 0, (1, 2, 3))).entries == ((), (), ())


class TestGrassmannianPermutations:
    def test_running_w_lambda(self, running):
        assert w_grassmannian(running.lam, 12, 5).perm == (1, 2, 5, 8, 11, 3, 4, 6, 7, 9, 10, 12)

    def test_full_rectangle_identity(self):
        w = w_grassmannian(Partition((4, 4, 4)), 7, 3)
        assert w.perm == tuple(range(1, 8)) and w.word == ()

    def test_empty_partition(self):
        n, k = 9, 4
        w = w_grassmannian(Partition(), n, k)
        assert w.perm == tuple(range(n - k + 1, n + 1)) + tuple(range(1, n - k + 1))

    @given(skew_diagrams())
    def test_word_length(self, d):
        w = w_grassmannian(d.lam, d.n, d.k)
        assert len(w.word) == d.k * (d.n - d.k) - d.lam.size()

    @pytest.mark.parametrize("parts", [(4,), (1, 1, 1, 1)])
    def test_partition_outside_the_box_rejected(self, parts):
        with pytest.raises(ValueError, match=r"^partition does not fit in the k x \(n-k\) box$"):
            w_grassmannian(Partition(parts), 6, 3)

    def test_grassmannian_windows(self, running):
        w = w_grassmannian(running.lam, 12, 5).perm
        assert list(w[:5]) == sorted(w[:5]) and list(w[5:]) == sorted(w[5:])

    def test_one_pass_heights_match_the_conjugate_oracle(self):
        """One-line and column word against the heights read off conjugate(p), every partition in
        every k x (n-k) box with n <= 8."""
        for d in all_skew_diagrams(8):
            if not d.mu.parts:  # each lambda once
                w = w_grassmannian(d.lam, d.n, d.k)
                assert (w.perm, w.word) == w_grassmannian_oracle(d.lam, d.n, d.k), d


class TestWSkew:
    def test_running_length(self, running):
        assert w_skew(running).length() == 23 - 8

    def test_lengths_that_do_not_add_are_refused(self, running, monkeypatch):
        """A diagram whose size disagrees with the length of its word fails the length-additive check,
        which raises explicitly, so also under ``python -O``."""
        size = SkewDiagram.size
        monkeypatch.setattr(SkewDiagram, "size", lambda d: size(d) + 1)
        with pytest.raises(InvariantError, match="^length-additive factorization failed$"):
            w_skew(running)

    def test_empty_skew_identity(self):
        d = SkewDiagram(8, 3, Partition((3, 1)), Partition((3, 1)))
        assert w_skew(d).perm == tuple(range(1, 9))

    @given(skew_diagrams())
    @settings(max_examples=100)
    def test_factorization_and_inverse(self, d):
        w = w_skew(d)
        wl = w_grassmannian(d.lam, d.n, d.k)
        wm = w_grassmannian(d.mu, d.n, d.k)
        assert compose(w.perm, wl.perm) == wm.perm
        assert wm.length() == w.length() + wl.length()
        assert w.length() == d.size()
        assert baf(d).mod_n() == inverse(w.perm)


class TestFFactorization:
    def test_running(self, running):
        assert verify_f_factorization(running)

    def test_empty_skew(self):
        d = SkewDiagram(8, 3, Partition((3, 1)), Partition((3, 1)))
        assert verify_f_factorization(d)

    @given(skew_diagrams())
    @settings(max_examples=150)
    def test_random(self, d):
        assert verify_f_factorization(d)

    def test_matches_the_translation_window_oracle(self):
        for d in all_skew_diagrams(8):
            assert verify_f_factorization(d) and f_factorization_oracle(d), d

    def test_swapped_window_rejected(self, monkeypatch):
        """A baf with its first and last window entries swapped must fail the check."""
        real = skewpos.permutations.baf

        def swapped(d):
            w = real(d).window
            return SimpleNamespace(window=w[-1:] + w[1:-1] + w[:1])

        monkeypatch.setattr(skewpos.permutations, "baf", swapped)
        for d in all_skew_diagrams(6):
            assert not verify_f_factorization(d), d


@st.composite
def words(draw):
    n = draw(st.integers(1, 12))
    return n, draw(st.lists(st.integers(1, n - 1), max_size=30) if n > 1 else st.just([]))


class TestPermWord:
    @given(words())
    def test_from_word_matches_the_composing_oracle(self, nw):
        n, word = nw
        assert from_word(n, word) == from_word_oracle(n, word)

    def test_unreduced_word_rejected(self):
        with pytest.raises(ValueError):
            PermWord((1, 2, 3), (1, 1))

    def test_wrong_word_rejected(self):
        with pytest.raises(ValueError):
            PermWord((2, 1, 3), (2,))

    @pytest.mark.parametrize("perm", [(1, 1, 3), (0, 1, 2), (2, 3, 4)])
    def test_not_a_permutation_rejected(self, perm):
        with pytest.raises(ValueError, match=f"^{re.escape(f'not a permutation of [n]: {perm}')}$"):
            PermWord(perm)
