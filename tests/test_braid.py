import pytest
from hypothesis import given

from skewpos import BoxRef, Partition, SkewDiagram, beta
from skewpos.braid import BraidWord, render

from conftest import skew_diagrams


class TestBeta:
    def test_intro_example(self, intro):
        word, columns = beta(intro)
        assert columns == ((4, 3), (3, 2), (3, 2), (2, 1), (2, 1), (1,), (1,))
        assert word.letters == (4, 3, 3, 2, 3, 2, 2, 1, 2, 1, 1, 1)

    def test_empty_skew(self):
        d = SkewDiagram(8, 3, Partition((4, 2)), Partition((4, 2)))
        assert beta(d)[0].letters == ()

    def test_single_column_run(self):
        d = SkewDiagram(4, 2, Partition((2, 1)), Partition())
        word, columns = beta(d)
        # column heights from the left are 2, 1: runs s_1 then empty
        assert columns == ((1,), ())
        assert word.letters == (1,)

    @given(skew_diagrams())
    def test_length_identity(self, d):
        word = beta(d)[0]
        assert len(word) + len(d.ribbon().R1) == d.size()

    @given(skew_diagrams())
    def test_crossing_map_bijection(self, d):
        # letter s_i of the j-th run is the braid box (n-k+1-j, i)
        word, columns = beta(d)
        boxes = [BoxRef(d.n - d.k + 1 - j, i) for j, run in enumerate(columns, start=1) for i in run]
        assert len(boxes) == len(word.letters)
        assert len(set(boxes)) == len(boxes)
        for box, letter in zip(boxes, word.letters):
            assert box.i == letter
            assert d.contains_box(box.a, box.i)
            assert box.i < d.lambda_bar[box.a]  # never the top box of its column


def cut_braid(d, a):
    """The braids of the two halves of d.cut(a)."""
    left, right = d.cut(a)
    return beta(left)[0], beta(right)[0]


class TestCutBraid:
    def test_intro_cut(self, intro):
        bl, br = cut_braid(intro, 6)
        word = beta(intro)[0]
        assert bl.letters + br.letters == word.letters
        assert bl.letters == beta(intro.cut(6)[0])[0].letters

    def test_cut_at_one(self, running):
        bl, br = cut_braid(running, 1)
        assert br.letters == ()
        assert bl.letters == beta(running)[0].letters

    def test_cut_at_last(self, running):
        bl, br = cut_braid(running, 7)
        word, columns = beta(running)
        assert bl.letters == columns[0]

    @given(skew_diagrams())
    def test_concatenation(self, d):
        word = beta(d)[0]
        for a in range(1, d.n - d.k + 1):
            bl, br = cut_braid(d, a)
            assert bl.letters + br.letters == word.letters


class TestBraidWord:
    def test_letter_range(self):
        with pytest.raises(ValueError):
            BraidWord(3, (3,))

    def test_render(self, intro):
        word, columns = beta(intro)
        assert render(columns) == "s4 s3 | s3 s2 | s3 s2 | s2 s1 | s2 s1 | s1 | s1"
