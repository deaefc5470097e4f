import pytest
from hypothesis import given, settings

from skewpos import Partition, SkewDiagram, baf, source_labels, trip, trip_permutation, trips
from skewpos.plabic import ascii_grid, mu_region_label, trips_json, verify_trips

from conftest import skew_diagrams


class TestFigureTrips:
    def test_T4_clockwise(self, running):
        T = trip(running, 4)
        assert T.orientation == "clockwise"
        assert T.end == 7
        assert sorted((b.a, b.i) for b in T.boxes) == [(3, 2), (3, 3), (4, 1), (4, 2), (4, 3)]
        assert not T.labels_mu_region
        assert T.labeled_box_count() == 5

    def test_T5_counterclockwise(self, running):
        T = trip(running, 5)
        assert T.orientation == "counterclockwise"
        assert T.end == 1
        assert sorted((b.a, b.i) for b in T.boxes) == [
            (3, 3), (4, 2), (4, 3), (5, 3), (5, 4), (6, 4), (7, 4), (7, 5)]
        assert T.labels_mu_region
        assert T.labeled_box_count() == 9

    def test_lollipop(self, disconnected):
        T = trip(disconnected, 5)  # the empty column of the disconnected example
        assert T.start == T.end == 5
        assert T.orientation == "clockwise"
        assert T.boxes == ()

    def test_counterclockwise_loop(self):
        # lambda_2 = mu_2 makes b_2 a counterclockwise loop
        d = SkewDiagram(7, 2, Partition((4, 2)), Partition((2, 2)))
        f = baf(d)
        i = next(i for i in range(1, 8) if f(i) == i + 7)
        T = trip(d, i)
        assert T.start == T.end == i and T.orientation == "counterclockwise"
        assert set(T.boxes) == set(d.boxes())

    def test_out_of_range(self, running):
        with pytest.raises(ValueError):
            trip(running, 13)


class TestTripPermutation:
    def test_running(self, running):
        perm, _ = trip_permutation(trips(running))
        assert perm == baf(running).mod_n()

    def test_disconnected_fixed_point(self, disconnected):
        perm, decorations = trip_permutation(trips(disconnected))
        assert perm[4] == 5
        assert decorations == {5: "clockwise"}

    @given(skew_diagrams())
    @settings(max_examples=80, deadline=None)
    def test_equals_baf(self, d):
        perm, decorations = trip_permutation(trips(d))
        assert perm == baf(d).mod_n()
        assert decorations == baf(d).fixed_point_decorations()

    @given(skew_diagrams())
    @settings(max_examples=50, deadline=None)
    def test_orientation_rule(self, d):
        I_mu = set(d.I_mu())
        for i in range(1, d.n + 1):
            assert (trip(d, i).orientation == "counterclockwise") == (i in I_mu)


class TestSourceLabels:
    def test_running_matches_long_labels(self, running):
        labels = source_labels(running, trips(running))
        for b, v in labels.items():
            assert v == tuple(sorted(running.long_label(b.a, b.i)))

    def test_disconnected_grid(self, disconnected):
        labels = {(b.a, b.i): v for b, v in source_labels(disconnected, trips(disconnected)).items()}
        assert labels[(4, 3)] == (3, 4, 6, 9)
        assert labels[(4, 4)] == (3, 4, 6, 7)
        assert labels[(5, 4)] == (3, 4, 7, 8)
        assert labels[(1, 1)] == (1, 4, 8, 9)

    def test_mu_region(self, running, disconnected):
        assert mu_region_label(trips(running)) == running.I_mu()
        assert mu_region_label(trips(disconnected)) == disconnected.I_mu()

    def test_empty_skew(self):
        d = SkewDiagram(8, 3, Partition((4, 2)), Partition((4, 2)))
        assert source_labels(d, trips(d)) == {}
        assert mu_region_label(trips(d)) == d.I_mu()

    @given(skew_diagrams())
    @settings(max_examples=50, deadline=None)
    def test_k_labels_per_box(self, d):
        for b, v in source_labels(d, trips(d)).items():
            assert len(v) == d.k

    @given(skew_diagrams())
    @settings(max_examples=50, deadline=None)
    def test_full_verification(self, d):
        verify_trips(d)


class TestRendering:
    def test_json(self, running):
        doc = trips_json(running)
        assert len(doc["trips"]) == 12
        assert doc["mu_region"] == [5, 6, 8, 11, 12]

    def test_ascii(self, running):
        text = ascii_grid(running)
        assert "5,6,8,10,11" in text and "mu" in text
