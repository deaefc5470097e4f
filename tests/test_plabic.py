import json
import random
import re
from dataclasses import replace

import pytest
from hypothesis import given, settings

from skewpos import BoxRef, Partition, SkewDiagram, baf, plabic, source_labels, trip, trip_permutation, trips
from skewpos.diagram import InvariantError
from skewpos.plabic import _boundary_path, ascii_grid, mu_region_label, trips_json, verify_trips

from skewpos.cli import main

from conftest import (all_skew_diagrams, boxes_by_side_oracle, enclosed_boxes_oracle, random_band,
                      skew_diagrams, staircase, trip_walk_oracle)
from test_cli import RUNNING


class TestFigureTrips:
    def test_T4_clockwise(self, running):
        T = trip(running, 4)
        assert T.orientation == "clockwise"
        assert T.end == 7
        assert sorted((b.a, b.i) for b in T.boxes) == [(3, 2), (3, 3), (4, 1), (4, 2), (4, 3)]
        assert not T.labels_mu_region
        assert len(T.boxes) + T.labels_mu_region == 5

    def test_T5_counterclockwise(self, running):
        T = trip(running, 5)
        assert T.orientation == "counterclockwise"
        assert T.end == 1
        assert sorted((b.a, b.i) for b in T.boxes) == [
            (3, 3), (4, 2), (4, 3), (5, 3), (5, 4), (6, 4), (7, 4), (7, 5)]
        assert T.labels_mu_region
        assert len(T.boxes) + T.labels_mu_region == 9

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


class TestEnclosureOracle:
    """The row-parity enclosure on integers agrees with Fraction ray casting on every trip."""

    @staticmethod
    def check(d):
        for T in trips(d):
            enclosed = enclosed_boxes_oracle(d, T.start, T.end, T.path, T.orientation)
            if T.orientation == "counterclockwise":
                enclosed = tuple(b for b in d.boxes() if b not in enclosed)
            assert T.boxes == enclosed, (d, T.start)

    def test_every_diagram_up_to_n7(self):
        for d in all_skew_diagrams(7):
            self.check(d)

    @given(skew_diagrams(max_n=16))
    @settings(max_examples=100, deadline=None)
    def test_random_diagrams(self, d):
        self.check(d)


class TestEnclosureAtBenchmarkSize:
    """The bit-mask enclosure against the per-box bisection it replaced, at the sizes of the
    benchmark's ``inspect`` diagrams: the staircase and random 3-box-wide bands."""

    @pytest.mark.parametrize("n", [32, 48, 64])
    def test_staircase_and_bands(self, n):
        k = (3 * n + 7) // 8
        rng = random.Random(n)
        for d in [staircase(n)] + [random_band(rng, n, k) for _ in range(4)]:
            pts = _boundary_path(d)[0]
            for T in trips(d):
                clockwise = T.orientation == "clockwise"
                arc = pts[T.start:T.end][::-1] if clockwise else pts[T.end:T.start]
                assert T.boxes == boxes_by_side_oracle(d, list(T.path) + arc, clockwise), (d, T.start)


class TestWalkOracle:
    """The staircase on the row masks against the walk by one membership test per step."""

    @staticmethod
    def check(d):
        for T in trips(d):
            assert (T.path, T.end, T.orientation) == trip_walk_oracle(d, T.start), (d, T.start)

    def test_every_diagram_up_to_n7(self):
        for d in all_skew_diagrams(7):
            self.check(d)

    @pytest.mark.parametrize("n", range(32, 65, 8))
    def test_staircase_and_bands(self, n):
        k = (3 * n + 7) // 8
        rng = random.Random(n)
        for d in [staircase(n)] + [random_band(rng, n, k) for _ in range(4)]:
            self.check(d)


class TestFailureMessages:
    """A failed trip check names its box as (a,i), like the V(a,i) texts."""

    @pytest.mark.parametrize("edit, message", [
        (lambda v: v[1:], "box (4,2) received 4 labels"),
        (lambda v: (v[0] + 1,) + v[1:], "trip labels of box (4,2) differ from its long label"),
    ])
    def test_names_the_box(self, running, monkeypatch, edit, message):
        def edited(d, ts):
            labels = source_labels(d, ts)
            labels[BoxRef(4, 2)] = edit(labels[BoxRef(4, 2)])
            return labels

        monkeypatch.setattr(plabic, "source_labels", edited)
        with pytest.raises(InvariantError) as exc:
            verify_trips(running)
        assert str(exc.value) == message


class TestCrossChecks:
    """Each cross-check of ``verify_trips`` against the diagram raises its own InvariantError, explicitly, so
    also under ``python -O``, and ``verify --only plabic`` reports it as a failed plabic check with exit 1."""

    @pytest.mark.parametrize("name, edit, message", [
        ("trip_permutation", lambda out: ((out[0][1], out[0][0], *out[0][2:]), out[1]),
         "trip permutation differs from the affine permutation"),
        ("trip_permutation", lambda out: (out[0], {**out[1], 1: "clockwise"}),
         "trip loop orientations differ from the fixed-point decorations"),
        ("trips", lambda ts: (replace(ts[0], orientation="counterclockwise"), *ts[1:]),
         "trip 1 is counterclockwise, against I_mu"),
        ("mu_region_label", lambda label: label[1:], "mu-region label differs from I_mu"),
    ], ids=["permutation", "decorations", "orientation", "mu-region"])
    def test_each_check_fails_by_its_text(self, running, monkeypatch, capsys, name, edit, message):
        real = getattr(plabic, name)
        monkeypatch.setattr(plabic, name, lambda *args: edit(real(*args)))
        assert trips(running)[0].orientation == "clockwise" and 1 not in running.I_mu()
        with pytest.raises(InvariantError, match=f"^{re.escape(message)}$"):
            verify_trips(running)
        assert main(["verify", "--diagram", RUNNING, "--only", "plabic"]) == 1
        (failure,) = json.loads(capsys.readouterr().out)["failures"]
        assert (failure["check"], failure["detail"]) == ("plabic", message)

    def test_boundary_path_must_end_at_the_nw_corner(self, running, monkeypatch):
        """A boundary path with one vertical step too few ends off the NW corner (0, k)."""
        labels = SkewDiagram.I_lambda
        monkeypatch.setattr(SkewDiagram, "I_lambda", lambda d: labels(d)[:-1])
        with pytest.raises(InvariantError, match=r"^boundary path ends at \(-1, 4\), not at \(0, 5\)$"):
            _boundary_path(running)


class TestNonTerminatingTrip:
    """A trip whose run meets no exit raises InvariantError, which verify reports as a plabic failure."""

    @pytest.fixture
    def no_exits(self, monkeypatch):
        inputs = plabic._trip_inputs

        def without_exits(d):
            pts, vertical, _, *rest = inputs(d)
            return (pts, vertical, {True: {}, False: {}}, *rest)

        monkeypatch.setattr(plabic, "_trip_inputs", without_exits)

    def test_names_the_start_and_the_point(self, running, no_exits):
        with pytest.raises(InvariantError) as exc:
            trips(running)
        assert str(exc.value) == "trip 1 reached (6, 5) on the edge of the rectangle with no exit on its run"

    def test_verify_reports_a_plabic_failure(self, no_exits, capsys):
        assert main(["verify", "--diagram", RUNNING, "--only", "plabic"]) == 1
        (failure,) = json.loads(capsys.readouterr().out)["failures"]
        assert failure["check"] == "plabic"
        assert failure["detail"] == "trip 1 reached (6, 5) on the edge of the rectangle with no exit on its run"


class TestRendering:
    def test_json(self, running):
        doc = trips_json(running)
        assert len(doc["trips"]) == 12
        assert doc["mu_region"] == [5, 6, 8, 11, 12]

    def test_ascii(self, running):
        text = ascii_grid(running)
        assert "5,6,8,10,11" in text and "mu" in text
