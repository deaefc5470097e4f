import json
import random
from enum import IntEnum
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from skewpos import cli
from skewpos.cli import MAX_BOUND, MAX_TRIALS, _json_text, main, random_diagram, subseed
from skewpos.diagram import MAX_N, BoxRef

RUNNING = '{"n": 12, "k": 5, "lambda": [7, 7, 5, 3, 1], "mu": [3, 3, 2]}'
INTRO = '{"n": 12, "k": 5, "lambda": [7, 7, 5, 3, 1], "mu": [3, 1]}'


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestInspect:
    def test_running_document(self, capsys):
        code, out, _ = run(capsys, "inspect", "--diagram", RUNNING)
        assert code == 0
        doc = json.loads(out)
        assert doc["necklace"][0] == [1, 6, 8, 11, 12]
        assert doc["f"] == [3, 4, 6, 7, 13, 14, 9, 17, 10, 12, 20, 23]
        assert doc["braid"]["text"] == "s4 | s3 | s2 s1 | s2 s1 | s1 | s1"
        assert len(doc["quiver"]["vertices"]) == 15

    def test_degenerate(self, capsys):
        code, out, _ = run(capsys, "inspect", "--diagram",
                           '{"n": 8, "k": 3, "lambda": [4, 2], "mu": [4, 2]}')
        assert code == 0
        doc = json.loads(out)
        assert doc["braid"]["letters"] == []
        assert all(e == doc["I_mu"] for e in doc["necklace"])

    def test_invalid_containment(self, capsys):
        code, _, err = run(capsys, "inspect", "--diagram",
                           '{"n": 8, "k": 3, "lambda": [2, 2], "mu": [3, 1]}')
        assert code == 2
        assert "row 1" in err


class TestSample:
    def test_deterministic_bytes(self, capsys, tmp_path):
        f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
        assert run(capsys, "sample", "--diagram", RUNNING, "--seed", "9", "--out", str(f1))[0] == 0
        assert run(capsys, "sample", "--diagram", RUNNING, "--seed", "9", "--out", str(f2))[0] == 0
        assert f1.read_bytes() == f2.read_bytes()

    def test_reload_verifies_membership(self, capsys, tmp_path):
        out = tmp_path / "p.json"
        run(capsys, "sample", "--diagram", RUNNING, "--seed", "3", "--out", str(out))
        from skewpos import PointV

        V = PointV.from_json(json.loads(out.read_text()))
        assert V.seed == 3 and hash(V) == hash(PointV.from_json(json.loads(out.read_text())))

    def test_seed_recorded(self, capsys):
        code, out, _ = run(capsys, "sample", "--diagram", RUNNING, "--seed", "77")
        assert json.loads(out)["seed"] == 77

    def test_normalize_r1(self, capsys):
        code, out, _ = run(capsys, "sample", "--diagram", RUNNING, "--seed", "2",
                           "--normalize-r1")
        assert code == 0
        doc = json.loads(out)
        from skewpos import PointV

        V = PointV.from_json(doc)
        for box in V.diagram.ribbon().R1:
            assert V.delta(V.diagram.long_label(box.a, box.i)) == 1


class TestSplice:
    def test_pass(self, capsys):
        code, out, _ = run(capsys, "splice", "--diagram", INTRO, "--seed", "7", "--column", "6")
        assert code == 0
        doc = json.loads(out)
        assert doc["checks"] == {"exchange_ratios": "pass", "membership": "pass",
                                 "minor_scaling": "pass"}
        assert doc["left"]["diagram"]["lambda"] == [2, 2, 2, 2, 1]

    def test_off_chart_names_minor(self, capsys, tmp_path):
        from conftest import intro_off_chart_point

        W = intro_off_chart_point()
        pfile = tmp_path / "p.json"
        pfile.write_text(json.dumps(W.to_json()))
        code, _, err = run(capsys, "splice", "--diagram", INTRO, "--point", str(pfile),
                           "--column", "5")
        assert code == 1
        assert err == "point not in the column-5 chart: minor at [5, 6, 10, 11, 12] vanishes\n"

    def test_point_off_the_variety(self, capsys, tmp_path):
        """A sample whose first column was edited keeps the gauge but leaves the variety."""
        doc = json.loads(run(capsys, "sample", "--diagram", INTRO, "--seed", "7")[1])
        for row in doc["matrix"]:
            row[0] = "1"
        pfile = tmp_path / "p.json"
        pfile.write_text(json.dumps(doc))
        code, out, err = run(capsys, "splice", "--diagram", INTRO, "--point", str(pfile),
                             "--column", "6")
        assert code == 2 and out == ""
        assert err == "input error: point does not lie on the variety of its diagram\n"

    def test_column_out_of_range(self, capsys):
        code, out, err = run(capsys, "splice", "--diagram", INTRO, "--column", "99")
        assert code == 2 and out == ""
        assert err == "input error: cut column 99 out of range 1..7\n"

    def test_point_diagram_mismatch(self, capsys, tmp_path):
        out = tmp_path / "p.json"
        run(capsys, "sample", "--diagram", RUNNING, "--seed", "3", "--out", str(out))
        code, _, err = run(capsys, "splice", "--diagram", INTRO, "--point", str(out),
                           "--column", "6")
        assert code == 2 and err == "input error: point diagram differs from --diagram\n"


class TestQuiverPlabic:
    def test_quiver_dot(self, capsys):
        code, out, _ = run(capsys, "quiver", "--diagram", RUNNING, "--format", "dot")
        assert code == 0 and out.startswith("digraph")

    def test_quiver_json(self, capsys):
        code, out, _ = run(capsys, "quiver", "--diagram", RUNNING)
        assert len(json.loads(out)["arrows"]) > 0

    def test_plabic_json(self, capsys):
        code, out, _ = run(capsys, "plabic", "--diagram", RUNNING)
        doc = json.loads(out)
        assert doc["mu_region"] == [5, 6, 8, 11, 12]

    def test_plabic_text(self, capsys):
        code, out, _ = run(capsys, "plabic", "--diagram", RUNNING, "--format", "text")
        assert "mu" in out


class TestMutate:
    def test_mutation(self, capsys):
        code, out, _ = run(capsys, "mutate", "--diagram", RUNNING, "--seed", "4",
                           "--box", "4,2")
        assert code == 0
        doc = json.loads(out)
        assert doc["box"] == [4, 2] and doc["new_value"]

    def test_frozen_rejected(self, capsys):
        code, _, err = run(capsys, "mutate", "--diagram", RUNNING, "--seed", "4",
                           "--box", "1,1")
        assert code == 2 and err.startswith("input error: ") and "frozen" in err

    def test_vanishing_out_product(self, capsys):
        """The mutation is defined; the exchange ratio is printed as splice reports print it."""
        code, out, err = run(capsys, "mutate", "--diagram",
                             '{"n": 11, "k": 8, "lambda": [3, 3, 2, 2], "mu": []}',
                             "--seed", "10640475118567261418", "--box", "2,1")
        assert code == 0 and err == ""
        doc = json.loads(out)
        assert doc["exchange_ratio"] == "(1301810)/0" and doc["values"]["a3i1"] == "0"
        assert doc["old_value"] == "67" and doc["new_value"] == "19430"

    def test_vanishing_value_rejected(self, capsys, tmp_path):
        """Box (5, 2) of the intro diagram's off-chart point has seed value 0: no mutation, exit 2."""
        from conftest import intro_off_chart_point

        pfile = tmp_path / "p.json"
        pfile.write_text(json.dumps(intro_off_chart_point().to_json()))
        code, out, err = run(capsys, "mutate", "--diagram", INTRO, "--point", str(pfile), "--box", "5,2")
        assert code == 2 and out == ""
        assert err == "input error: cannot mutate at (5,2): its value vanishes\n"

    def test_point_diagram_mismatch(self, capsys, tmp_path):
        """A point of the intro diagram is no point of the running one: exit 2, as for splice."""
        out = tmp_path / "p.json"
        run(capsys, "sample", "--diagram", INTRO, "--seed", "3", "--out", str(out))
        code, stdout, err = run(capsys, "mutate", "--diagram", RUNNING, "--point", str(out),
                                "--box", "4,2")
        assert code == 2 and stdout == ""
        assert err == "input error: point diagram differs from --diagram\n"


class TestVerify:
    def test_trials_with_diagram_rejected(self, capsys):
        code, out, err = run(capsys, "verify", "--diagram", INTRO, "--trials", "7")
        assert code == 2 and out == ""
        assert err == "input error: --trials conflicts with --diagram, which runs one trial\n"

    def test_default_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "--trials", "6", "--seed", "5")
        assert code == 0
        doc = json.loads(out)
        assert doc["status"] == "pass" and doc["failures"] == []

    def test_targeted_run(self, capsys):
        code, out, _ = run(capsys, "verify", "--diagram", INTRO, "--only", "splice",
                           "--column", "6", "--seed", "7")
        assert code == 0
        assert json.loads(out)["status"] == "pass"

    def test_point_off_the_cluster_torus(self, capsys):
        # the sampled point has seed value 0 at box (3, 1), so exchange
        # out-products vanish on both sides of a cut
        code, out, _ = run(capsys, "verify", "--diagram",
                           '{"n": 11, "k": 8, "lambda": [3, 3, 2, 2], "mu": []}',
                           "--seed", "276030479")
        assert code == 0
        assert json.loads(out)["status"] == "pass"

    def test_injected_fault_reproducer(self, capsys, monkeypatch):
        import skewpos.cli as cli

        monkeypatch.setattr(cli, "xi", lambda W: SimpleNamespace(matrix=None))  # a lossy round trip
        code, out, _ = run(capsys, "verify", "--trials", "2", "--seed", "5",
                           "--only", "roundtrip")
        assert code == 1
        doc = json.loads(out)
        assert doc["status"] == "fail"
        repro = doc["failures"][0]
        assert {"trial", "diagram", "seed", "check"} <= set(repro) and repro["check"] == "roundtrip"

    def test_column_out_of_range_is_an_input_error(self, capsys):
        code, out, err = run(capsys, "verify", "--diagram", INTRO, "--only", "splice", "--column", "99")
        assert code == 2 and out == "" and err == "input error: cut column 99 out of range 1..7\n"

    def test_column_beyond_a_random_diagram_runs_no_splice_check(self, capsys):
        """Random diagrams with fewer than c columns run no splice@c check instead of crashing."""
        code, out, _ = run(capsys, "verify", "--trials", "10", "--seed", "1", "--column", "3", "--only", "splice")
        doc = json.loads(out)
        diagrams = [random_diagram(random.Random(subseed(1, "diagram", t))) for t in range(10)]
        wide = sum(d.n - d.k >= 3 for d in diagrams)
        assert code == 0 and doc["failures"] == [] and 0 < wide < 10 and doc["checks"] == wide

    def test_sampler_exhaustion_is_a_crash_record(self, capsys, monkeypatch):
        """Inside verify an exhausted sampler fails its trial, unlike the input error of sample."""
        import skewpos.cli as cli

        def exhausted(d, seed):
            raise RuntimeError("sampler failed after 32 attempts (bound=100)")

        monkeypatch.setattr(cli, "sample", exhausted)
        code, out, _ = run(capsys, "verify", "--diagram", INTRO, "--only", "roundtrip")
        assert code == 1
        [crash] = json.loads(out)["failures"]
        assert crash["check"] == "crash"
        assert crash["detail"] == "RuntimeError: sampler failed after 32 attempts (bound=100)"

    def test_crashing_trial_is_reported_and_run_continues(self, capsys, monkeypatch):
        import skewpos.cli as cli

        real, seeds = cli.splice_report, []
        crash_seed = subseed(5, "point", 1)

        def crash_on_trial_1(V, a):
            seeds.append(V.seed)
            if V.seed == crash_seed:
                raise RuntimeError("injected")
            return real(V, a)

        monkeypatch.setattr(cli, "splice_report", crash_on_trial_1)
        code, out, _ = run(capsys, "verify", "--trials", "4", "--seed", "5", "--only", "splice")
        assert code == 1
        doc = json.loads(out)
        assert doc["status"] == "fail" and doc["trials"] == 4
        [crash] = doc["failures"]
        assert crash["trial"] == 1 and crash["seed"] == crash_seed and crash["check"] == "crash"
        assert crash["column"] is None and crash["detail"] == "RuntimeError: injected"
        assert crash["diagram"] == random_diagram(random.Random(subseed(5, "diagram", 1))).to_json()
        assert seeds.count(crash_seed) == 1  # the rest of trial 1 is skipped
        assert {subseed(5, "point", t) for t in (2, 3)} <= set(seeds)  # later trials still run


class TestInputErrors:
    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "inspect", "--diagram", "/nonexistent/d.json")
        assert code == 2 and "input error" in err

    def test_bad_json(self, capsys, tmp_path):
        f = tmp_path / "bad.json"
        f.write_text("{broken")
        code, _, err = run(capsys, "inspect", "--diagram", str(f))
        assert code == 2

    @pytest.mark.parametrize("argv, message", [
        (["inspect", "--diagram", '{"n": 5}'], "diagram has no key 'k'"),
        (["inspect", "--diagram", '{"n": 5, "k": 2, "lambda": 3}'],
         "diagram key 'lambda' must be a list of integers, got 3"),
        (["splice", "--diagram", INTRO, "--column", "6", "--point", '{"diagram": %s}' % INTRO],
         "point has no key 'matrix'"),
        (["splice", "--diagram", INTRO, "--column", "6", "--point",
          '{"diagram": %s, "matrix": [["1/0"]]}' % INTRO],
         "point key 'matrix' has an entry with denominator 0"),
        (["inspect", "--diagram", "[1, 2]"], "--diagram must be a JSON object, not list"),
        (["splice", "--diagram", INTRO, "--column", "6", "--point",
          '{"diagram": %s, "matrix": [[1]], "seed": [1, 2]}' % INTRO],
         "point key 'seed' must be an integer or null, got [1, 2]"),
        (["splice", "--diagram", INTRO, "--column", "6", "--point",
          '{"diagram": %s, "matrix": [[1]], "seed": "7"}' % INTRO],
         "point key 'seed' must be an integer or null, got '7'"),
        (["splice", "--diagram", INTRO, "--column", "6", "--point",
          '{"diagram": %s, "matrix": [[1]], "seed": true}' % INTRO],
         "point key 'seed' must be an integer or null, got True"),
        # rank < k: no re-gauge could mend it, so the gauge message would give advice that cannot work
        (["splice", "--diagram", INTRO, "--column", "6", "--point",
          '{"diagram": %s, "matrix": %s}' % (INTRO, json.dumps([[0] * 12] * 5))],
         "matrix has rank 0 < k = 5; not a point of Gr(k, n)"),
    ] + [
        (["splice", "--diagram", INTRO, "--column", "6", "--point",
          '{"diagram": %s, "matrix": [[1, "1/2", %s]]}' % (INTRO, json.dumps(entry))],
         f"point key 'matrix' has an entry {entry!r} that is not an integer or 'p/q' text")
        for entry in ["1.5", " 3/4 ", "x", "1e3000000", "1_000", "+3", "3/-4", "1/2/3", "\u0663", ""]
    ], ids=["diagram-without-k", "lambda-not-a-list", "point-without-matrix", "zero-denominator",
            "diagram-not-an-object", "seed-a-list", "seed-a-string", "seed-a-boolean", "point-rank-deficient",
            "entry-decimal", "entry-padded", "entry-not-a-number", "entry-exponent", "entry-underscore",
            "entry-plus-sign", "entry-negative-denominator", "entry-two-slashes", "entry-non-ascii-digit",
            "entry-empty"])
    def test_malformed_json(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and err == f"input error: {message}\n"

    @pytest.mark.parametrize("where", ["diagram-inline", "diagram-file", "inside-a-diagram-file", "point"])
    def test_deep_nesting(self, capsys, tmp_path, where):
        """JSON nested past the decoder's recursion limit is an input error, not a RecursionError."""
        deep = "[" * 100000
        f = tmp_path / "deep.json"
        f.write_text('{"n": 12, "k": 5, "lambda": %s}' % deep if where == "inside-a-diagram-file" else deep)
        diagram = {"diagram-inline": deep, "point": INTRO}.get(where, str(f))
        point = ["--point", deep] if where == "point" else []
        code, out, err = run(capsys, "splice", "--diagram", diagram, "--column", "6", *point)
        option = "point" if point else "diagram"
        assert code == 2 and out == "" and err == f"input error: --{option} is nested too deeply\n"

    @pytest.mark.parametrize("n", [10**19, 10**17], ids=["overflows", "out-of-memory"])
    @pytest.mark.parametrize("option", ["diagram", "point"])
    def test_n_too_large(self, capsys, n, option):
        """An n whose column heights could not be allocated is refused before any allocation."""
        diagram = '{"n": %d, "k": 1, "lambda": []}' % n
        point = '{"diagram": %s, "matrix": [[1]]}' % diagram
        argv = ["splice", "--diagram", diagram, "--column", "6"] if option == "diagram" else \
            ["splice", "--diagram", INTRO, "--column", "6", "--point", point]
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err == f"input error: diagram key 'n' must be an integer at most {MAX_N}, got {n}\n"

    @pytest.mark.parametrize("argv", [
        ["sample", "--diagram", RUNNING, "--bound", "0"],
        ["sample", "--diagram", RUNNING, "--bound", "-5"],
        ["verify", "--trials", "-3"],
        ["verify", "--diagram", INTRO, "--column", "0"],
    ], ids=["bound-0", "bound-negative", "trials-negative", "column-0"])
    def test_nonpositive_count(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"argument {argv[-2]}: must be a positive integer, got {argv[-1]}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["verify", "--trials", str(MAX_TRIALS + 1)],
        ["verify", "--trials", "1000000000"],
        ["sample", "--diagram", RUNNING, "--bound", str(MAX_BOUND + 1)],
        ["splice", "--diagram", INTRO, "--column", "6", "--bound", "10" * 40],
    ], ids=["trials-cap+1", "trials-huge", "bound-cap+1", "bound-huge"])
    def test_count_above_its_cap(self, capsys, monkeypatch, argv):
        """A --trials or --bound above its cap exits 2 at parse time: no diagram is drawn, no point sampled."""
        started = []
        monkeypatch.setattr(cli, "random_diagram", lambda *args: started.append(args))
        monkeypatch.setattr(cli, "sample", lambda *args, **kwargs: started.append(args))
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2 and started == []
        cap = MAX_TRIALS if argv[-2] == "--trials" else MAX_BOUND
        assert f"argument {argv[-2]}: must be at most {cap}, got {argv[-1]}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["sample"], ["splice", "--column", "1"], ["mutate", "--box", "1,1"]])
    def test_sampler_exhaustion(self, capsys, command):
        """A --bound too small for the diagram exhausts the sampler: an input error, not a traceback."""
        diagram = '{"n": 12, "k": 5, "lambda": [7, 6, 5, 4, 3], "mu": [4, 3, 2, 1]}'
        code, out, err = run(capsys, command[0], "--diagram", diagram, "--bound", "1", "--seed", "2", *command[1:])
        assert code == 2 and out == "" and err == "input error: sampler failed after 32 attempts (bound=1)\n"

    def test_malformed_box(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["mutate", "--diagram", RUNNING, "--box", "4"])
        assert exc.value.code == 2
        assert "argument --box: invalid box_ref value: '4'" in capsys.readouterr().err


class TestRandomDiagram:
    def test_valid_and_deterministic(self):
        for t in range(30):
            d1 = random_diagram(random.Random(subseed(1, t)))
            d2 = random_diagram(random.Random(subseed(1, t)))
            assert d1 == d2
            assert 0 < d1.k < d1.n <= 12


# quotes, backslashes, control and non-ASCII characters (lone surrogates too) next to the rest
TEXT = st.text(st.one_of(st.sampled_from('"\\/\n\t\x00\x1f\x7f\xe9\u20ac\U0001f600\ud800'),
                         st.characters(blacklist_categories=())))
SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), st.integers(-10**40, 10**40), st.floats(), TEXT)
NOT_JSON = st.one_of(
    st.sampled_from([1, -1]).map(lambda sign: sign * 10**5000),  # too long for str()
    st.sampled_from([Fraction(1, 2), {1}]),
)


def documents(leaves, keys):
    return st.recursive(leaves, lambda inner: st.one_of(
        st.lists(inner), st.lists(inner).map(tuple), st.lists(st.integers()), st.tuples(st.integers()),
        st.dictionaries(keys, inner), st.builds(BoxRef, inner, inner),
    ), max_leaves=30)


class Flag(IntEnum):
    """An int subclass whose str() and format() are not its JSON text, 1."""
    ONE = 1

    def __str__(self):
        return self.name

    def __format__(self, spec):
        return self.name


# keys whose braces or quotes a str.format template must escape, next to the rest
KEYS = st.one_of(st.sampled_from(["{", "}", "{0}", "{}", '"', "\u00e9", "a", "b"]), TEXT)


def records(values, keys, min_size=1, min_keys=0):
    """Lists of dicts that share one drawn key set."""
    return st.lists(keys, min_size=min_keys, max_size=4, unique=True).flatmap(lambda ks: st.lists(
        st.fixed_dictionaries({key: values for key in ks}), min_size=min_size, max_size=5))


def rows(min_width=0, min_size=1):
    """Lists of int lists or int tuples, all of one width."""
    return st.tuples(st.integers(min_width, 3), st.sampled_from([list, tuple])).flatmap(lambda wk: st.lists(
        st.lists(st.integers(), min_size=wk[0], max_size=wk[0]).map(wk[1]), min_size=min_size, max_size=6))


BOXES = st.builds(BoxRef, st.integers(), st.integers())


def mixed_rows(min_size=1):
    """Lists of int rows of width 2, each a BoxRef, a tuple or a list: ``inspect``'s ribbon and quiver
    arrows hold BoxRefs where other documents hold lists."""
    return st.lists(st.one_of(BOXES, BOXES.map(tuple), BOXES.map(list)), min_size=min_size, max_size=6)


def trip_records():
    """Trips-shaped records as ``plabic.trips_json`` holds them: tuple paths of (x, y) tuples, BoxRef boxes."""
    return st.lists(st.fixed_dictionaries({
        "start": st.integers(), "path": st.lists(st.tuples(st.integers(), st.integers()), max_size=4).map(tuple),
        "boxes": st.lists(BOXES, max_size=3).map(tuple)}), min_size=1, max_size=4)


@st.composite
def near_misses(draw, values, keys):
    """A run that almost batches: one record lacks a key, or one int row holds True or an IntEnum,
    is a tuple among lists, or is empty among non-empty rows."""
    miss = draw(st.sampled_from(["key", "bool", "enum", "tuple", "empty"]))
    if miss == "key":
        run = draw(records(values, keys, min_size=2, min_keys=1))
        del run[draw(st.integers(0, len(run) - 1))][draw(st.sampled_from(list(run[0])))]
        return run
    run = [list(row) for row in draw(rows(min_width=1, min_size=2))]
    j = draw(st.integers(0, len(run) - 1))
    if miss in ("bool", "enum"):
        run[j][draw(st.integers(0, len(run[j]) - 1))] = True if miss == "bool" else Flag.ONE
    else:
        run[j] = tuple(run[j]) if miss == "tuple" else []
    return run


def batches(leaves, keys):
    """Documents of runs that batch (records of one key set, int rows of one width, lists of either)
    and of near misses; records nest in records, as the trips of ``plabic`` do."""
    return st.recursive(leaves, lambda inner: st.one_of(
        records(inner, keys), rows(), st.lists(rows(), max_size=4), near_misses(inner, keys),
        st.dictionaries(keys, inner, max_size=3), rows().map(tuple), mixed_rows(), mixed_rows().map(tuple),
        st.lists(mixed_rows(min_size=0), max_size=4), trip_records(),
    ), max_leaves=24)


# trips-shaped: records whose path and boxes are lists of [x, y] rows of different lengths
TRIPS = {"trips": [
    {"start": 1, "end": 3, "orientation": "clockwise", "path": [[3, 0], [2, 0], [2, 1]], "boxes": [[1, 1]],
     "labels_mu_region": False},
    {"start": 2, "end": 2, "orientation": "counterclockwise", "path": [[2, 1]], "boxes": [],
     "labels_mu_region": True},
], "labels": {"a1i1": [1, 3]}, "mu_region": [2]}
# the same document as ``plabic.trips_json`` holds it: tuple paths and labels, BoxRef boxes
TRIPS_AS_HELD = {"trips": [
    {"start": 1, "end": 3, "orientation": "clockwise", "path": ((3, 0), (2, 0), (2, 1)), "boxes": (BoxRef(1, 1),),
     "labels_mu_region": False},
    {"start": 2, "end": 2, "orientation": "counterclockwise", "path": ((2, 1),), "boxes": (),
     "labels_mu_region": True},
], "labels": {"a1i1": (1, 3)}, "mu_region": (2,)}


def outcome(write, doc):
    try:
        return write(doc)
    except Exception as exc:
        return type(exc)


class TestJsonText:
    """The writer of every command's JSON output against json.dumps(sort_keys=True, indent=2)."""

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(documents(SCALARS, TEXT), batches(SCALARS, KEYS)))
    @example({"b": [[1, -2], [], {}], "a": ({"\u00e9\"": None, "x": [True, 10**30]},)})
    @example([{"{": 1, "}": [1, 2], "{0}": "x", '"': None, "\u00e9": True},
              {"{": -1, "}": [3, 4], "{0}": "", '"': None, "\u00e9": False}])
    @example(TRIPS)
    @example(TRIPS_AS_HELD)
    @example([[1, 2], (3, 4), [], [5, Flag.ONE], [True, 6]])
    @example([BoxRef(1, 2), (3, 4), [5, 6], BoxRef(7, Flag.ONE), BoxRef("a", None), ((1, 2), (3, 4))])
    @example(((1, 2, 3), (4, 5, 6), ()))
    def test_matches_indented_json_dumps(self, doc):
        """Random documents, and runs that batch (records of one key set, int rows of one width, BoxRef,
        tuple and list rows mixed) with their near misses; a template that left a brace of a key unescaped
        raises where json.dumps does not."""
        assert _json_text(doc) == json.dumps(doc, sort_keys=True, indent=2)

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(documents(st.one_of(SCALARS, NOT_JSON), st.one_of(TEXT, st.tuples(st.integers()), BOXES)),
                     batches(st.one_of(SCALARS, NOT_JSON), st.one_of(KEYS, st.tuples(st.integers()), BOXES))))
    @example([{"a": 1, "b": Fraction(1, 2)}, {"a": 10**5000, "b": 1}])
    @example([BoxRef(1, 2), BoxRef(Fraction(1, 2), 3)])
    @example({BoxRef(1, 2): [3]})
    @example([{"a": BoxRef(1, 2)}, {"a": BoxRef(3, 4), BoxRef(5, 6): 7}])
    @example([{"a": 10**5000}, {"a": 1, (1,): 2}])
    @example([{(1,): 1, (2,): 10**5000}, {(1,): 2, (2,): 3}])
    def test_raises_where_json_dumps_raises(self, doc):
        """Where json.dumps raises (an int too long for str(), a value or key of no JSON type),
        the writer raises the same exception type, though a batch writes a column of records before
        the next record: json.dumps meets the Fraction of record 0 before the long int of record 1."""
        assert outcome(_json_text, doc) == outcome(lambda x: json.dumps(x, sort_keys=True, indent=2), doc)

    def test_the_writers_error_stands_where_json_dumps_writes(self, monkeypatch):
        """json.dumps runs on a failed document only to raise what it raises first; where it writes the
        document, the writer's own error is re-raised as it was."""
        def failing(doc, pad):
            raise TypeError("the writer failed")

        monkeypatch.setattr(cli, "_text", failing)
        with pytest.raises(TypeError, match="^the writer failed$"):
            _json_text({"a": [1, 2]})
