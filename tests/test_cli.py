import json

from skewpos.cli import main, random_diagram, subseed

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
        assert V.seed == 3

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
        assert "minor at [5, 6, 10, 11, 12] vanishes" in err

    def test_point_diagram_mismatch(self, capsys, tmp_path):
        out = tmp_path / "p.json"
        run(capsys, "sample", "--diagram", RUNNING, "--seed", "3", "--out", str(out))
        code, _, err = run(capsys, "splice", "--diagram", INTRO, "--point", str(out),
                           "--column", "6")
        assert code == 2


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
        assert code == 2 and "frozen" in err


class TestVerify:
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

        real = cli.membership
        monkeypatch.setattr(cli, "membership", lambda M, d: not real(M, d))
        code, out, _ = run(capsys, "verify", "--trials", "2", "--seed", "5",
                           "--only", "membership")
        assert code == 1
        doc = json.loads(out)
        assert doc["status"] == "fail"
        repro = doc["failures"][0]
        assert {"trial", "diagram", "seed", "check"} <= set(repro)


class TestInputErrors:
    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "inspect", "--diagram", "/nonexistent/d.json")
        assert code == 2 and "input error" in err

    def test_bad_json(self, capsys, tmp_path):
        f = tmp_path / "bad.json"
        f.write_text("{broken")
        code, _, err = run(capsys, "inspect", "--diagram", str(f))
        assert code == 2


class TestRandomDiagram:
    def test_valid_and_deterministic(self):
        import random

        for t in range(30):
            d1 = random_diagram(random.Random(subseed(1, t)))
            d2 = random_diagram(random.Random(subseed(1, t)))
            assert d1 == d2
            assert 0 < d1.k < d1.n <= 12
