"""Tests of the benchmark itself: failure accounting, the tracer, and the inputs.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import math
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import reference
import run
from tracer import Tracer
from workloads import WORKLOADS, Splice, random_band, staircase, staircase_k

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"


@pytest.fixture(autouse=True)
def short_runs(monkeypatch):
    """One set-up per run, and runs of one cycle when ``seconds`` is 0."""
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run, "SETUP_SECONDS", 0)
    monkeypatch.setattr(run, "min_cycles", lambda wl: 1)


def small_splice():
    """The splice workload restricted to n = 12, so that one cycle takes about a second."""
    return Splice(cycle=(0, 0, 0))


def test_raising_op_is_recorded_and_run_continues(monkeypatch):
    wl = small_splice()
    pkg, inputs, _ = run.setup(wl, 7, SRC)
    real = pkg.splicing.right_point
    calls = {"n": 0}

    def flaky(V, a):
        calls["n"] += 1
        if calls["n"] == 4:  # the first right_point call of the second report
            raise AssertionError("injected cut failure")
        return real(V, a)

    monkeypatch.setattr(pkg.splicing, "right_point", flaky)
    m = run.measure(wl, pkg, inputs, 7, seconds=0)
    assert m.attempted == 3
    assert [(f.workload, f.seed, f.op) for f in m.failures] == [("splice", 7, 1)]
    assert "AssertionError: injected cut failure" in m.failures[0].error
    assert [ok for _, _, ok in m.ops] == [True, False, True] and m.digests[1] == ""


def test_runtime_error_in_inspect_is_recorded(monkeypatch):
    wl = WORKLOADS["inspect"]
    pkg, inputs, _ = run.setup(wl, 3, SRC)
    real = pkg.cli.trips_json

    def failing(d):
        if d.n == 64:
            raise RuntimeError("injected failure at n = 64")
        return real(d)

    monkeypatch.setattr(pkg.cli, "trips_json", failing)
    m = run.measure(wl, pkg, inputs, 3, seconds=0)
    n64 = [i for i in range(wl.cycle_len) if wl.size_of(inputs, i) == 64]
    assert m.attempted == wl.cycle_len and len(n64) == 5
    assert [(f.workload, f.seed, f.op) for f in m.failures] == [("inspect", 3, i) for i in n64]
    assert all(f.error == "RuntimeError: injected failure at n = 64" for f in m.failures)
    assert sum(ok for _, _, ok in m.ops) == wl.cycle_len - len(n64)


def test_wrong_output_counts_as_failed(monkeypatch):
    wl = small_splice()
    pkg, inputs, _ = run.setup(wl, 7, SRC)
    real = pkg.splicing.splice_report

    def wrong(V, a):
        doc = real(V, a)
        doc["checks"]["membership"] = "fail"
        return doc

    monkeypatch.setattr(pkg.splicing, "splice_report", wrong)
    m = run.measure(wl, pkg, inputs, 7, seconds=0)
    assert [f.op for f in m.failures] == [0, 1, 2]
    assert all(f.error.startswith("CheckFailed") for f in m.failures)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_shortest_run_has_ten_ops_beyond_the_tail(name, monkeypatch):
    monkeypatch.undo()
    wl = WORKLOADS[name]
    ops = run.min_cycles(wl) * wl.cycle_len
    assert ops - math.ceil(ops * wl.tail_pct / 100) >= 10


def test_every_cycle_does_the_same_work():
    wl = small_splice()
    pkg, inputs, _ = run.setup(wl, 7, SRC)
    assert [a for _, a in inputs] == Splice.columns(12)[:3]
    m = run.Measurement()
    outs = [run.run_op(wl, pkg, inputs, 7, i, m) for i in range(2 * wl.cycle_len)]
    assert not m.failures and outs[:3] == outs[3:]


def test_scaling_cancels_a_slower_machine():
    # the machine slows to half speed during the third op: ops and kernel take twice as long
    kernel = [0.02] * 3 + [0.04] * 5
    ops = [0.5, 0.5, 0.75, 1.0, 1.0, 1.0, 1.0]
    want = 0.5 * reference.NOMINAL_S / 0.02  # each op reads 0.5 s at a kernel time of 0.02 s
    assert reference.scale(ops, kernel) == pytest.approx([want] * 7)
    with pytest.raises(ValueError):
        reference.scale(ops, kernel[:-1])


def test_every_op_lies_between_two_kernel_runs():
    wl = small_splice()
    pkg, inputs, setup_s = run.setup(wl, 7, SRC)
    m = run.measure(wl, pkg, inputs, 7, seconds=0)
    assert len(setup_s) == 1 and len(m.ops) == wl.cycle_len and len(m.kernel_s) == wl.cycle_len + 1
    k = m.kernel_s
    want = [dt * 2 * reference.NOMINAL_S / (k[i] + k[i + 1]) for i, (_, dt, _) in enumerate(m.ops)]
    assert [dt for _, dt, _ in run.scaled_ops(m)] == pytest.approx(want)


def test_self_time_is_duration_minus_children():
    # clock reads in call order: outer starts, inner runs, mid starts, inner runs, mid ends, outer ends
    ticks = iter([0.0, 1.0, 3.0, 4.0, 4.5, 6.0, 7.0, 10.0])
    tr = Tracer(clock=lambda: next(ticks))
    inner = tr.wrap("m.inner", lambda: None)
    mid = tr.wrap("m.mid", lambda: inner())
    outer = tr.wrap("m.outer", lambda: (inner(), mid()))
    outer()
    assert list(tr.parent) == [-1, 0, 0, 2]
    st = tr.stats()
    assert st["m.outer"].calls == 1 and st["m.outer"].total_s == 10.0
    # outer covers [0, 10]; its children inner [1, 3] and mid [4, 7]
    assert st["m.outer"].self_s == 10.0 - 2.0 - 3.0
    # mid covers [4, 7]; its child inner [4.5, 6]
    assert st["m.mid"].self_s == 3.0 - 1.5
    assert st["m.inner"].calls == 2 and st["m.inner"].self_s == 2.0 + 1.5
    assert tr.calls_within("m.inner", "m.mid") == 1


def test_recursive_span_counts_once_in_total():
    ticks = iter(range(100))
    tr = Tracer(clock=lambda: float(next(ticks)))

    def f(depth):
        return f(depth - 1) if depth else 0

    f = tr.wrap("m.f", f)
    f(2)  # starts at 0, 1, 2; ends at 3, 4, 5
    s = tr.stats()["m.f"]
    assert (s.calls, s.total_s, s.self_s) == (3, 5.0, 5.0)


def test_install_replaces_every_binding_and_uninstall_restores():
    pkg = run.import_package(SRC)
    originals = {
        "membership": pkg.variety.membership,
        "span": pkg.linalg.Subspace.__dict__["span"],
        "delta": pkg.variety.PointV.delta,
        "rank": pkg.linalg.RatMatrix.rank,
    }
    tr = Tracer()
    tr.install("skewpos")
    try:
        bound = {pkg.membership, pkg.variety.membership, pkg.cluster.membership,
                 pkg.splicing.membership, pkg.cli.membership}
        assert len(bound) == 1 and originals["membership"] not in bound
        assert pkg.linalg.Subspace.__dict__["span"] is not originals["span"]
        assert isinstance(pkg.linalg.Subspace.__dict__["span"], classmethod)
        assert pkg.variety.PointV.delta is not originals["delta"]
        assert pkg.linalg.RatMatrix.rank is not originals["rank"]
        d = pkg.diagram.SkewDiagram.from_json(staircase(12, 5))
        V = pkg.variety.sample(d, 1)
        pkg.splicing.splice_report(V, 3)
        st = tr.stats()
        # one report: 10 membership, 3 right_point, 2 left_point and 3 seed_at calls
        assert tr.calls_within("variety.membership", "splicing.splice_report") == 10
        assert st["splicing.right_point"].calls == 3
        assert st["splicing.left_point"].calls == 2
        assert st["cluster.seed_at"].calls == 3
        assert st["linalg.Subspace.span"].calls > 0 and st["variety.PointV.delta"].calls > 0
        pkg.plabic.verify_trips(d)
        assert tr.calls_within("plabic.trip", "plabic.verify_trips") == 4 * d.n
    finally:
        tr.uninstall()
    assert pkg.cluster.membership is originals["membership"] is pkg.membership
    assert pkg.linalg.Subspace.__dict__["span"] is originals["span"]
    assert pkg.variety.PointV.delta is originals["delta"]
    assert pkg.linalg.RatMatrix.rank is originals["rank"]


@pytest.mark.parametrize("name", ["inspect", "splice"])
def test_traced_outputs_equal_untraced(name):
    wl = WORKLOADS["inspect"] if name == "inspect" else small_splice()
    pkg, inputs, _ = run.setup(wl, 5, SRC)
    m = run.measure(wl, pkg, inputs, 5, seconds=0)
    tracer, traced_s, untraced_s = run.traced_block(wl, pkg, inputs, 5, m, out_dir=None)
    assert not m.failures and m.attempted == wl.cycle_len + wl.block and len(tracer) > 0
    layers = run.per_layer(wl, tracer, inputs, m, traced_s, untraced_s)
    assert layers["trace.overhead_frac"]["value"] > -1
    if name == "splice":
        assert layers["splicing.membership_per_report"]["value"] == 10
        assert layers["variety.sample.accept_ratio"]["value"] > 0


def test_default_seed_digests_match_recorded():
    wl = WORKLOADS["inspect"]
    pkg, inputs, _ = run.setup(wl, 1, SRC)
    m = run.measure(wl, pkg, inputs, 1, seconds=0)
    assert m.digests == run.load_expected()["digests"]["inspect"]


def test_input_families():
    assert [staircase_k(n) for n in (12, 20, 32)] == [5, 8, 12]
    assert staircase(12, 5) == {"n": 12, "k": 5, "lambda": [6, 5, 4, 3, 2], "mu": [3, 2, 1]}
    pkg = run.import_package(SRC)
    for s in range(50):
        n = 32 + 8 * (s % 5)
        shape = random_band(random.Random(s), n, staircase_k(n))
        d = pkg.diagram.SkewDiagram.from_json(shape)  # raises unless lambda and mu are valid
        rows = [lj - (shape["mu"][j] if j < len(shape["mu"]) else 0) for j, lj in enumerate(shape["lambda"])]
        assert d.k == staircase_k(n) and all(1 <= r <= 3 for r in rows)


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "inspect", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
