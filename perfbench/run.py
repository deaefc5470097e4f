"""Benchmark of the skewpos package: one workload per run, closed loop, one caller.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload splice --seed 1 --seconds 45 --trace 0

With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
also runs the first operations of the workload under the span tracer and
prints the per-layer metrics, the tracing overhead, and writes the spans to
``perfbench/out/``. The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``. Times are
scaled to a nominal machine speed by a reference kernel run between
operations (``reference.py``). Workloads, metrics and the recorded baseline
are described in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import reference
from tracer import LAYERS, Tracer
from workloads import DEFAULT_SEED, SPLICE_SIZES, WORKLOADS, CheckFailed, call_cli, max_bits

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 9  # set-up runs at least this often
SETUP_SECONDS = 3.0  # and until this much time has passed


def load_expected() -> dict:
    """Output digests at the default seed and the ``skewpos verify`` fingerprint."""
    return json.loads((HERE / "expected.json").read_text())


@dataclass
class Failure:
    workload: str
    seed: int
    op: int
    error: str

    def line(self) -> str:
        return f"FAILED workload={self.workload} seed={self.seed} op={self.op}: {self.error}"


@dataclass
class Measurement:
    ops: list[tuple[int, float, bool]] = field(default_factory=list)  # (op index, seconds, passed)
    kernel_s: list[float] = field(default_factory=list)  # the reference kernel's time before each op
                                                          # and, once the run ends, after the last
    digests: list[str] = field(default_factory=list)  # first ``block`` ops, "" if failed
    max_bits: int = 0                                 # in the outputs of the first ``block`` ops
    failures: list[Failure] = field(default_factory=list)
    attempted: int = 0

    def fail(self, workload: str, seed: int, op: int, error: str, detail: str = "") -> None:
        self.failures.append(Failure(workload, seed, op, error))
        print(self.failures[-1].line(), detail, file=sys.stderr, sep="\n")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def import_package(src: Path):
    """(Re-)import skewpos from ``src`` and return the package with its modules loaded."""
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m == "skewpos" or m.startswith("skewpos.")]:
        del sys.modules[name]
    pkg = importlib.import_module("skewpos")
    for layer in LAYERS:
        importlib.import_module(f"skewpos.{layer}")
    if Path(pkg.__file__).resolve().parent != (src / "skewpos").resolve():
        raise ImportError(f"skewpos was imported from {pkg.__file__}, not from {src}")
    return pkg


def setup(wl, seed: int, src: Path):
    """Import the package and generate the inputs repeatedly; keep the last.

    Set-up runs SETUP_REPEATS times, and more until SETUP_SECONDS have passed.

    Returns the package, the inputs, and the set-up times scaled to the
    reference kernel's nominal speed (the kernel runs between set-ups).
    """
    times, kernel_s = [], []
    start = time.perf_counter()
    while len(times) < SETUP_REPEATS or time.perf_counter() - start < SETUP_SECONDS:
        kernel_s.append(reference.time_kernel())
        t0 = time.perf_counter()
        pkg = import_package(src)
        inputs = wl.make_inputs(pkg, seed)
        times.append(time.perf_counter() - t0)
        gc.collect()  # free the modules of the previous import, so that peak_rss_mb counts one
    kernel_s.append(reference.time_kernel())
    return pkg, inputs, reference.scale(times, kernel_s)


def run_op(wl, pkg, inputs, seed: int, i: int, m: Measurement) -> str | None:
    """Time the reference kernel, then run, time and check operation i.

    A raising or wrong op is recorded, not propagated.
    """
    m.kernel_s.append(reference.time_kernel())
    m.attempted += 1
    t0 = time.perf_counter()
    try:
        result = wl.run_op(pkg, inputs, i)
        dt = time.perf_counter() - t0
        out = wl.text(result)
        wl.check(inputs, i, out)
    except Exception as exc:  # the run goes on; the failure is reported with its op index
        m.ops.append((i, time.perf_counter() - t0, False))
        detail = traceback.format_exc(limit=-3) if not isinstance(exc, CheckFailed) else ""
        m.fail(wl.name, seed, i, f"{type(exc).__name__}: {exc}", detail)
        return None
    m.ops.append((i, dt, True))
    return out


def min_cycles(wl) -> int:
    """Cycles a run needs so that ten of its ops lie beyond the tail percentile."""
    return math.ceil(math.ceil(1000 / (100 - wl.tail_pct)) / wl.cycle_len)


def measure(wl, pkg, inputs, seed: int, seconds: float) -> Measurement:
    """Closed loop over whole cycles until ``seconds`` have passed and min_cycles ran."""
    m = Measurement()
    start = time.perf_counter()
    i = 0
    while True:
        for _ in range(wl.cycle_len):
            out = run_op(wl, pkg, inputs, seed, i, m)
            if i < wl.block:
                m.digests.append(digest(out) if out is not None else "")
                m.max_bits = max(m.max_bits, max_bits(out) if out is not None else 0)
            i += 1
        if i >= min_cycles(wl) * wl.cycle_len and time.perf_counter() - start >= seconds:
            m.kernel_s.append(reference.time_kernel())
            return m


def check_expected(wl, seed: int, pkg, m: Measurement) -> None:
    """At the default seed, compare output digests with the recorded ones.

    The splice workload also compares the output of ``skewpos verify --trials
    30 --seed 1`` with its recorded fingerprint: splicing is most of the time
    of that command.
    """
    if seed != DEFAULT_SEED:
        return
    expected = load_expected()
    for i, (got, want) in enumerate(zip(m.digests, expected["digests"][wl.name])):
        if got and got != want:
            m.fail(wl.name, seed, i, f"output digest {got[:16]} differs from the recorded {want[:16]}")
    if wl.name == "splice":
        fp = expected["verify_fingerprint"]
        m.attempted += 1
        try:
            got = digest(call_cli(pkg, fp["argv"]))
        except Exception as exc:  # a crash of the fingerprint run is a failed op like any other
            got = f"{type(exc).__name__}: {exc}"
        if got != fp["sha256"]:
            m.fail(wl.name, seed, -1, f"skewpos {' '.join(fp['argv'])}: {got} differs from the recorded fingerprint")


def percentile(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    idx = max(0, -(-len(sorted_values) * pct // 100) - 1)
    return sorted_values[int(idx)]


def end_to_end(wl, m: Measurement, inputs, setup_times: list[float]) -> tuple[dict, list[str]]:
    """Timings over every op of the run, scaled to the reference kernel's nominal speed.

    A shared machine's speed can drift by up to a factor of two over minutes,
    longer than a run, so wall times of the same work differ by that much from
    run to run. Each op's time is therefore scaled by the reference kernel's
    time around it (see ``reference.py``); the wall figures are printed too.
    Every cycle does the same work, so each run measures the same mix of
    operations.
    """
    scaled = scaled_ops(m)
    passed = sorted(dt for _, dt, ok in scaled if ok)
    ops = passed or sorted(dt for _, dt, _ in scaled)
    of = f"{len(ops)} ops in {len(m.ops) // wl.cycle_len} cycles"
    metrics = {
        "setup_s": (statistics.median(setup_times), "s", f"median of {len(setup_times)} set-ups"),
        "ops_per_s": (len(passed) / sum(dt for _, dt, _ in scaled), "1/s",
                      f"ops passed per second spent in ops, {of}; one caller, closed loop"),
        "op_p50_ms": (1000 * statistics.median(ops), "ms", of),
        "op_tail_ms": (1000 * percentile(ops, wl.tail_pct), "ms", f"p{wl.tail_pct} of {of}"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", "ru_maxrss"),
    }
    lines = [f"{k} {v:.6g} {u} ({note})" for k, (v, u, note) in metrics.items()]
    wall = sorted(dt for _, dt, ok in m.ops if ok) or [0.0]
    lines.append(f"# wall, unscaled: ops_per_s {len(passed) / sum(dt for _, dt, _ in m.ops):.6g}, "
                 f"op_p50_ms {1000 * statistics.median(wall):.6g}; reference kernel median "
                 f"{1000 * statistics.median(m.kernel_s):.6g} ms, nominal {1000 * reference.NOMINAL_S:g} ms")
    frac = len(m.failures) / m.attempted
    lines.append(f"failed_ops_frac {frac:.6g} frac ({len(m.failures)} of {m.attempted} ops)")
    for n, ts in splice_times(wl, inputs, m).items():
        lines.append(f"splice_s.n{n} {statistics.median(ts):.6g} s (median of {len(ts)} reports)")
    return {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()}, lines


def scaled_ops(m: Measurement) -> list[tuple[int, float, bool]]:
    """The ops with their times scaled to the reference kernel's nominal speed."""
    times = reference.scale([dt for _, dt, _ in m.ops], m.kernel_s)
    return [(i, dt, ok) for (i, _, ok), dt in zip(m.ops, times)]


def splice_times(wl, inputs, m: Measurement) -> dict[int, list[float]]:
    """On the splice workload, scaled seconds per passed report by n."""
    by_size: dict[int, list[float]] = {}
    for i, dt, ok in scaled_ops(m) if wl.name == "splice" else ():
        if ok:
            by_size.setdefault(wl.size_of(inputs, i), []).append(dt)
    return dict(sorted(by_size.items()))


def traced_block(wl, pkg, inputs, seed: int, m: Measurement, out_dir: Path | None):
    """Trace one set-up and the first ``block`` ops; return (tracer, traced s, untraced s).

    Each op runs untraced right before its traced run, so that the two times
    for the tracing overhead are taken close together.
    """
    tracer = Tracer()
    tracer.install(pkg.__name__)
    try:
        wl.make_inputs(pkg, seed)
    finally:
        tracer.uninstall()
    traced_s = untraced_s = 0.0
    for i in range(wl.block):
        m.attempted += 1
        tracer.current_op = i
        try:
            t0 = time.perf_counter()
            wl.run_op(pkg, inputs, i)
            untraced = time.perf_counter() - t0
            tracer.install(pkg.__name__)
            try:
                t0 = time.perf_counter()
                result = wl.run_op(pkg, inputs, i)
                traced = time.perf_counter() - t0
            finally:
                tracer.uninstall()
            out = wl.text(result)
        except Exception as exc:  # recorded like an untraced failure
            m.fail(wl.name, seed, i, f"traced: {type(exc).__name__}: {exc}", traceback.format_exc(limit=-3))
            continue
        traced_s += traced
        untraced_s += untraced
        if m.digests[i] and digest(out) != m.digests[i]:
            m.fail(wl.name, seed, i, "traced output differs from untraced output")
    if out_dir is not None:
        out_dir.mkdir(exist_ok=True)
        tracer.dump(out_dir / f"spans-{wl.name}.json.gz", {"workload": wl.name, "seed": seed})
    return tracer, traced_s, untraced_s


def per_layer(wl, tracer: Tracer, inputs, m: Measurement, traced_s: float, untraced_s: float) -> dict:
    """Per-layer numbers of one traced set-up plus one traced block, and the tracing overhead."""
    st = tracer.stats()

    def stat(name, attr):
        return getattr(st[name], attr) if name in st else 0

    def layer_self(layer):
        return sum(s.self_s for name, s in st.items() if name.startswith(layer + "."))

    def per_report(inner):
        reports = stat("splicing.splice_report", "calls")
        return tracer.calls_within(inner, "splicing.splice_report") / reports if reports else 0

    # every attempt of the sampler starts with one rank test of the drawn matrix
    attempts = tracer.direct_children("linalg.RatMatrix.rank", "variety.sample")
    trips = tracer.calls_within("plabic.trip", "plabic.verify_trips")
    trip_n = sum(
        wl.size_of(inputs, tracer.op[sid]) for sid in range(len(tracer))
        if tracer.names[tracer.name_id[sid]] == "plabic.verify_trips"
    )
    values = {
        f"{name}.{attr}": stat(name, attr)
        for name, attrs in (
            ("linalg.minor", ("calls", "self_s")),
            ("linalg.Subspace.span", ("calls", "self_s")),
            ("linalg.Subspace.intersect", ("calls", "total_s")),
            ("linalg.solve_columns", ("calls", "total_s")),
            ("linalg.RatMatrix.rank", ("calls", "self_s")),
            ("variety.membership", ("calls", "total_s")),
            ("variety.f_of_point", ("calls", "total_s")),
            ("variety.sample", ("calls", "total_s")),
            ("variety.omega", ("total_s",)),
            ("variety.xi", ("total_s",)),
            ("variety.PointV.delta", ("calls",)),
            ("cluster.seed_at", ("calls", "total_s")),
            ("cluster.quiver", ("calls",)),
            ("cluster.exchange_ratio", ("calls", "self_s")),
            ("splicing.splice_report", ("calls", "total_s", "self_s")),
            ("splicing.right_point", ("calls",)),
            ("splicing.left_point", ("calls",)),
            ("splicing.flag_at_cut", ("total_s",)),
            ("plabic.trip", ("calls", "total_s")),
            ("plabic.trips_json", ("total_s",)),
            ("plabic.verify_trips", ("total_s",)),
            ("permutations.baf", ("calls", "total_s")),
            ("permutations.necklace", ("total_s",)),
            ("braid.beta", ("total_s",)),
            ("cli.emit", ("total_s",)),
        )
        for attr in attrs
    }
    sizes = splice_times(wl, inputs, m)
    values.update({
        "linalg.self_s": layer_self("linalg"),
        "variety.sample.attempts": attempts,
        "variety.sample.accept_ratio": stat("variety.sample", "calls") / attempts if attempts else 0,
        "splicing.membership_per_report": per_report("variety.membership"),
        "splicing.right_point_per_report": per_report("splicing.right_point"),
        "splicing.left_point_per_report": per_report("splicing.left_point"),
        "splicing.seed_at_per_report": per_report("cluster.seed_at"),
        "plabic.trip_per_n_in_verify_trips": trips / trip_n if trip_n else 0,
        "diagram.self_s": layer_self("diagram"),
        "diagram.ribbon.calls": stat("diagram.SkewDiagram.ribbon", "calls"),
        "cli.self_s": layer_self("cli"),
        "output.max_bits": m.max_bits,
        "failed_ops_frac": len(m.failures) / m.attempted,
        "trace.spans": len(tracer),
        "trace.untraced_block_s": untraced_s,
        "trace.traced_block_s": traced_s,
        "trace.overhead_frac": traced_s / untraced_s - 1 if untraced_s else 0,
    })
    for n in SPLICE_SIZES:
        values[f"splice_s.n{n}"] = statistics.median(sizes[n]) if n in sizes else 0
    return {k: {"value": v, "unit": unit_of(k)} for k, v in values.items()}


def unit_of(metric: str) -> str:
    if metric.endswith((".calls", ".attempts", ".spans")):
        return "count"
    if metric.endswith("_s") or metric.startswith("splice_s."):
        return "s"
    if metric.endswith("max_bits"):
        return "bits"
    return "ratio"


def run(workload: str, seed: int, seconds: float, trace: bool, root: Path) -> tuple[dict, list[str]]:
    wl = WORKLOADS[workload]
    src = root / "src"
    pkg, inputs, setup_times = setup(wl, seed, src)
    m = measure(wl, pkg, inputs, seed, seconds)
    check_expected(wl, seed, pkg, m)
    metrics, lines = end_to_end(wl, m, inputs, setup_times)
    if trace:
        tracer, traced_s, untraced_s = traced_block(wl, pkg, inputs, seed, m, HERE / "out")
        metrics = per_layer(wl, tracer, inputs, m, traced_s, untraced_s)
        printed = {line.split()[0] for line in lines}
        lines += [f"{k} {v['value']:.6g} {v['unit']}" for k, v in metrics.items() if k not in printed]
    result = {
        "correct": not m.failures,
        "attempted": m.attempted,
        "failed": len(m.failures),
        "metrics": metrics,
    }
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "skewpos" / "__init__.py").is_file():
        print(f"no skewpos source tree under {root / 'src'}; run from the repository root", file=sys.stderr)
        return 2
    print(f"# skewpos benchmark: workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} python={sys.version.split()[0]} nproc={os.cpu_count()}")
    result, lines = run(args.workload, args.seed, args.seconds, bool(args.trace), root)
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
