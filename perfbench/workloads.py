"""Workloads of the skewpos benchmark: inputs, operations and output checks.

Every input is generated here from the workload seed. The random diagrams
and the staircase family are the benchmark's own, so that changes to
``skewpos.cli.random_diagram`` or to the test strategies cannot change what
is measured. The package receives only the generated diagrams (as JSON) and,
for ``splice``, points it sampled itself during set-up.

A workload runs its operations in a fixed cycle, and set-up generates the
inputs of one cycle: operation i works on input i mod the cycle length, so
every cycle of a run does the same work. Which (n, k) an input has depends
only on its position in the cycle; the seed draws the shapes and the points.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import re
from dataclasses import dataclass

DEFAULT_SEED = 1


class CheckFailed(Exception):
    """An operation returned, but its output is wrong."""


def subseed(seed: int, *parts) -> int:
    digest = hashlib.sha256(repr((seed,) + parts).encode()).hexdigest()
    return int(digest[:16], 16)


def random_band(rng: random.Random, n: int, k: int) -> dict:
    """A random band of k rows, each 3 boxes wide where lambda_j allows, like the staircase.

    lambda has k rows drawn uniformly from 1..n-k and mu_j = max(lambda_j - 3, 0),
    so the shape has about 3k boxes. The seed changes the shape but not the
    amount of work, which grows steeply with the box count.
    """
    lam = sorted((rng.randint(1, n - k) for _ in range(k)), reverse=True)
    mu = [lj - 3 for lj in lam if lj > 3]
    return {"n": n, "k": k, "lambda": lam, "mu": mu}


def staircase_k(n: int) -> int:
    """k of the staircase family: 5, 8 and 12 at n = 12, 20 and 32."""
    return (3 * n + 7) // 8


def staircase(n: int, k: int) -> dict:
    """lambda_j = max(w - j, 1) and mu_j = max(w - j - 3, 0), with w = n - k."""
    w = n - k
    lam = [max(w - j, 1) for j in range(1, k + 1)]
    mu = [m for m in (max(w - j - 3, 0) for j in range(1, k + 1)) if m > 0]
    return {"n": n, "k": k, "lambda": lam, "mu": mu}


def call_cli(pkg, argv: list[str]) -> str:
    """Run one ``skewpos`` subcommand in-process and return its standard output."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = pkg.cli.main(argv)
    if code != 0:
        raise CheckFailed(f"skewpos {argv[0]} exited with {code}: {buf.getvalue()[:300]}")
    return buf.getvalue()


_RATIONAL = re.compile(r"-?(\d+)(?:/(\d+))?")
OUTPUT_SEP = "\n\x1e\n"  # between the JSON documents of one op's output


def max_bits(text: str) -> int:
    """Largest numerator or denominator bit length among the rationals ("p/q" or "p" strings)."""
    best = 0

    def walk(x):
        nonlocal best
        if isinstance(x, dict):
            for v in x.values():
                walk(v)
        elif isinstance(x, list):
            for v in x:
                walk(v)
        elif isinstance(x, str):
            m = _RATIONAL.fullmatch(x)
            if m:
                best = max(best, int(m.group(1)).bit_length(), int(m.group(2) or 1).bit_length())

    for doc in text.split(OUTPUT_SEP):
        walk(json.loads(doc))
    return best


@dataclass(frozen=True)
class Workload:
    """One workload: a cycle of operations on seed-generated inputs.

    ``block`` is the number of leading operations whose outputs are hashed for
    the output check at the default seed and re-run under the tracer.
    ``tail_pct`` is the percentile reported as the tail latency; a run lasts
    long enough for at least ten operations to lie beyond it.
    """

    name: str
    cycle: tuple
    block: int
    tail_pct: int

    @property
    def cycle_len(self) -> int:
        return len(self.cycle)

    def make_inputs(self, pkg, seed: int):
        """The inputs of one cycle."""
        raise NotImplementedError

    def run_op(self, pkg, inputs, i: int):
        """Run operation i and return what the package returned."""
        raise NotImplementedError

    def text(self, result) -> str:
        """The result of an operation as canonical JSON text."""
        return result

    def check(self, inputs, i: int, output: str) -> None:
        """Raise CheckFailed unless the output of operation i is correct."""
        raise NotImplementedError

    def size_of(self, inputs, i: int) -> int:
        """n of the diagram operation i works on."""
        raise NotImplementedError


# -- splice ---------------------------------------------------------------------------

SPLICE_SIZES = (12, 20, 32)
# indexes into the sizes: 8, 2 and 1 reports per cycle, which took about 1.5, 1.7
# and 3.2 s at n = 12, 20 and 32 when the benchmark was written
SPLICE_CYCLE = (0, 1, 2, 0, 0, 0, 1, 0, 0, 0, 0)


@dataclass(frozen=True)
class Splice(Workload):
    """``splice_report(V, a)`` on the staircase family at n = 12, 20 and 32.

    V = sample(d, s) is drawn once per size in set-up. The m-th slot of the
    cycle at a size reports at the m-th column of a fixed order of the chart
    columns 1..n-k, so every cycle reports at the same columns.
    """

    name: str = "splice"
    cycle: tuple = SPLICE_CYCLE
    block: int = 3
    tail_pct: int = 65

    @staticmethod
    def columns(n: int) -> list[int]:
        cols = list(range(1, n - staircase_k(n) + 1))
        random.Random(2000 + n).shuffle(cols)
        return cols

    def make_inputs(self, pkg, seed):
        points = {}
        for j in sorted(set(self.cycle)):
            n = SPLICE_SIZES[j]
            d = pkg.diagram.SkewDiagram.from_json(staircase(n, staircase_k(n)))
            cols = self.columns(n)
            for attempt in range(100):
                V = pkg.variety.sample(d, subseed(seed, "splice", n, attempt))
                if all(pkg.splicing.in_U_a(V, a) for a in cols):
                    break
            else:
                raise RuntimeError(f"no point on every column chart at n = {n}")
            points[j] = (V, cols)
        return [
            (points[j][0], points[j][1][self.cycle[:p].count(j) % len(points[j][1])])
            for p, j in enumerate(self.cycle)
        ]

    def run_op(self, pkg, inputs, i):
        return pkg.splicing.splice_report(*inputs[i % self.cycle_len])

    def text(self, result):
        return json.dumps(result, sort_keys=True)

    def check(self, inputs, i, output):
        checks = json.loads(output)["checks"]
        if any(v != "pass" for v in checks.values()):
            raise CheckFailed(f"splice_report checks failed: {checks}")

    def size_of(self, inputs, i):
        return inputs[i % self.cycle_len][0].diagram.n


# -- inspect --------------------------------------------------------------------------

INSPECT_NS = (32, 40, 48, 56, 64)
# per cycle, the staircase diagram and four random bands of every n, all with the staircase's k;
# the five ops of one n take about the same time, so p50 and p70 fall in the middle of such a group
INSPECT_CYCLE = tuple((kind, n) for kind in ("staircase",) + ("random",) * 4 for n in INSPECT_NS)


@dataclass(frozen=True)
class Inspect(Workload):
    """``inspect``, ``plabic``, ``quiver`` and ``verify --only plabic`` on one diagram.

    Staircase and random diagrams with 32 <= n <= 64; no linear algebra runs.
    ``plabic`` and ``quiver`` emit JSON, and the first three outputs are
    checked against each other; ``verify --only plabic`` runs the trip check
    of the property suite (``verify_trips``) and must pass.
    """

    name: str = "inspect"
    cycle: tuple = INSPECT_CYCLE
    block: int = len(INSPECT_CYCLE)
    tail_pct: int = 70

    def make_inputs(self, pkg, seed):
        ops = []
        for i, (kind, n) in enumerate(self.cycle):
            if kind == "staircase":
                ops.append(json.dumps(staircase(n, staircase_k(n))))
            else:
                rng = random.Random(subseed(seed, "inspect", i))
                ops.append(json.dumps(random_band(rng, n, staircase_k(n))))
        return ops

    def run_op(self, pkg, inputs, i):
        d = inputs[i % self.cycle_len]
        return OUTPUT_SEP.join(
            call_cli(pkg, argv)
            for argv in (
                ["inspect", "--diagram", d],
                ["plabic", "--diagram", d, "--format", "json"],
                ["quiver", "--diagram", d, "--format", "json"],
                ["verify", "--diagram", d, "--only", "plabic"],
            )
        )

    def check(self, inputs, i, output):
        doc, plabic, quiver, verify = (json.loads(t) for t in output.split(OUTPUT_SEP))
        if verify["status"] != "pass" or verify["checks"] != 1:
            raise CheckFailed(f"verify --only plabic reported {verify['status']}: {verify['failures']}")
        n = doc["diagram"]["n"]
        if doc["quiver"] != quiver:
            raise CheckFailed("quiver output differs from the quiver in inspect")
        labels = {box: sorted(v) for box, v in doc["labels"].items()}
        if plabic["labels"] != labels:
            raise CheckFailed("trip labels differ from the box labels")
        ends = [(t["end"] - 1) % n + 1 for t in plabic["trips"]]
        if ends != [(f - 1) % n + 1 for f in doc["f"]]:
            raise CheckFailed("trip permutation differs from the affine permutation")
        if plabic["mu_region"] != doc["I_mu"]:
            raise CheckFailed("mu-region label differs from I_mu")

    def size_of(self, inputs, i):
        return json.loads(inputs[i % self.cycle_len])["n"]


WORKLOADS = {w.name: w for w in (Splice(), Inspect())}
