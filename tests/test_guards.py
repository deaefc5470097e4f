"""Guards for the compute-once splicing and trip pipelines and the integer kernel.

The digests were recorded before the pipelines were restructured: the reports
and the verify output must stay byte-identical.  The count tests pin how often
the expensive invariants run, and a source check keeps every invariant an
explicit raise that also runs under ``python -O``.  The surface checks keep
every public name of the package used by the package, and every parsed CLI
option read by its subcommand.
"""

import ast
import hashlib
import inspect
import json
import random
import sys
from collections import Counter
from dataclasses import replace
from math import gcd, prod
from pathlib import Path

import pytest

import skewpos
from skewpos import BoxRef, Cut, InvariantError, SkewDiagram, baf, omega, right_point, sample, splice_report, xi
from skewpos.cli import build_parser, main
from skewpos.linalg import RatMatrix, _tableau
from skewpos.permutations import BoundedAffinePermutation
from skewpos.plabic import _boundary_path, _trip, ascii_grid, trips, trips_json, verify_trips
from skewpos.splicing import _vanishing_chart_label, in_U_a, left_point
from skewpos.variety import PointV, _walk, check_labeling, membership

import conftest
from conftest import Subspace, flag, right_point_minor_oracle, staircase, transversal, zassenhaus
from test_cli import INTRO, RUNNING

# sha256 of json.dumps(splice_report(sample(intro, seed=16), a), sort_keys=True)
INTRO_SEED16_REPORTS = {
    1: "539424139b37d04952d5d87b759379a6e772b1c10cc03cd3246af6d336e2c15e",
    2: "444ab703b4af045076491ec073cb80977dd6d90455a8a9477794a68e9e351f8e",
    3: "9fb3e9419561587b62612b1b949f989e990373566a1c9c830046e2d2877cca3d",
    4: "e8c4eafa0bab5fe3c79880d9ea47803f8770c919cf647681f5d7d80fa7b08630",
    5: "10dbe7fae7693b25e9a2101c345e9cb1bf6549b7256b71a531c96a5c22772d55",
    6: "f5585bb6c2f05550aa81f6dd427104795aa9ee271c5309700a666d0570b8e120",
    7: "6728f001e74173a1a0926d3e0049c16878f140a00a84a511f51668c9dab33a27",
}

# sha256 of json.dumps(splice_report(sample(staircase(32), seed=1), a), sort_keys=True), recorded
# while every minor was a k x k determinant of the point's columns
STAIRCASE32_SEED1_REPORTS = {
    1: "d595c4b573cd1f3ce5e769ee5dff62ff6163c474a7d23135b6985d47eedaf56a",
    2: "4a7b3802152c11fc6058a715a09f3e6e6d5fb817a887e2499ef210d61a6f2a8b",
    3: "b692dd50e22827b1114830db18908926b3751583b47e637b24eb458257630cf7",
    4: "227a45560fc7efd395483a508ca1edd2ea67a054eb4f969348b31ee21c7a1de4",
    5: "0a5cb236179dba481e9c0a1c52756a8db13251b11e8447cf9c6909958abb9944",
    6: "80b008d50b74640bdfcf2906b1cc3895e6244cdf85503907599987e5eee6e08f",
    7: "92287b9c7112aae317b73f58c6cfc4fe0d43203b61a3612ebf29911e3be53cc5",
    8: "424443987ef174740e5793b007e6c3d26c3a2684862d8288f103faaa9579aea2",
    9: "296a3562d26093c90d6c183a8aceddb0bcd33a2227fbda77405eeba31636a8a5",
    10: "d2d23d43f7b6dc40a9884c1bd632fe87e12c2b0b9fb2adb756982f2d187abbfd",
    11: "b18f2ae0dfcf8b9f6ead6694ec9a79d833c7699064066e13411fa1896dbb6907",
    12: "ec4a2f4b3c090e0059728f52bdbcc8ab601d7c9a05fa81067bff4d0c93144fe6",
    13: "b63a822f8c4fe75681320fc443b8260acd85f6810df775516e0aff0e93ad81f1",
    14: "49cd9b0779a28ce58f4f270c02fd611332d49244ec8533a2e43c8818043b0183",
    15: "1f33012a01d0d73058f52cc026f1be396d6abc3d7a102f81692365d81f1383bd",
    16: "fd146c2c10479a5b45be631458d2d80ae132d7ccf53e6db80e0cf5f47215b7c9",
    17: "c1f87d256e998791420625923fc317af5b333754cff7e5a58d9c458d485bc307",
    18: "2cb86fa4da17539ad2fd2db4025b7d7babf04492851bfb942d75851c231275d4",
    19: "85325f81f02761f50750208f00ed68a6aa020cfaa03f927377546431b2aae120",
    20: "12a3f0f5b6ce0c6dc90285a8249d08a4557b316efb3e3eebb579321d54af56d9",
}

# sha256 of the standard output of `skewpos verify --trials 5 --seed 1`
VERIFY_TRIALS5_SEED1 = "64570c6c2f86f68e71c9d887d8c13cb8bb2145952bc8293770bced8f441bd45a"
# the same for `--trials 30 --seed 1`, the fingerprint the benchmark also checks
VERIFY_TRIALS30_SEED1 = "781622fb18673edc7c67b63952fc8f454e5840947b00ae40a90a40e55873bff7"

# sha256 of json.dumps(trips_json(d), sort_keys=True) and of ascii_grid(d), recorded
# with the Fraction ray-casting enclosure; "staircase" is staircase(64), k = 24
PLABIC_OUTPUT = {
    "running": ("5a3c83d2def6e74f595495b9ec3b974826b91143b42b1e52cbc4be8821b6afb3",
                "348008e7ac449feda7549c1b6543d960ddbbdcaba5c07e5b5248fbeac9c16ae3"),
    "disconnected": ("7843515e4743fdef187bf8d51fc0112a6229b3e07b91d79945595556fb5633ca",
                     "0dc1009c254b5bcf2a57ca482c327557f3f2610fbfbeed7c2aad4f562c779138"),
    "intro": ("1a243f4911b62c8fc1f143aadcafd0ecd35334f4cb91d308ecfbb8d54a5452e5",
              "14fd0f25566f00ea8138cf6e4aaeb1d652d1463b371b5cac0ea04c89a3bd8bc5"),
    "staircase": ("32faf51e00115d5caf288305f9a5101a5cedfa44c581952b002ad331757a16cd",
                  "ba2e5d07b41b2aafc13cd7cae476a094f3e5e6cf782c345bf8b52612461403d0"),
}


# sha256 of the standard output of `skewpos COMMAND --diagram D ARGS`, recorded while every
# JSON document was written by json.dumps(doc, sort_keys=True, indent=2), and "sample r1" while
# the R^1 normalization rescaled Fraction rows; the n = 64 staircase is staircase(64)
CLI_OUTPUT = {
    "running": {
        "inspect": "e66738f5d1552a919e94c9f6ee77c9462c90d95c8b7ddbb79371a258fe4e93b9",
        "plabic json": "ff44926d7263cbf1ada700394908b74ab041bbb6875274ed8fb3edd3dee2093c",
        "plabic text": "a38781435c33c6befbd52180b08cf42623d07b66dbacc71dfbe9fcb850df8f1a",
        "quiver json": "8ff48522283441f055808cf65ad0622bea73094a6946d74adfe367217ada73de",
        "quiver dot": "a4484fa484797ae46950f6993e43036eee35a7b6063aa03ca2948f42c050f012",
        "sample": "792ff6600db4cfc84088cf8bf903d402e518f2495ffdff6588983a745754fa04",
        "sample r1": "5bafbabb8748fc9c3b8e32485b2d4fe8bf22ea8744d6742cc7532ec2b9a5be4c",
        "splice": "b9be5fd2b5c52aea561b760140ef408b2e0f5dac2f67098a79d5df1a9d0743d2",
        "mutate": "515888fdf1ad8a7e81d970e07cdd3f279d65cc699327da93d82357a036a6dca6",
        "verify plabic": "b4d462c502b9b9144b67232b0db0dd28b6b578758e780d1885b8d1faafb86b3e",
    },
    "intro": {
        "inspect": "7ac8f546c991f8c8d61ba6e89ce55aba98b377ee16eb3ff9715a4ebaef8da2d2",
        "plabic json": "3464265fc351ead9e921dca2662e0df02f0adeb5cf9b03aef22e9931a3e66287",
        "plabic text": "d9210db677d4e01596b5485682bec6c549155a59572c90cbae77f8025ceffa6d",
        "quiver json": "67ea1108607bc35c7645d44321aacb474e99d337b847e3f4b1c2f5102d04f948",
        "quiver dot": "3b4f1b55a8c3e63022b39b7066ecf35c613804649d5a004856834d9bb83eab3c",
        "sample": "e9dd49d08209f603e95b90c6f028715db6ae4d80d9ff3ce3d37376c0accd47c9",
        "sample r1": "0144fea79547ee0c8b257cf59b8e6c8048ba133be713a4540657d53e9e1f5a61",
        "splice": "85102780193bfe60b6245bd6e3e5fd92b63ee8b7dd133e487ef7ddf1b39dd825",
        "mutate": "714621f1fdb6ac76a63bde8eee697ebdd2d051f82b214c1fc647e1f57bca80b0",
        "verify plabic": "b4d462c502b9b9144b67232b0db0dd28b6b578758e780d1885b8d1faafb86b3e",
    },
    "staircase": {
        "inspect": "494cfbfa182897f7785828c74a3ea900ecbe5968f6878a1884abe850317608cd",
        "plabic json": "1d0fbf3f46a2d8285fb8c2b0100f86ab50729cf138ac81bc90a5c2c9b9eee351",
        "plabic text": "a03297795df14c1cdf2993692b1177f0657501eecf30b91ba3566bb061bf3869",
        "quiver json": "3688e9862f720e75f94d56eaf8b6c1f3bee891faf6b02b612e9f98b4c74f998b",
        "quiver dot": "675e6dcebef7fb1061391a532dd1aa4889ecb15e24153d51e927ba1f8b6f7738",
        "sample": "6f9a00c1f8013cb2044a7e9a3bcfdf42f621aacf803847bf120b2e1c8e77bb5b",
        "sample r1": "5231314912796b2a7a7455e1a23115ebc77d5a89159f6a1e9f753193761a8dfb",
        "splice": "95e8d1f39741cd668f525554b443a199e5a6b908d3344418262faca73c02bd7c",
        "mutate": "c4a243cd7f1548ebcdeebfa31c16d6641417927fc4cef90c0ec01a960194dbdd",
        "verify plabic": "b4d462c502b9b9144b67232b0db0dd28b6b578758e780d1885b8d1faafb86b3e",
    },
}
# the splice column and mutate box of each diagram of CLI_OUTPUT
CLI_COLUMN_AND_BOX = {"running": ("3", "4,1"), "intro": ("3", "5,2"), "staircase": ("20", "15,12")}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_splice_reports_byte_identical(intro):
    V = sample(intro, seed=16)
    for a in range(1, intro.n - intro.k + 1):
        assert sha256(json.dumps(splice_report(V, a), sort_keys=True)) == INTRO_SEED16_REPORTS[a]


def test_staircase_reports_byte_identical():
    d = staircase(32)
    V = sample(d, seed=1)
    assert d.n - d.k == len(STAIRCASE32_SEED1_REPORTS)
    for a, want in STAIRCASE32_SEED1_REPORTS.items():
        assert sha256(json.dumps(splice_report(V, a), sort_keys=True)) == want


def test_verify_output_byte_identical(capsys):
    assert main(["verify", "--trials", "5", "--seed", "1"]) == 0
    assert sha256(capsys.readouterr().out) == VERIFY_TRIALS5_SEED1


def test_verify_fingerprint_byte_identical(capsys, counted):
    """Also pins membership (the necklace walk) to once per built point: verify's "membership"
    check reads the sampler's result and runs none of its own."""
    calls = counted(_walk)
    assert main(["verify", "--trials", "30", "--seed", "1"]) == 0
    assert sha256(capsys.readouterr().out) == VERIFY_TRIALS30_SEED1
    assert len(calls) == 288


@pytest.mark.parametrize("name", sorted(PLABIC_OUTPUT))
def test_plabic_output_byte_identical(name, request):
    d = staircase(64) if name == "staircase" else request.getfixturevalue(name)
    digests = (sha256(json.dumps(trips_json(d), sort_keys=True)), sha256(ascii_grid(d)))
    assert digests == PLABIC_OUTPUT[name]


@pytest.mark.parametrize("name,case", [(name, case) for name in CLI_OUTPUT for case in CLI_OUTPUT[name]])
def test_cli_output_byte_identical(name, case, capsys):
    diagram = {"running": RUNNING, "intro": INTRO}.get(name) or json.dumps(staircase(64).to_json())
    column, box = CLI_COLUMN_AND_BOX[name]
    argv = {
        "inspect": ["inspect"],
        "plabic json": ["plabic", "--format", "json"],
        "plabic text": ["plabic", "--format", "text"],
        "quiver json": ["quiver", "--format", "json"],
        "quiver dot": ["quiver", "--format", "dot"],
        "sample": ["sample", "--seed", "3"],
        "sample r1": ["sample", "--seed", "3", "--normalize-r1"],
        "splice": ["splice", "--seed", "7", "--column", column],
        "mutate": ["mutate", "--seed", "4", "--box", box],
        "verify plabic": ["verify", "--only", "plabic"],
    }[case]
    assert main(argv[:1] + ["--diagram", diagram] + argv[1:]) == 0
    assert sha256(capsys.readouterr().out) == CLI_OUTPUT[name][case]


def test_parser_keeps_no_state_between_calls(capsys, tmp_path):
    """The parser is built once per process; what one call parses does not reach the next."""
    assert build_parser() is build_parser()
    out = tmp_path / "verify.json"
    assert main(["verify", "--trials", "2", "--seed", "1", "--only", "plabic", "--out", str(out)]) == 0
    # a --trials kept from the first call would conflict with --diagram and exit 2
    assert main(["verify", "--diagram", RUNNING]) == 0
    second = json.loads(capsys.readouterr().out)
    assert second["trials"] == 1 and second["checks"] > 1  # every check, not --only plabic
    assert json.loads(out.read_text()) == {"checks": 2, "failures": [], "status": "pass", "trials": 2}


@pytest.fixture
def counted(monkeypatch):
    """Replace every binding of a function in the package by a call-recording wrapper."""
    modules = [m for name, m in sys.modules.items() if name == "skewpos" or name.startswith("skewpos.")]

    def wrap(fn):
        calls = []

        def counting(*args):
            calls.append(args)
            return fn(*args)

        if inspect.ismethod(fn):  # a classmethod: replace it on its class
            monkeypatch.setattr(fn.__self__, fn.__name__, staticmethod(counting))
            return calls
        # module bindings, and the class attribute of a method
        owners = modules + [c for m in modules for c in vars(m).values() if isinstance(c, type)]
        for owner in owners:
            for attr, obj in list(vars(owner).items()):
                if obj is fn:
                    monkeypatch.setattr(owner, attr, counting)
        return calls

    return wrap


def test_one_membership_per_matrix(counted, intro):
    """Membership (the necklace walk) runs where a point is built, on the tableau the point keeps
    as its chart: over all cuts of a sampled point, once per factor and never again on V.  The right
    factor walks from the top and the left one resumes V's walk (``PointV.restrict``): from one of the
    states V's walk recorded, at a column the factor keeps, its rows cut to the factor's columns; neither
    records states of its own."""
    W = sample(intro, seed=16)
    columns = range(1, intro.n - intro.k + 1)
    factors = [P for a in columns for P in (Cut.at(W, a).left, Cut.at(W, a).right)]
    V = sample(intro, seed=16)  # equal to W, with nothing computed yet
    calls, direct = counted(_walk), counted(membership)
    for a in columns:
        splice_report(V, a)
    charts = [P._memo["chart"] for P in factors]
    assert [(T, D, n) for T, D, _, n, _, _ in calls] == [
        (T, D, P.diagram.n) for (T, D, _, _), P in zip(charts, factors)]
    assert [sorted(basis) for _, _, basis, *_ in calls] == [sorted(row_of) for _, _, row_of, _ in charts]
    assert direct == [] and all(steps is None for *_, steps in calls)
    assert all(start is None for *_, start, _ in calls[1::2])
    for a, (*_, start, _) in zip(columns, calls[::2]):
        kept = [*intro.I_mu()[:intro.mu_bar[a]], *range(a + intro.mu_bar[a], intro.n + 1)]
        top, rows, div, D, row_of, _ = start
        state = next(s for s in V._memo["walk"] if s[1] == kept[top] - 1)
        assert (rows, div, D) == ([[r[t - 1] for t in kept] for r in state[2]], state[3], state[4])
        assert row_of == {kept.index(c + 1): r for c, r in state[5].items()}


def test_cut_diagrams_built_once_per_column(monkeypatch, intro):
    """``left_point`` and ``right_point`` share the two diagrams of one ``d.cut(a)``, and a
    second report at the same column builds none."""
    V = sample(intro, seed=16)
    built, post_init = [], SkewDiagram.__post_init__
    monkeypatch.setattr(SkewDiagram, "__post_init__", lambda self: built.append(self) or post_init(self))
    for a in range(1, intro.n - intro.k + 1):
        c = Cut.at(V, a)
        splice_report(V, a)
        assert [id(D) for D in built] == [id(c.left.diagram), id(c.right.diagram)]
        built.clear()


def test_tableau_is_built_from_primitive_columns():
    """On the right factors of the n = 64 staircase, whose columns carry large common factors,
    the chart's D = Delta_{I_mu} of the primitive columns stays within their Hadamard bound."""
    V = sample(staircase(64), seed=1)
    for a in range(1, 11):
        P = right_point(V, a)
        D, columns = P._memo["chart"][1], [P.column(t) for t in P.diagram.I_mu()]
        contents = [gcd(*v) for v in columns]
        primitive = [[x // h for x in v] for v, h in zip(columns, contents)]
        assert max(contents) > 1 and D * D <= prod(sum(x * x for x in v) for v in primitive)


def test_walk_blocks_have_at_most_3_rows_on_the_staircase(monkeypatch):
    """Every box label of the staircase family differs from I_mu in at most two columns, and the chart block
    of each label prefix keeps at most one unit column t_j = b_r, r < j, besides them, so each walk down a
    block (``_leading_minors``: ``PointV.column_minors`` for the seeds and ``PointV.cut_columns`` for the cut)
    pivots at most three rows: on every column at n = 12, 32, 64 and 128, and in each report at n = 32."""
    sizes, walk = [], skewpos.variety._leading_minors
    monkeypatch.setattr(skewpos.variety, "_leading_minors",
                        lambda rows, pivots: sizes.append(len(pivots)) or walk(rows, pivots))
    for n in (12, 32, 64, 128):
        d = staircase(n)
        V = sample(d, seed=1)
        for a in range(1, d.n - d.k + 1):
            V.column_minors(a)
            if in_U_a(V, a):
                V.cut_columns(a)
    assert max(sizes) == 3
    d = staircase(32)
    for a in range(1, d.n - d.k + 1):
        sizes.clear()
        splice_report(sample(d, seed=1), a)  # a fresh point, so V's seed minors count too
        assert sizes and max(sizes) <= 3


@pytest.mark.parametrize("fixture", ["running", "disconnected", "intro"])
def test_one_trip_per_boundary_edge(counted, fixture, request):
    d = request.getfixturevalue(fixture)
    calls = counted(_trip)
    verify_trips(d)
    assert sorted(c[1] for c in calls) == list(range(1, d.n + 1))
    calls.clear()
    trips_json(d)
    assert sorted(c[1] for c in calls) == list(range(1, d.n + 1))


def test_inspect_commands_build_each_invariant_once(counted, monkeypatch, capsys):
    """The four commands of the benchmark's ``inspect`` op on staircase(64): each command that reads
    long labels builds the label table once (``plabic`` reads none), and each builds the diagram's 72
    BoxRefs once, plus the ribbon's 13 boxes in mu where it reads the ribbon (``inspect``, ``quiver``):
    the ribbon's 75 boxes of R and R1 are the kept boxes, which the quiver's vertices and frozen set
    hold too, the label table and the quiver's neighbours are looked up by plain (a, i) tuples, and the
    writer takes the BoxRefs as they are."""
    builds, boxrefs, new = counted(SkewDiagram._label_table), [], BoxRef.__new__
    monkeypatch.setattr(BoxRef, "__new__", lambda cls, *args: boxrefs.append(args) or new(cls, *args))
    d = staircase(64)
    diagram = json.dumps(d.to_json())
    got = {}
    for argv in (["inspect"], ["plabic", "--format", "json"], ["quiver", "--format", "json"],
                 ["verify", "--only", "plabic"]):
        builds.clear()
        boxrefs.clear()
        assert main(argv[:1] + ["--diagram", diagram] + argv[1:]) == 0
        got[" ".join(argv)] = len(builds), len(boxrefs)
    capsys.readouterr()
    rib, kept = d.ribbon(), {id(b) for b in d.boxes()}
    assert (d.size(), len(rib.R) + len(rib.R1), len(rib.Rbar)) == (72, 75, 13)
    assert all(id(b) in kept for b in rib.R + rib.R1) and not any(id(b) in kept for b in rib.Rbar)
    assert {id(b) for b in skewpos.quiver(d).frozen} <= kept
    assert got == {"inspect": (1, 85), "plabic --format json": (0, 72), "quiver --format json": (1, 85),
                   "verify --only plabic": (1, 72)}


def test_one_boundary_path_per_trips(counted, intro):
    calls = counted(_boundary_path)
    trips(intro)
    assert calls == [(intro,)]


def test_membership_runs_no_echelon(counted):
    """Membership is one greedy tableau of the point's primitive columns, walked by pivots: no
    other elimination and no walk down a chart block."""
    d = staircase(32)
    V = sample(d, seed=1)
    tableaux, walks = counted(_tableau), counted(skewpos.linalg._leading_minors)
    assert membership(V.matrix, d)
    assert [(len(rows), len(rows[0])) for rows, _ in tableaux] == [(d.k, d.n)] and walks == []
    V.delta(d.I_mu())  # one k x k tableau of the columns
    V.column_minors(1)  # the wrapper does see a call
    assert [(len(rows), len(rows[0])) for rows, _ in tableaux[1:]] == [(d.k, d.k)] and len(walks) == 1


def test_a_point_runs_one_tableau_on_either_chart(counted, running):
    """A point built from a fresh matrix runs one k x n tableau, the columns at I_mu taken first: on the
    variety, and off it where the greedy basis is not I_mu and the gauge fails (the dense matrix of
    ``test_gauge_is_checked_before_the_variety``), with no second tableau to choose the error.  A point on
    a chart derived from V's (``restrict``, ``reframe``: both factors of every on-chart cut) runs none.
    ``from_matrix`` runs the one tableau that re-gauges: the re-gauged matrix is its own chart."""
    d = staircase(32)
    V = sample(d, seed=1)
    columns = [a for a in range(1, d.n - d.k + 1) if in_U_a(V, a)]
    rng = random.Random(3)
    dense = RatMatrix(tuple(tuple(rng.randint(1, 50) for _ in range(12)) for _ in range(5)))
    num = V.matrix.num  # row 0 made 3 v_0 - v_1, over 7 den: the same point in another gauge
    scaled = RatMatrix((tuple(3 * x - y for x, y in zip(num[0], num[1])),) + num[1:], 7 * V.matrix.den)
    tableaux = counted(_tableau)
    assert PointV(d, V.matrix, V.seed) == V
    with pytest.raises(ValueError, match=r"^Delta_\{I_mu\} != 1"):
        PointV(running, dense)
    assert [(len(rows), len(rows[0])) for rows, _ in tableaux] == [(d.k, d.n), (running.k, running.n)]
    assert [list(order)[:e.k] for (_, order), e in zip(tableaux, (d, running))] == [
        [b - 1 for b in e.I_mu()] for e in (d, running)]
    tableaux.clear()
    assert len([P for a in columns for P in (left_point(V, a), right_point(V, a))]) > 2 and tableaux == []
    W = PointV.from_matrix(d, scaled, V.seed)
    assert W == V and W._memo["chart"] == V._memo["chart"]
    assert [(len(rows), len(rows[0]), list(order)) for rows, order in tableaux] == [
        (d.k, d.n, [b - 1 for b in d.I_mu()])]


def test_only_the_necklace_walk_pivots_outside_linalg():
    """``_pivot`` is the one exchange: outside ``linalg``, where ``_tableau`` and ``_leading_minors`` run it,
    only the necklace walk ``variety._walk`` names it (and variety's import); ``check_labeling`` walks the
    right flag on ``_leading_minors``."""
    named = set()
    for path in sorted(Path(skewpos.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text(), str(path)).body:
            scopes = ([(f"{top.name}.{getattr(m, 'name', '')}", m) for m in top.body] if isinstance(top, ast.ClassDef)
                      else [(top.name, top)] if isinstance(top, ast.FunctionDef) else [(None, top)])
            for name, node in scopes:
                if any(getattr(n, "id", getattr(n, "attr", getattr(n, "name", None))) == "_pivot"
                       for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute, ast.alias))):
                    named.add(f"{path.stem}.{name}" if name else path.stem)
    assert named == {"linalg._tableau", "linalg._leading_minors", "variety", "variety._walk"}


@pytest.mark.parametrize("n, rewrites", [(32, 43), (64, 91), (128, 187)])
def test_the_necklace_walk_retires_the_rows_it_has_passed(monkeypatch, n, rewrites):
    """On the greedy chart of the sampled staircase point, the walk's exchanges rewrite only the rows
    still to be read (the rows other than r with a nonzero entry in the entering column): 43, 91 and
    187 rows at n = 32, 64 and 128, where a walk that kept every row rewrote 109, 367 and 1,315."""
    V = sample(staircase(n), seed=1)
    T, D, basis, _ = V._memo["chart"]
    counts, pivot = [], skewpos.variety._pivot

    def counting(T, r, c, D, div):
        counts.append(sum(1 for i, row in enumerate(T) if i != r and row[c]))
        return pivot(T, r, c, D, div)

    monkeypatch.setattr(skewpos.variety, "_pivot", counting)
    assert _walk(T, D, basis, n) == baf(V.diagram).window
    assert sum(counts) == rewrites


@pytest.mark.parametrize("n", [32, 64, 128])
def test_the_left_factor_resumes_the_walk_of_v(monkeypatch, n):
    """The left factor at a = 5 of the seed-1 staircase point resumes V's walk at its first exchange that
    enters a column the factor drops, and runs 2 exchanges where a walk from the top ran 22, 46 and 94 at
    n = 32, 64 and 128."""
    V, exchanges, pivot = sample(staircase(n), seed=1), [], skewpos.variety._pivot
    monkeypatch.setattr(skewpos.variety, "_pivot", lambda *args: exchanges.append(args[2]) or pivot(*args))
    left_point(V, 5)
    assert len(exchanges) == 2


def test_verify_evaluates_each_chart_once(counted):
    charts, in_chart = counted(_vanishing_chart_label), counted(in_U_a)
    assert main(["verify", "--trials", "3", "--seed", "1"]) == 0
    assert charts and max(Counter((V.matrix, a) for V, a in charts).values()) == 1
    assert in_chart == []


def test_right_point_runs_no_intersection(counted, intro):
    """The right factor is solved on V's chart: no tableau, so no rank test and no intersection,
    and no transversality test (the package's one is ``check_labeling``'s)."""
    V = sample(intro, seed=16)
    tests, tableaux = counted(check_labeling), counted(_tableau)
    right_point(V, 6)
    assert tests == [] and tableaux == []
    omega(V)  # the wrappers do see a call
    assert len(tests) == 1 and tableaux


@pytest.mark.parametrize("n", [12, 20, 32])
def test_right_point_reads_no_minor(monkeypatch, n):
    """On the staircases of the splice benchmark, every on-chart cut solves its levels on V's
    chart: no ``PointV.delta`` call and no Fraction."""
    d = staircase(n)
    V = sample(d, seed=1)
    columns = [a for a in range(1, d.n - d.k + 1) if in_U_a(V, a)]
    want = {a: right_point_minor_oracle(V, a) for a in columns}

    def forbidden(*args):
        raise AssertionError("right_point read a minor or built a Fraction")

    monkeypatch.setattr(PointV, "delta", forbidden)
    for module in (skewpos.splicing, skewpos.variety, skewpos.linalg):
        monkeypatch.setattr(module, "Fraction", forbidden)
    assert columns and all(right_point(V, a) == P for a, P in want.items())


@pytest.mark.parametrize("n", [12, 20, 32])
def test_splice_report_reads_no_minor_and_keeps_the_quivers(monkeypatch, n):
    """On a fresh point of the splice benchmark's staircases, every seed of every on-chart report
    is read off a chart with no ``PointV.delta`` call; the quivers are kept on the diagrams, so a
    second report at the same cut builds none."""
    d = staircase(n)
    columns = [a for a in range(1, d.n - d.k + 1) if in_U_a(sample(d, seed=1), a)]
    V = sample(d, seed=1)
    built, post_init = [], skewpos.cluster.Quiver.__post_init__

    def forbidden(*args):
        raise AssertionError("a splice report read a minor")

    monkeypatch.setattr(PointV, "delta", forbidden)
    monkeypatch.setattr(skewpos.cluster.Quiver, "__post_init__", lambda self: built.append(self) or post_init(self))
    for a in columns:
        splice_report(V, a)
    assert columns and built
    built.clear()
    for a in columns:
        splice_report(V, a)
    assert built == []


def test_a_warm_report_takes_the_columns_and_texts_v_holds(monkeypatch):
    """A warm report at one cut of the splice benchmark's staircase(32) builds its factors' matrices from V's
    integer columns, in lowest terms by gcds it already holds: no ``RatMatrix`` scan and no ``column`` call.
    Its JSON takes V's kept texts and formats only the right factor's k x k frame entries."""
    d = staircase(32)
    V, a = sample(d, seed=1), 5
    assert in_U_a(V, a)
    splice_report(V, a)
    calls = Counter()

    def counting(name, fn):
        return lambda *args: calls.update([name]) or fn(*args)

    monkeypatch.setattr(RatMatrix, "__post_init__", counting("__post_init__", RatMatrix.__post_init__))
    monkeypatch.setattr(RatMatrix, "column", counting("column", RatMatrix.column))
    monkeypatch.setattr(skewpos.variety, "quotient_to_str", counting("text", skewpos.variety.quotient_to_str))
    monkeypatch.setattr(skewpos.variety, "str", counting("text", str), raising=False)
    RatMatrix(((1, 2),), 2).column(1)
    assert calls == {"__post_init__": 1, "column": 1}  # the counters see what they count
    calls.clear()
    report = splice_report(V, a)
    assert calls == {"text": d.k * d.k}
    assert sha256(json.dumps(report, sort_keys=True)) == STAIRCASE32_SEED1_REPORTS[a]


@pytest.mark.parametrize("n", [12, 20, 32])
def test_every_cut_reads_the_exchange_products_of_v_once(n):
    """On a fresh point of the splice benchmark's staircases, V's seed keeps the exchange products of
    the boxes its cuts compare, one entry per box; a second sweep of every on-chart report adds none."""
    from skewpos.cluster import seed_at
    from skewpos.diagram import BoxRef

    class Kept(dict):
        def __setitem__(self, box, value):
            raise AssertionError(f"the products of V at {box} were computed again")

    d = staircase(n)
    V = sample(d, seed=1)
    columns = [a for a in range(1, d.n - d.k + 1) if in_U_a(V, a)]
    read = set()
    for a in columns:
        splice_report(V, a)
        c = Cut.at(V, a)
        for s, shift in ((c.right_seed, 0), (c.left_seed, a - 1)):
            read |= {BoxRef(b.a + shift, b.i) for b in s.quiver.vertices if s.quiver.is_mutable(b)}
    seed = seed_at(V)
    assert columns and read and set(seed._memo) == read
    object.__setattr__(seed, "_memo", Kept(seed._memo))
    for a in columns:
        splice_report(V, a)


@pytest.mark.parametrize("n", [12, 20, 32])
def test_splice_report_reads_each_column_in_one_pass(monkeypatch, n):
    """On a fresh point of the splice benchmark's staircases, every on-chart report reads V's chart and
    the factors' charts in walks up a column, and reads no minor from nothing (``PointV.delta``):
    one walk per column of each seeded point, and for the cut columns one walk up column a and one
    per level above lambda_bar_a that no earlier cut of V has read (V keeps those levels)."""
    d = staircase(n)
    columns = [a for a in range(1, d.n - d.k + 1) if in_U_a(sample(d, seed=1), a)]
    V = sample(d, seed=1)
    passes, walk = [], skewpos.variety._prefix_walk

    def forbidden(*args):
        raise AssertionError("a splice report read a minor from nothing")

    monkeypatch.setattr(PointV, "delta", forbidden)
    monkeypatch.setattr(skewpos.variety, "_prefix_walk", lambda *args: passes.append(args) or walk(*args))
    want, above = d.n - d.k, set()  # V's seed, read by the first report
    for a in columns:
        left, right = d.cut(a)
        want += left.n - left.k + right.n - right.k + 1 + len(set(range(d.lambda_bar[a] + 1, d.k + 1)) - above)
        above |= set(range(d.lambda_bar[a] + 1, d.k + 1))
        splice_report(V, a)
    assert columns and len(passes) == want


def test_baf_built_once_per_diagram(monkeypatch):
    """f of a diagram is kept on it: a second report at the same cut builds no bounded affine
    permutation, though it builds and walks two fresh factors on the kept cut diagrams."""
    d = staircase(12)
    V = sample(d, seed=1)
    a = next(a for a in range(1, d.n - d.k + 1) if in_U_a(V, a))
    built, post_init = [], BoundedAffinePermutation.__post_init__
    monkeypatch.setattr(BoundedAffinePermutation, "__post_init__", lambda self: built.append(self) or post_init(self))
    splice_report(V, a)
    assert len(built) == 2  # one for each cut diagram
    built.clear()
    splice_report(V, a)
    assert built == []


def test_subspace_on_integers_builds_no_fraction(monkeypatch, intro):
    """``check_labeling``'s rank tests of the regions, as V's columns and in another integer basis,
    and its one-tableau test of the framing and the right flag stay in integer rows, and so do the
    oracles they replaced: canonical spans, containment, the flags' step builder, the rank tests of
    transversality and the echelon forms of a Zassenhaus intersection of integer columns."""
    V = sample(intro, seed=16)
    L = omega(V)
    # s_1 + s_i, s_2, .., s_i for a region s_1, .., s_i (2 s_1 for i = 1): another basis of its span
    rebased = tuple((box, (tuple(x + y for x, y in zip(S[0], S[-1])), *S[1:])) for box, S in L.regions)

    def no_fraction(*args):
        raise AssertionError("a Fraction was built")

    for module in (skewpos.linalg, skewpos.variety, conftest):
        monkeypatch.setattr(module, "Fraction", no_fraction)
    k = intro.k
    check_labeling(L)
    check_labeling(replace(L, regions=rebased))
    reversed_framing = RatMatrix(tuple(r[::-1] for r in L.boundary_basis.num))
    singular = RatMatrix.from_columns([L.right_flag.column(j) for j in (1, 2, 3, 4, 2)])
    for R, message in ((reversed_framing, "^right flag not transversal to F\\^W$"),
                       (singular, "^right flag is not a basis$")):
        with pytest.raises(InvariantError, match=message):
            check_labeling(replace(L, right_flag=R))
    F = flag(k, [V.column(t) for t in intro.I_lambda()])
    W = flag(k, [V.column(b) for b in reversed(intro.I_mu())])
    assert transversal(F, W) and not transversal(F, F)
    for a, i in ((1, 1), (2, 2), (4, 3)):
        S = Subspace.span(k, [V.column(t) for t in intro.short_label(a, i)])
        assert S.contains(Subspace.span(k, [V.column(intro.short_label(a, i)[0])]))
        assert zassenhaus(S, F[k]) == S
        for T in (S, zassenhaus(S, F[k - i]), S.extend(V.column(a + i)), *F, *W):
            assert all(type(x) is int for row in T.basis for x in row)


def test_braid_dictionary_builds_each_flag_step_on_the_one_before(counted):
    """omega keeps V's columns at each short label J(a, i) as the region V(a, i) and runs no tableau
    of its own: its tableaux are those of ``check_labeling`` on its labeling.  There, each region's
    rank is one tableau of its i vectors, in box order; no containment runs one, since J(a, i) and
    J(a+1, i) lie in J(a, i+1) and W^op_i's framing columns are V's at b_1, .., b_i, which lie in
    J(a-1, i+1); each ribbon equality of two different labels runs one (6 on the running diagram,
    9 on staircase(20)), and so does each non-ribbon inequality (2 and 0) and each
    W^op_i != V(a-1, i) (3 and 7); the framing and the right flag are one k x 2k tableau of both
    bases.  xi: each column's line is one tableau over the region's vectors and the framing tail, and
    the pinning minors are read off one tableau of all the integer columns."""
    tests, tableaux = counted(check_labeling), counted(_tableau)
    running = SkewDiagram.from_json(json.loads(RUNNING))
    for d, total in ((running, 15 + 6 + 2 + 3 + 1), (staircase(20), 24 + 9 + 0 + 7 + 1)):
        k, n = d.k, d.n
        V = sample(d, seed=1)
        tableaux.clear()
        L = omega(V)
        assert tests == [(L,)] and L.regions == tuple((box, tuple(map(V.column, d.short_label(*box))))
                                                      for box in d.boxes())
        in_omega = [rows for rows, _ in tableaux]
        tableaux.clear()
        check_labeling(L)
        assert [rows for rows, _ in tableaux] == in_omega and len(in_omega) == total
        assert [len(rows) for rows in in_omega[:d.size()]] == [box.i for box in d.boxes()]
        assert [rows for rows in in_omega if len(rows[0]) == 2 * k] == [
            [w + r for w, r in zip(L.boundary_basis.num, L.right_flag.num)]]
        tableaux.clear()
        tests.clear()
        assert xi(L) == V and tests == []
        # one k x (k + 1) tableau per column with boxes, the k x n chart of the integer columns pivoted
        # at the framing, which the pinning minors are read off, then the k x n tableau of the point built
        columns = sum(d.mu_bar[a] < d.lambda_bar[a] for a in range(1, d.n - d.k + 1))
        assert [(len(rows), len(rows[0])) for rows, _ in tableaux] == [(k, k + 1)] * columns + [(k, n)] * 2
        assert tableaux[columns][1] == [b - 1 for b in d.I_mu()]


def test_braid_dictionary_runs_on_integer_columns(counted):
    """omega, xi and the R^1 normalization move the point's integer columns: no Fraction matrix
    is read in, the package keeps no second minor routine, and the framing and the right flag's
    basis are k x k integer matrices."""
    d = staircase(20)
    V = sample(d, seed=1)
    parsed = counted(RatMatrix.from_rationals)
    L = omega(V)
    assert xi(L) == V and sample(d, seed=1, normalize_r1=True).delta(d.I_mu()) == 1
    assert parsed == []
    assert [name for name, m in sys.modules.items() if name.startswith("skewpos") and hasattr(m, "minor")] == []
    for F in (L.boundary_basis, L.right_flag):
        assert isinstance(F, RatMatrix) and type(F.den) is int and all(type(x) is int for r in F.num for x in r)
        assert (F.nrows, F.ncols) == (d.k, d.k)
    PointV.from_json(V.to_json())  # the wrapper does see a call: reading a point's JSON
    assert len(parsed) == 1


def test_one_pinning_routine(counted):
    """``xi`` and the R^1 slice of ``sample`` set torus values by one routine, ``_pinned``: the slice runs three
    k x n tableaux (the draw's point, the pin chart pivoted at I_mu, the pinned point's), and no module of src/
    binds the pinning loop it replaced, ``_normalize_r1``, or its scaler ``_scaled_columns``."""
    d = staircase(20)
    tableaux = counted(_tableau)
    V = sample(d, 1, normalize_r1=True)
    assert [(len(rows), len(rows[0])) for rows, _ in tableaux] == [(d.k, d.n)] * 3
    assert list(tableaux[1][1]) == [b - 1 for b in d.I_mu()] and V == xi(omega(V))
    assert bindings({"_normalize_r1", "_scaled_columns"}) == []


def test_src_has_no_assert():
    """``assert`` vanishes under ``python -O``; invariants raise InvariantError instead."""
    found = []
    for path in sorted(Path(skewpos.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            exc = node.exc if isinstance(node, ast.Raise) else None
            if isinstance(exc, ast.Call):
                exc = exc.func
            if isinstance(node, ast.Assert) or (isinstance(exc, ast.Name) and exc.id == "AssertionError"):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_only_variety_reads_the_chart():
    """V's chart has one owner: splicing and cluster read box minors and cut columns through
    ``PointV`` and name neither its column walk ``_prefix_walk`` nor the walk down a block,
    ``_leading_minors``, no module but variety reads ``_memo["chart"]``, splicing keeps nothing in a
    ``_memo``, and within variety only the two column readers ``column_minors`` and ``cut_columns``
    and the two factor builders that derive a chart from V's, ``restrict`` and ``reframe``, load the
    chart (``__post_init__`` stores it; ``_pinned``, for ``xi`` and the R^1 slice, hands the walk a chart
    of its own)."""

    def is_chart(n):
        return (isinstance(n, ast.Subscript) and isinstance(n.value, ast.Attribute) and n.value.attr == "_memo"
                and isinstance(n.slice, ast.Constant) and n.slice.value == "chart")

    readers, loads, named = [], set(), {}
    for path in sorted(Path(skewpos.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        nodes = list(ast.walk(tree))
        named[path.stem] = {n.id if isinstance(n, ast.Name) else n.attr if isinstance(n, ast.Attribute) else n.name
                            for n in nodes if isinstance(n, (ast.Name, ast.Attribute, ast.alias))}
        readers += [path.stem for n in nodes if is_chart(n)]
        loads |= {(path.stem, fn.name) for fn in nodes if isinstance(fn, ast.FunctionDef)
                  for n in ast.walk(fn) if is_chart(n) and isinstance(n.ctx, ast.Load)}
    chart = {"_prefix_walk", "_leading_minors"}
    assert set(readers) == {"variety"}
    assert loads == {("variety", "column_minors"), ("variety", "cut_columns"), ("variety", "restrict"),
                     ("variety", "reframe")}
    assert named["splicing"] & (chart | {"_memo"}) == set() and named["cluster"] & chart == set()


def test_one_builder_for_a_cuts_factors():
    """A cut's two factors come off one builder: in variety only ``PointV._factor`` calls ``RatMatrix._lowest``
    and stores a factor's ``_memo["texts"]``, each once, and ``cut_columns`` solves every frame level by one
    formula, with no branch on a missing column (``_prefix_walk`` yields a unit level's column as (m, 0, .., 0))."""
    tree = ast.parse(Path(skewpos.variety.__file__).read_text())
    functions = [fn for node in tree.body for fn in (node.body if isinstance(node, ast.ClassDef) else [node])
                 if isinstance(fn, ast.FunctionDef)]

    def sites(match):
        return [fn.name for fn in functions for n in ast.walk(fn) if match(n)]

    lowest = sites(lambda n: isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute) and n.func.attr == "_lowest")
    texts = sites(lambda n: isinstance(n, ast.Subscript) and isinstance(n.ctx, ast.Store)
                  and isinstance(n.value, ast.Attribute) and n.value.attr == "_memo"
                  and isinstance(n.slice, ast.Constant) and n.slice.value == "texts")
    none_tests = sites(lambda n: isinstance(n, ast.Compare) and any(isinstance(c, ast.Constant) and c.value is None
                                                                     for c in n.comparators))
    assert lowest == ["_factor"] and texts == ["_factor"] and "cut_columns" not in none_tests


def test_flags_are_the_bases_that_span_them():
    """A flag, a region and the framing are the bases that span them: no module of src/ binds a
    flag class, an intersection, which ``xi``'s dependency line and a rank test of transversality
    replaced, that rank test of two flags' steps, which ``check_labeling``'s one tableau of both
    bases replaced, or the canonical subspace, its echelon form, the primitive rows it was built on
    and the flags' steps (``Subspace``, ``_echelon``, ``_primitive``, ``flag``), which the bases
    themselves, tested by rank, replaced, or Bareiss's determinant ``det``, which the walk down a chart
    block (``_leading_minors``) and +-D of one tableau replaced."""
    names = ("FlagK", "intersect", "transversal", "Subspace", "_echelon", "_primitive", "flag", "det")
    assert bindings(names) == []
    assert set(names) & set(skewpos.__all__) == set()


def bindings(names) -> list[str]:
    """Where a module of src/ defines, imports or reads one of the names, and each loaded module that has one."""
    found = []
    for path in sorted(Path(skewpos.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            name = (node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef, ast.alias))
                    else node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None)
            if name in names:
                found.append(f"{path.name}:{node.lineno} {name}")
    return found + [f"{module}.{name}" for module, m in sys.modules.items() if module.startswith("skewpos")
                    for name in names if hasattr(m, name)]


def test_mutation_and_the_necklace_by_their_closed_forms():
    """The necklace is read off f by I_i = { j mod n : i - n < j <= i < f(j) }, so no module of src/ binds
    the cyclic-order test ``_cyclically_less`` it replaced; quiver mutation is one pass over net counts,
    so ``_mutate_quiver`` deletes and pops no arrow (no reversal pass, no 2-cycle cancellation)."""
    found = [f"{path.name}:{node.lineno}" for path in sorted(Path(skewpos.__file__).parent.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if getattr(node, "name", getattr(node, "id", None)) == "_cyclically_less"]
    assert found == []
    body = ast.parse(inspect.getsource(skewpos.cluster._mutate_quiver))
    assert not any(isinstance(node, ast.Delete) or isinstance(node, ast.Attribute) and node.attr == "pop"
                   for node in ast.walk(body))


# Public names with no caller in src/: each names an object of the paper and a test
# checks a paper fact with it, or the benchmark reads it.
UNCALLED_PUBLIC_NAMES = {
    "braid.cut_braid": "beta(d) = beta(left) beta(right): test_braid::TestCutBraid",
    "diagram.SkewDiagram.tilde_label": "the short-label recursion: test_diagram::TestRecursions",
    "plabic.trip": "one trip of the figures: test_plabic::TestFigureTrips",
    "splicing.phi": "the splicing map lands in the product: test_splicing::TestWorkedExample",
    "splicing.in_U_a": "read by perfbench, which samples points on every column chart",
    "variety.PointV.delta": "the minor at any label: test_acceptance criteria 07 and 12, and the perfbench tracer",
    "variety.PointV.from_matrix": "re-gauges any representative: test_variety::TestPointV::test_regauge",
    "variety.membership": "the factors of a cut are on their varieties: test_acceptance, read by perfbench",
    "variety.necklace_of_point": "the necklace of a point is that of its diagram: test_variety::TestNecklaceOfPoint",
}


def test_every_public_name_has_a_caller_in_src():
    """A public function, class or method referenced by name nowhere in src/ but __init__ is dead.

    The scan goes by name, so a method shares its callers with every namesake
    (``Partition.contains`` with any other ``contains``).
    """
    defined, referenced = [], set()
    for path in sorted(Path(skewpos.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                defined.append(f"{path.stem}.{node.name}")
            if isinstance(node, ast.ClassDef):
                defined += [f"{path.stem}.{node.name}.{m.name}" for m in node.body
                            if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.name)
    uncalled = {name for name in defined if name.rsplit(".", 1)[-1] not in referenced}
    assert uncalled == set(UNCALLED_PUBLIC_NAMES)


# one valid argv per subcommand, on a path that reaches every option it parses
SUBCOMMAND_ARGV = {
    "inspect": ["--diagram", RUNNING],
    "sample": ["--diagram", RUNNING],
    "quiver": ["--diagram", RUNNING],
    "plabic": ["--diagram", RUNNING],
    "splice": ["--diagram", INTRO, "--seed", "7", "--column", "6"],
    "mutate": ["--diagram", RUNNING, "--seed", "4", "--box", "4,2"],
    "verify": ["--trials", "1", "--only", "plabic"],
}


def test_every_subcommand_has_an_argv():
    commands = next(a for a in build_parser()._actions if a.dest == "command").choices
    assert set(commands) == set(SUBCOMMAND_ARGV)


@pytest.mark.parametrize("command", sorted(SUBCOMMAND_ARGV))
def test_every_parsed_option_is_read(command, capsys):
    args = build_parser().parse_args([command] + SUBCOMMAND_ARGV[command])
    read = set()

    class Recording:
        def __getattr__(self, name):
            read.add(name)
            return getattr(args, name)

    assert args.func(Recording()) == 0
    capsys.readouterr()
    assert set(vars(args)) - {"command", "func"} - read == set()
