"""Guards for the compute-once splicing and trip pipelines.

The digests were recorded before the pipelines were restructured: the reports
and the verify output must stay byte-identical.  The count tests pin how often
the expensive invariants run.
"""

import hashlib
import json
import sys
from collections import Counter

import pytest

from skewpos import Cut, sample, splice_report
from skewpos.cli import main
from skewpos.plabic import trip, trips_json, verify_trips
from skewpos.variety import membership

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

# sha256 of the standard output of `skewpos verify --trials 5 --seed 1`
VERIFY_TRIALS5_SEED1 = "64570c6c2f86f68e71c9d887d8c13cb8bb2145952bc8293770bced8f441bd45a"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_splice_reports_byte_identical(intro):
    V = sample(intro, seed=16)
    for a in range(1, intro.n - intro.k + 1):
        assert sha256(json.dumps(splice_report(V, a), sort_keys=True)) == INTRO_SEED16_REPORTS[a]


def test_verify_output_byte_identical(capsys):
    assert main(["verify", "--trials", "5", "--seed", "1"]) == 0
    assert sha256(capsys.readouterr().out) == VERIFY_TRIALS5_SEED1


@pytest.fixture
def counted(monkeypatch):
    """Replace every binding of a function in the package by a call-recording wrapper."""
    modules = [m for name, m in sys.modules.items() if name == "skewpos" or name.startswith("skewpos.")]

    def wrap(fn):
        calls = []

        def counting(*args):
            calls.append(args)
            return fn(*args)

        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if obj is fn:
                    monkeypatch.setattr(mod, attr, counting)
        return calls

    return wrap


def test_one_membership_per_matrix(counted, intro):
    V = sample(intro, seed=16)
    cuts = {a: Cut.at(V, a) for a in range(1, intro.n - intro.k + 1)}
    calls = counted(membership)
    for a, c in cuts.items():
        calls.clear()
        splice_report(V, a)
        checked = [(V.matrix, intro), (c.left.matrix, c.left.diagram), (c.right.matrix, c.right.diagram)]
        assert Counter(calls) == Counter(checked)


@pytest.mark.parametrize("fixture", ["running", "disconnected", "intro"])
def test_one_trip_per_boundary_edge(counted, fixture, request):
    d = request.getfixturevalue(fixture)
    calls = counted(trip)
    verify_trips(d)
    assert sorted(i for _, i in calls) == list(range(1, d.n + 1))
    calls.clear()
    trips_json(d)
    assert sorted(i for _, i in calls) == list(range(1, d.n + 1))
