"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Every assertion is exact (rational arithmetic end to end); the only stated
tolerance anywhere is the wall-clock bound of the sampler criterion.
Run with ``pytest tests/test_acceptance.py -v -s`` to see the criterion lines.
"""

import random
import time

from skewpos import (
    BoxRef,
    Cut,
    Partition,
    SkewDiagram,
    baf,
    beta,
    in_U_a,
    membership,
    necklace,
    omega,
    phi,
    sample,
    source_labels,
    trip,
    trip_permutation,
    trips,
    verify_exchange_ratios,
    verify_minor_scaling,
    w_grassmannian,
    w_skew,
    xi,
)
from skewpos.cli import random_diagram, subseed

from conftest import (
    Subspace,
    chart_is_everything,
    det_oracle,
    necklace_entry_exhaustive,
    qcol,
    qrows,
    vec_add,
    vec_scale,
)


def criterion(num, text):
    """Decorator printing the per-criterion result line."""

    def wrap(fn):
        def inner(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {num:02d} [{text}]: FAIL")
                raise
            print(f"criterion {num:02d} [{text}]: PASS")

        inner.__name__ = fn.__name__
        return inner

    return wrap


RUNNING = SkewDiagram(12, 5, Partition((7, 7, 5, 3, 1)), Partition((3, 3, 2)))
INTRO = SkewDiagram(12, 5, Partition((7, 7, 5, 3, 1)), Partition((3, 1)))
DISCONNECTED = SkewDiagram(9, 4, Partition((5, 5, 2, 2)), Partition((3, 3)))

RUNNING_NECKLACE = (
    (1, 6, 8, 11, 12), (1, 2, 8, 11, 12), (2, 3, 8, 11, 12), (3, 4, 8, 11, 12),
    (3, 4, 5, 11, 12), (4, 5, 6, 11, 12), (5, 6, 7, 11, 12), (5, 6, 7, 8, 12),
    (5, 6, 8, 9, 12), (5, 6, 8, 10, 12), (5, 6, 8, 10, 11), (5, 6, 8, 11, 12),
)

RUNNING_LONG = {
    (1, 1): (1, 6, 8, 11, 12), (2, 1): (2, 6, 8, 11, 12), (3, 1): (3, 6, 8, 11, 12),
    (4, 1): (4, 6, 8, 11, 12), (1, 2): (1, 2, 8, 11, 12), (2, 2): (2, 3, 8, 11, 12),
    (3, 2): (3, 4, 8, 11, 12), (4, 2): (4, 5, 8, 11, 12), (3, 3): (3, 4, 5, 11, 12),
    (4, 3): (4, 5, 6, 11, 12), (5, 3): (5, 6, 7, 11, 12), (5, 4): (5, 6, 7, 8, 12),
    (6, 4): (5, 6, 8, 9, 12), (7, 4): (5, 6, 8, 10, 12), (7, 5): (5, 6, 8, 10, 11),
}

RUNNING_SHORT = {
    (1, 1): (1,), (2, 1): (2,), (3, 1): (3,), (4, 1): (4,),
    (1, 2): (1, 2), (2, 2): (2, 3), (3, 2): (3, 4), (4, 2): (4, 5),
    (3, 3): (3, 4, 5), (4, 3): (4, 5, 6), (5, 3): (5, 6, 7),
    (5, 4): (5, 6, 7, 8), (6, 4): (5, 6, 8, 9), (7, 4): (5, 6, 8, 10),
    (7, 5): (5, 6, 8, 10, 11),
}

INTRO_LONG = {
    (1, 1): (1, 8, 10, 11, 12), (2, 1): (2, 8, 10, 11, 12), (3, 1): (3, 8, 10, 11, 12),
    (4, 1): (4, 8, 10, 11, 12), (1, 2): (1, 2, 10, 11, 12), (2, 2): (2, 3, 10, 11, 12),
    (3, 2): (3, 4, 10, 11, 12), (4, 2): (4, 5, 10, 11, 12), (5, 2): (5, 6, 10, 11, 12),
    (6, 2): (5, 7, 10, 11, 12), (3, 3): (3, 4, 5, 11, 12), (4, 3): (4, 5, 6, 11, 12),
    (5, 3): (5, 6, 7, 11, 12), (6, 3): (5, 7, 8, 11, 12), (7, 3): (5, 8, 9, 11, 12),
    (5, 4): (5, 6, 7, 8, 12), (6, 4): (5, 7, 8, 9, 12), (7, 4): (5, 8, 9, 10, 12),
    (7, 5): (5, 8, 9, 10, 11),
}

# cut of the intro diagram at column 6: left grid in Gr(5, 7)
LEFT_LONG = {
    (1, 2): (1, 2, 5, 6, 7), (1, 3): (1, 2, 3, 6, 7), (2, 3): (1, 3, 4, 6, 7),
    (1, 4): (1, 2, 3, 4, 7), (2, 4): (1, 3, 4, 5, 7), (2, 5): (1, 3, 4, 5, 6),
}

# right grid in Gr(5, 10); the top-left entry is the corrected value
# {5,6,7,8,10} (the source prints an index that cannot occur in Gr(5,10))
RIGHT_LONG = {
    (1, 1): (1, 7, 8, 9, 10), (2, 1): (2, 7, 8, 9, 10), (3, 1): (3, 7, 8, 9, 10),
    (4, 1): (4, 7, 8, 9, 10), (1, 2): (1, 2, 8, 9, 10), (2, 2): (2, 3, 8, 9, 10),
    (3, 2): (3, 4, 8, 9, 10), (4, 2): (4, 5, 8, 9, 10), (5, 2): (5, 6, 8, 9, 10),
    (3, 3): (3, 4, 5, 9, 10), (4, 3): (4, 5, 6, 9, 10), (5, 3): (5, 6, 7, 9, 10),
    (5, 4): (5, 6, 7, 8, 10),
}


@criterion(1, "running example necklace and affine permutation")
def test_criterion_01():
    assert necklace(RUNNING).entries == RUNNING_NECKLACE
    f = baf(RUNNING)
    expected = {1: 3, 2: 4, 3: 6, 4: 7, 7: 9, 9: 10, 10: 12,
                6: 14, 8: 17, 11: 20, 12: 23, 5: 13}
    for i, v in expected.items():
        assert f(i) == v


@criterion(2, "braid word of the intro example")
def test_criterion_02():
    word, columns = beta(INTRO)
    assert columns == ((4, 3), (3, 2), (3, 2), (2, 1), (2, 1), (1,), (1,))
    assert word.letters == (4, 3, 3, 2, 3, 2, 2, 1, 2, 1, 1, 1)


@criterion(3, "label tables of both examples and the cut grids")
def test_criterion_03():
    for (a, i), expected in RUNNING_LONG.items():
        assert RUNNING.long_label(a, i) == expected
    for (a, i), expected in RUNNING_SHORT.items():
        assert RUNNING.short_label(a, i) == expected
    for (a, i), expected in INTRO_LONG.items():
        assert INTRO.long_label(a, i) == expected
    left, right = INTRO.cut(6)
    assert {(b.a, b.i) for b in left.boxes()} == set(LEFT_LONG)
    for (a, i), expected in LEFT_LONG.items():
        assert left.long_label(a, i) == expected
    assert {(b.a, b.i) for b in right.boxes()} == set(RIGHT_LONG)
    for (a, i), expected in RIGHT_LONG.items():
        assert right.long_label(a, i) == expected


@criterion(4, "disconnected-ribbon example necklace and fixed point")
def test_criterion_04():
    assert necklace(DISCONNECTED).entries == (
        (1, 4, 8, 9), (1, 2, 8, 9), (2, 3, 8, 9), (3, 4, 8, 9), (3, 4, 8, 9),
        (3, 4, 6, 9), (3, 4, 6, 7), (3, 4, 7, 8), (3, 4, 8, 9),
    )
    f = baf(DISCONNECTED)
    for i, v in {1: 3, 2: 4, 5: 5, 6: 8, 7: 9, 3: 10, 4: 11, 8: 15, 9: 16}.items():
        assert f(i) == v
    assert f.fixed_point_decorations() == {5: "clockwise"}


@criterion(5, "sampler soundness on 50 random diagrams (under 10 s)")
def test_criterion_05():
    t0 = time.time()
    for seed in range(1, 51):
        rng = random.Random(subseed(5, "diagram", seed))
        d = random_diagram(rng, max_n=14)
        V = sample(d, seed=seed)
        assert membership(V.matrix, d)
        if d.n <= 10:
            from skewpos import necklace_of_point

            N = necklace_of_point(V.matrix)
            for i in range(1, d.n + 1):
                assert N.entry(i) == necklace_entry_exhaustive(V.matrix, i)
            assert N.entries == necklace(d).entries
    assert time.time() - t0 < 10.0


@criterion(6, "braid labeling roundtrip and region conditions")
def test_criterion_06():
    for seed in range(1, 16):
        rng = random.Random(subseed(6, "diagram", seed))
        d = random_diagram(rng, max_n=12)
        V = sample(d, seed=seed)
        labeling = omega(V)  # validates every region condition
        assert xi(labeling).matrix == V.matrix
    V = sample(RUNNING, seed=6)
    labeling = omega(V)
    assert xi(labeling).matrix == V.matrix
    for j, cols in enumerate([(1,), (1, 2), (1, 2, 5), (1, 2, 5, 8), (1, 2, 5, 8, 11)], 1):
        step = Subspace.span(RUNNING.k, [labeling.right_flag.column(c) for c in range(1, j + 1)])
        assert step.dim == j
        for t in cols:
            assert step.contains(Subspace.span(RUNNING.k, [V.column(t)]))


@criterion(7, "splicing worked instance on 20 points of the intro chart")
def test_criterion_07():
    hits = 0
    seed = 0
    while hits < 20:
        seed += 1
        V = sample(INTRO, seed=seed)
        if not in_U_a(V, 6):
            continue
        hits += 1
        L, R = phi(V, 6)
        assert [qcol(L, j) for j in range(1, 8)] == [qcol(V, t) for t in (5, 7, 8, 9, 10, 11, 12)]
        assert qcol(R, 7) == vec_scale(1 / V.delta((5, 7, 10, 11, 12)), qcol(V, 7))
        c1 = V.delta((5, 7, 8, 10, 12)) / V.delta((5, 7, 8, 11, 12))
        c2 = V.delta((5, 7, 8, 11, 10)) / V.delta((5, 7, 8, 11, 12))
        assert qcol(R, 8) == vec_add(vec_add(qcol(V, 10), vec_scale(-c1, qcol(V, 11))), vec_scale(-c2, qcol(V, 12)))
        c = V.delta((5, 7, 8, 11, 9)) / V.delta((5, 7, 8, 9, 12))
        assert qcol(R, 9) == vec_add(qcol(V, 11), vec_scale(c, qcol(V, 12)))
        assert membership(L.matrix, L.diagram) and membership(R.matrix, R.diagram)


def _fifty_triples():
    out = []
    t = 0
    while len(out) < 50:
        t += 1
        rng = random.Random(subseed(89, "triple", t))
        d = random_diagram(rng, max_n=10)
        if d.size() == 0:
            continue
        a = rng.randint(1, d.n - d.k)
        V = sample(d, subseed(89, "pt", t))
        if in_U_a(V, a):
            out.append((d, a, V))
    return out


TRIPLES = _fifty_triples()


@criterion(8, "right-factor minor scaling on 50 random triples")
def test_criterion_08():
    for d, a, V in TRIPLES:
        assert verify_minor_scaling(Cut.at(V, a)) == []


@criterion(9, "exchange-ratio agreement on the same 50 triples")
def test_criterion_09():
    for d, a, V in TRIPLES:
        assert verify_exchange_ratios(Cut.at(V, a)) == []


@criterion(10, "fully frozen columns splice on the whole variety")
def test_criterion_10():
    pairs = []
    t = 0
    while len(pairs) < 25:
        t += 1
        rng = random.Random(subseed(10, "diagram", t))
        d = random_diagram(rng, max_n=10)
        frozen_cols = [a for a in range(1, d.n - d.k + 1)
                       if d.mu_bar[a] < d.lambda_bar[a] and chart_is_everything(d, a)]
        if frozen_cols:
            pairs.append((d, frozen_cols))
    for idx, (d, cols) in enumerate(pairs):
        V = sample(d, seed=subseed(10, "pt", idx))
        for a in cols:
            assert in_U_a(V, a)
            L, R = phi(V, a)
            assert membership(L.matrix, L.diagram) and membership(R.matrix, R.diagram)
    assert chart_is_everything(RUNNING, 6)
    for seed in range(1, 6):
        assert in_U_a(sample(RUNNING, seed=seed), 6)


@criterion(11, "trip permutation and source labels on 200 random diagrams")
def test_criterion_11():
    for t in range(200):
        rng = random.Random(subseed(11, "diagram", t))
        d = random_diagram(rng, max_n=10)
        ts = trips(d)
        perm, decorations = trip_permutation(ts)
        assert perm == baf(d).mod_n()
        assert decorations == baf(d).fixed_point_decorations()
        for b, labels in source_labels(d, ts).items():
            assert labels == tuple(sorted(d.long_label(b.a, b.i)))
    T4, T5 = trip(RUNNING, 4), trip(RUNNING, 5)
    assert T4.orientation == "clockwise" and len(T4.boxes) + T4.labels_mu_region == 5
    assert T5.orientation == "counterclockwise" and len(T5.boxes) + T5.labels_mu_region == 9


@criterion(12, "principal minors along the braid match the box minors")
def test_criterion_12():
    diagrams = [RUNNING, INTRO, DISCONNECTED]
    for t in range(8):
        rng = random.Random(subseed(12, "diagram", t))
        diagrams.append(random_diagram(rng, max_n=10))
    signs = set()
    for idx, d in enumerate(diagrams):
        V = sample(d, seed=idx + 1, normalize_r1=True)
        rows = qrows(V.matrix)
        _, columns = beta(d)
        # letter s_i of the j-th run is the braid box (n-k+1-j, i)
        boxes = [BoxRef(d.n - d.k + 1 - j, i) for j, run in enumerate(columns, start=1) for i in run]
        for box in boxes:
            J = d.short_label(box.a, box.i)
            principal = det_oracle([[rows[r][c - 1] for c in J] for r in range(box.i)])
            delta = V.delta(d.long_label(box.a, box.i))
            assert abs(principal) == abs(delta) != 0
            signs.add(1 if principal == delta else -1)
    print(f"  observed principal-minor signs: {sorted(signs)}")


@criterion(13, "structural counts on 500 random diagrams")
def test_criterion_13():
    for t in range(500):
        rng = random.Random(subseed(13, "diagram", t))
        d = random_diagram(rng, max_n=12)
        word = beta(d)[0]
        assert len(word) + len(d.ribbon().R1) == d.size()
        wl = w_grassmannian(d.lam, d.n, d.k)
        wm = w_grassmannian(d.mu, d.n, d.k)
        ws = w_skew(d)
        assert wm.length() == ws.length() + wl.length()
        assert ws.length() == d.size()
        free = sum(d.lambda_bar[a] - d.mu_bar[a] for a in range(1, d.n - d.k + 1))
        assert free == d.size()
