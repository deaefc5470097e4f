from itertools import combinations

import pytest
from hypothesis import strategies as st

from skewpos import Partition, SkewDiagram
from skewpos.linalg import minor


@pytest.fixture
def running():
    """(n, k) = (12, 5), lambda = (7,7,5,3,1), mu = (3,3,2)."""
    return SkewDiagram(12, 5, Partition((7, 7, 5, 3, 1)), Partition((3, 3, 2)))


@pytest.fixture
def intro():
    """(n, k) = (12, 5), lambda = (7,7,5,3,1), mu = (3,1)."""
    return SkewDiagram(12, 5, Partition((7, 7, 5, 3, 1)), Partition((3, 1)))


@pytest.fixture
def disconnected():
    """(n, k) = (9, 4), lambda = (5,5,2,2), mu = (3,3)."""
    return SkewDiagram(9, 4, Partition((5, 5, 2, 2)), Partition((3, 3)))


def intro_off_chart_point(seed_range=range(1, 40)):
    """A genuine point of the intro diagram outside the column-5 chart.

    Column 6 of the matrix is rebuilt inside its dependency window so that the
    mutable minor at box (5, 2) vanishes while membership is preserved.
    """
    from skewpos import in_U_a, membership, sample
    from skewpos.linalg import RatMatrix, solve_columns, vec_add, vec_scale, zero_vector
    from skewpos.variety import PointV

    d = SkewDiagram(12, 5, Partition((7, 7, 5, 3, 1)), Partition((3, 1)))
    label = d.long_label(5, 2)  # (5, 6, 10, 11, 12), linear in column 6
    for seed in seed_range:
        V = sample(d, seed=seed)
        anchor7 = V.delta(tuple(7 if t == 6 else t for t in label))
        if anchor7 == 0:
            continue
        c7, c8, c9 = solve_columns([V.column(t) for t in (7, 8, 9)], V.column(6))
        delta8 = V.delta(tuple(8 if t == 6 else t for t in label))
        delta9 = V.delta(tuple(9 if t == 6 else t for t in label))
        new_c7 = -(c8 * delta8 + c9 * delta9) / anchor7
        v6 = zero_vector(5)
        for c, t in ((new_c7, 7), (c8, 8), (c9, 9)):
            v6 = vec_add(v6, vec_scale(c, V.column(t)))
        cols = [v6 if t == 6 else V.column(t) for t in range(1, 13)]
        M = RatMatrix.from_columns(cols)
        if membership(M, d):
            W = PointV(d, M)
            if not in_U_a(W, 5):
                return W
    raise RuntimeError("no off-chart point found in the seed range")


def necklace_entry_exhaustive(M, i: int) -> tuple[int, ...]:
    """All-subsets oracle for one necklace entry (n <= ~12); checks necklace_of_point."""
    k, n = M.nrows, M.ncols
    start = (i % n) + 1
    keyed = [
        tuple(sorted((x - start) % n for x in J))
        for J in combinations(range(1, n + 1), k)
        if minor(M, J) != 0
    ]
    best = max(keyed)
    if not all(all(a <= b for a, b in zip(key, best)) for key in keyed):
        raise AssertionError("no Gale maximum among nonvanishing subsets")
    return tuple(sorted((p + start - 1) % n + 1 for p in best))


@st.composite
def skew_diagrams(draw, max_n=10, min_n=4):
    n = draw(st.integers(min_n, max_n))
    k = draw(st.integers(1, n - 1))
    lam = []
    prev = n - k
    for _ in range(k):
        prev = draw(st.integers(0, prev))
        lam.append(prev)
    mu = []
    prev = None
    for lj in lam:
        hi = lj if prev is None else min(lj, prev)
        m = draw(st.integers(0, hi))
        mu.append(m)
        prev = m
    return SkewDiagram(n, k, Partition(tuple(lam)), Partition(tuple(mu)))
