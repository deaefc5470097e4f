"""A fixed reference computation that measures the machine's current speed.

The benchmark runs on shared machines whose CPU speed drifts by up to a
factor of two over minutes, which is longer than a run. The reference kernel
does the same kind of work as the package (exact rational elimination with
Python integers, and list and dict shuffling as in the combinatorics), but
none of the package's code. The benchmark runs it between operations and
scales each operation's time by how long the kernel took right before and
right after it, so that its timings read as if the kernel always took
``NOMINAL_S`` seconds. The speed can change within a second, so the nearest
two kernel runs track it better than a median over more of them.
"""

from __future__ import annotations

import gc
import time
from fractions import Fraction

NOMINAL_S = 0.010  # the kernel's time the scaled timings refer to

_SIZE = 12
_MATRIX = [[(i + 2) ** (j + 1) % 31 - 15 for j in range(_SIZE)] for i in range(_SIZE)]


def kernel() -> int:
    """Determinant of a fixed integer matrix by rational elimination, then a permutation walk."""
    rows = [[Fraction(x) for x in row] for row in _MATRIX]
    det = Fraction(1)
    for c in range(_SIZE):
        p = next(r for r in range(c, _SIZE) if rows[r][c])
        if p != c:
            rows[c], rows[p] = rows[p], rows[c]
            det = -det
        det *= rows[c][c]
        for r in range(c + 1, _SIZE):
            f = rows[r][c] / rows[c][c]
            rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
    perm = list(range(97))
    seen: dict[int, int] = {}
    for step in range(1, 120):
        perm = [perm[(i * step + 7) % 97] for i in range(97)]
        for i, x in enumerate(perm):
            seen[x] = seen.get(x, 0) + i
    return det.numerator ^ sum(seen.values())


CHECKSUM = -1401269550048944  # what kernel() returns; a changed kernel would time other work


def time_kernel() -> float:
    """Seconds one run of the kernel takes now.

    The garbage collector is off while it runs, so that a collection of the
    package's objects is not timed as part of the kernel.
    """
    gc.disable()
    try:
        t0 = time.perf_counter()
        value = kernel()
        dt = time.perf_counter() - t0
    finally:
        gc.enable()
    if value != CHECKSUM:
        raise RuntimeError("the reference kernel computed a different value")
    return dt


def scale(times: list[float], kernel_times: list[float]) -> list[float]:
    """Each time scaled to the nominal speed.

    ``kernel_times`` has one more entry than ``times``: the kernel ran before
    each timed piece of work and once after the last, so that the i-th piece
    lies between kernel runs i and i + 1 and is scaled by their mean.
    """
    if len(kernel_times) != len(times) + 1:
        raise ValueError(f"{len(times)} times need {len(times) + 1} kernel times, not {len(kernel_times)}")
    return [t * 2 * NOMINAL_S / (a + b) for t, a, b in zip(times, kernel_times, kernel_times[1:])]
