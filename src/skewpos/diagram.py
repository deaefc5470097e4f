"""Partitions, skew diagrams in a k x (n-k) box, and lattice-path labelings.

Conventions (used everywhere in this package):

- Columns of a diagram are indexed by ``a = 1..n-k`` FROM THE RIGHT, rows by
  ``i = 1..k`` from the bottom (French convention).  The box ``(a, i)`` sits in
  matrix column ``t = a + i - 1`` of the boundary-path labeling.
- ``mu_bar[a]`` / ``lambda_bar[a]`` are the heights of column ``a`` in mu / lambda,
  so the box ``(a, i)`` belongs to the skew diagram iff ``mu_bar[a] < i <= lambda_bar[a]``.
- Subsets of ``[n]`` are returned as sorted tuples of ints.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate
from typing import NamedTuple


class InvariantError(AssertionError):
    """A mathematical invariant of the package failed; raised explicitly, so it also runs under -O."""


MAX_N = 1 << 16  # the largest n a diagram read from JSON may have, so its column heights fit in memory


def json_key(obj, what: str, key: str, valid, expected: str, default=None):
    """obj[key] of a parsed JSON object; raises ValueError naming a missing or ill-typed key."""
    if not isinstance(obj, dict) or (key not in obj and default is None):
        raise ValueError(f"{what} has no key {key!r}")
    value = obj.get(key, default)
    if not valid(value):
        raise ValueError(f"{what} key {key!r} must be {expected}, got {value!r}")
    return value


def _int_list(x) -> bool:
    return isinstance(x, list) and all(type(p) is int for p in x)


@dataclass(frozen=True)
class Partition:
    """A weakly decreasing tuple of positive parts; trailing zeros are dropped."""

    parts: tuple[int, ...] = ()

    def __post_init__(self):
        parts = tuple(int(p) for p in self.parts)
        while parts and parts[-1] == 0:
            parts = parts[:-1]
        if any(p < 0 for p in parts):
            raise ValueError(f"negative part in {parts}")
        if any(parts[j] < parts[j + 1] for j in range(len(parts) - 1)):
            raise ValueError(f"parts not weakly decreasing: {parts}")
        object.__setattr__(self, "parts", parts)

    def __len__(self):
        return len(self.parts)

    def size(self) -> int:
        return sum(self.parts)

    def part(self, j: int) -> int:
        """The j-th part (1-indexed), zero beyond the last row."""
        return self.parts[j - 1] if 1 <= j <= len(self.parts) else 0

    def contains(self, other: "Partition") -> bool:
        return all(other.part(j) <= self.part(j) for j in range(1, len(other) + 1))


def _heights(parts: tuple[int, ...], w: int) -> tuple[int, ...]:
    """(0, h_1, .., h_w): h_a counts the parts >= w + 1 - a, the height of column a from the right,
    in one pass: a part p starts counting at column w + 1 - p, and a running sum adds them up."""
    starts = [0] * (w + 1)
    for p in parts:
        starts[w + 1 - p] += 1
    return tuple(accumulate(starts))


class BoxRef(NamedTuple):
    """Box (a, i): a-th column from the right, i-th row from the bottom; equal to the tuple (a, i)."""

    a: int
    i: int

    def index(self) -> int:
        """Matrix-column label a + i - 1 of the box."""
        return self.a + self.i - 1


@dataclass(frozen=True)
class SkewDiagram:
    """Pair mu <= lambda inside the k x (n-k) rectangle of Gr(k, n)."""

    n: int
    k: int
    lam: Partition
    mu: Partition
    mu_bar: tuple[int, ...] = field(init=False, compare=False, repr=False)
    lambda_bar: tuple[int, ...] = field(init=False, compare=False, repr=False)
    _I_mu: tuple[int, ...] = field(init=False, compare=False, repr=False)
    _memo: dict = field(default_factory=dict, init=False, compare=False, repr=False)  # cuts, boxes, labels, ribbon, quiver, baf

    def __post_init__(self):
        n, k = self.n, self.k
        # n == k is allowed so the right factor of a cut at column 1 (the empty
        # diagram in Gr(k, k)) is representable.
        if not 0 < k <= n:
            raise ValueError(f"need 0 < k <= n, got k={k}, n={n}")
        if len(self.lam) > k:
            raise ValueError(f"lambda has more than k={k} parts: {self.lam.parts}")
        if self.lam.part(1) > n - k:
            raise ValueError(f"lambda_1={self.lam.part(1)} exceeds n-k={n - k}")
        if not self.lam.contains(self.mu):
            bad = next(j for j in range(1, len(self.mu) + 1) if self.mu.part(j) > self.lam.part(j))
            raise ValueError(f"mu not contained in lambda at row {bad}")
        w = n - k  # heights indexed a = 1..n-k from the right; index 0 unused
        object.__setattr__(self, "lambda_bar", _heights(self.lam.parts, w))
        object.__setattr__(self, "mu_bar", _heights(self.mu.parts, w))
        object.__setattr__(self, "_I_mu", tuple(w - self.mu.part(j) + j for j in range(1, k + 1)))

    # -- box geometry -------------------------------------------------------

    def contains_box(self, a: int, i: int) -> bool:
        """Box membership test mu_bar_a < i <= lambda_bar_a."""
        if not (1 <= a <= self.n - self.k and 1 <= i <= self.k):
            return False
        return self.mu_bar[a] < i <= self.lambda_bar[a]

    def in_mu(self, a: int, i: int) -> bool:
        if not (1 <= a <= self.n - self.k and 1 <= i <= self.k):
            return False
        return i <= self.mu_bar[a]

    def boxes(self) -> list[BoxRef]:
        """All boxes of lambda/mu, column by column from the right, bottom up; each BoxRef is built once."""
        if "boxes" not in self._memo:
            self._memo["boxes"] = tuple(
                BoxRef(a, i)
                for a in range(1, self.n - self.k + 1)
                for i in range(self.mu_bar[a] + 1, self.lambda_bar[a] + 1)
            )
        return list(self._memo["boxes"])

    def size(self) -> int:
        return self.lam.size() - self.mu.size()

    # -- boundary-path labels ----------------------------------------------

    def b(self, j: int) -> int:
        """The j-th element b_j = n - k - mu_j + j of I_mu, for 1 <= j <= k."""
        return self._I_mu[j - 1]

    def d(self, i: int) -> int:
        """Column (from the right) of the rightmost box in row i of lambda: d_i = n-k+1-lambda_i."""
        return self.n - self.k + 1 - self.lam.part(i)

    def I_mu(self) -> tuple[int, ...]:
        """Labels of the vertical steps of the boundary path of mu."""
        return self._I_mu

    def I_lambda(self) -> tuple[int, ...]:
        """Labels of the vertical steps of the boundary path of lambda: d_i + i - 1."""
        return tuple(self.d(i) + i - 1 for i in range(1, self.k + 1))

    def short_label(self, a: int, i: int) -> tuple[int, ...]:
        """J(a, i): labels of the vertical steps of the short path of box (a, i)."""
        return self.long_label(a, i)[:i]

    def long_label(self, a: int, i: int) -> tuple[int, ...]:
        """I'(a, i) = J(a, i) together with the last k - i elements of I_mu, read off the label table."""
        if "labels" not in self._memo:
            self._memo["labels"] = self._label_table()
        label = self._memo["labels"].get((a, i))
        if label is None:
            raise ValueError(f"box ({a},{i}) is not in lambda/mu")
        return label

    def _label_table(self) -> dict[tuple[int, int], tuple[int, ...]]:
        """I'(a, i) of every box, built column by column: J(a, i) is J(a, i - 1) and min(a + i - 1, b_i)."""
        I, table = self._I_mu, {}
        for a in range(1, self.n - self.k + 1):
            m = self.mu_bar[a]
            J = tuple(map(min, range(a, a + m), I[:m]))
            for i in range(m + 1, self.lambda_bar[a] + 1):
                J += (min(a + i - 1, I[i - 1]),)
                table[a, i] = J + I[i:]
        return table

    # -- boundary ribbon ------------------------------------------------------

    def ribbon(self) -> "RibbonDecomposition":
        """Column a's ribbon boxes are its boxes of lambda at or above the height of column a-1; built once.
        R and R1 hold the kept boxes of ``boxes()``; only Rbar's boxes, which lie in mu, are built here."""
        if "ribbon" not in self._memo:
            R, Rbar, R1, kept = [], [], [], {b: b for b in self.boxes()}
            for a in range(1, self.n - self.k + 1):
                for i in range(max(self.lambda_bar[a - 1], 1), self.lambda_bar[a] + 1):
                    (R if i > self.mu_bar[a] else Rbar).append(kept.get((a, i)) or BoxRef(a, i))
                if self.mu_bar[a] < self.lambda_bar[a]:
                    R1.append(kept[a, self.lambda_bar[a]])
            self._memo["ribbon"] = RibbonDecomposition(tuple(R), tuple(Rbar), tuple(R1))
        return self._memo["ribbon"]

    # -- cutting --------------------------------------------------------------

    def cut(self, a: int) -> tuple["SkewDiagram", "SkewDiagram"]:
        """Split along the left edge of column a: (columns a..n-k, columns 1..a-1); built once per a."""
        if ("cut", a) in self._memo:
            return self._memo["cut", a]
        if not 1 <= a <= self.n - self.k:
            raise ValueError(f"cut column {a} out of range 1..{self.n - self.k}")
        w = self.n - self.k - a + 1  # width kept on the left
        left = SkewDiagram(
            self.n - a + 1,
            self.k,
            Partition(tuple(min(self.lam.part(j), w) for j in range(1, self.k + 1))),
            Partition(tuple(min(self.mu.part(j), w) for j in range(1, self.k + 1))),
        )
        right = SkewDiagram(
            self.k + a - 1,
            self.k,
            Partition(tuple(max(self.lam.part(j) - w, 0) for j in range(1, self.k + 1))),
            Partition(tuple(max(self.mu.part(j) - w, 0) for j in range(1, self.k + 1))),
        )
        self._memo["cut", a] = left, right
        return left, right

    # -- serialization ----------------------------------------------------------

    def to_json(self) -> dict:
        return {"n": self.n, "k": self.k, "lambda": list(self.lam.parts), "mu": list(self.mu.parts)}

    @classmethod
    def from_json(cls, obj: dict) -> "SkewDiagram":
        n = json_key(obj, "diagram", "n", lambda x: type(x) is int and x <= MAX_N, f"an integer at most {MAX_N}")
        k = json_key(obj, "diagram", "k", lambda x: type(x) is int, "an integer")
        lam = json_key(obj, "diagram", "lambda", _int_list, "a list of integers")
        mu = json_key(obj, "diagram", "mu", _int_list, "a list of integers", default=[])
        return cls(n, k, Partition(tuple(lam)), Partition(tuple(mu)))


@dataclass(frozen=True)
class RibbonDecomposition:
    """Boundary ribbon of lambda split into skew part R, mu part Rbar, and top boxes R1."""

    R: tuple[BoxRef, ...]
    Rbar: tuple[BoxRef, ...]
    R1: tuple[BoxRef, ...]
