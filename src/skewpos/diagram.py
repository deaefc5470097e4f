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

    def __iter__(self):
        return iter(self.parts)

    def __len__(self):
        return len(self.parts)

    def __getitem__(self, j):
        return self.parts[j]

    def size(self) -> int:
        return sum(self.parts)

    def part(self, j: int) -> int:
        """The j-th part (1-indexed), zero beyond the last row."""
        return self.parts[j - 1] if 1 <= j <= len(self.parts) else 0

    def contains(self, other: "Partition") -> bool:
        return all(other.part(j) <= self.part(j) for j in range(1, len(other) + 1))


def conjugate(p: Partition) -> Partition:
    """Transpose partition: conjugate(p).part(j) counts parts of p that are >= j."""
    if not p.parts:
        return Partition()
    return Partition(tuple(sum(1 for q in p.parts if q >= j) for j in range(1, p.parts[0] + 1)))


@dataclass(frozen=True)
class BoxRef:
    """Box (a, i): a-th column from the right, i-th row from the bottom."""

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
        lam_t = conjugate(self.lam)
        mu_t = conjugate(self.mu)
        # heights indexed a = 1..n-k from the right; index 0 unused
        object.__setattr__(
            self, "lambda_bar", (0,) + tuple(lam_t.part(n - k + 1 - a) for a in range(1, n - k + 1))
        )
        object.__setattr__(
            self, "mu_bar", (0,) + tuple(mu_t.part(n - k + 1 - a) for a in range(1, n - k + 1))
        )

    # -- box geometry -------------------------------------------------------

    def contains_box(self, a: int, i: int) -> bool:
        """Box membership test mu_bar_a < i <= lambda_bar_a."""
        if not (1 <= a <= self.n - self.k and 1 <= i <= self.k):
            return False
        return self.mu_bar[a] < i <= self.lambda_bar[a]

    def in_lambda(self, a: int, i: int) -> bool:
        if not (1 <= a <= self.n - self.k and 1 <= i <= self.k):
            return False
        return i <= self.lambda_bar[a]

    def in_mu(self, a: int, i: int) -> bool:
        if not (1 <= a <= self.n - self.k and 1 <= i <= self.k):
            return False
        return i <= self.mu_bar[a]

    def boxes(self) -> list[BoxRef]:
        """All boxes of lambda/mu, column by column from the right, bottom up."""
        return [
            BoxRef(a, i)
            for a in range(1, self.n - self.k + 1)
            for i in range(self.mu_bar[a] + 1, self.lambda_bar[a] + 1)
        ]

    def size(self) -> int:
        return self.lam.size() - self.mu.size()

    # -- boundary-path labels ----------------------------------------------

    def b(self, j: int) -> int:
        """The j-th element b_j = n - k - mu_j + j of I_mu, for 1 <= j <= k."""
        return self.n - self.k - self.mu.part(j) + j

    def d(self, i: int) -> int:
        """Column (from the right) of the rightmost box in row i of lambda: d_i = n-k+1-lambda_i."""
        return self.n - self.k + 1 - self.lam.part(i)

    def I_mu(self) -> tuple[int, ...]:
        """Labels of the vertical steps of the boundary path of mu."""
        return tuple(self.b(j) for j in range(1, self.k + 1))

    def I_lambda(self) -> tuple[int, ...]:
        """Labels of the vertical steps of the boundary path of lambda: d_i + i - 1."""
        return tuple(self.d(i) + i - 1 for i in range(1, self.k + 1))

    def _require_box(self, a: int, i: int):
        if not self.contains_box(a, i):
            raise ValueError(f"box ({a},{i}) is not in lambda/mu")

    def short_label(self, a: int, i: int) -> tuple[int, ...]:
        """J(a, i): labels of the vertical steps of the short path of box (a, i)."""
        self._require_box(a, i)
        return tuple(min(a + j - 1, self.b(j)) for j in range(1, i + 1))

    def long_label(self, a: int, i: int) -> tuple[int, ...]:
        """I'(a, i) = J(a, i) together with the last k - i elements of I_mu."""
        self._require_box(a, i)
        return self.short_label(a, i) + tuple(self.b(j) for j in range(i + 1, self.k + 1))

    def tilde_label(self, a: int, i: int) -> tuple[int, ...]:
        """J-hat(a, i) = {b_1, ..., b_i}, defined when (a, i) is in mu and (a-1, i) in lambda/mu."""
        if not (self.in_mu(a, i) and self.contains_box(a - 1, i)):
            raise ValueError(f"tilde label undefined at ({a},{i})")
        return tuple(self.b(j) for j in range(1, i + 1))

    # -- boundary ribbon ------------------------------------------------------

    def in_ribbon_lambda(self, a: int, i: int) -> bool:
        """Box of lambda whose northeast neighbor (a-1, i+1) falls outside lambda."""
        return self.in_lambda(a, i) and not self.in_lambda(a - 1, i + 1)

    def ribbon(self) -> "RibbonDecomposition":
        R, Rbar, R1 = [], [], []
        for a in range(1, self.n - self.k + 1):
            for i in range(1, self.lambda_bar[a] + 1):
                if self.in_ribbon_lambda(a, i):
                    (R if i > self.mu_bar[a] else Rbar).append(BoxRef(a, i))
            if self.mu_bar[a] < self.lambda_bar[a]:
                R1.append(BoxRef(a, self.lambda_bar[a]))
        return RibbonDecomposition(tuple(R), tuple(Rbar), tuple(R1))

    def is_frozen(self, a: int, i: int) -> bool:
        """Frozen cluster variables sit exactly on the ribbon boxes of lambda/mu."""
        self._require_box(a, i)
        return self.in_ribbon_lambda(a, i)

    # -- cutting --------------------------------------------------------------

    def cut(self, a: int) -> tuple["SkewDiagram", "SkewDiagram"]:
        """Split along the left edge of column a: (columns a..n-k, columns 1..a-1)."""
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
        return left, right

    # -- serialization ----------------------------------------------------------

    def to_json(self) -> dict:
        return {"n": self.n, "k": self.k, "lambda": list(self.lam.parts), "mu": list(self.mu.parts)}

    @classmethod
    def from_json(cls, obj: dict) -> "SkewDiagram":
        return cls(int(obj["n"]), int(obj["k"]), Partition(tuple(obj["lambda"])), Partition(tuple(obj.get("mu", ()))))


@dataclass(frozen=True)
class RibbonDecomposition:
    """Boundary ribbon of lambda split into skew part R, mu part Rbar, and top boxes R1."""

    R: tuple[BoxRef, ...]
    Rbar: tuple[BoxRef, ...]
    R1: tuple[BoxRef, ...]
