"""Grassmann necklaces, bounded affine permutations, and Grassmannian permutations.

Permutations of [n] are stored in 1-based one-line notation as tuples:
``w[i-1] == w(i)``.  Composition is functional, ``compose(x, y)(i) = x(y(i))``.
Reduced words are tuples of adjacent-transposition indices, multiplied left to
right: ``(i1, i2)`` denotes ``s_{i1} s_{i2}``, which applies ``s_{i2}`` first.
``baf_to_necklace`` reads each necklace entry off f in closed form (Knutson-Lam-Speyer), and
``necklace_to_baf`` reads f off the exchange between consecutive entries.
"""

from __future__ import annotations

from dataclasses import dataclass

from .diagram import InvariantError, Partition, SkewDiagram, _heights


# -- plain symmetric-group helpers -----------------------------------------------

def compose(x, y) -> tuple[int, ...]:
    """(x y)(i) = x(y(i))."""
    return tuple(x[y[i] - 1] for i in range(len(y)))


def inverse(w) -> tuple[int, ...]:
    inv = [0] * len(w)
    for i, wi in enumerate(w, start=1):
        inv[wi - 1] = i
    return tuple(inv)


def inversions(w) -> int:
    return sum(1 for i in range(len(w)) for j in range(i + 1, len(w)) if w[i] > w[j])


def from_word(n: int, word) -> tuple[int, ...]:
    """The product of the word: right multiplication by s_i swaps the entries at positions i and i+1."""
    w = list(range(1, n + 1))
    for i in word:
        w[i - 1], w[i] = w[i], w[i - 1]
    return tuple(w)


@dataclass(frozen=True)
class PermWord:
    """One-line permutation plus an optional reduced word in adjacent transpositions."""

    perm: tuple[int, ...]
    word: tuple[int, ...] | None = None

    def __post_init__(self):
        if sorted(self.perm) != list(range(1, len(self.perm) + 1)):
            raise ValueError(f"not a permutation of [n]: {self.perm}")
        if self.word is not None:
            if from_word(len(self.perm), self.word) != self.perm:
                raise ValueError("word does not multiply out to the permutation")
            if len(self.word) != inversions(self.perm):
                raise ValueError("word is not reduced")

    def length(self) -> int:
        return inversions(self.perm)


# -- necklaces and bounded affine permutations ------------------------------------

@dataclass(frozen=True)
class GrassmannNecklace:
    """Source Grassmann necklace: n cyclic k-subsets with the one-element exchange rule."""

    n: int
    k: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        entries = tuple(tuple(sorted(e)) for e in self.entries)
        object.__setattr__(self, "entries", entries)
        if len(entries) != self.n:
            raise ValueError(f"expected {self.n} entries, got {len(entries)}")
        sets = [set(e) for e in entries]  # one per entry, which the exchange conditions read too
        for e, s in zip(entries, sets):
            if len(e) != self.k or len(s) != self.k or e and not 1 <= e[0] <= e[-1] <= self.n:  # e is sorted
                raise ValueError(f"entry {e} is not a k-subset of [n]")
        for i in range(1, self.n + 1):
            prev, cur = sets[i - 2], sets[i - 1]  # I_{i-1}, cyclically (i=1 -> I_n), and I_i
            if i not in cur:
                if prev != cur:
                    raise ValueError(f"source condition fails at i={i}: {prev} vs {cur}")
            else:
                if not (cur - {i}) <= prev or len(prev - (cur - {i})) != 1:
                    raise ValueError(f"exchange condition fails at i={i}")

    def entry(self, i: int) -> tuple[int, ...]:
        """I_i with cyclic index (I_0 = I_n)."""
        return self.entries[(i - 1) % self.n]


@dataclass(frozen=True)
class BoundedAffinePermutation:
    """Window [f(1), ..., f(n)] with i <= f(i) <= i+n, extended by f(i+n) = f(i)+n."""

    n: int
    k: int
    window: tuple[int, ...]

    def __post_init__(self):
        if len(self.window) != self.n:
            raise ValueError("window must have length n")
        for i, fi in enumerate(self.window, start=1):
            if not i <= fi <= i + self.n:
                raise ValueError(f"f({i})={fi} outside [{i}, {i + self.n}]")
        residues = sorted((fi - 1) % self.n for fi in self.window)
        if residues != list(range(self.n)):
            raise ValueError("window values not distinct mod n")
        if sum(1 for fi in self.window if fi > self.n) != self.k:
            raise ValueError("number of values exceeding n must equal k")

    def __call__(self, i: int) -> int:
        q, r = divmod(i - 1, self.n)
        return self.window[r] + q * self.n

    def mod_n(self) -> tuple[int, ...]:
        return tuple((fi - 1) % self.n + 1 for fi in self.window)

    def fixed_point_decorations(self) -> dict[int, str]:
        """Loop direction for each fixed point mod n of the window."""
        out = {}
        for i, fi in enumerate(self.window, start=1):
            if fi == i:
                out[i] = "clockwise"
            elif fi == i + self.n:
                out[i] = "counterclockwise"
        return out


def necklace(d: SkewDiagram) -> GrassmannNecklace:
    """Grassmann necklace of the skew shaped positroid.

    Every entry defaults to I_mu; the ribbon box (a, i) overrides entry a+i-1
    with I'(a, i).  This realizes all five cases of the ribbon construction.
    """
    entries = [d.I_mu()] * d.n
    for box in d.ribbon().R:
        entries[box.index() - 1] = d.long_label(box.a, box.i)
    return GrassmannNecklace(d.n, d.k, tuple(entries))


def baf(d: SkewDiagram) -> BoundedAffinePermutation:
    """Bounded affine permutation f(a+mu_bar_a) = a+lambda_bar_a, f(b_i) = n-k-lambda_i+i+n; kept on d."""
    if "baf" not in d._memo:
        window = [0] * d.n
        for a in range(1, d.n - d.k + 1):
            window[a + d.mu_bar[a] - 1] = a + d.lambda_bar[a]
        for i in range(1, d.k + 1):
            window[d.b(i) - 1] = d.n - d.k - d.lam.part(i) + i + d.n
        d._memo["baf"] = BoundedAffinePermutation(d.n, d.k, tuple(window))
    return d._memo["baf"]


def necklace_to_baf(N: GrassmannNecklace) -> BoundedAffinePermutation:
    n = N.n
    window = [0] * n
    for i in range(1, n + 1):
        prev, cur = set(N.entry(i - 1)), set(N.entry(i))
        if prev == cur:
            window[i - 1] = i + n if i in cur else i
        else:
            (j,) = prev - cur
            window[j - 1] = i if i > j else i + n
    return BoundedAffinePermutation(n, N.k, tuple(window))


def baf_to_necklace(f: BoundedAffinePermutation) -> GrassmannNecklace:
    """I_i = { j mod n : i - n < j <= i < f(j) } (Knutson-Lam-Speyer)."""
    n = f.n
    return GrassmannNecklace(n, f.k, tuple(tuple((j - 1) % n + 1 for j in range(i - n + 1, i + 1) if f(j) > i)
                                           for i in range(1, n + 1)))


# -- Grassmannian permutations ----------------------------------------------------

def w_grassmannian(p: Partition, n: int, k: int) -> PermWord:
    """The k-Grassmannian permutation of the partition, with its column reduced word.

    One-line: first block n-k-p_i+i for i = 1..k, second block a + (height of
    column a of p) for a = 1..n-k.  The word is the product of column factors,
    leftmost diagram column first; empty factors are skipped.
    """
    if len(p) > k or p.part(1) > n - k:
        raise ValueError("partition does not fit in the k x (n-k) box")
    h = _heights(p.parts, n - k)  # h[a]: height of column a from the right
    one_line = tuple(n - k - p.part(i) + i for i in range(1, k + 1)) + tuple(a + h[a] for a in range(1, n - k + 1))
    word: list[int] = []
    for j in range(n - k, 0, -1):  # factor j is the ascending run s_{j+h[j]} .. s_{k+j-1}
        word.extend(range(j + h[j], k + j))
    return PermWord(one_line, tuple(word))


def w_skew(d: SkewDiagram) -> PermWord:
    """w_{lambda/mu} with its column word; satisfies w_mu = w_{lambda/mu} w_lambda."""
    wl = w_grassmannian(d.lam, d.n, d.k)
    wm = w_grassmannian(d.mu, d.n, d.k)
    perm = compose(wm.perm, inverse(wl.perm))
    word: list[int] = []
    for a in range(d.n - d.k, 0, -1):  # left-to-right diagram columns: a = n-k down to 1
        word.extend(range(a + d.mu_bar[a], a + d.lambda_bar[a]))
    w = PermWord(perm, tuple(word))
    if w.length() != d.size() or wm.length() != w.length() + wl.length():
        raise InvariantError("length-additive factorization failed")
    return w


def verify_f_factorization(d: SkewDiagram) -> bool:
    """Check baf(d) = w_lambda t_k w_mu^{-1} (affine composition): t_k adds n to 1..k and fixes
    k+1..n, and the n-periodic extension of w_lambda carries that n along."""
    n, k = d.n, d.k
    wl = w_grassmannian(d.lam, n, k).perm
    wm_inv = inverse(w_grassmannian(d.mu, n, k).perm)
    return tuple(wl[x - 1] + n * (x <= k) for x in wm_inv) == baf(d).window
