"""Positive braid words on k strands attached to skew diagrams.

The braid of a diagram is the concatenation of per-column descending runs
C_1 C_2 ... C_{n-k}, where C_j (j-th rectangle column FROM THE LEFT) is
``s_{h-1} s_{h-2} ... s_{m+1}`` for column heights m (in mu) and h (in lambda).
The letters of column j correspond to the braid boxes (a, i) of the diagram
column a = n-k+1-j: every box of the column except the top one.
"""

from __future__ import annotations

from dataclasses import dataclass

from .diagram import BoxRef, InvariantError, SkewDiagram
from .permutations import adjacent_transposition, compose, identity, inversions, longest_element


@dataclass(frozen=True)
class BraidWord:
    """Word in the positive generators s_1 .. s_{k-1} of the k-strand braid monoid."""

    strands: int
    letters: tuple[int, ...]

    def __post_init__(self):
        for s in self.letters:
            if not 1 <= s <= self.strands - 1:
                raise ValueError(f"letter s_{s} out of range for {self.strands} strands")

    def __len__(self) -> int:
        return len(self.letters)

    def permutation(self) -> tuple[int, ...]:
        w = identity(self.strands)
        for s in self.letters:
            w = compose(w, adjacent_transposition(self.strands, s))
        return w

    def concat(self, other: "BraidWord") -> "BraidWord":
        if self.strands != other.strands:
            raise ValueError("strand counts differ")
        return BraidWord(self.strands, self.letters + other.letters)


@dataclass(frozen=True)
class CrossingMap:
    """Bijection between braid-word positions (0-based) and braid boxes of lambda/mu."""

    boxes: tuple[BoxRef, ...]

    def box_of(self, position: int) -> BoxRef:
        return self.boxes[position]

    def position_of(self, box: BoxRef) -> int:
        return self.boxes.index(box)


def beta(d: SkewDiagram) -> tuple[BraidWord, CrossingMap, tuple[tuple[int, ...], ...]]:
    """(word, crossing map, per-column letter runs) for the diagram's braid.

    Column j from the left maps to diagram column a = n-k+1-j; its run is
    descending and the letter s_i corresponds to the braid box (a, i).
    """
    letters: list[int] = []
    boxes: list[BoxRef] = []
    columns: list[tuple[int, ...]] = []
    for j in range(1, d.n - d.k + 1):
        a = d.n - d.k + 1 - j
        run = tuple(range(d.lambda_bar[a] - 1, d.mu_bar[a], -1))
        columns.append(run)
        letters.extend(run)
        boxes.extend(BoxRef(a, i) for i in run)
    return BraidWord(d.k, tuple(letters)), CrossingMap(tuple(boxes)), tuple(columns)


def half_twist(k: int) -> BraidWord:
    """Positive lift of w_0: (s_{k-1}..s_1)(s_{k-1}..s_2)...(s_{k-1})."""
    if k < 1:
        raise ValueError("need at least one strand")
    letters: list[int] = []
    for start in range(1, k):
        letters.extend(range(k - 1, start - 1, -1))
    word = BraidWord(k, tuple(letters))
    perm = word.permutation()
    if perm != longest_element(k) or len(letters) != inversions(perm):
        raise InvariantError(f"half twist on {k} strands is not a reduced word for w_0")
    return word


def cut_braid(d: SkewDiagram, a: int) -> tuple[BraidWord, BraidWord]:
    """Braids of the two halves of cut(d, a); their concatenation is beta(d)."""
    left, right = d.cut(a)
    return beta(left)[0], beta(right)[0]


def render(word: BraidWord, columns=None) -> str:
    """Plain text like "s4 s3 | s3 s2 | ..." with per-column separators."""
    if columns is None:
        return " ".join(f"s{s}" for s in word.letters)
    return " | ".join(" ".join(f"s{s}" for s in run) for run in columns if run)
