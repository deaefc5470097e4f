"""Positive braid words on k strands attached to skew diagrams.

The braid of a diagram is the concatenation of per-column descending runs
C_1 C_2 ... C_{n-k}, where C_j (j-th rectangle column FROM THE LEFT) is
``s_{h-1} s_{h-2} ... s_{m+1}`` for column heights m (in mu) and h (in lambda).
The letters of column j correspond to the braid boxes (a, i) of the diagram
column a = n-k+1-j: every box of the column except the top one.
"""

from __future__ import annotations

from dataclasses import dataclass

from .diagram import SkewDiagram


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


def beta(d: SkewDiagram) -> tuple[BraidWord, tuple[tuple[int, ...], ...]]:
    """(word, per-column letter runs) for the diagram's braid.

    Column j from the left maps to diagram column a = n-k+1-j; its run is
    descending and the letter s_i corresponds to the braid box (a, i).
    """
    columns = tuple(
        tuple(range(d.lambda_bar[a] - 1, d.mu_bar[a], -1))
        for a in range(d.n - d.k, 0, -1)
    )
    return BraidWord(d.k, tuple(s for run in columns for s in run)), columns


def cut_braid(d: SkewDiagram, a: int) -> tuple[BraidWord, BraidWord]:
    """Braids of the two halves of cut(d, a); their concatenation is beta(d)."""
    left, right = d.cut(a)
    return beta(left)[0], beta(right)[0]


def render(columns) -> str:
    """Plain text like "s4 s3 | s3 s2 | ..." with per-column separators; empty runs are skipped."""
    return " | ".join(" ".join(f"s{s}" for s in run) for run in columns if run)
