"""Skew shaped positroid varieties: combinatorics, exact points, splicing."""

from .braid import BraidWord, beta, cut_braid
from .cluster import Quiver, Seed, exchange_products, mutate, quiver, seed_at
from .diagram import BoxRef, InvariantError, Partition, RibbonDecomposition, SkewDiagram
from .linalg import RatMatrix
from .permutations import (
    BoundedAffinePermutation,
    GrassmannNecklace,
    PermWord,
    baf,
    baf_to_necklace,
    necklace,
    necklace_to_baf,
    verify_f_factorization,
    w_grassmannian,
    w_skew,
)
from .plabic import LatticeTrip, source_labels, trip, trip_permutation, trips
from .splicing import (
    Cut,
    OffChart,
    in_U_a,
    left_point,
    phi,
    right_point,
    splice_report,
    verify_exchange_ratios,
    verify_minor_scaling,
)
from .variety import (
    BraidLabeling,
    OffVariety,
    PointV,
    f_of_point,
    membership,
    necklace_of_point,
    omega,
    sample,
    xi,
)

__all__ = [
    "BraidWord", "beta", "cut_braid",
    "Quiver", "Seed", "exchange_products", "mutate", "quiver", "seed_at",
    "BoxRef", "InvariantError", "Partition", "RibbonDecomposition", "SkewDiagram",
    "RatMatrix",
    "BoundedAffinePermutation", "GrassmannNecklace", "PermWord", "baf", "baf_to_necklace", "necklace",
    "necklace_to_baf", "verify_f_factorization", "w_grassmannian", "w_skew",
    "LatticeTrip", "source_labels", "trip", "trip_permutation", "trips",
    "Cut", "OffChart", "in_U_a", "left_point", "phi", "right_point", "splice_report",
    "verify_exchange_ratios", "verify_minor_scaling",
    "BraidLabeling", "OffVariety", "PointV", "f_of_point", "membership", "necklace_of_point", "omega",
    "sample", "xi",
]
