"""Skew shaped positroid varieties: combinatorics, exact points, splicing."""

from .braid import BraidWord, CrossingMap, beta, cut_braid, half_twist
from .cluster import Quiver, Seed, exchange_products, exchange_ratio, mutate, quiver, seed_at
from .diagram import BoxRef, Partition, RibbonDecomposition, SkewDiagram, conjugate
from .linalg import FlagK, RatMatrix, Subspace, minor, rel_position, transversal
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
    A_factor,
    Cut,
    chart_is_everything,
    flag_at_cut,
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
    PointV,
    f_of_point,
    membership,
    necklace_of_point,
    omega,
    sample,
    xi,
)

__all__ = [name for name in dir() if not name.startswith("_")]
