"""The SVD rank rule, as a reference for the tests.

`numeric_rank` counts the singular values above RANK_THRESHOLD times
the largest and refuses (IndeterminateRankError) when the smallest kept
and the largest dropped value are less than GAP_GUARD apart.  The
package decides its one rank, that of the dimension certificate, per
branching square and exactly where floats fall short; the tests use
this rule to rank the word matrix and the Kronecker systems they build
themselves.
"""

import numpy as np

from qalt.hecke_rep import GAP_GUARD, RANK_THRESHOLD, IndeterminateRankError


def guarded_rank(svals: np.ndarray) -> int:
    """Number of singular values above RANK_THRESHOLD * sigma_max.

    svals is in descending order.  Raises IndeterminateRankError when the
    smallest kept and the largest dropped value are less than GAP_GUARD
    apart.
    """
    top = float(svals[0]) if svals.size else 0.0
    if top == 0.0:
        return 0
    rank = int(np.sum(svals > RANK_THRESHOLD * top))
    if 0 < rank < svals.size:
        dropped = float(svals[rank])
        if dropped > 0.0 and float(svals[rank - 1]) / dropped < GAP_GUARD:
            raise IndeterminateRankError(
                f"singular values {svals[rank - 1]:.3e} and {dropped:.3e} "
                f"straddle the cutoff without a {GAP_GUARD:.0e} gap")
    return rank


def numeric_rank(matrix: np.ndarray) -> int:
    """Rank by singular values, refusing to guess near the threshold."""
    if matrix.size == 0:
        return 0
    return guarded_rank(np.linalg.svd(matrix, compute_uv=False))
