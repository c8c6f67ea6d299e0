"""Vectorized message-passing primitives shared by all decoders.

Every decoder in this package works on flat edge arrays in the Tanner
graph's canonical edge order.  The helpers here implement the two
node-update kernels of the paper:

* variable-node update, Eq. (4): "sum of all inputs except self",
* check-node update, Eq. (5): the tanh rule, plus its min-sum
  approximation used by decoder hardware.

All kernels are O(E) using ``np.ufunc.reduceat`` over segment-sorted views.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

#: Magnitude clip applied inside the tanh-rule kernel; keeps ``phi``
#: finite without affecting decisions (LLR 38 ≈ certainty).
_LLR_CLIP = 38.0
_PHI_MIN = 1e-12


def phi(x: np.ndarray) -> np.ndarray:
    """Gallager's involution ``phi(x) = -log(tanh(x/2))``, self-inverse.

    Accepts positive magnitudes; values are clipped to keep the result
    finite (hardware implements this as a saturating lookup table).
    """
    x = np.clip(np.asarray(x, dtype=np.float64), _PHI_MIN, _LLR_CLIP)
    return -np.log(np.tanh(0.5 * x))


def segment_sums(values_sorted: np.ndarray, ptr: np.ndarray) -> np.ndarray:
    """Sum of each segment of a segment-sorted value array.

    ``ptr`` is a CSR pointer array of length ``n_segments + 1``; empty
    segments are not supported (Tanner graphs have no isolated nodes).
    """
    return np.add.reduceat(values_sorted, ptr[:-1])


def segment_mins(values_sorted: np.ndarray, ptr: np.ndarray) -> np.ndarray:
    """Minimum of each segment."""
    return np.minimum.reduceat(values_sorted, ptr[:-1])


def exclusive_segment_sums(
    values: np.ndarray,
    order: np.ndarray,
    ptr: np.ndarray,
    segment_of_edge: np.ndarray,
) -> np.ndarray:
    """For each edge: sum of its segment minus its own value (Eq. 4 core).

    Parameters
    ----------
    values:
        Edge values in canonical order.
    order:
        Permutation sorting edges by segment.
    ptr:
        Segment pointers into the sorted order.
    segment_of_edge:
        Segment id of every edge (canonical order).
    """
    totals = segment_sums(values[order], ptr)
    return totals[segment_of_edge] - values


def min1_min2(
    mags_sorted: np.ndarray, ptr: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """First and second minimum per segment plus the first-min position.

    Returns
    -------
    (min1, min2, argmin_sorted_pos):
        ``min1[s]``/``min2[s]`` are the two smallest magnitudes of segment
        ``s`` (``min2 = min1`` cannot happen unless the segment has
        duplicate minima, in which case ``min2`` equals that duplicate —
        exactly the hardware behaviour); ``argmin_sorted_pos[s]`` is the
        index *in the sorted array* of the first occurrence of ``min1``.
        Segments of length 1 get ``min2 = +inf``.
    """
    n_edges = mags_sorted.size
    starts = ptr[:-1]
    min1 = np.minimum.reduceat(mags_sorted, starts)
    # Position of the first minimum: replace non-minimal entries by a
    # sentinel index and reduce with minimum.
    seg_lengths = np.diff(ptr)
    seg_of_sorted = np.repeat(np.arange(len(starts)), seg_lengths)
    is_min = mags_sorted == min1[seg_of_sorted]
    positions = np.where(is_min, np.arange(n_edges), n_edges)
    argmin_pos = np.minimum.reduceat(positions, starts)
    # Second minimum: mask out the first-min occurrence and reduce again.
    masked = mags_sorted.copy()
    masked[argmin_pos] = np.inf
    min2 = np.minimum.reduceat(masked, starts)
    return min1, min2, argmin_pos


def sign_parities(
    values_sorted: np.ndarray, ptr: np.ndarray
) -> np.ndarray:
    """Product-of-signs per segment, encoded as ±1 (0 counts as +)."""
    negatives = (values_sorted < 0).astype(np.int64)
    counts = np.add.reduceat(negatives, ptr[:-1])
    return 1 - 2 * (counts & 1)


def check_node_tanh(
    v2c: np.ndarray,
    cn_order: np.ndarray,
    cn_ptr: np.ndarray,
    cn_of_edge: np.ndarray,
) -> np.ndarray:
    """Full tanh-rule check-node update (paper Eq. 5), all edges at once.

    Implemented in the ``phi`` domain: ``|out_e| = phi(Σ phi(|in|) −
    phi(|in_e|))`` with the sign the product of the other signs.
    """
    mags = phi(np.abs(v2c))
    mags_sorted = mags[cn_order]
    totals = segment_sums(mags_sorted, cn_ptr)
    other = totals[cn_of_edge] - mags
    out_mags = phi(other)
    parity = sign_parities(v2c[cn_order], cn_ptr)
    own_sign = np.where(v2c < 0, -1, 1)
    out_signs = parity[cn_of_edge] * own_sign
    return out_signs * out_mags


def check_node_minsum(
    v2c: np.ndarray,
    cn_order: np.ndarray,
    cn_ptr: np.ndarray,
    cn_of_edge: np.ndarray,
    normalization: float = 1.0,
    offset: float = 0.0,
) -> np.ndarray:
    """Min-sum check-node update with optional normalization/offset.

    ``normalization`` scales the magnitudes (normalized min-sum,
    typically 0.75–0.8125); ``offset`` subtracts a constant before
    flooring at zero (offset min-sum).  Both default to plain min-sum.
    """
    mags = np.abs(v2c)
    mags_sorted = mags[cn_order]
    min1, min2, argmin_pos = min1_min2(mags_sorted, cn_ptr)
    # For each edge (in sorted order): min of the *others* is min2 at the
    # first-min position, min1 elsewhere.
    n_edges = v2c.size
    seg_lengths = np.diff(cn_ptr)
    seg_of_sorted = np.repeat(np.arange(len(seg_lengths)), seg_lengths)
    out_sorted = min1[seg_of_sorted].copy()
    out_sorted[argmin_pos] = min2[seg_of_sorted[argmin_pos]]
    out_mags = np.empty(n_edges, dtype=np.float64)
    out_mags[cn_order] = out_sorted
    out_mags = np.maximum(normalization * out_mags - offset, 0.0)
    parity = sign_parities(v2c[cn_order], cn_ptr)
    own_sign = np.where(v2c < 0, -1, 1)
    return parity[cn_of_edge] * own_sign * out_mags


def variable_node_update(
    c2v: np.ndarray,
    channel_llrs: np.ndarray,
    vn_order: np.ndarray,
    vn_ptr: np.ndarray,
    vn_of_edge: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Variable-node update (paper Eq. 4) plus a-posteriori LLRs.

    Returns
    -------
    (v2c, posteriors):
        New variable-to-check messages per edge, and the per-VN posterior
        ``λ_ch + Σ λ_l`` used for hard decisions.
    """
    totals = segment_sums(c2v[vn_order], vn_ptr)
    posteriors = channel_llrs + totals
    v2c = posteriors[vn_of_edge] - c2v
    return v2c, posteriors
