"""Dynamic Time Warping (Section 4.2, channel distortion).

"While many signal processing techniques could be used for
classification problems, we use Dynamic Time Warping (DTW) to showcase
our basic idea.  DTW is a method used in many areas to measure the
similarity of two signals."

The paper reports *normalized distances*: between the distorted packet
of Fig. 8 and the two clean templates of Fig. 5 the distances are 326
(wrong template) and 172 (correct template), with a self-distance of 131
— self-distance is non-zero because their normalisation divides by the
path length and compares independently noisy captures.

This implementation provides the classic O(n*m) dynamic program with an
optional Sakoe-Chiba band, path extraction, and path-length
normalisation.  Two interchangeable dynamic-program kernels exist:

* ``implementation="reference"`` — the original pure-Python double
  loop, kept as the readable oracle;
* ``implementation="vectorized"`` — an anti-diagonal (wavefront)
  NumPy kernel.  Cells on one anti-diagonal ``i + j = d`` depend only
  on diagonals ``d-1``/``d-2``, so each diagonal is one vector update.
  It fills exactly the same cells in the same arithmetic order as the
  reference, so the accumulated-cost matrix — and therefore distances,
  normalised distances and paths — are bit-identical.

``implementation="auto"`` (the default) picks the vectorized kernel
once the cost matrix is large enough to amortise per-call overhead;
small problems stay on the pure-Python loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["DtwResult", "dtw_distance", "dtw"]

#: Cost-matrix cell count above which the wavefront kernel beats the
#: pure-Python loop (the crossover sits around a few thousand cells;
#: below it the per-diagonal NumPy call overhead dominates).
VECTORIZE_MIN_CELLS = 4096


@dataclass
class DtwResult:
    """Outcome of one DTW alignment.

    Attributes:
        distance: accumulated cost along the optimal path.
        normalized_distance: accumulated cost divided by path length.
        path: optimal alignment as (i, j) index pairs, if requested.
    """

    distance: float
    normalized_distance: float
    path: list[tuple[int, int]] | None = None


def _cost_matrix(a: np.ndarray, b: np.ndarray,
                 band: int | None) -> np.ndarray:
    """Accumulated-cost matrix with absolute-difference local cost."""
    n, m = len(a), len(b)
    acc = np.full((n + 1, m + 1), np.inf)
    acc[0, 0] = 0.0
    for i in range(1, n + 1):
        if band is None:
            j_lo, j_hi = 1, m
        else:
            centre = int(round(i * m / n))
            j_lo = max(1, centre - band)
            j_hi = min(m, centre + band)
        ai = a[i - 1]
        for j in range(j_lo, j_hi + 1):
            cost = abs(ai - b[j - 1])
            acc[i, j] = cost + min(acc[i - 1, j],      # insertion
                                   acc[i, j - 1],      # deletion
                                   acc[i - 1, j - 1])  # match
    return acc


def _band_limits(n: int, m: int,
                 band: int | None) -> tuple[np.ndarray, np.ndarray]:
    """Inclusive per-row column bounds ``(j_lo, j_hi)``, rows 1..n.

    Mirrors the reference loop exactly: ``centre = round(i * m / n)``
    (round-half-even, as Python's :func:`round` on a float) clamped to
    ``[1, m]`` with half-width ``band``.
    """
    i = np.arange(1, n + 1, dtype=np.int64)
    if band is None:
        return (np.ones(n, dtype=np.int64),
                np.full(n, m, dtype=np.int64))
    centre = np.rint(i * m / n).astype(np.int64)
    j_lo = np.maximum(1, centre - band)
    j_hi = np.minimum(m, centre + band)
    return j_lo, j_hi


def _cost_matrix_vectorized(a: np.ndarray, b: np.ndarray,
                            band: int | None) -> np.ndarray:
    """Wavefront (anti-diagonal) evaluation of the same DP.

    Within one anti-diagonal ``i + j = d`` every cell is independent,
    so the whole diagonal updates as one vector expression.  The cell
    set and per-cell arithmetic match :func:`_cost_matrix` exactly.
    """
    n, m = len(a), len(b)
    acc = np.full((n + 1, m + 1), np.inf)
    acc[0, 0] = 0.0
    j_lo, j_hi = _band_limits(n, m, band)
    rows = np.arange(1, n + 1, dtype=np.int64)
    # i + j_lo[i] and i + j_hi[i] are strictly increasing in i, so the
    # rows intersecting diagonal d form one contiguous range found by
    # bisection.
    lo_sum = rows + j_lo
    hi_sum = rows + j_hi
    # Rolling diagonal buffers indexed by row i: for cell (i, j = d - i)
    # the three predecessors live at prev[i - 1] (up), prev[i] (left)
    # and prev2[i - 1] (diagonal), all contiguous slices.
    prev2 = np.full(n + 1, np.inf)  # diagonal d - 2
    prev2[0] = 0.0
    prev = np.full(n + 1, np.inf)   # diagonal d - 1
    for d in range(2, n + m + 1):
        i_min = max(1, d - m, int(np.searchsorted(hi_sum, d)) + 1)
        i_max = min(n, d - 1, int(np.searchsorted(lo_sum, d, side="right")))
        cur = np.full(n + 1, np.inf)
        if i_min <= i_max:
            # b is indexed by j - 1 = d - i - 1, descending as i ascends.
            b_rev = b[d - i_max - 1:d - i_min][::-1]
            cost = np.abs(a[i_min - 1:i_max] - b_rev)
            best = np.minimum(
                np.minimum(prev[i_min - 1:i_max], prev[i_min:i_max + 1]),
                prev2[i_min - 1:i_max])
            cur[i_min:i_max + 1] = cost + best
            i = np.arange(i_min, i_max + 1)
            acc[i, d - i] = cur[i_min:i_max + 1]
        prev2, prev = prev, cur
    return acc


def _traceback(acc: np.ndarray) -> list[tuple[int, int]]:
    """Recover the optimal path from the accumulated-cost matrix.

    Moves are ranked diagonal, up, left with first-wins tie-breaking —
    the same order ``np.argmin`` over ``(diag, up, left)`` would pick.
    """
    i, j = acc.shape[0] - 1, acc.shape[1] - 1
    path: list[tuple[int, int]] = []
    while i > 0 and j > 0:
        path.append((i - 1, j - 1))
        diag = acc[i - 1, j - 1]
        up = acc[i - 1, j]
        left = acc[i, j - 1]
        if diag <= up and diag <= left:
            i, j = i - 1, j - 1
        elif up <= left:
            i -= 1
        else:
            j -= 1
    path.reverse()
    return path


def dtw(a: np.ndarray, b: np.ndarray, band_fraction: float | None = 0.2,
        return_path: bool = False,
        implementation: str = "auto") -> DtwResult:
    """Align two sequences and return their DTW distance.

    Args:
        a: first sequence (1-D).
        b: second sequence (1-D).
        band_fraction: Sakoe-Chiba band half-width as a fraction of the
            longer sequence; None disables the constraint.  A band both
            speeds the O(n*m) DP up and prevents degenerate warpings
            (the paper's speed never changes by more than 2x).
        return_path: include the alignment path in the result.
        implementation: ``"auto"`` (size-based choice), ``"reference"``
            (pure-Python loop) or ``"vectorized"`` (wavefront kernel).
            Both kernels produce bit-identical results.

    Raises:
        ValueError: on empty inputs, an infeasible band, or an unknown
            implementation name.
    """
    if implementation not in ("auto", "reference", "vectorized"):
        raise ValueError(
            f"implementation must be 'auto', 'reference' or "
            f"'vectorized', got {implementation!r}")
    x = np.asarray(a, dtype=float).ravel()
    y = np.asarray(b, dtype=float).ravel()
    if len(x) == 0 or len(y) == 0:
        raise ValueError("cannot align empty sequences")
    band: int | None = None
    if band_fraction is not None:
        if band_fraction <= 0.0:
            raise ValueError(f"band fraction must be positive, got {band_fraction}")
        band = max(1, int(round(band_fraction * max(len(x), len(y)))))
        # The band must at least cover the length difference or no
        # monotone path exists.
        band = max(band, abs(len(x) - len(y)) + 1)
    if implementation == "auto":
        # Count the cells the DP actually evaluates: a narrow band
        # shrinks the work to ~n rows of (2*band + 1) columns, where
        # the loop's small constant beats per-diagonal NumPy overhead.
        columns = len(y) if band is None else min(len(y), 2 * band + 1)
        if len(x) * columns >= VECTORIZE_MIN_CELLS:
            implementation = "vectorized"
        else:
            implementation = "reference"
    kernel = (_cost_matrix_vectorized
              if implementation == "vectorized" else _cost_matrix)
    acc = kernel(x, y, band)
    distance = float(acc[-1, -1])
    if not np.isfinite(distance):
        raise ValueError("no feasible alignment path (band too narrow)")
    path = _traceback(acc)
    normalized = distance / len(path) if path else 0.0
    return DtwResult(distance=distance, normalized_distance=normalized,
                     path=path if return_path else None)


def dtw_distance(a: np.ndarray, b: np.ndarray,
                 band_fraction: float | None = 0.2,
                 implementation: str = "auto") -> float:
    """Plain DTW distance (accumulated optimal-path cost)."""
    return dtw(a, b, band_fraction=band_fraction,
               implementation=implementation).distance
