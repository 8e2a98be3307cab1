"""Exact range-query primitives for the decoder's window questions.

Decoding asks thousands of "max/min of the smoothed signal inside
[a, b)" questions per trace (clock-refinement candidates, decision
windows, the preamble check).  The serial decoder (one row) and the
tensor backend (every row of a group at once) answer them through the
same two structures:

* **Sparse tables** (:func:`build_table`): O(n log n) precompute, O(1)
  range max/min via two overlapping power-of-two windows.  ``max`` and
  ``min`` are idempotent comparisons, so the overlap is harmless and
  every answer is the *identical float* a sequential reduction returns.
* **Exact grid search** (:func:`grid_searchsorted`): each row's
  sample-time grid is uniform, so an arithmetic guess lands within a
  sample of the true ``searchsorted`` rank; a compare-and-nudge fixup
  loop then enforces the exact definition (first index with
  ``time[i] >= v``) against the times ``t0 + arange(n) / fs`` stores,
  making the result bit-equal to ``np.searchsorted`` on that grid by
  construction.  Rows of different starts and lengths share one call.
"""

from __future__ import annotations

import numpy as np

__all__ = ["log_table", "build_table", "range_query", "masked_query",
           "grid_searchsorted"]

#: One ``floor(log2(i))`` table for every length: grown to the largest
#: ``n`` asked for so far, handed out as read-only prefix views.
_LOG = np.zeros(1, dtype=np.intp)
_LOG.flags.writeable = False


def log_table(n: int) -> np.ndarray:
    """``floor(log2(i))`` for ``i`` in ``[1, n]`` (index 0 unused).

    ``floor(log2(i))`` does not depend on ``n``, so one table serves
    every length: it is rebuilt only when a longer trace arrives, and
    memory stays bounded by the longest trace instead of growing with
    the number of distinct lengths seen.
    """
    global _LOG
    table = _LOG
    if len(table) <= n:
        i = np.arange(1, n + 1)
        k = np.floor(np.log2(i)).astype(np.intp)
        # log2 is exact at powers of two and comfortably accurate
        # between them, but enforce the defining inequality anyway.
        k -= (1 << k) > i
        k += (2 << k) <= i
        table = np.zeros(n + 1, dtype=np.intp)
        table[1:] = k
        table.flags.writeable = False
        _LOG = table
    return table[:n + 1]


def build_table(x: np.ndarray, op: np.ufunc,
                max_len: int | None = None) -> np.ndarray:
    """Sparse table of ``op`` (``np.maximum``/``np.minimum``) over rows.

    ``T[k, r, i]`` reduces ``x[r, i : i + 2**k]``.  Entries whose window
    would overrun the row are left uninitialised and are never queried.

    ``max_len`` bounds the longest range the table will ever be queried
    with — levels above ``floor(log2(max_len))`` are simply not built
    (a longer query would fault on the missing level, never return a
    wrong value).
    """
    rows, n = x.shape
    cap = n if max_len is None else max(1, min(n, max_len))
    levels = int(log_table(n)[cap]) + 1 if n else 1
    table = np.empty((levels, rows, n))
    table[0] = x
    for k in range(1, levels):
        half = 1 << (k - 1)
        m = n - (1 << k) + 1
        op(table[k - 1, :, :m], table[k - 1, :, half:half + m],
           out=table[k, :, :m])
    return table


def range_query(table: np.ndarray, log: np.ndarray, op: np.ufunc,
                rows: np.ndarray, a: np.ndarray,
                b: np.ndarray) -> np.ndarray:
    """Reduce ``x[rows, a:b]`` (requires ``b > a`` elementwise).

    Gathers go through flat ``np.take`` — one integer index per element
    — which is several times cheaper than the equivalent triple-array
    advanced indexing on large query batches.
    """
    _, n_rows, n = table.shape
    k = log[b - a]
    base = (k * n_rows + rows) * n
    flat = table.reshape(-1)
    return op(flat.take(base + a), flat.take(base + b - (1 << k)))


def masked_query(table: np.ndarray, log: np.ndarray, op: np.ufunc,
                 rows: np.ndarray, i0: np.ndarray, i1: np.ndarray,
                 valid: np.ndarray) -> np.ndarray:
    """Range-query ``[i0, i1)`` where ``valid``; junk elsewhere."""
    qa = np.where(valid, i0, 0)
    qb = np.where(valid, i1, 1)
    return range_query(table, log, op, rows, qa, qb)


def grid_searchsorted(t0, n, fs: float, v: np.ndarray) -> np.ndarray:
    """Exact ``np.searchsorted(t0 + arange(n) / fs, v, "left")``.

    Rows of a stack may each have their own start ``t0`` and length
    ``n``: both broadcast against ``v``, so no per-row time array is
    ever built.  Each probed time is computed as ``t0 + i / fs``, the
    float that ``t0 + arange(n) / fs`` stores at ``i``.  The
    arithmetic guess is nudged until the searchsorted invariant
    ``time[idx-1] < v <= time[idx]`` holds exactly, so the result is
    identical to binary search on the stored grid no matter how the
    guess rounds, and it stays inside ``[0, n]`` of its own row.  One
    pass over every query finds the few guesses that need a nudge; the
    loop then goes on over those alone.
    """
    v = np.asarray(v, dtype=float)
    t = v - t0
    t *= fs
    idx = np.ceil(t, out=t).astype(np.intp)
    np.clip(idx, 0, n, out=idx)
    down, up = _nudges(t0, n, fs, v, idx, t)
    moved = down | up
    if not moved.any():
        return idx
    # Every other guess already holds the invariant and never moves.
    t0 = np.broadcast_to(t0, v.shape)[moved]
    n = np.broadcast_to(n, v.shape)[moved]
    v, sub, down, up = v[moved], idx[moved], down[moved], up[moved]
    while down.any() or up.any():
        sub -= down
        sub += up
        down, up = _nudges(t0, n, fs, v, sub, np.empty_like(v))
    idx[moved] = sub
    return idx


def _nudges(t0, n, fs: float, v: np.ndarray, idx: np.ndarray,
            t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where ``idx`` must step down (``time[idx-1] >= v``) and where up
    (``time[idx] < v``); ``t`` is scratch space of ``v``'s shape."""
    np.subtract(idx, 1, out=t, casting="unsafe")
    t /= fs
    t += t0
    down = t >= v
    down &= idx > 0
    np.true_divide(idx, fs, out=t)
    t += t0
    up = t < v
    up &= idx < n
    return down, up
