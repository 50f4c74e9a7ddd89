"""Integer graph and ranking kernels in NumPy.

Both kernels work on whole arrays, so no per-element Python loop runs:
inversions in a result vector are counted one merge level at a time
(Knight 1966), path statistics over a stack of cells one walk length at a
time with one batched matmul.
"""

from __future__ import annotations

import numpy as np


def count_inversions(values) -> int:
    """Number of pairs i < j with values[i] > values[j].

    Follows a bottom-up mergesort without doing the merges: at width w,
    each element of a right half is paired with the left half of its block
    and counts the left elements strictly greater than it.  Keys
    ``block * n + rank`` keep the blocks apart in one sorted array.  The
    left halves up to a right half's block b are full, so (b + 1) * w left
    keys lie in blocks up to b, and only the keys at most its own need a
    search; the counts are summed, so the right keys are searched sorted.
    """
    _, rank = np.unique(values, return_inverse=True)
    n = rank.shape[0]
    position = np.arange(n, dtype=np.int64)
    inversions = 0
    width = 1
    while width < n:
        half = position // width
        block = half >> 1
        right = (half & 1) == 1
        keys = block * n + rank
        left_keys = np.sort(keys[~right])
        above = np.searchsorted(left_keys, np.sort(keys[right]), "right")
        inversions += int((block[right] + 1).sum()) * width - int(above.sum())
        width *= 2
    return inversions


def dag_path_stats(adj, src, dst, count_cap):
    """Longest path, shortest path (edge counts) and capped path count
    src[m] -> dst[m] in each graph adj[m] of an (M, n, n) stack.

    adj[m, i, j] != 0 means an edge i -> j.  Every graph must be acyclic;
    callers validate.  count_cap must be >= 1.  Returns three length-M int64
    arrays; a graph where dst is unreachable from src gets (-1, -1, 0).

    walks[k, m, v] holds the number of src[m] -> v paths with k edges,
    capped at count_cap; capping each step keeps it exact below the cap
    since all terms are non-negative.  In a DAG no path has n or more edges.
    """
    step = (np.asarray(adj) != 0).astype(np.int64)
    m, n, _ = step.shape
    rows = np.arange(m)
    walks = np.zeros((n, m, 1, n), dtype=np.int64)
    walks[0, rows, 0, src] = 1
    for k in range(1, n):
        np.minimum(walks[k - 1] @ step, count_cap, out=walks[k])
    hits = walks[:, rows, 0, dst]
    reached = hits > 0
    found = reached.any(axis=0)
    longest = np.where(found, n - 1 - reached[::-1].argmax(axis=0), -1)
    shortest = np.where(found, reached.argmax(axis=0), -1)
    return longest, shortest, np.minimum(hits.sum(axis=0), count_cap)
