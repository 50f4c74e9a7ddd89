"""Integer graph and ranking kernels in NumPy.

The two kernels here run once per cell across entire spaces (graph
statistics for score encodings) or over full result vectors (inversion
counting behind Kendall's tau).  Each is written as whole-array operations
so that no per-element Python loop runs: inversions are counted one merge
level at a time (Knight 1966), path statistics one walk length at a time.
"""

from __future__ import annotations

import numpy as np


def count_inversions(values) -> int:
    """Number of pairs i < j with values[i] > values[j].

    Follows a bottom-up mergesort without doing the merges: at width w,
    each element of a right half is paired with the left half of its block
    and counts the left elements strictly greater than it.  Keys
    ``block * n + rank`` keep the blocks apart in one sorted array.
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
        left_keys = np.sort(block[~right] * n + rank[~right])
        right_block = block[right]
        above = np.searchsorted(left_keys, right_block * n + rank[right], "right")
        block_end = np.searchsorted(left_keys, (right_block + 1) * n, "left")
        inversions += int(np.sum(block_end - above))
        width *= 2
    return inversions


def dag_path_stats(adj, src, dst, count_cap):
    """Longest path, shortest path (edge counts) and capped path count src -> dst.

    adj[i, j] != 0 means an edge i -> j.  The graph must be acyclic; callers
    validate.  count_cap must be >= 1.  Returns (-1, -1, 0) when dst is
    unreachable from src.

    walks[k, v] holds the number of src -> v paths with k edges, capped at
    count_cap; capping each step keeps it exact below the cap since all
    terms are non-negative.  In a DAG no path has n or more edges.
    """
    n = adj.shape[0]
    step = (np.asarray(adj) != 0).astype(np.int64)
    walks = np.zeros((n, n), dtype=np.int64)
    walks[0, src] = 1
    for k in range(1, n):
        np.minimum(walks[k - 1] @ step, count_cap, out=walks[k])
    hits = walks[:, dst]
    lengths = np.flatnonzero(hits)
    if lengths.size == 0:
        return -1, -1, 0
    return int(lengths[-1]), int(lengths[0]), int(min(hits.sum(), count_cap))
