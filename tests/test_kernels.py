"""Oracle checks for the integer kernels.

``count_inversions`` is compared against the O(n^2) pair count and
``dag_path_stats`` against DFS path enumeration; both oracles share no code
with the NumPy kernels they check.
"""

import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from flan._kernels import count_inversions, dag_path_stats
from flan.rng import Rng


# -- oracles -------------------------------------------------------------------

def inversions_quadratic(values):
    n = len(values)
    return sum(
        1 for i in range(n) for j in range(i + 1, n) if values[i] > values[j]
    )


def enumerate_paths(adj, src, dst):
    """All src -> dst paths by DFS; returns a list of node tuples."""
    paths = []
    stack = [(src, (src,))]
    while stack:
        node, trail = stack.pop()
        if node == dst:
            paths.append(trail)
            continue
        for nxt in range(adj.shape[0]):
            if adj[node, nxt]:
                stack.append((nxt, trail + (nxt,)))
    return paths


def stats_oracle(adj, src, dst, cap):
    paths = enumerate_paths(adj, src, dst)
    if not paths:
        return (-1, -1, 0)
    lengths = [len(p) - 1 for p in paths]
    return (max(lengths), min(lengths), min(len(paths), cap))


# -- inversion counting ----------------------------------------------------------

@given(st.lists(st.integers(min_value=-50, max_value=50), max_size=120))
@settings(max_examples=300, deadline=None)
def test_inversions_match_quadratic_oracle(values):
    arr = np.asarray(values, dtype=np.int64)
    assert count_inversions(arr) == inversions_quadratic(values)


def test_inversions_known_values():
    assert count_inversions(np.array([], dtype=np.int64)) == 0
    assert count_inversions(np.array([5], dtype=np.int64)) == 0
    assert count_inversions(np.arange(10, dtype=np.int64)) == 0
    assert count_inversions(np.arange(10, dtype=np.int64)[::-1].copy()) == 45
    assert count_inversions(np.array([3, 3, 3], dtype=np.int64)) == 0
    assert count_inversions(np.array([2, 1, 2, 1], dtype=np.int64)) == 3


def test_inversions_input_not_mutated():
    arr = np.array([4, 1, 3, 2], dtype=np.int64)
    count_inversions(arr)
    assert arr.tolist() == [4, 1, 3, 2]


# -- DAG path stats ---------------------------------------------------------------

def random_dag(rng, n):
    adj = np.zeros((n, n), dtype=np.uint8)
    for i in range(n):
        for j in range(i + 1, n):
            adj[i, j] = rng.randint(2)
    return adj


def stat_rows(adj, src, dst, cap):
    """dag_path_stats over a stack, as one (longest, shortest, count) per row."""
    columns = dag_path_stats(adj, np.asarray(src), np.asarray(dst), cap)
    assert all(c.shape == (len(adj),) for c in columns)
    return list(zip(*(c.tolist() for c in columns)))


def test_path_stats_match_dfs_oracle():
    # graphs of 2..7 nodes, zero padded to 7 (isolated nodes change no path)
    rng = Rng(2024)
    adj = np.zeros((300, 7, 7), dtype=np.uint8)
    src, dst = [], []
    for m in range(300):
        n = 2 + rng.randint(6)
        adj[m, :n, :n] = random_dag(rng, n)
        src.append(rng.randint(n))
        dst.append(rng.randint(n))
    adj[0], src[0], dst[0] = 0, 0, 6  # unreachable
    src[1] = dst[1] = 3
    for cap in (1, 3, 1 << 16):
        want = [stats_oracle(adj[m], src[m], dst[m], cap) for m in range(300)]
        assert stat_rows(adj, src, dst, cap) == want
    assert want[0] == (-1, -1, 0) and want[1] == (0, 0, 1)
    assert sum(w == (-1, -1, 0) for w in want) > 1


def test_path_stats_exhaustive_four_nodes():
    bits = np.array(list(itertools.product((0, 1), repeat=6)), dtype=np.uint8)
    adj = np.zeros((len(bits), 4, 4), dtype=np.uint8)
    rows, cols = np.triu_indices(4, k=1)
    adj[:, rows, cols] = bits
    ends = [0] * len(adj), [3] * len(adj)
    assert stat_rows(adj, *ends, 1 << 16) == [
        stats_oracle(a, 0, 3, 1 << 16) for a in adj
    ]


def test_path_stats_chain_and_unreachable():
    adj = np.zeros((2, 4, 4), dtype=np.uint8)
    adj[0, 0, 1] = adj[0, 1, 2] = adj[0, 2, 3] = 1
    assert stat_rows(adj, [0, 0], [3, 2], 16) == [(3, 3, 1), (-1, -1, 0)]


def test_path_stats_src_equals_dst():
    adj = np.zeros((1, 2, 2), dtype=np.uint8)
    assert stat_rows(adj, [1], [1], 16) == [(0, 0, 1)]


def test_path_stats_empty_stack():
    adj = np.zeros((0, 3, 3), dtype=np.uint8)
    assert stat_rows(adj, np.zeros(0, int), np.zeros(0, int), 16) == []


def test_path_count_saturates_at_cap():
    # diamond tower: two parallel routes per stage, 2^10 paths in total
    stages = 10
    n = 2 + 3 * stages
    adj = np.zeros((1, n, n), dtype=np.uint8)
    node = 0
    for _ in range(stages):
        a, b, joint = node + 1, node + 2, node + 3
        adj[0, node, a] = adj[0, node, b] = 1
        adj[0, a, joint] = adj[0, b, joint] = 1
        node = joint
    adj[0, node, n - 1] = 1
    (full,) = stat_rows(adj, [0], [n - 1], 1 << 16)
    assert full[2] == 2 ** stages
    (capped,) = stat_rows(adj, [0], [n - 1], 100)
    assert capped[:2] == full[:2]
    assert capped[2] == 100
