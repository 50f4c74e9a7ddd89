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


def test_path_stats_match_dfs_oracle():
    rng = Rng(2024)
    for _ in range(300):
        n = 2 + rng.randint(6)
        adj = random_dag(rng, n)
        src, dst = rng.randint(n), rng.randint(n)
        cap = (1, 3, 1 << 16)[rng.randint(3)]
        got = dag_path_stats(adj, src, dst, cap)
        assert tuple(int(v) for v in got) == stats_oracle(adj, src, dst, cap)


def test_path_stats_exhaustive_four_nodes():
    for bits in itertools.product((0, 1), repeat=6):
        adj = np.zeros((4, 4), dtype=np.uint8)
        adj[np.triu_indices(4, k=1)] = bits
        got = dag_path_stats(adj, 0, 3, 1 << 16)
        assert tuple(int(v) for v in got) == stats_oracle(adj, 0, 3, 1 << 16)


def test_path_stats_chain_and_unreachable():
    chain = np.zeros((4, 4), dtype=np.uint8)
    chain[0, 1] = chain[1, 2] = chain[2, 3] = 1
    assert tuple(dag_path_stats(chain, 0, 3, 16)) == (3, 3, 1)
    empty = np.zeros((3, 3), dtype=np.uint8)
    assert tuple(dag_path_stats(empty, 0, 2, 16)) == (-1, -1, 0)


def test_path_stats_src_equals_dst():
    adj = np.zeros((2, 2), dtype=np.uint8)
    assert tuple(dag_path_stats(adj, 1, 1, 16)) == (0, 0, 1)


def test_path_count_saturates_at_cap():
    # diamond tower: two parallel routes per stage, 2^10 paths in total
    stages = 10
    n = 2 + 3 * stages
    adj = np.zeros((n, n), dtype=np.uint8)
    node = 0
    for _ in range(stages):
        a, b, joint = node + 1, node + 2, node + 3
        adj[node, a] = adj[node, b] = 1
        adj[a, joint] = adj[b, joint] = 1
        node = joint
    adj[node, n - 1] = 1
    full = tuple(dag_path_stats(adj, 0, n - 1, 1 << 16))
    assert full[2] == 2 ** stages
    capped = tuple(dag_path_stats(adj, 0, n - 1, 100))
    assert capped[:2] == full[:2]
    assert capped[2] == 100
