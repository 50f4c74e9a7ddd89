"""Structural, score, unified and supplemental encodings.

The path encoding is checked against an independent DFS enumerator written
here; the exhaustive sweep over every small cell lives in the acceptance
module.
"""

import itertools
import json
import re

import numpy as np
import pytest

from conftest import arch_of, basic_vocab, cell, chain_cell, pad, permute, random_valid_cell
from flan.benchmark import BenchmarkError, SyntheticSpec, export, generate_synthetic, ingest
from flan import cellgraph
from flan.cellgraph import OP_NONE, CellError, OpVocabulary
from flan.cli import main
from flan.encodings import (
    PATH_COUNT_CAP,
    PATH_DIM_CAP,
    EncodingError,
    SupplementalProvider,
    SupplementalTable,
    UnifiedVocabulary,
    encode_adjacency,
    encode_path,
    load_supplemental,
    path_index_size,
    save_supplemental,
    score_feature_matrix,
    score_features,
    unify,
    zscore_columns,
)
from flan.rng import Rng


# -- oracle ---------------------------------------------------------------------

def dfs_op_sequences(c):
    """Interior op sequences over all source->sink paths, by plain recursion."""
    active = [i for i, o in enumerate(c.op_ids) if o != OP_NONE]
    adj = np.zeros_like(c.adjacency)
    adj[np.ix_(active, active)] = c.adjacency[np.ix_(active, active)]
    sources = [i for i in active if adj[:, i].sum() == 0]
    sinks = [i for i in active if adj[i, :].sum() == 0]
    (src,), (dst,) = sources, sinks
    out = set()

    def walk(node, seq):
        if node == dst:
            out.add(tuple(seq))
            return
        for nxt in range(c.num_nodes):
            if adj[node, nxt]:
                walk(nxt, seq if nxt == dst else seq + [c.op_ids[nxt]])

    walk(src, [])
    return out


def path_sequence_index(seq, vocab):
    """Position of an interior op sequence, ordered by (length, lexicographic)."""
    k = vocab.size - 3
    offset = sum(k**length for length in range(len(seq)))
    rank = 0
    for op in seq:
        if not 3 <= op < vocab.size:
            raise EncodingError(f"op {op} is not an interior op of the vocabulary")
        rank = rank * k + (op - 3)
    return offset + rank


def path_bits_oracle(c, vocab, dim):
    vec = np.zeros(dim, dtype=np.float64)
    for seq in dfs_op_sequences(c):
        idx = path_sequence_index(seq, vocab)
        if idx < dim:
            vec[idx] = 1.0
    return vec


def mixed_archs(rng, vocab_size, count=150):
    """3..8 nodes; one- and two-cell archs; relabelled and none-padded cells."""
    archs = []
    for arch_id in range(count):
        n = 3 + rng.randint(6)
        cells = [random_valid_cell(rng, n, vocab_size)
                 for _ in range(1 + rng.randint(2))]
        perm = list(range(n))
        rng.shuffle(perm)
        cells[0] = permute(cells[0], perm)
        if rng.randint(3) == 0:
            cells = [pad(c, n + 2) for c in cells]
        archs.append(arch_of(cells, arch_id))
    assert {len(a.cells) for a in archs} == {1, 2}
    return archs


# -- adjacency encoding -----------------------------------------------------------

def test_adjacency_chain_example():
    vocab = OpVocabulary(0, ("input", "output", "none", "op_a"))
    enc = encode_adjacency(arch_of(chain_cell(3)), vocab)
    assert enc.kind == "adjacency"
    # upper-triangle bits (0,1),(0,2),(1,2) then one-hot rows for ops 0, 3, 1
    want = [1, 0, 1,
            1, 0, 0, 0,
            0, 0, 0, 1,
            0, 1, 0, 0]
    assert enc.values.tolist() == [float(v) for v in want]
    assert enc.dim == 3 + 3 * 4


def test_adjacency_refuses_an_edgeless_cell():
    # without edges both nodes are sources and sinks, which every encoder refuses
    c = cell(np.zeros((2, 2), dtype=np.uint8), [0, 1])
    with pytest.raises(CellError, match="no unique source/sink"):
        encode_adjacency(arch_of(c), basic_vocab())


def test_adjacency_two_cells_doubles_dim():
    vocab = basic_vocab()
    c = chain_cell(4)
    one = encode_adjacency(arch_of(c), vocab)
    two = encode_adjacency(arch_of((c, c)), vocab)
    assert two.dim == 2 * one.dim
    assert np.array_equal(two.values[: one.dim], one.values)
    assert np.array_equal(two.values[one.dim:], one.values)


def test_adjacency_rejects_lower_triangle():
    c = cell([[0, 0], [1, 0]], [1, 0])  # edge 1 -> 0
    with pytest.raises(EncodingError):
        encode_adjacency(arch_of(c), basic_vocab())


def test_adjacency_not_permutation_invariant():
    # diamond with distinct interior ops; swapping 1 and 2 keeps the DAG
    # upper triangular but must move the one-hot rows
    adj = np.zeros((4, 4), dtype=np.uint8)
    adj[0, 1] = adj[0, 2] = adj[1, 3] = adj[2, 3] = 1
    c = cell(adj, [0, 3, 4, 1])
    vocab = basic_vocab()
    a = encode_adjacency(arch_of(c), vocab)
    b = encode_adjacency(arch_of(permute(c, [0, 2, 1, 3])), vocab)
    assert not np.array_equal(a.values, b.values)


def test_adjacency_mixed_cell_sizes_rejected():
    # such an arch is refused when it is built, before any encoder sees it
    with pytest.raises(CellError, match="share a node count"):
        arch_of((chain_cell(3), chain_cell(4)))


# -- path encoding -------------------------------------------------------------------

def test_path_index_size_formula():
    v3 = basic_vocab()  # 3 interior ops
    assert path_index_size(2, v3) == 1
    assert path_index_size(3, v3) == 1 + 3
    assert path_index_size(5, v3) == 1 + 3 + 9 + 27
    v0 = OpVocabulary(0, ("input", "output", "none"))
    assert path_index_size(6, v0) == 1


def test_path_sequence_index_ordering():
    vocab = basic_vocab()  # interior ids 3, 4, 5
    assert path_sequence_index((), vocab) == 0
    assert path_sequence_index((3,), vocab) == 1
    assert path_sequence_index((5,), vocab) == 3
    assert path_sequence_index((3, 3), vocab) == 4
    assert path_sequence_index((3, 4), vocab) == 5
    assert path_sequence_index((5, 5), vocab) == 12
    with pytest.raises(EncodingError):
        path_sequence_index((2,), vocab)


def test_path_single_interior_example():
    vocab = OpVocabulary(0, ("input", "output", "none", "op_a"))
    enc = encode_path(arch_of(chain_cell(3)), vocab)
    # k=1: dim = 1 + 1; the (op_a,) sequence sits after the empty sequence
    assert enc.values.tolist() == [0.0, 1.0]


def test_path_direct_edge_sets_empty_sequence_bit():
    vocab = basic_vocab()
    c = cell([[0, 1], [0, 0]], [0, 1])
    enc = encode_path(arch_of(c), vocab)
    assert enc.values[0] == 1.0
    assert enc.values.sum() == 1.0


def test_path_matches_dfs_oracle_on_random_cells():
    # max_paths below the block truncates it, above zero pads it
    vocab = basic_vocab()
    rng = Rng(404)
    for arch in mixed_archs(rng, vocab.size):
        full = path_index_size(arch.cells[0].num_nodes, vocab)
        for dim in (full, 1 + rng.randint(full + 8)):
            want = np.concatenate([path_bits_oracle(c, vocab, dim) for c in arch.cells])
            got = encode_path(arch, vocab, None if dim == full else dim)
            assert got.values.tobytes() == want.tobytes()


def test_path_truncation_drops_high_indices():
    vocab = basic_vocab()
    c = chain_cell(4, interior_op=5)  # sequence (5, 5) -> index 12
    full = encode_path(arch_of(c), vocab)
    assert full.values[path_sequence_index((5, 5), vocab)] == 1.0
    short = encode_path(arch_of(c), vocab, max_paths=4)
    assert short.dim == 4
    assert short.values.sum() == 0.0
    with pytest.raises(EncodingError):
        encode_path(arch_of(c), vocab, max_paths=0)
    for max_paths in (2.5, "8", True):
        with pytest.raises(EncodingError, match="must be a positive integer"):
            encode_path(arch_of(c), vocab, max_paths)
    assert encode_path(arch_of(c), vocab, np.int64(4)).dim == 4


def test_path_block_beyond_the_cap_is_refused_before_allocation():
    vocab = basic_vocab()
    big = arch_of(chain_cell(15, interior_op=4))
    assert path_index_size(15, vocab) > PATH_DIM_CAP
    # 1 << 62 dims would be 32 EiB: the check must come before np.zeros
    for max_paths in (None, PATH_DIM_CAP + 1, 1 << 62):
        with pytest.raises(EncodingError, match=f"max_paths to at most {PATH_DIM_CAP}$"):
            encode_path(big, vocab, max_paths)
    assert encode_path(big, vocab, max_paths=8).values.tolist() == [0.0] * 8
    assert encode_path(arch_of(chain_cell(4)), vocab, PATH_DIM_CAP).dim == PATH_DIM_CAP


def test_path_two_cell_blocks():
    vocab = basic_vocab()
    a = chain_cell(3, interior_op=3)
    b = chain_cell(3, interior_op=4)
    enc = encode_path(arch_of((a, b)), vocab)
    block = path_index_size(3, vocab)
    assert enc.dim == 2 * block
    assert enc.values[path_sequence_index((3,), vocab)] == 1.0
    assert enc.values[block + path_sequence_index((4,), vocab)] == 1.0


def test_path_invariant_under_permutation():
    vocab = basic_vocab()
    rng = Rng(812)
    for _ in range(60):
        n = 3 + rng.randint(4)
        c = random_valid_cell(rng, n, vocab.size)
        perm = list(range(n))
        rng.shuffle(perm)
        a = encode_path(arch_of(c), vocab)
        b = encode_path(arch_of(permute(c, perm)), vocab)
        assert np.array_equal(a.values, b.values)


def test_path_rejects_reserved_interior_op():
    c = cell([[0, 1, 0], [0, 0, 1], [0, 0, 0]], [0, 0, 1])  # interior "input"
    with pytest.raises(EncodingError):
        encode_path(arch_of(c), basic_vocab())


# -- score features ---------------------------------------------------------------------

def test_score_chain_depths():
    vocab = basic_vocab()
    feats = score_features(arch_of(chain_cell(3)), vocab).values
    assert feats[2] == 2.0 and feats[3] == 2.0  # longest == shortest == 2 edges
    assert feats[0] == 3.0 and feats[1] == 2.0


def test_score_full_dag_path_count():
    vocab = basic_vocab()
    adj = np.triu(np.ones((4, 4), dtype=np.uint8), k=1)
    c = cell(adj, [0, 3, 4, 1])
    feats = score_features(arch_of(c), vocab).values
    # paths 0->3 over subsets of {1, 2}: direct, via 1, via 2, via both
    assert feats[4] == 4.0


def test_score_adding_edge_never_decreases_paths():
    vocab = basic_vocab()
    rng = Rng(55)
    for _ in range(60):
        c = random_valid_cell(rng, 5, vocab.size)
        base = score_features(arch_of(c), vocab).values[4]
        adj = np.array(c.adjacency)
        active = [i for i, o in enumerate(c.op_ids) if o != OP_NONE]
        added = False
        for i in active:
            for j in active:
                if i < j and not adj[i, j]:
                    adj[i, j] = 1
                    added = True
                    break
            if added:
                break
        if not added:
            continue
        grown = cell(adj, c.op_ids)
        assert score_features(arch_of(grown), vocab).values[4] >= base


def test_score_conv_fraction_and_cost():
    vocab = OpVocabulary(
        0, ("input", "output", "none", "conv_3x3", "max_pool", "linear")
    )
    adj = np.zeros((4, 4), dtype=np.uint8)
    adj[0, 1] = adj[1, 2] = adj[2, 3] = 1
    feats = score_features(arch_of(cell(adj, [0, 3, 4, 1])), vocab).values
    assert feats[5] == pytest.approx(0.5)  # one conv of two interiors
    assert feats[7] == pytest.approx(9.0)  # conv_3x3 costs 9, pool costs 0
    linear = score_features(arch_of(cell(adj, [0, 5, 5, 1])), vocab).values
    assert linear[5] == 0.0
    assert linear[7] == pytest.approx(2.0)


def test_score_two_cells_sum():
    vocab = basic_vocab()
    c = chain_cell(3)
    one = score_features(arch_of(c), vocab).values
    two = score_features(arch_of((c, c)), vocab).values
    assert two[0] == 2 * one[0] and two[1] == 2 * one[1]
    assert two[2] == 2 * one[2]


def test_score_invariant_under_permutation():
    vocab = basic_vocab()
    rng = Rng(44)
    for _ in range(40):
        n = 3 + rng.randint(4)
        c = random_valid_cell(rng, n, vocab.size)
        perm = list(range(n))
        rng.shuffle(perm)
        a = score_features(arch_of(c), vocab).values
        b = score_features(arch_of(permute(c, perm)), vocab).values
        assert np.allclose(a, b)


def test_score_path_count_capped():
    assert PATH_COUNT_CAP == 1 << 16


def test_zscore_columns():
    mat = np.array([[1.0, 5.0], [3.0, 5.0], [5.0, 5.0]])
    z = zscore_columns(mat)
    assert np.allclose(z[:, 0].mean(), 0.0)
    assert np.allclose(z[:, 0].std(), 1.0)
    assert np.all(z[:, 1] == 0.0)  # constant column maps to zeros


@pytest.mark.parametrize("rows, value", [(3, 0.1), (24, 0.7)])
def test_zscore_columns_maps_an_inexact_mean_constant_column_to_zeros(rows, value):
    # the mean of these equal values rounds off the value, so std is a few
    # ulps above zero; the column is still constant
    mat = np.full((rows, 1), value)
    assert mat.std(axis=0)[0] > 0.0
    assert np.all(zscore_columns(mat) == 0.0)


def test_score_feature_matrix_rows():
    vocab = basic_vocab()
    archs = [arch_of(chain_cell(3), 0), arch_of(chain_cell(4), 1)]
    mat = score_feature_matrix(archs, vocab)
    assert mat.shape == (2, 8)
    assert np.array_equal(mat[0], score_features(archs[0], vocab).values)


def test_score_features_reject_op_outside_vocabulary():
    vocab = basic_vocab()
    outside = arch_of(chain_cell(4, interior_op=vocab.size), 1)
    with pytest.raises(EncodingError, match="outside vocabulary"):
        score_features(outside, vocab)
    with pytest.raises(EncodingError, match="outside vocabulary"):
        score_feature_matrix([arch_of(chain_cell(3)), outside], vocab)


# -- score feature oracle -----------------------------------------------------------

ORACLE_OPS = (
    "input", "output", "none", "conv_3x3", "Conv1x1", "conv", "max_pool",
    "skip_connect", "linear", "sep_conv_5x5", "zeroize",
)


def oracle_op_cost(name):
    name = name.lower()
    if "conv" in name:
        kernel = re.search(r"(\d+)\s*x\s*(\d+)", name)
        return int(kernel.group(1)) * int(kernel.group(2)) if kernel else 9
    if "pool" in name or "skip" in name or "identity" in name or "zero" in name:
        return 0
    return 1


def oracle_score_features(arch, op_names):
    """The eight score features by DFS path enumeration and Python sums."""
    totals = {k: 0 for k in ("active", "edges", "longest", "shortest",
                             "paths", "interior", "conv", "cost")}
    for c in arch.cells:
        active = [i for i in range(c.num_nodes) if c.op_ids[i] != OP_NONE]
        edges = [(i, j) for i in active for j in active if c.adjacency[i][j]]
        (src,) = [i for i in active if all(j != i for _, j in edges)]
        (dst,) = [i for i in active if all(k != i for k, _ in edges)]
        lengths = []

        def walk(node, depth):
            if node == dst:
                lengths.append(depth)
                return
            for i, j in edges:
                if i == node:
                    walk(j, depth + 1)

        walk(src, 0)
        interior = [op_names[c.op_ids[i]] for i in active if i not in (src, dst)]
        totals["active"] += len(active)
        totals["edges"] += len(edges)
        totals["longest"] += max(lengths)
        totals["shortest"] += min(lengths)
        totals["paths"] += len(lengths)
        totals["interior"] += len(interior)
        totals["conv"] += sum("conv" in name.lower() for name in interior)
        totals["cost"] += sum(oracle_op_cost(name) for name in interior)
    t = totals
    return [t["active"], t["edges"], t["longest"], t["shortest"],
            min(t["paths"], 1 << 16), t["conv"] / max(1, t["interior"]),
            t["edges"] / max(1, t["active"]), t["cost"]]


def test_score_feature_matrix_matches_brute_force_oracle():
    # 3..8 nodes mixed in one call; one- and two-cell archs; relabelled and
    # none-padded cells
    vocab = OpVocabulary(0, ORACLE_OPS)
    archs = mixed_archs(Rng(91), vocab.size)
    want = np.array([oracle_score_features(a, vocab.op_names) for a in archs],
                    dtype=np.float64)
    assert score_feature_matrix(archs, vocab).tobytes() == want.tobytes()
    for a, row in zip(archs, want):
        assert score_features(a, vocab).values.tobytes() == row.tobytes()


def test_score_feature_matrix_of_no_archs():
    assert score_feature_matrix([], basic_vocab()).shape == (0, 8)


# -- malformed archs ---------------------------------------------------------------------

def edges_cell(n, edges, ops):
    adj = np.zeros((n, n), dtype=np.uint8)
    for i, j in edges:
        adj[i, j] = 1
    return cell(adj, ops)


OUTSIDE = "op 6 outside vocabulary of size 6"
LOWER = ("adjacency encoding needs a topologically relabelled cell "
         "(upper triangular adjacency)")
MIXED = "cells of one arch must share a node count, got {3, 4}"
ENDS = "cell has no unique source/sink; validate first"
CYCLE = "cell has a cycle among its active nodes; validate first"
TWO_SOURCES = [(0, 2), (1, 2), (2, 3)]

# an arch's cells, then the (error type, message) every encoder raises for
# it, None where they accept it; encode_adjacency alone refuses the
# lower-triangle edge.  With several faults the first check of `_cell_walk`
# that fails names the error.  A row whose cells cannot form an arch names
# the CellError of building it
MALFORMED = {
    "reserved-interior-op": (
        chain_cell(4, interior_op=0),
        (EncodingError, "interior node 1 carries reserved op 0")),
    "op-outside-vocabulary": (chain_cell(4, interior_op=6), (EncodingError, OUTSIDE)),
    "lower-triangle-edge": (edges_cell(3, [(0, 2), (2, 1)], [0, 1, 3]), None),
    "mixed-node-counts": ((chain_cell(3), chain_cell(4)), (CellError, MIXED)),
    "two-sources": (edges_cell(4, TWO_SOURCES, [0, 3, 4, 1]), (CellError, ENDS)),
    "reserved-then-outside": (
        edges_cell(4, [(0, 1), (1, 2), (2, 3)], [0, 6, 0, 1]), (EncodingError, OUTSIDE)),
    "lower-triangle-and-outside": (
        edges_cell(3, [(0, 2), (2, 1)], [0, 1, 6]), (EncodingError, OUTSIDE)),
    "two-sources-and-outside": (
        edges_cell(4, TWO_SOURCES, [0, 3, 6, 1]), (EncodingError, OUTSIDE)),
    "outside-then-two-sources": (
        (chain_cell(4, interior_op=6), edges_cell(4, TWO_SOURCES, [0, 3, 4, 1])),
        (EncodingError, OUTSIDE)),
    "mixed-node-counts-and-two-sources": (
        (chain_cell(3), edges_cell(4, TWO_SOURCES, [0, 3, 4, 1])), (CellError, MIXED)),
}
# what encode_adjacency raises where the others accept
ADJACENCY_ONLY = {"lower-triangle-edge": (EncodingError, LOWER)}
BUILDS = [case for case, (_, error) in MALFORMED.items() if error != (CellError, MIXED)]

# cells whose active nodes form a cycle but keep one source and one sink
CYCLIC = {
    "reached": [(0, 1), (1, 2), (2, 1), (2, 3)],    # on the source-to-sink path
    "unreached": [(0, 3), (1, 2), (2, 1)],          # out of the source's reach
    "self_loop": [(0, 1), (1, 1), (1, 2), (2, 3)],  # a self loop
}


def _outcome(encode, arch):
    """What encoding `arch` raises, as (type, message), or None."""
    try:
        encode(arch, basic_vocab())
    except ValueError as exc:
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("case", MALFORMED)
def test_one_arch_encoders_raise_the_first_fault(case):
    cells, error = MALFORMED[case]
    if case not in BUILDS:
        with pytest.raises(CellError) as info:
            arch_of(cells)
        assert (type(info.value), str(info.value)) == error
        return
    arch = arch_of(cells)
    for encode in (encode_path, encode_adjacency, score_features):
        want = ADJACENCY_ONLY.get(case, error) if encode is encode_adjacency else error
        assert _outcome(encode, arch) == want, encode.__name__


def test_one_arch_encoders_refuse_a_cyclic_cell():
    # 1 -> 2 -> 1 leaves one source and one sink
    arch = arch_of(edges_cell(4, CYCLIC["reached"], [0, 3, 3, 1]))
    for encode in (encode_path, score_features):
        with pytest.raises(EncodingError, match="cycle"):
            encode(arch, basic_vocab())


@pytest.mark.parametrize("edges", CYCLIC.values(), ids=CYCLIC)
def test_score_feature_matrix_refuses_a_cyclic_cell(edges):
    # an acyclic arch in the same call, before it, does not hide it
    cyclic = arch_of(edges_cell(4, edges, [0, 3, 3, 1]))
    archs = [arch_of(chain_cell(4)), cyclic]
    with pytest.raises(EncodingError, match="cycle") as matrix:
        score_feature_matrix(archs, basic_vocab())
    with pytest.raises(EncodingError) as one:
        score_features(cyclic, basic_vocab())
    assert str(matrix.value) == str(one.value)


@pytest.mark.parametrize("case", BUILDS + [f"cycle-{name}" for name in CYCLIC])
def test_every_encoder_refuses_the_same_archs_alike(case):
    # the one-arch encoders and the matrix, alone or after a valid arch,
    # raise one type and one message, or all accept
    if case in MALFORMED:
        cells, error = MALFORMED[case]
    else:
        cells = edges_cell(4, CYCLIC[case.removeprefix("cycle-")], [0, 3, 3, 1])
        error = (EncodingError, CYCLE)
    arch, valid = arch_of(cells, 1), arch_of(chain_cell(4), 0)
    encoders = {
        "encode_path": encode_path,
        "encode_adjacency": encode_adjacency,
        "score_features": score_features,
        "score_feature_matrix": lambda a, v: score_feature_matrix([a], v),
        "after a valid arch": lambda a, v: score_feature_matrix([valid, a], v),
    }
    want = {name: error for name in encoders}
    want["encode_adjacency"] = ADJACENCY_ONLY.get(case, error)
    assert {name: _outcome(f, arch) for name, f in encoders.items()} == want


def test_one_arch_encoders_stay_off_the_cell_stack(monkeypatch):
    # one arch's cells are walked one by one, not padded into a stack
    def refuse(cells):
        raise AssertionError("a one-arch encoder stacked its cells")

    monkeypatch.setattr(cellgraph, "stack_cells", refuse)
    arch = arch_of((chain_cell(4), chain_cell(4, interior_op=5)))
    for encode in (encode_adjacency, encode_path, score_features):
        encode(arch, basic_vocab())


# -- unified vocabulary --------------------------------------------------------------------

def test_unify_single_space_is_identity():
    vocab = OpVocabulary(0, ("input", "output", "none", "op_a", "op_b"))
    uni = unify([vocab])
    assert uni.size == 5
    assert [uni.map_ops(0, i).item() for i in range(5)] == [0, 1, 2, 3, 4]


def test_unify_two_spaces_share_reserved_ids():
    va = OpVocabulary(0, ("input", "output", "none", "a1", "a2"))
    vb = OpVocabulary(1, ("input", "output", "none", "b1", "b2"))
    uni = unify([va, vb])
    assert uni.size == 3 + 2 + 2
    for local in range(3):
        assert uni.map_ops(0, local).item() == uni.map_ops(1, local).item() == local
    interiors = {
        uni.map_ops(s, o).item() for s in (0, 1) for o in (3, 4)
    }
    assert len(interiors) == 4 and interiors.isdisjoint({0, 1, 2})


def test_unify_order_independent():
    va = OpVocabulary(0, ("input", "output", "none", "a1"))
    vb = OpVocabulary(3, ("input", "output", "none", "b1", "b2"))
    ab = unify([va, vb])
    ba = unify([vb, va])
    for space, op in ((0, 3), (3, 3), (3, 4)):
        assert ab.map_ops(space, op).item() == ba.map_ops(space, op).item()


def test_unify_duplicate_space_rejected():
    va = OpVocabulary(0, ("input", "output", "none", "a1"))
    vb = OpVocabulary(0, ("input", "output", "none", "b1"))
    with pytest.raises(EncodingError):
        unify([va, vb])


def test_unify_injective_over_many_spaces():
    vocabs = [
        OpVocabulary(s, ("input", "output", "none") + tuple(f"s{s}_op{i}" for i in range(7)))
        for s in range(5)
    ]
    uni = unify(vocabs)
    seen = {}
    for s in range(5):
        for op in range(3, 10):
            uid = uni.map_ops(s, op).item()
            assert uid not in seen, f"collision with {seen.get(uid)}"
            seen[uid] = (s, op)
    assert uni.size == 3 + 5 * 7
    assert sorted(seen) == list(range(3, uni.size))


def test_extend_preserves_existing_ids():
    va = OpVocabulary(0, ("input", "output", "none", "a1", "a2"))
    vb = OpVocabulary(1, ("input", "output", "none", "b1"))
    base = unify([va])
    before = {op: base.map_ops(0, op).item() for op in range(va.size)}
    grown = base.extend(vb)
    for op, uid in before.items():
        assert grown.map_ops(0, op).item() == uid
    assert grown.map_ops(1, 3).item() == base.size
    with pytest.raises(EncodingError):
        grown.extend(vb)


def test_map_ops_and_errors():
    va = OpVocabulary(2, ("input", "output", "none", "a1"))
    uni = unify([va])
    assert uni.map_ops(2, [0, 3, 1]).tolist() == [0, 3, 1]
    with pytest.raises(EncodingError):
        uni.map_ops(9, 0)
    with pytest.raises(EncodingError):
        uni.map_ops(2, 4)


def test_map_ops_of_a_stack_gives_unified_ids_in_its_shape():
    # transfer registers a target space with extend; both spaces' lookups
    # must give the unified id of every local op, for a stacked (B, n) array
    va = OpVocabulary(0, ("input", "output", "none", "a1", "a2"))
    vb = OpVocabulary(4, ("input", "output", "none", "b1", "b2", "b3"))
    uni = unify([va]).extend(vb)
    want = {0: [0, 1, 2, 3, 4], 4: [0, 1, 2, 5, 6, 7]}
    for vocab in uni.spaces:
        ops = np.array([range(vocab.size), range(vocab.size - 1, -1, -1)])
        got = uni.map_ops(vocab.space_id, ops)
        assert got.dtype == np.int64 and got.shape == ops.shape
        assert got.tolist() == [[uni.map_ops(vocab.space_id, op).item() for op in row]
                                for row in ops.tolist()]
        assert got[0].tolist() == want[vocab.space_id]


def test_map_ops_of_a_stack_raises_for_the_first_op_without_an_id():
    va = OpVocabulary(0, ("input", "output", "none", "a1", "a2"))
    uni = unify([va]).extend(OpVocabulary(4, ("input", "output", "none", "b1")))
    with pytest.raises(EncodingError, match="no unified id for op 5 of space 0"):
        uni.map_ops(0, np.array([[0, 3, 1], [4, 5, 9]]))
    with pytest.raises(EncodingError, match="no unified id for op -1 of space 0"):
        uni.map_ops(0, np.array([[0, 3], [-1, 1]]))
    with pytest.raises(EncodingError, match="no unified id for op 3 of space 9"):
        uni.map_ops(9, np.array([[3, 0], [1, 2]]))


def test_unified_vocab_dict_round_trip():
    va = OpVocabulary(0, ("input", "output", "none", "a1"))
    vb = OpVocabulary(1, ("input", "output", "none", "b1"))
    uni = unify([va]).extend(vb)
    back = UnifiedVocabulary.from_dict(uni.to_dict())
    assert back.size == uni.size
    assert back.map_ops(1, 3).item() == uni.map_ops(1, 3).item()
    assert tuple(v.space_id for v in back.spaces) == (0, 1)


# -- supplemental tables ---------------------------------------------------------------------

def make_table(kind="zcp", dim=3, ids=(0, 1, 2)):
    rng = Rng(1)
    return SupplementalTable(
        kind, dim,
        {i: np.array([rng.normal() for _ in range(dim)]) for i in ids},
    )


def test_table_lookup_and_missing():
    table = make_table(dim=32, ids=tuple(range(10)))
    assert table.vector(3).shape == (32,)
    with pytest.raises(EncodingError,
                       match="^supplemental table 'zcp' has no vector for arch 99$"):
        table.vector(99)


def test_table_shape_validation():
    with pytest.raises(EncodingError):
        SupplementalTable("zcp", 3, {0: np.zeros(2)})


def test_provider_concatenates_in_registration_order():
    a = make_table("cate", dim=13, ids=(0, 1, 2, 3))
    b = make_table("arch2vec", dim=32, ids=(0, 1, 2, 3))
    c = make_table("zcp", dim=32, ids=(0, 1, 2, 3))
    provider = SupplementalProvider([a, b, c])
    assert provider.dim == 77
    row = provider.row(2)
    assert row.shape == (77,)
    assert np.array_equal(row[:13], a.z_normalized().vector(2))
    mat = provider.matrix([0, 3])
    assert mat.shape == (2, 77)
    with pytest.raises(EncodingError, match="'cate' has no vector for arch 7"):
        provider.row(7)


def test_provider_rows_are_z_normalized():
    table = make_table(dim=4, ids=tuple(range(8)))
    provider = SupplementalProvider([table])
    mat = provider.matrix(sorted(table.vectors))
    assert np.allclose(mat.mean(axis=0), 0.0, atol=1e-12)
    assert np.allclose(mat.std(axis=0), 1.0, atol=1e-12)


def test_supplemental_file_round_trip(tmp_path):
    table = make_table(dim=5, ids=(3, 1, 4))
    path = tmp_path / "t.jsonl"
    save_supplemental(table, path)
    back = load_supplemental(path)
    assert back.kind == table.kind and back.dim == 5
    for i in (1, 3, 4):
        assert np.array_equal(back.vector(i), table.vector(i))
    # canonical writer output is stable
    save_supplemental(back, tmp_path / "t2.jsonl")
    assert (tmp_path / "t.jsonl").read_bytes() == (tmp_path / "t2.jsonl").read_bytes()


def test_supplemental_load_errors_carry_line_numbers(tmp_path):
    path = tmp_path / "bad.jsonl"
    header = {"format": "flan-supp/1", "kind": "zcp", "dim": 2}
    good = {"id": 0, "v": [1.0, 2.0]}
    short = {"id": 1, "v": [1.0]}
    path.write_text(
        json.dumps(header) + "\n" + json.dumps(good) + "\n" + json.dumps(short) + "\n"
    )
    with pytest.raises(EncodingError, match="line 3"):
        load_supplemental(path)

    dup = {"id": 0, "v": [3.0, 4.0]}
    path.write_text(
        json.dumps(header) + "\n" + json.dumps(good) + "\n" + json.dumps(dup) + "\n"
    )
    with pytest.raises(EncodingError, match="line 3.*duplicate"):
        load_supplemental(path)

    path.write_text(json.dumps({"format": "nope"}) + "\n")
    with pytest.raises(EncodingError, match="line 1"):
        load_supplemental(path)


# a dict patch is merged into the header or the second record, anything
# else replaces that line
@pytest.mark.parametrize("header_patch, record_patch, message", [
    (None, {"id": [0]}, "line 3: id must be an integer, got list"),
    (None, {"id": "x"}, "line 3: id must be an integer, got str"),
    (None, {"id": 3.7}, "line 3: id must be an integer, got float"),
    (None, {"v": 5}, "line 3: v must be a list of numbers, got int"),
    (None, {"v": ["a", 1]}, "line 3: v[0] must be a number, got str"),
    (None, [1], "line 3: expected an object with key 'id', got list"),
    (None, 5, "line 3: expected an object with key 'id', got int"),
    ({"dim": [2]}, None, "line 1: dim must be an integer, got list"),
    ({"kind": 5}, None, "line 1: kind must be a string, got int"),
    ({"count": [2]}, None, "line 1: count must be an integer, got list"),
    (["flan-supp/1"], None, "line 1: header must be an object, got list"),
    (None, {"v": [3.0, -1e300]}, "line 3: v values must be at most 1e+100 in magnitude"),
])
def test_supplemental_malformed_fields_name_line(
        tmp_path, capsys, header_patch, record_patch, message):
    lines = [{"format": "flan-supp/1", "kind": "zcp", "dim": 2},
             {"id": 0, "v": [1.0, 2.0]}, {"id": 1, "v": [3.0, 4.0]}]
    for index, patch in ((0, header_patch), (2, record_patch)):
        if isinstance(patch, dict):
            lines[index] = {**lines[index], **patch}
        elif patch is not None:
            lines[index] = patch
    path = tmp_path / "bad.jsonl"
    path.write_text("".join(json.dumps(x) + "\n" for x in lines))
    with pytest.raises(EncodingError, match=re.escape(message)):
        load_supplemental(path)

    bench = generate_synthetic(SyntheticSpec(num_nodes=4, vocab_size=5,
                                             num_archs=6, seed=1))
    export(bench, tmp_path / "b.jsonl")
    code = main(["train", "--bench", str(tmp_path / "b.jsonl"),
                 "--train-count", "3", "--supp", str(path),
                 "--out", str(tmp_path / "m.ckpt")])
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_supplemental_values_at_the_bound_normalise_finitely(tmp_path):
    path = tmp_path / "big.jsonl"
    rows = [{"id": i, "v": [(-1.0) ** i * 1e100, i % 3 * 5e99]} for i in range(64)]
    path.write_text("".join(json.dumps(x) + "\n" for x in
                            [{"format": "flan-supp/1", "kind": "zcp", "dim": 2}] + rows))
    table = load_supplemental(path).z_normalized()
    mat = np.stack([table.vector(i) for i in range(64)])
    assert np.isfinite(mat).all()
    np.testing.assert_allclose(mat[:, 0], (-1.0) ** np.arange(64))


def test_supplemental_header_without_count_is_accepted(tmp_path):
    path = tmp_path / "min.jsonl"
    path.write_text(
        json.dumps({"format": "flan-supp/1", "kind": "cate", "dim": 1})
        + "\n"
        + json.dumps({"id": 7, "v": [0.5]})
        + "\n"
    )
    table = load_supplemental(path)
    assert table.vector(7).tolist() == [0.5]


def test_supplemental_count_mismatch(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text(
        json.dumps({"format": "flan-supp/1", "kind": "zcp", "dim": 1, "count": 2})
        + "\n"
        + json.dumps({"id": 0, "v": [1.0]})
        + "\n"
    )
    with pytest.raises(EncodingError, match="promises 2"):
        load_supplemental(path)


# -- the JSONL container both file formats share ------------------------------------

CONTAINERS = {
    "benchmark": (ingest, BenchmarkError, {
        "format": "flan-bench/1", "name": "t", "space_id": 0, "num_nodes": 2,
        "cells_per_arch": 1, "ops": ["input", "output", "none"],
    }, {"cells": [{"adj": [[0, 1], [0, 0]], "ops": [0, 1]}], "acc": 0.5}),
    "supplemental": (load_supplemental, EncodingError, {
        "format": "flan-supp/1", "kind": "zcp", "dim": 1,
    }, {"v": [1.0]}),
}


def _decode_error(data: bytes) -> str:
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        return str(exc)


def _json_error(text: str) -> str:
    try:
        json.loads(text)
    except json.JSONDecodeError as exc:
        return str(exc)


NOT_UTF8 = b'{"format": "caf\xe9"}\n'

# each fault maps (what, header, two records) to the file's bytes and the
# reader's message
CONTAINER_FAULTS = {
    "not-utf8": lambda what, head, recs: (
        NOT_UTF8, f"{what} file is not UTF-8: {_decode_error(NOT_UTF8)}"),
    "empty": lambda what, head, recs: (b"", f"empty {what} file"),
    "header-not-json": lambda what, head, recs: (
        ["{nope"] + recs, f"line 1: header is not valid JSON: {_json_error('{nope')}"),
    "header-not-object": lambda what, head, recs: (
        [[head]] + recs, "line 1: header must be an object, got list"),
    "wrong-format": lambda what, head, recs: (
        [{**head, "format": "flan/0"}] + recs,
        f"line 1: expected format {head['format']!r}, got 'flan/0'"),
    "count-mismatch": lambda what, head, recs: (
        [{**head, "count": 3}] + recs, "header promises 3 records, file has 2"),
    "record-not-json": lambda what, head, recs: (
        [head, recs[0], "{nope"],
        f"line 3: record is not valid JSON: {_json_error('{nope')}"),
    "missing-id": lambda what, head, recs: (
        [head, recs[0], {k: v for k, v in recs[1].items() if k != "id"}],
        "line 3: missing key 'id'"),
    "id-not-int": lambda what, head, recs: (
        [head, recs[0], {**recs[1], "id": 1.0}],
        "line 3: id must be an integer, got float"),
    "duplicate-id": lambda what, head, recs: (
        [head, recs[0], {**recs[1], "id": 0}], "line 3: duplicate arch id 0"),
}


@pytest.mark.parametrize("fault", CONTAINER_FAULTS)
@pytest.mark.parametrize("what", CONTAINERS)
def test_both_readers_refuse_container_faults_with_one_message(tmp_path, what, fault):
    reader, error, head, body = CONTAINERS[what]
    content, message = CONTAINER_FAULTS[fault](
        what, head, [{"id": 0, **body}, {"id": 1, **body}])
    if not isinstance(content, bytes):
        content = "".join(
            (x if isinstance(x, str) else json.dumps(x)) + "\n" for x in content
        ).encode()
    path = tmp_path / "bad.jsonl"
    path.write_bytes(content)
    with pytest.raises(error) as info:
        reader(path)
    assert str(info.value) == message
