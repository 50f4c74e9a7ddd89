"""Cell construction, validation diagnostics, padding and relabeling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import arch_of, cell, chain_cell, pad, permute, random_valid_cell
from flan.cellgraph import (
    OP_INPUT,
    OP_NONE,
    OP_OUTPUT,
    CellArch,
    CellError,
    CellGraph,
    OpVocabulary,
    canonical_order,
    prune_stack,
    prune_to_paths,
    stack_cells,
    validate_cells,
)
from flan.rng import Rng


# -- construction ---------------------------------------------------------------

def test_adjacency_is_binarized_and_frozen():
    # every nonzero entry is an edge, also one that uint8 cannot hold
    for adj in (np.array([[0, 7], [0, 0]], dtype=np.uint8),
                np.array([[0, 256], [0, 0]], dtype=np.int64),
                [[0, 256], [0, 0]], [[0, 0.5], [0, 0]], [[0, -1], [0, 0]]):
        c = CellGraph(adj, [0, 1], 0)
        assert c.adjacency.dtype == np.uint8
        assert c.adjacency.tolist() == [[0, 1], [0, 0]], adj
    with pytest.raises(ValueError):
        c.adjacency[0, 1] = 0
    with pytest.raises(CellError, match="numbers"):
        CellGraph([["0", "1"], ["0", "0"]], [0, 1], 0)


def test_constructor_rejects_bad_shapes():
    with pytest.raises(CellError):
        CellGraph(np.zeros((2, 3), dtype=np.uint8), [0, 1], 0)
    with pytest.raises(CellError):
        CellGraph(np.zeros((3, 3), dtype=np.uint8), [0, 1], 0)
    with pytest.raises(CellError):
        CellGraph(np.zeros((1, 1), dtype=np.uint8), [0], 0)
    with pytest.raises(CellError):
        CellGraph(np.zeros((2, 2), dtype=np.uint8), [0, -1], 0)


def test_constructor_refuses_non_integer_ids():
    adj = [[0, 1], [0, 0]]
    for ops, space_id in (([0, 1.7], 0), ([0, 1.0], 0), ([0, "1"], 0),
                          ([0, 1], 1.9), ([0, 1], 1.0)):
        with pytest.raises(CellError, match="must be integers"):
            CellGraph(adj, ops, space_id)
    c = CellGraph(adj, np.array([0, 1]), np.int64(3))
    assert (c.op_ids, c.space_id) == ((0, 1), 3)
    assert all(type(v) is int for v in (*c.op_ids, c.space_id))


def test_equality_and_hash_track_content():
    a = chain_cell(3)
    b = chain_cell(3)
    c = chain_cell(3, interior_op=4)
    assert a == b and hash(a) == hash(b)
    assert a != c
    assert len({a, b, c}) == 2


def test_arch_constraints():
    c0 = chain_cell(3, space_id=0)
    c1 = chain_cell(3, space_id=1)
    assert arch_of((c0, c0), 5).space_id == 0
    with pytest.raises(CellError):
        CellArch((c0, c1), 0)
    with pytest.raises(CellError):
        CellArch((c0, c0, c0), 0)
    with pytest.raises(CellError):
        CellArch((c0,), -1)


def test_vocabulary_reserved_prefix():
    v = OpVocabulary(0, ("input", "output", "none", "op_a"))
    assert v.size == 4
    assert v.interior_op_ids == (3,)
    with pytest.raises(CellError):
        OpVocabulary(0, ("output", "input", "none"))
    with pytest.raises(CellError):
        OpVocabulary(0, ("input", "output", "none", "op_a", "op_a"))


def test_active_adjacency_drops_none_edges():
    c = cell([[0, 1, 1], [0, 0, 1], [0, 0, 0]], [0, OP_NONE, 1])
    stack = stack_cells([c])
    active = stack.adjacency[0]
    assert active[0, 1] == 0 and active[1, 2] == 0
    assert active[0, 2] == 1
    assert np.flatnonzero(stack.ops[0] != OP_NONE).tolist() == [0, 2]
    assert stack.sources[0].tolist() == [True, False, False]
    assert stack.sinks[0].tolist() == [False, False, True]


# -- validate --------------------------------------------------------------------

def test_validate_minimal_chain_ok():
    assert validate_cells([chain_cell(3)], vocab_size=4)[0] is None


def test_validate_back_edge_is_cycle():
    c = cell([[0, 1, 0], [0, 0, 1], [1, 0, 0]], [0, 3, 1])
    msg = validate_cells([c], 4)[0]
    assert msg is not None and msg.startswith("cycle")


def test_validate_self_loop_is_cycle():
    c = cell([[0, 1], [0, 1]], [0, 1])
    msg = validate_cells([c], 3)[0]
    assert msg is not None and msg.startswith("cycle")


def test_validate_op_at_vocab_size_is_out_of_range():
    c = chain_cell(3, interior_op=4)
    msg = validate_cells([c], vocab_size=4)[0]
    assert msg is not None and msg.startswith("op out of range")
    assert validate_cells([c], vocab_size=5)[0] is None


def test_validate_two_sources_is_disconnected():
    c = cell([[0, 0, 1], [0, 0, 1], [0, 0, 0]], [0, 3, 1])
    msg = validate_cells([c], 4)[0]
    assert msg is not None and msg.startswith("disconnected")


def test_validate_off_path_node_is_disconnected():
    # 0 -> 3 direct; nodes 1, 2 form an island edge
    adj = np.zeros((4, 4), dtype=np.uint8)
    adj[0, 3] = 1
    adj[1, 2] = 1
    msg = validate_cells([cell(adj, [0, 3, 3, 1])], 4)[0]
    assert msg is not None and msg.startswith("disconnected")


def test_validate_pruned_nodes_are_allowed():
    adj = np.zeros((4, 4), dtype=np.uint8)
    adj[0, 3] = 1
    assert validate_cells([cell(adj, [0, OP_NONE, OP_NONE, 1])], 4)[0] is None


# -- pad --------------------------------------------------------------------------

def test_pad_identity():
    c = chain_cell(3)
    assert pad(c, 3) is c


def test_pad_places_original_block_top_left():
    c = chain_cell(3)
    p = pad(c, 5)
    assert p.num_nodes == 5
    assert np.array_equal(p.adjacency[:3, :3], c.adjacency)
    assert not p.adjacency[3:, :].any() and not p.adjacency[:, 3:].any()
    assert p.op_ids == c.op_ids + (OP_NONE, OP_NONE)


def test_pad_rejects_shrinking():
    with pytest.raises(CellError):
        pad(chain_cell(5), 3)


def test_pad_preserves_validity():
    rng = Rng(31)
    for _ in range(40):
        c = random_valid_cell(rng, 2 + rng.randint(5), 5)
        assert validate_cells([c], 5)[0] is None
        grown = pad(c, c.num_nodes + 1 + rng.randint(3))
        assert validate_cells([grown], 5)[0] is None


# -- permute ------------------------------------------------------------------------

def test_permute_identity():
    c = chain_cell(4)
    assert permute(c, [0, 1, 2, 3]) == c


def test_permute_swap_definition():
    c = chain_cell(3)  # edges 0->1, 1->2
    swapped = permute(c, [1, 0, 2])
    assert swapped.adjacency[1, 0] == 1
    assert swapped.adjacency[0, 2] == 1
    assert swapped.adjacency.sum() == 2
    assert swapped.op_ids == (3, 0, 1)


def test_permute_rejects_non_bijection():
    with pytest.raises(CellError):
        permute(chain_cell(3), [0, 0, 2])
    with pytest.raises(CellError):
        permute(chain_cell(3), [0, 1])


@given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=2, max_value=8))
@settings(max_examples=80, deadline=None)
def test_permute_inverse_restores(seed, n):
    rng = Rng(seed)
    c = random_valid_cell(rng, n, 5)
    perm = list(range(n))
    rng.shuffle(perm)
    inverse = [0] * n
    for i, p in enumerate(perm):
        inverse[p] = i
    assert permute(permute(c, perm), inverse) == c


def test_permute_involution_twice_is_identity():
    c = chain_cell(5)
    swap = [1, 0, 2, 4, 3]
    assert permute(permute(c, swap), swap) == c


# -- prune ------------------------------------------------------------------------------

def test_prune_drops_island_and_keeps_path():
    adj = np.zeros((4, 4), dtype=np.uint8)
    adj[0, 1] = adj[1, 3] = 1
    adj[0, 2] = 1  # 2 reachable but dead-ended
    out = prune_to_paths(adj, 0, 3)
    assert out is not None
    padj, keep = out
    assert keep.tolist() == [True, True, False, True]
    assert not padj[2].any() and not padj[:, 2].any()
    assert padj[0, 1] == 1 and padj[1, 3] == 1


def test_prune_unreachable_returns_none():
    adj = np.zeros((3, 3), dtype=np.uint8)
    adj[1, 2] = 1
    assert prune_to_paths(adj, 0, 2) is None


# -- closure equivalence against graph-walk oracles ----------------------------------------

def _walk(succ, start):
    """Nodes reachable from start (start included), by depth-first search."""
    seen, stack = {start}, [start]
    while stack:
        for v in succ(stack.pop()):
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return seen


def _oracle_validate(adj, ops, vocab_size):
    """validate_cells() of one cell, spelled out with Kahn's sort and two
    depth-first walks."""
    n = len(ops)
    for i in range(n):
        if adj[i][i]:
            return f"cycle: node {i} has a self loop"
    indeg = [sum(adj[i][j] for i in range(n)) for j in range(n)]
    queue = [i for i in range(n) if indeg[i] == 0]
    ordered = 0
    while queue:
        u = queue.pop()
        ordered += 1
        for v in range(n):
            if adj[u][v]:
                indeg[v] -= 1
                if indeg[v] == 0:
                    queue.append(v)
    if ordered < n:
        return "cycle: adjacency is not acyclic"
    for i, op in enumerate(ops):
        if op >= vocab_size:
            return f"op out of range: node {i} has op {op}, vocabulary size {vocab_size}"
    active = [i for i in range(n) if ops[i] != OP_NONE]
    if not active:
        return "disconnected: no active nodes"
    edges = {(i, j) for i in active for j in active if adj[i][j]}
    sources = [i for i in active if not any((j, i) in edges for j in active)]
    sinks = [i for i in active if not any((i, j) in edges for j in active)]
    if len(sources) != 1 or len(sinks) != 1:
        return (f"disconnected: expected one source and one sink, "
                f"found sources {sources} and sinks {sinks}")
    src, dst = sources[0], sinks[0]
    from_src = _walk(lambda u: [v for v in active if (u, v) in edges], src)
    to_dst = _walk(lambda u: [v for v in active if (v, u) in edges], dst)
    for i in active:
        if i not in from_src or i not in to_dst:
            return f"disconnected: node {i} is on no path from {src} to {dst}"
    for i in active:
        if i not in (src, dst) and ops[i] in (OP_INPUT, OP_OUTPUT):
            return f"interior node {i} carries reserved op {ops[i]}"
    return None


def _oracle_prune(adj, src, dst):
    n = len(adj)
    from_src = _walk(lambda u: [v for v in range(n) if adj[u][v]], src)
    to_dst = _walk(lambda u: [v for v in range(n) if adj[v][u]], dst)
    keep = from_src & to_dst
    if src not in keep or dst not in keep:
        return None
    mask = [i in keep for i in range(n)]
    pruned = [[adj[i][j] if mask[i] and mask[j] else 0 for j in range(n)]
              for i in range(n)]
    return pruned, mask


VOCAB = 6


def _random_cell(rng):
    """A seeded graph that reaches every validate_cells() outcome: pruned
    valid DAGs, long chains, self loops, back edges, cycles through none
    nodes only, out-of-range ops, no active node, extra ends and islands."""
    n = int(rng.integers(2, 9))
    if rng.random() < 0.15:
        adj = np.eye(n, k=1, dtype=np.uint8)
    else:
        adj = np.triu(rng.random((n, n)) < rng.uniform(0.15, 0.8), 1).astype(np.uint8)
    ops = [0] + [int(o) for o in rng.choice([2, 3, 4, 5], n - 2)] + [1]
    pruned = _oracle_prune(adj.tolist(), 0, n - 1)
    if pruned is not None and rng.random() < 0.6:
        adj = np.array(pruned[0], dtype=np.uint8)
        ops = [o if keep else OP_NONE for o, keep in zip(ops, pruned[1])]
    i, j = sorted(rng.choice(n, 2, replace=False).tolist())
    roll = rng.random()
    if roll < 0.05:
        adj[i, i] = 1
    elif roll < 0.12:
        adj[j, i] = 1
    elif roll < 0.25 and n > 3:
        # a cycle over none nodes only: invisible on the active stack
        ring = rng.permutation(np.arange(1, n - 1))[:int(rng.integers(2, n - 1))]
        for a, b in zip(ring, np.roll(ring, -1)):
            adj[a, b] = 1
            ops[a] = OP_NONE
    elif roll < 0.30:
        ops[i] = VOCAB + int(rng.integers(3))
    elif roll < 0.33:
        ops = [OP_NONE] * n
    elif roll < 0.45:
        adj[i, j] = 1
        ops[i] = ops[j] = 3
    perm = rng.permutation(n) if rng.random() < 0.5 else np.arange(n)
    return permute(CellGraph(adj, ops, 0), perm)


def test_validate_cells_matches_graph_walk_oracle():
    rng = np.random.default_rng(2024)
    cells = [_random_cell(rng) for _ in range(6000)]
    expected = [_oracle_validate(c.adjacency.tolist(), c.op_ids, VOCAB) for c in cells]
    assert validate_cells(cells, VOCAB) == expected
    assert [validate_cells([c], VOCAB)[0] for c in cells] == expected
    # the oracle's path check never fires: in a DAG every node descends
    # from a source and reaches a sink, so a unique pair is on every path;
    # an interior input or output op is rare, as only the source and sink
    # start with one
    kinds = [m or "valid" for m in expected]
    for kind in ("valid", "cycle: node", "cycle: adjacency", "op out of range",
                 "disconnected: no active", "disconnected: expected"):
        assert sum(k.startswith(kind) for k in kinds) >= 20, kind
    assert sum(k.startswith("interior node") for k in kinds) >= 5
    assert not any(k.startswith("disconnected: node") for k in kinds)


def test_validate_cells_empty_and_mixed_sizes():
    assert validate_cells([], 4) == []
    chain = chain_cell(3)
    loop = cell([[0, 1], [0, 1]], [0, 1])
    assert validate_cells([chain, loop, pad(chain, 6)], 4) == [
        None, "cycle: node 1 has a self loop", None,
    ]


def test_prune_matches_graph_walk_oracle():
    rng = np.random.default_rng(7)
    for n in range(2, 9):
        graphs = (rng.random((150, n, n)) < rng.uniform(0.05, 0.6, (150, 1, 1)))
        graphs = graphs.astype(np.uint8)
        # relabelled chains: reaching dst takes a path of n - 1 edges
        for g in graphs[:20]:
            order = rng.permutation(n)
            g[order[:-1], order[1:]] = 1
        src, dst = (int(v) for v in rng.choice(n, 2, replace=False))
        stacked, kept = prune_stack(graphs, src, dst)
        for g, s_adj, s_keep in zip(graphs, stacked, kept):
            expected = _oracle_prune(g.tolist(), src, dst)
            got = prune_to_paths(g, src, dst)
            if expected is None:
                assert got is None
                assert not s_keep.any() and not s_adj.any()
                continue
            assert got is not None
            assert got[0].tolist() == expected[0] == s_adj.tolist()
            assert got[1].tolist() == expected[1] == s_keep.tolist()


def canonical(cells):
    """Each cell's (ops, adjacency) in canonical order, as lists."""
    stack = stack_cells(cells)
    order = canonical_order(stack.adjacency, stack.ops)
    out = []
    for ops, adj, o in zip(stack.ops, stack.adjacency, order):
        out.append((ops[o].tolist(), adj[np.ix_(o, o)].tolist()))
    return out


def test_canonical_order_depends_on_each_graph_alone_not_on_its_labeling():
    rng = Rng(3)
    cells = [pad(random_valid_cell(rng, 3 + k % 5, 6), 8) for k in range(80)]
    stacked = canonical(cells)
    shuffle = np.random.default_rng(4)
    moved = canonical([permute(c, shuffle.permutation(8)) for c in cells])
    for c, got, again in zip(cells, stacked, moved):
        # a graph runs its own number of rounds, whatever shares its stack
        assert got == canonical([c])[0]
        ops, _ = got
        active = [o != OP_NONE for o in ops]
        assert active == sorted(active, reverse=True)  # none nodes trail
        assert sorted(ops) == sorted(c.op_ids)
        assert again == got

