"""Shared builders for the test suite.

Most tests want a tiny cell, a tiny benchmark, or a predictor small enough
that finite differences and exhaustive checks finish in milliseconds.  They
live here so every module agrees on what "tiny" means.
"""

import numpy as np

from flan import autodiff as ad
from flan.benchmark import SyntheticSpec, generate_synthetic, make_vocab
from flan.cellgraph import OP_NONE, CellArch, CellError, CellGraph, OpVocabulary
from flan.encodings import UnifiedVocabulary
from flan.predictor import PredictorConfig
from flan.rng import Rng


def cell(adj, ops, space_id=0):
    return CellGraph(np.asarray(adj, dtype=np.uint8), ops, space_id)


def chain_cell(n, interior_op=3, space_id=0):
    """0 -> 1 -> ... -> n-1 with every interior node labelled interior_op."""
    adj = np.zeros((n, n), dtype=np.uint8)
    for i in range(n - 1):
        adj[i, i + 1] = 1
    ops = [0] + [interior_op] * (n - 2) + [1]
    return CellGraph(adj, ops, space_id)


def pad(cell: CellGraph, target_nodes: int) -> CellGraph:
    """Grow to target_nodes by appending none nodes with no edges."""
    if target_nodes < cell.num_nodes:
        raise CellError(
            f"cannot pad {cell.num_nodes} nodes down to {target_nodes}"
        )
    if target_nodes == cell.num_nodes:
        return cell
    n = cell.num_nodes
    adj = np.zeros((target_nodes, target_nodes), dtype=np.uint8)
    adj[:n, :n] = cell.adjacency
    ops = cell.op_ids + (OP_NONE,) * (target_nodes - n)
    return CellGraph(adj, ops, cell.space_id)


def permute(cell: CellGraph, perm) -> CellGraph:
    """Relabel nodes: node i becomes node perm[i]."""
    perm = [int(p) for p in perm]
    n = cell.num_nodes
    if sorted(perm) != list(range(n)):
        raise CellError(f"perm must be a permutation of 0..{n - 1}, got {perm}")
    adj = np.zeros_like(cell.adjacency)
    adj[np.ix_(perm, perm)] = cell.adjacency
    ops = np.empty(n, dtype=np.int64)
    ops[perm] = cell.op_ids
    return CellGraph(adj, ops, cell.space_id)


def arch_of(cells, arch_id=0):
    if isinstance(cells, CellGraph):
        cells = (cells,)
    return CellArch(tuple(cells), arch_id)


def basic_vocab(extra=("op_a", "op_b", "op_c"), space_id=0):
    return OpVocabulary(space_id, ("input", "output", "none") + tuple(extra))


def unified_of(vocab):
    return UnifiedVocabulary((vocab,))


def tiny_config(**overrides):
    """Smallest config that still exercises every parameter group."""
    base = dict(
        op_embedding_dim=6,
        node_embedding_dim=6,
        hidden_dim=8,
        gcn_dims=(7, 5),
        backward_gcn_dims=(6,),
        op_update_mlp_dims=(5,),
        mlp_dims=(8,),
        supp_embedder_dims=(6,),
        nn_emb_dim=5,
        timesteps=2,
        forward_mode="ensemble",
        backward_mode="ensemble",
        attention_variant="shared_sigmoid",
    )
    base.update(overrides)
    if "gcn_dims" in overrides and "nn_emb_dim" not in overrides:
        base["nn_emb_dim"] = base["gcn_dims"][-1]
    return PredictorConfig(**base)


def jitter_params(model, seed, scale=0.3):
    """Move every parameter to a generic point.

    Freshly initialized models sit at a degenerate spot (zero biases, zero
    layer-norm shifts, structurally zero attention rows) where the loss
    surface has kinks and plateaus that break finite differences even though
    the tape gradients are exact.  A small uniform jitter lands on a smooth
    point without changing what is being tested.
    """
    rng = Rng(seed).child("jitter")
    for name in sorted(model.params):
        stream = rng.child(name)
        flat = model.params[name].data.reshape(-1)
        for i in range(flat.size):
            flat[i] += stream.uniform(-scale, scale)


def weighted_sum(t, weights):
    """sum(t * weights) as one tape op; weights (a Tensor of t's shape) is
    data, so any output of t's shape reduces to a generic scalar loss."""
    w = weights.data
    return ad.emit("weighted_sum", np.asarray(np.sum(t.data * w)), (t,),
                   lambda g: (g * w,))


def small_bench(num_archs=12, seed=11, num_nodes=4, vocab_size=5,
                noise_sigma=0.1, interaction_scale=0.5):
    spec = SyntheticSpec(
        num_nodes=num_nodes,
        vocab_size=vocab_size,
        num_archs=num_archs,
        seed=seed,
        noise_sigma=noise_sigma,
        interaction_scale=interaction_scale,
    )
    return generate_synthetic(spec)


REFERENCE_DIMS = dict(
    op_embedding_dim=8,
    node_embedding_dim=8,
    hidden_dim=16,
    gcn_dims=(16, 16),
    backward_gcn_dims=(16,),
    op_update_mlp_dims=(16,),
    mlp_dims=(16,),
    supp_embedder_dims=(16,),
    nn_emb_dim=16,
    timesteps=2,
)


def ref_config(**overrides):
    """Reference predictor used by the direction-of-effect experiments."""
    return PredictorConfig(**{**REFERENCE_DIMS, **overrides})


_REFERENCE_BENCHES = {}


def reference_bench(space="a"):
    """The two frozen 1024-arch synthetic spaces the experiments run on.

    Space a: 5 nodes, 5 interior ops.  Space b: a disjoint operation set
    (4 interior ops) under the same accuracy model, used as the transfer
    target.  Generated once per session; benchmarks are immutable.
    """
    if space not in _REFERENCE_BENCHES:
        if space == "a":
            spec = SyntheticSpec(
                num_nodes=5, vocab_size=8, num_archs=1024, seed=101,
                noise_sigma=0.05, interaction_scale=0.5,
            )
            bench = generate_synthetic(spec, name="synthetic-1024-a")
        elif space == "b":
            spec = SyntheticSpec(
                num_nodes=5, vocab_size=7, num_archs=1024, seed=202,
                noise_sigma=0.05, interaction_scale=0.5,
            )
            bench = generate_synthetic(spec, name="synthetic-1024-b", space_id=1)
        else:
            raise ValueError(f"unknown reference space {space!r}")
        _REFERENCE_BENCHES[space] = bench
    return _REFERENCE_BENCHES[space]


def random_valid_cell(rng, num_nodes, vocab_size, space_id=0):
    """Rejection-sample one valid cell; mirrors no library internals."""
    from flan.cellgraph import prune_to_paths, validate_cells

    while True:
        adj = np.zeros((num_nodes, num_nodes), dtype=np.uint8)
        for i in range(num_nodes):
            for j in range(i + 1, num_nodes):
                adj[i, j] = rng.randint(2)
        pruned = prune_to_paths(adj, 0, num_nodes - 1)
        if pruned is None:
            continue
        padj, keep = pruned
        ops = [0] + [
            3 + rng.randint(vocab_size - 3) for _ in range(num_nodes - 2)
        ] + [1]
        for i in range(1, num_nodes - 1):
            if not keep[i]:
                ops[i] = 2
        cand = CellGraph(padj, ops, space_id)
        if validate_cells([cand], vocab_size)[0] is None:
            return cand


__all__ = [
    "arch_of", "basic_vocab", "cell", "chain_cell", "jitter_params", "pad",
    "permute", "random_valid_cell", "ref_config", "reference_bench",
    "small_bench", "tiny_config", "unified_of", "weighted_sum",
]
