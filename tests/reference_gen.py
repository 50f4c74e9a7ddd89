"""The scalar synthetic generator that `flan.benchmark.generate_synthetic`
must match byte for byte.

Every gen-stream draw here is one `Rng.randint` call and every cell is
pruned by `cellgraph.prune_to_paths`; every normal is one `Rng.normal` call
on the arch's own child stream.  This is the draw order the module
docstring of `flan.benchmark` states, written out one draw at a time.
"""

import math

import numpy as np

from flan import cellgraph
from flan.benchmark import (
    BenchmarkError,
    TabularBenchmark,
    count_distinct_cells,
    make_vocab,
)
from flan.cellgraph import OP_INPUT, OP_NONE, OP_OUTPUT, CellArch, CellGraph
from flan.encodings import SupplementalTable, score_feature_matrix, zscore_columns
from flan.rng import Rng


def sample_cell(spec, rng, space_id):
    """One sampling attempt: a cell, or None when the attempt gives none."""
    n = spec.num_nodes
    adj = np.zeros((n, n), dtype=np.uint8)
    for i in range(n):
        for j in range(i + 1, n):
            adj[i, j] = rng.randint(2)
    pruned = cellgraph.prune_to_paths(adj, 0, n - 1)
    if pruned is None:
        return None
    canon_adj, keep = pruned
    ops = [OP_NONE] * n
    ops[0] = OP_INPUT
    ops[n - 1] = OP_OUTPUT
    k = spec.vocab_size - 3
    for node in range(1, n - 1):
        if not keep[node]:
            continue
        if k == 0:
            return None
        ops[node] = 3 + rng.randint(k)
    return CellGraph(canon_adj, ops, space_id)


def reference_generate(spec, name=None, space_id=0):
    """generate_synthetic, one scalar draw at a time."""
    vocab = make_vocab(space_id, spec.vocab_size)
    rng = Rng(spec.seed).child("gen")
    seen = set()
    cells = []
    exact = count_distinct_cells(spec.num_nodes, spec.vocab_size)
    if exact is not None and exact < spec.num_archs:
        raise BenchmarkError(
            f"space holds only {exact} distinct cells, "
            f"cannot sample {spec.num_archs}"
        )
    budget = 10_000 + 500 * spec.num_archs
    attempts = 0
    while len(cells) < spec.num_archs:
        if attempts >= budget:
            raise BenchmarkError(
                f"gave up after {budget} attempts sampling {spec.num_archs} "
                "distinct cells; the space is too small or nearly exhausted"
            )
        attempts += 1
        cell = sample_cell(spec, rng, space_id)
        if cell is None:
            continue
        key = (cell.adjacency.tobytes(), cell.op_ids)
        if key in seen:
            continue
        seen.add(key)
        cells.append(cell)
    archs = tuple(CellArch((cell,), arch_id=i) for i, cell in enumerate(cells))

    raw = score_feature_matrix(archs, vocab)
    utils = spec.utilities()
    noise_root = Rng(spec.seed)
    accuracies = {}
    for arch, longest in zip(archs, raw[:, 2].tolist()):
        cell = arch.cells[0]
        base = sum(utils[op] for op in cell.op_ids) / spec.num_nodes
        depth = spec.interaction_scale * longest / spec.num_nodes
        noise = 0.0
        if spec.noise_sigma > 0.0:
            noise = noise_root.child("noise", arch.arch_id).normal(0.0, spec.noise_sigma)
        z = base + depth + noise
        accuracies[arch.arch_id] = 1.0 / (1.0 + math.exp(-z))

    feats = zscore_columns(raw)
    acc_vec = np.array([accuracies[a.arch_id] for a in archs], dtype=np.float64)
    zacc = zscore_columns(acc_vec.reshape(-1, 1)).reshape(-1)
    dim = feats.shape[1]
    streams = (noise_root.child("proxy", a.arch_id) for a in archs)
    draws = np.array([[s.normal(0.0, 0.5) for _ in range(dim)] for s in streams])
    proxy = 0.5 * feats + 0.5 * (zacc[:, None] + draws)
    proxies = SupplementalTable("zcp", dim, {a.arch_id: p for a, p in zip(archs, proxy)})

    metadata = {
        "generator": "synthetic",
        "num_nodes": str(spec.num_nodes),
        "vocab_size": str(spec.vocab_size),
        "num_archs": str(spec.num_archs),
        "seed": str(spec.seed),
        "noise_sigma": repr(float(spec.noise_sigma)),
        "interaction_scale": repr(float(spec.interaction_scale)),
    }
    return TabularBenchmark(
        name=name or f"synthetic-n{spec.num_nodes}v{spec.vocab_size}-s{spec.seed}",
        vocab=vocab,
        archs=archs,
        accuracies=accuracies,
        proxies=proxies,
        metadata=metadata,
        cells_per_arch=1,
        num_nodes=spec.num_nodes,
    )


class ScriptedRng(Rng):
    """An Rng whose u64 draws are a given sequence; counts the randint
    calls that redrew."""

    def __init__(self, draws):
        super().__init__(0)
        self._draws = iter(draws)
        self._used = 0
        self.redraws = 0

    def next_u64(self):
        self._used += 1
        return next(self._draws)

    def randint(self, n):
        before = self._used
        value = super().randint(n)
        self.redraws += self._used - before - 1
        return value
