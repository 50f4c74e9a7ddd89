"""Synthetic tabular spaces and the flan-bench/1 interchange format.

A synthetic space samples upper-triangular cell DAGs on a fixed node count
(node 0 input, node n-1 output), prunes every node off the input-to-output
paths to the none op, and labels the remaining interior nodes with random
interior ops.  Architectures are distinct as (structure, labelling) pairs.

Accuracy is a logistic of per-op utilities plus a depth interaction term
plus optional per-arch noise, so with noise_sigma 0 it is a deterministic
function of the architecture.  Proxy vectors blend each z-normalized score
feature with a noisy z-normalized accuracy, giving every proxy a positive
rank correlation with accuracy without making any of them perfect.

Everything is seeded through tagged child streams, so regeneration is
byte-identical; export writes records sorted by arch id with sorted JSON
keys for the same reason.

The draw order of the ``gen`` stream, ``Rng(seed).child("gen")``, is the
contract that keeps every seed's file byte-identical.  Sampling attempts
follow one another with no draw in between.  An attempt first draws one
u64 per edge bit, row by row over the strict upper triangle ((0, 1),
(0, 2), ..., (n - 2, n - 1)); the bit is the draw's low bit, as in
``randint(2)``.  If node n - 1 is then unreachable from node 0 the attempt
ends with no cell.  Otherwise each interior node that pruning keeps, in
node order, takes one op draw x, the op ``3 + x % k`` of k interior ops; a
draw at or above the largest multiple of k that is at most 2**64 is
redrawn, as in ``randint(k)``.  With no interior op (k = 0), an attempt that keeps an
interior node ends there with no cell.  Accuracy noise and proxies are
polar-method normals (``Rng.normal``) of each arch's own
``child("noise", id)`` and ``child("proxy", id)`` streams.
``generate_synthetic`` draws all of these in batches (``batch_u64``,
``batch_normal``) that give the bytes of these scalar draws, and derives
the per-arch streams as arrays (``child_streams``), with the state of
scalar ``child`` calls.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import cache, partial

import numpy as np

from . import cellgraph
from .cellgraph import (
    OP_INPUT,
    OP_NONE,
    OP_OUTPUT,
    RESERVED_OP_NAMES,
    CellArch,
    CellGraph,
    OpVocabulary,
)
from .encodings import (
    SupplementalTable,
    check_field,
    need_field,
    need_vector,
    read_jsonl,
    score_feature_matrix,
    write_jsonl,
    zscore_columns,
)
from .rng import Rng, batch_normal, batch_u64, child_streams

BENCH_FORMAT = "flan-bench/1"
# the most nodes a synthetic cell may have; sampling allocates n * n
# entries per attempt, so a larger spec is refused before anything is
# allocated (the largest space in the tests has 24 nodes)
MAX_NUM_NODES = 64


class BenchmarkError(ValueError):
    """Raised for infeasible specs and malformed benchmark files."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters of one synthetic space."""

    num_nodes: int
    vocab_size: int
    num_archs: int
    seed: int
    noise_sigma: float = 0.0
    op_utilities: tuple[float, ...] | None = None
    interaction_scale: float = 0.0

    def __post_init__(self):
        if self.num_nodes < 2:
            raise BenchmarkError(f"num_nodes must be >= 2, got {self.num_nodes}")
        if self.num_nodes > MAX_NUM_NODES:
            raise BenchmarkError(
                f"num_nodes must be at most {MAX_NUM_NODES}, got {self.num_nodes}")
        if self.vocab_size < 3:
            raise BenchmarkError(
                f"vocab_size must cover the reserved ops, got {self.vocab_size}"
            )
        if self.num_archs < 1:
            raise BenchmarkError(f"num_archs must be positive, got {self.num_archs}")
        if not (math.isfinite(self.noise_sigma) and self.noise_sigma >= 0.0):
            raise BenchmarkError(
                f"noise_sigma must be finite and >= 0, got {self.noise_sigma}"
            )
        if not math.isfinite(self.interaction_scale):
            raise BenchmarkError(
                f"interaction_scale must be finite, got {self.interaction_scale}"
            )
        if self.op_utilities is not None:
            utils = tuple(float(u) for u in self.op_utilities)
            if len(utils) != self.vocab_size:
                raise BenchmarkError(
                    f"op_utilities needs {self.vocab_size} entries, got {len(utils)}"
                )
            if not all(map(math.isfinite, utils)):
                raise BenchmarkError(f"op_utilities must be finite, got {utils}")
            object.__setattr__(self, "op_utilities", utils)

    def utilities(self) -> np.ndarray:
        """Per-op accuracy contribution; defaults to a ramp over interior ops."""
        if self.op_utilities is not None:
            return np.asarray(self.op_utilities, dtype=np.float64)
        utils = np.zeros(self.vocab_size, dtype=np.float64)
        k = self.vocab_size - 3
        for i in range(k):
            utils[3 + i] = (i + 1) / k
        return utils


def _interior_name(i: int) -> str:
    if i < 26:
        return f"op_{chr(ord('a') + i)}"
    return f"op_{i}"


def make_vocab(space_id: int, vocab_size: int) -> OpVocabulary:
    names = RESERVED_OP_NAMES + tuple(_interior_name(i) for i in range(vocab_size - 3))
    return OpVocabulary(space_id, names)


def count_distinct_cells(num_nodes: int, vocab_size: int) -> int | None:
    """Exact count of distinct canonical cells, or None when too large to
    enumerate (more than six nodes)."""
    if num_nodes > 6:
        return None
    # k**m labellings of a structure with m kept interior nodes, k interior ops
    return sum(count * (vocab_size - 3) ** m
               for m, count in enumerate(_interior_histogram(num_nodes)))


@cache
def _interior_histogram(n: int) -> tuple[int, ...]:
    """Distinct pruned n-node structures by number of kept interior nodes."""
    rows, cols = np.triu_indices(n, 1)
    bits = 1 << np.arange(rows.size)
    masks = np.zeros((1 << rows.size, n, n), dtype=np.uint8)
    masks[:, rows, cols] = (np.arange(1 << rows.size)[:, None] & bits) != 0
    pruned, keep = cellgraph.prune_stack(masks, 0, n - 1)
    kept = keep[:, 0]
    # a pruned structure is its edge bits; count each once
    _, first = np.unique(pruned[kept][:, rows, cols] @ bits, return_index=True)
    return tuple(int(c) for c in np.bincount(keep[kept][first, 1:n - 1].sum(axis=1)))


# gen-stream u64s drawn per block: each block is analysed for every start
# position at once, so this bounds sampling's transient memory
GEN_BLOCK = 16384


def _sample_attempts(spec: SyntheticSpec, blocks):
    """Yield one item per sampling attempt, in draw order: None when the
    attempt gives no cell, else the cell's key, the pair of its pruned
    adjacency's bytes and its op ids.  ``blocks`` yields the gen stream's
    u64 draws (uint64 arrays), block after block.

    Every start position of a block is analysed at once: whether its edge
    window reaches the sink, which nodes pruning keeps, and where its op
    draws end, so the next attempt's start.  Only that chain of starts is
    walked in Python, one step per attempt; draws past the last complete
    attempt carry over to the next block."""
    n, k = spec.num_nodes, spec.vocab_size - 3
    rows, cols = np.triu_indices(n, 1)
    width = rows.size  # edge draws per attempt
    edges = list(enumerate(zip(rows.tolist(), cols.tolist())))
    # the largest draw randint(k) keeps: one below the largest multiple of
    # k that is at most 2**64
    top = (1 << 64) - (1 << 64) % k - 1 if k else 0
    buf = np.empty(0, dtype=np.uint64)
    for block in blocks:
        buf = np.concatenate((buf, block))
        count = buf.size - width + 1  # starts with a whole edge window
        if count <= 0:
            continue
        # randint(2) never redraws, and its draw is the u64's low bit; edge e
        # of the attempt starting at p is bit p + e, so for every start at
        # once it is the slice bits[e:e + count]
        bits = (buf & 1).astype(bool)
        fwd = np.zeros((n, count), dtype=bool)  # reached from node 0
        back = np.zeros((n, count), dtype=bool)  # reaches node n - 1
        fwd[0] = back[n - 1] = True
        # row by row, each node's reach is final before an edge reads it
        for e, (i, j) in edges:
            fwd[j] |= fwd[i] & bits[e:e + count]
        for e, (i, j) in reversed(edges):
            back[i] |= back[j] & bits[e:e + count]
        keep = fwd & back  # no node at all when the sink is unreachable
        kept = keep[1:n - 1].sum(axis=0)
        # an attempt gives a cell when the sink is reachable and, with no
        # interior op (k = 0), no interior node is kept; a cell takes one op
        # draw per kept interior node, the first accepted draws after its
        # edges, and an attempt with no cell takes none
        made = keep[0] if k else keep[0] & (kept == 0)
        ops_drawn = kept * made
        accepted = np.flatnonzero(buf <= top)
        follow = np.arange(count) + width
        first = np.searchsorted(accepted, follow)
        last = first + ops_drawn - 1
        nxt = follow.copy()  # where the next attempt starts
        drawn = (ops_drawn > 0) & (last < accepted.size)
        nxt[drawn] = accepted[last[drawn]] + 1
        nxt[last >= accepted.size] = -1  # runs past this block's draws
        starts, pos = [], 0
        while pos < count and (step := nxt.item(pos)) >= 0:
            starts.append(pos)
            pos = step
        made = made[starts]
        hits = np.asarray(starts, dtype=np.int64)[made]
        hit_keep = keep[:, hits].T
        adj = np.zeros((hits.size, n * n), dtype=np.uint8)
        adj[:, rows * n + cols] = (bits[hits[:, None] + np.arange(width)]
                                   & hit_keep[:, rows] & hit_keep[:, cols])
        ops = np.full((hits.size, n), OP_NONE, dtype=np.int64)
        ops[:, 0], ops[:, n - 1] = OP_INPUT, OP_OUTPUT
        inner, inner_keep = ops[:, 1:n - 1], hit_keep[:, 1:n - 1]
        if k:
            draw = first[hits][:, None] + np.cumsum(inner_keep, axis=1) - 1
            inner[inner_keep] = 3 + buf[accepted[draw[inner_keep]]] % k
        keys = iter(zip(adj.view(np.dtype((np.void, n * n))).ravel().tolist(),
                        map(tuple, ops.tolist())))
        for hit in made.tolist():
            yield next(keys) if hit else None
        buf = buf[pos:]


@dataclass(frozen=True, eq=False)
class TabularBenchmark:
    """Architectures with ground-truth accuracies and optional proxy vectors."""

    name: str
    vocab: OpVocabulary
    archs: tuple[CellArch, ...]
    accuracies: dict[int, float]
    proxies: SupplementalTable | None
    metadata: dict[str, str]
    cells_per_arch: int
    num_nodes: int

    def __post_init__(self):
        object.__setattr__(self, "archs", tuple(self.archs))
        ids = [a.arch_id for a in self.archs]
        if len(set(ids)) != len(ids):
            raise BenchmarkError("duplicate arch ids")
        if set(ids) != set(self.accuracies):
            raise BenchmarkError("accuracies do not cover exactly the arch ids")
        by_id = {a.arch_id: a for a in self.archs}
        object.__setattr__(self, "_by_id", by_id)

    def __len__(self) -> int:
        return len(self.archs)

    @property
    def space_id(self) -> int:
        return self.vocab.space_id

    @property
    def arch_ids(self) -> tuple[int, ...]:
        return tuple(a.arch_id for a in self.archs)

    def arch(self, arch_id: int) -> CellArch:
        try:
            return self._by_id[arch_id]
        except KeyError:
            raise BenchmarkError(f"unknown arch id {arch_id}") from None

    def accuracy(self, arch_id: int) -> float:
        try:
            return self.accuracies[arch_id]
        except KeyError:
            raise BenchmarkError(f"unknown arch id {arch_id}") from None

    def accuracy_vector(self, arch_ids) -> np.ndarray:
        return np.array([self.accuracy(i) for i in arch_ids], dtype=np.float64)


def _arch_normals(root: Rng, tag: str, archs, count: int, sigma: float) -> np.ndarray:
    """``count`` normal(0, sigma) draws per arch, each from the arch's own
    ``root.child(tag, arch_id)`` stream, as an (archs, count) array."""
    streams = child_streams(root, tag, [a.arch_id for a in archs])
    return batch_normal(streams, count, 0.0, sigma)


def generate_synthetic(
    spec: SyntheticSpec, name: str | None = None, space_id: int = 0
) -> TabularBenchmark:
    """Sample a distinct-architecture benchmark from a synthetic spec."""
    vocab = make_vocab(space_id, spec.vocab_size)
    rng = Rng(spec.seed).child("gen")
    seen: set[tuple[bytes, tuple[int, ...]]] = set()
    cells: list[CellGraph] = []
    exact = count_distinct_cells(spec.num_nodes, spec.vocab_size)
    if exact is not None and exact < spec.num_archs:
        raise BenchmarkError(
            f"space holds only {exact} distinct cells, "
            f"cannot sample {spec.num_archs}"
        )
    budget = 10_000 + 500 * spec.num_archs
    n = spec.num_nodes
    blocks = (batch_u64([rng], [GEN_BLOCK])[0] for _ in itertools.count())
    for attempts, key in enumerate(_sample_attempts(spec, blocks), 1):
        if attempts > budget:
            raise BenchmarkError(
                f"gave up after {budget} attempts sampling {spec.num_archs} "
                "distinct cells; the space is too small or nearly exhausted"
            )
        if key is None or key in seen:
            continue
        seen.add(key)
        adjacency, ops = key
        cells.append(CellGraph(np.frombuffer(adjacency, dtype=np.uint8).reshape(n, n),
                               ops, space_id))
        if len(cells) == spec.num_archs:
            break
    archs = tuple(
        CellArch((cell,), arch_id=i) for i, cell in enumerate(cells)
    )

    raw = score_feature_matrix(archs, vocab)
    utils = spec.utilities()
    noise_root = Rng(spec.seed)
    noises = [0.0] * len(archs)
    if spec.noise_sigma > 0.0:
        noises = _arch_normals(noise_root, "noise", archs, 1, spec.noise_sigma)[:, 0].tolist()
    accuracies: dict[int, float] = {}
    for arch, longest, noise in zip(archs, raw[:, 2].tolist(), noises):
        cell = arch.cells[0]
        base = sum(utils[op] for op in cell.op_ids) / spec.num_nodes
        depth = spec.interaction_scale * longest / spec.num_nodes
        z = base + depth + noise
        accuracies[arch.arch_id] = 1.0 / (1.0 + math.exp(-z))

    feats = zscore_columns(raw)
    acc_vec = np.array([accuracies[a.arch_id] for a in archs], dtype=np.float64)
    zacc = zscore_columns(acc_vec.reshape(-1, 1)).reshape(-1)
    dim = feats.shape[1]
    draws = _arch_normals(noise_root, "proxy", archs, dim, 0.5)
    proxy = 0.5 * feats + 0.5 * (zacc[:, None] + draws)
    proxies = SupplementalTable(
        "zcp", dim, {a.arch_id: p for a, p in zip(archs, proxy)}
    )

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


def export(bench: TabularBenchmark, path) -> None:
    """Write flan-bench/1 JSONL; byte-identical for equal benchmarks.

    "count" and "metadata" are extras beyond the core header keys; readers
    that do not know them can ignore them.
    """
    zcp_dim = bench.proxies.dim if bench.proxies is not None else 0
    header = {
        "format": BENCH_FORMAT,
        "name": bench.name,
        "space_id": bench.space_id,
        "num_nodes": bench.num_nodes,
        "cells_per_arch": bench.cells_per_arch,
        "ops": list(bench.vocab.op_names),
        "count": len(bench),
        "zcp_dim": zcp_dim,
        "metadata": dict(sorted(bench.metadata.items())),
    }
    proxies = bench.proxies.vectors if bench.proxies is not None else {}

    def records():
        for arch in sorted(bench.archs, key=lambda a: a.arch_id):
            record = {
                "id": arch.arch_id,
                "cells": [{"adj": c.adjacency.astype(int).tolist(),
                           "ops": list(c.op_ids)} for c in arch.cells],
                "acc": bench.accuracy(arch.arch_id),
            }
            if arch.arch_id in proxies:
                record["zcp"] = [float(v) for v in proxies[arch.arch_id]]
            yield record

    write_jsonl(path, header, records())


_check = partial(check_field, BenchmarkError)
_need = partial(need_field, BenchmarkError)


def ingest(path) -> TabularBenchmark:
    """Read and fully validate a flan-bench/1 file.

    Every record is parsed first; the cells are then validated in one pass,
    and the first invalid cell is reported with its line.
    """
    rows = read_jsonl(path, BENCH_FORMAT, BenchmarkError, "benchmark")
    header = next(rows)
    name = _need(header, "name", 1, "str")
    space_id = _need(header, "space_id", 1, "int")
    num_nodes = _need(header, "num_nodes", 1, "int")
    cells_per_arch = _need(header, "cells_per_arch", 1, "int")
    op_names = _need(header, "ops", 1, "strings")
    if cells_per_arch not in (1, 2):
        raise BenchmarkError(f"cells_per_arch must be 1 or 2, got {cells_per_arch}", 1)
    try:
        vocab = OpVocabulary(space_id, tuple(op_names))
    except ValueError as exc:
        raise BenchmarkError(f"bad vocabulary: {exc}", 1) from None
    zcp_dim = _check(header.get("zcp_dim", 0), "zcp_dim", 1, "int")
    if zcp_dim < 0:
        raise BenchmarkError(f"zcp_dim must be >= 0, got {zcp_dim}", 1)
    metadata = _check(header.get("metadata", {}), "metadata", 1, "object")

    archs: list[CellArch] = []
    accuracies: dict[int, float] = {}
    proxy_vectors: dict[int, np.ndarray] = {}
    for line, arch_id, rec in rows:
        cells_raw = _need(rec, "cells", line, "list")
        if len(cells_raw) != cells_per_arch:
            raise BenchmarkError(
                f"expected {cells_per_arch} cells, got {len(cells_raw)}", line
            )
        cells = []
        for cell_raw in cells_raw:
            adj = _need(cell_raw, "adj", line, "list")
            for r, row in enumerate(adj):
                _check(row, f"adj[{r}]", line, "list")
            ops = _need(cell_raw, "ops", line, "integers")
            if len(adj) != num_nodes or any(len(row) != num_nodes for row in adj):
                raise BenchmarkError(
                    f"adjacency must be {num_nodes}x{num_nodes}", line
                )
            # JSON true and 1.0 compare equal to 1 but are not integers
            if any(type(v) is not int or v not in (0, 1) for row in adj for v in row):
                raise BenchmarkError("adjacency entries must be 0 or 1", line)
            if len(ops) != num_nodes:
                raise BenchmarkError(
                    f"ops must list {num_nodes} entries, got {len(ops)}", line
                )
            try:
                cell = CellGraph(adj, ops, vocab.space_id)
            except ValueError as exc:
                raise BenchmarkError(f"bad cell: {exc}", line) from None
            cells.append(cell)
        try:
            arch = CellArch(tuple(cells), arch_id)
        except ValueError as exc:
            raise BenchmarkError(f"bad arch: {exc}", line) from None
        accuracy = _need(rec, "acc", line, "number")
        if not math.isfinite(accuracy) or not 0.0 <= accuracy <= 1.0:
            raise BenchmarkError(f"acc must be in [0, 1], got {accuracy}", line)
        if zcp_dim > 0:
            # zcp is optional per record; lookups of archs without one fail
            # loudly at supplemental-provider time
            if "zcp" in rec:
                proxy_vectors[arch_id] = need_vector(BenchmarkError, rec, "zcp", line,
                                                     zcp_dim)
        elif "zcp" in rec:
            raise BenchmarkError("record carries zcp but header zcp_dim is 0", line)
        archs.append(arch)
        accuracies[arch_id] = accuracy

    diags = cellgraph.validate_cells([c for a in archs for c in a.cells], vocab.size)
    for k, diag in enumerate(diags):
        if diag is not None:
            raise BenchmarkError(f"invalid cell: {diag}", 2 + k // cells_per_arch)

    proxies = (
        SupplementalTable("zcp", zcp_dim, proxy_vectors) if zcp_dim > 0 else None
    )
    return TabularBenchmark(
        name=name,
        vocab=vocab,
        archs=tuple(archs),
        accuracies=accuracies,
        proxies=proxies,
        metadata={str(k): str(v) for k, v in metadata.items()},
        cells_per_arch=cells_per_arch,
        num_nodes=num_nodes,
    )


def split(bench: TabularBenchmark, train_count: int, seed: int):
    """Deterministic shuffled train/test split; both sides returned sorted."""
    n = len(bench)
    try:
        count = operator.index(train_count)
    except TypeError:
        count = 0
    if isinstance(train_count, bool) or not 1 <= count <= n - 1:
        raise BenchmarkError(f"train_count must be an integer in [1, {n - 1}] "
                             f"for {n} archs, got {train_count!r}")
    ids = list(bench.arch_ids)
    Rng(seed).child("split").shuffle(ids)
    return tuple(sorted(ids[:count])), tuple(sorted(ids[count:]))
