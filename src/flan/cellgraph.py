"""Cell DAG containers and their invariants.

A cell is a small directed acyclic graph whose nodes carry operation ids.
Three ids are reserved in every vocabulary: 0 is the cell input, 1 the cell
output, 2 the none/pad marker.  Edges run adjacency[i][j] = 1 for i -> j.
Nodes carrying the none op are inert: their edges are ignored and they are
excluded from every connectivity requirement, which is how differently sized
cells coexist in one padded space.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

OP_INPUT = 0
OP_OUTPUT = 1
OP_NONE = 2
RESERVED_OP_NAMES = ("input", "output", "none")


class CellError(ValueError):
    """Raised for malformed cells or architectures."""


@dataclass(frozen=True)
class OpVocabulary:
    """Operation names for one search space; ids are positions in op_names."""

    space_id: int
    op_names: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "op_names", tuple(self.op_names))
        if self.space_id < 0:
            raise CellError(f"space_id must be non-negative, got {self.space_id}")
        if len(self.op_names) < 3 or self.op_names[:3] != RESERVED_OP_NAMES:
            raise CellError(
                "op_names must start with the reserved triple "
                f"{RESERVED_OP_NAMES}, got {self.op_names[:3]}"
            )
        if len(set(self.op_names)) != len(self.op_names):
            raise CellError("op names must be unique")

    @property
    def size(self) -> int:
        return len(self.op_names)

    @property
    def interior_op_ids(self) -> tuple[int, ...]:
        """Ids selectable for interior nodes (everything past the reserved triple)."""
        return tuple(range(3, len(self.op_names)))


class CellGraph:
    """One cell: an op-labelled DAG. Immutable after construction."""

    __slots__ = ("num_nodes", "adjacency", "op_ids", "space_id")

    def __init__(self, adjacency, op_ids, space_id: int):
        adj = np.asarray(adjacency, dtype=np.uint8).copy()
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
            raise CellError(f"adjacency must be square, got shape {adj.shape}")
        ops = tuple(int(o) for o in op_ids)
        if len(ops) != adj.shape[0]:
            raise CellError(
                f"op_ids length {len(ops)} does not match {adj.shape[0]} nodes"
            )
        if adj.shape[0] < 2:
            raise CellError("a cell needs at least two nodes")
        if any(o < 0 for o in ops):
            raise CellError("op ids must be non-negative")
        adj[adj != 0] = 1
        adj.flags.writeable = False
        self.num_nodes = adj.shape[0]
        self.adjacency = adj
        self.op_ids = ops
        self.space_id = int(space_id)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CellGraph):
            return NotImplemented
        return (
            self.space_id == other.space_id
            and self.op_ids == other.op_ids
            and np.array_equal(self.adjacency, other.adjacency)
        )

    def __hash__(self) -> int:
        return hash((self.space_id, self.op_ids, self.adjacency.tobytes()))

    def __repr__(self) -> str:
        return (
            f"CellGraph(n={self.num_nodes}, space={self.space_id}, "
            f"ops={self.op_ids})"
        )

    def active_nodes(self) -> tuple[int, ...]:
        return tuple(i for i, o in enumerate(self.op_ids) if o != OP_NONE)

    def active_adjacency(self) -> np.ndarray:
        """Adjacency with every edge touching a none node removed."""
        return stack_cells([self]).adjacency[0]


@dataclass(frozen=True)
class CellArch:
    """An architecture: one or two cells plus its benchmark id."""

    cells: tuple[CellGraph, ...]
    arch_id: int

    def __post_init__(self):
        object.__setattr__(self, "cells", tuple(self.cells))
        if not 1 <= len(self.cells) <= 2:
            raise CellError(f"an arch holds 1 or 2 cells, got {len(self.cells)}")
        space_ids = {c.space_id for c in self.cells}
        if len(space_ids) != 1:
            raise CellError(f"cells of one arch must share a space, got {space_ids}")
        if self.arch_id < 0:
            raise CellError(f"arch_id must be non-negative, got {self.arch_id}")

    @property
    def space_id(self) -> int:
        return self.cells[0].space_id


def topo_order(adjacency: np.ndarray) -> list[int] | None:
    """Kahn topological order, or None when the graph has a cycle."""
    n = adjacency.shape[0]
    indeg = adjacency.sum(axis=0).astype(np.int64)
    queue = [i for i in range(n) if indeg[i] == 0]
    order: list[int] = []
    while queue:
        u = queue.pop()
        order.append(u)
        for v in np.nonzero(adjacency[u])[0]:
            indeg[v] -= 1
            if indeg[v] == 0:
                queue.append(int(v))
    return order if len(order) == n else None


def _reach(adjacency: np.ndarray, start: int, forward: bool) -> set[int]:
    adj = adjacency if forward else adjacency.T
    seen = {start}
    stack = [start]
    while stack:
        u = stack.pop()
        for v in np.nonzero(adj[u])[0]:
            v = int(v)
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return seen


def validate(cell: CellGraph, vocab_size: int) -> str | None:
    """None when the cell is well formed, else a short diagnostic.

    Checks, in order: acyclicity (self loops included), op ids inside the
    vocabulary, and connectivity of the active subgraph: exactly one source,
    exactly one sink, and every active node on some source-to-sink path.
    """
    if np.any(np.diag(cell.adjacency)):
        node = int(np.nonzero(np.diag(cell.adjacency))[0][0])
        return f"cycle: node {node} has a self loop"
    if topo_order(cell.adjacency) is None:
        return "cycle: adjacency is not acyclic"
    for i, op in enumerate(cell.op_ids):
        if op >= vocab_size:
            return f"op out of range: node {i} has op {op}, vocabulary size {vocab_size}"
    active = cell.active_nodes()
    if not active:
        return "disconnected: no active nodes"
    (adj,), _, (sources,), (sinks,) = stack_cells([cell])
    sources, sinks = np.flatnonzero(sources).tolist(), np.flatnonzero(sinks).tolist()
    if len(sources) != 1 or len(sinks) != 1:
        return (
            f"disconnected: expected one source and one sink, "
            f"found sources {sources} and sinks {sinks}"
        )
    src, dst = sources[0], sinks[0]
    from_src = _reach(adj, src, forward=True)
    to_dst = _reach(adj, dst, forward=False)
    for i in active:
        if i not in from_src or i not in to_dst:
            return f"disconnected: node {i} is on no path from {src} to {dst}"
    return None


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
    ops = [0] * n
    for i in range(n):
        ops[perm[i]] = cell.op_ids[i]
        for j in np.nonzero(cell.adjacency[i])[0]:
            adj[perm[i], perm[int(j)]] = 1
    return CellGraph(adj, ops, cell.space_id)


class CellStack(NamedTuple):
    """Cells padded to one node count: (M, n, n) active adjacencies, (M, n)
    op ids, and (M, n) masks of the active nodes without in-edges (sources)
    and without out-edges (sinks)."""

    adjacency: np.ndarray
    ops: np.ndarray
    sources: np.ndarray
    sinks: np.ndarray

    def ends(self) -> tuple[np.ndarray, np.ndarray]:
        """Index arrays of each cell's unique source and sink."""
        if ((self.sources.sum(axis=1) != 1).any()
                or (self.sinks.sum(axis=1) != 1).any()):
            raise CellError("cell has no unique source/sink; validate first")
        return self.sources.argmax(axis=1), self.sinks.argmax(axis=1)


def stack_cells(cells) -> CellStack:
    """Stack cells, padding each to the largest node count with none nodes
    and clearing every edge that touches a none node."""
    n = max((c.num_nodes for c in cells), default=0)
    adj = np.zeros((len(cells), n, n), dtype=np.uint8)
    ops = np.full((len(cells), n), OP_NONE, dtype=np.int64)
    for k, c in enumerate(cells):
        adj[k, :c.num_nodes, :c.num_nodes] = c.adjacency
        ops[k, :c.num_nodes] = c.op_ids
    active = ops != OP_NONE
    adj &= active[:, :, None] & active[:, None, :]
    return CellStack(adj, ops, active & ~adj.any(1), active & ~adj.any(2))


def source_and_sink(cell: CellGraph) -> tuple[int, int]:
    """The unique active source and sink of a valid cell."""
    src, dst = stack_cells([cell]).ends()
    return int(src[0]), int(dst[0])


def prune_to_paths(adjacency: np.ndarray, op_ids, src: int, dst: int):
    """Canonical form: keep only nodes on some src -> dst path.

    Dropped nodes get op none and lose all edges.  Returns (adjacency,
    op_ids) or None when dst is unreachable from src.
    """
    from_src = _reach(adjacency, src, forward=True)
    to_dst = _reach(adjacency, dst, forward=False)
    keep = from_src & to_dst
    if src not in keep or dst not in keep:
        return None
    adj = np.array(adjacency, dtype=np.uint8, copy=True)
    ops = list(op_ids)
    for i in range(adj.shape[0]):
        if i not in keep:
            adj[i, :] = 0
            adj[:, i] = 0
            ops[i] = OP_NONE
    return adj, ops
