"""Cell DAG containers and their invariants.

A cell is a small directed acyclic graph whose nodes carry operation ids.
Three ids are reserved in every vocabulary: 0 is the cell input, 1 the cell
output, 2 the none/pad marker.  Edges run adjacency[i][j] = 1 for i -> j.
Nodes carrying the none op are inert: their edges are ignored and they are
excluded from every connectivity requirement, which is how differently sized
cells coexist in one padded space.

Every connectivity question (acyclicity, source-to-sink reachability,
pruning to the source-to-sink paths) is answered by one boolean
reachability closure over a padded stack of cells, so validating or
pruning many cells is one array pass rather than a graph walk per cell.
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
        sizes = {c.num_nodes for c in self.cells}
        if len(sizes) != 1:
            raise CellError(f"cells of one arch must share a node count, got {sizes}")
        if self.arch_id < 0:
            raise CellError(f"arch_id must be non-negative, got {self.arch_id}")

    @property
    def space_id(self) -> int:
        return self.cells[0].space_id


def _closure(adj: np.ndarray) -> np.ndarray:
    """Reflexive-transitive reachability of each graph in an (M, n, n) stack:
    out[m, i, j] is True when j is reachable from i in adj[m], or i == j.

    A reachable node is reachable by a path of at most n - 1 edges, cyclic
    graphs included, and each boolean squaring doubles the path length
    covered, so ceil(log2(n - 1)) squarings suffice.
    """
    n = adj.shape[-1]
    r = (adj != 0) | np.eye(n, dtype=bool)
    for _ in range(max(n - 2, 0).bit_length()):
        r = (r.astype(np.int64) @ r) > 0
    return r


def validate_cells(cells, vocab_size: int) -> list[str | None]:
    """Per cell, None when it is well formed, else a short diagnostic.

    Checks, in order: acyclicity (self loops first, then any cycle, none
    nodes included), op ids inside the vocabulary, and one source and one
    sink in the active subgraph.  One reachability closure of the raw
    adjacency stack finds cycles: an edge i -> j closes one when j reaches
    i.  Every node of a DAG descends from a source and reaches a sink, so a
    unique source and sink put every active node on a path between them.
    Messages are formatted only for the cells that fail.  Padding nodes
    carry the none op, which every vocabulary (size >= 3) covers.
    """
    _, ops, sources, sinks, raw = stack_cells(cells)
    loops = np.diagonal(raw, axis1=1, axis2=2) != 0
    cyclic = ((raw != 0) & _closure(raw).transpose(0, 2, 1)).any(axis=(1, 2))
    bad_op = ops >= vocab_size
    one_end = (sources.sum(axis=1) == 1) & (sinks.sum(axis=1) == 1)
    failing = loops.any(axis=1) | cyclic | bad_op.any(axis=1) | ~one_end
    out: list[str | None] = [None] * len(cells)
    for k in np.flatnonzero(failing).tolist():
        if loops[k].any():
            out[k] = f"cycle: node {loops[k].argmax()} has a self loop"
        elif cyclic[k]:
            out[k] = "cycle: adjacency is not acyclic"
        elif bad_op[k].any():
            i = bad_op[k].argmax()
            out[k] = (f"op out of range: node {i} has op {ops[k, i]}, "
                      f"vocabulary size {vocab_size}")
        elif not (ops[k] != OP_NONE).any():
            out[k] = "disconnected: no active nodes"
        else:
            out[k] = (
                f"disconnected: expected one source and one sink, found "
                f"sources {np.flatnonzero(sources[k]).tolist()} and "
                f"sinks {np.flatnonzero(sinks[k]).tolist()}"
            )
    return out


class CellStack(NamedTuple):
    """Cells padded to one node count: (M, n, n) active adjacencies, (M, n)
    op ids, (M, n) masks of the active nodes without in-edges (sources) and
    without out-edges (sinks), and the (M, n, n) raw adjacencies, edges
    touching none nodes included."""

    adjacency: np.ndarray
    ops: np.ndarray
    sources: np.ndarray
    sinks: np.ndarray
    raw: np.ndarray

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
    raw = np.zeros((len(cells), n, n), dtype=np.uint8)
    ops = np.full((len(cells), n), OP_NONE, dtype=np.int64)
    for k, c in enumerate(cells):
        raw[k, :c.num_nodes, :c.num_nodes] = c.adjacency
        ops[k, :c.num_nodes] = c.op_ids
    active = ops != OP_NONE
    adj = raw & active[:, :, None] & active[:, None, :]
    return CellStack(adj, ops, active & ~adj.any(1), active & ~adj.any(2), raw)


def prune_stack(adjacency: np.ndarray, src: int, dst: int):
    """prune_to_paths() for every graph of an (M, n, n) stack: returns the
    pruned stack and the (M, n) kept-node masks; a graph where dst is
    unreachable from src keeps no node and no edge."""
    reach = _closure(np.asarray(adjacency))
    keep = reach[:, src] & reach[:, :, dst]
    adj = np.array(adjacency, dtype=np.uint8, copy=True)
    adj[~(keep[:, :, None] & keep[:, None, :])] = 0
    return adj, keep


def prune_to_paths(adjacency: np.ndarray, src: int, dst: int):
    """Canonical form: keep only nodes on some src -> dst path, dropping
    the edges of all others.  Returns (adjacency, kept-node bool mask), or
    None when dst is unreachable from src."""
    (adj,), (keep,) = prune_stack(np.asarray(adjacency)[None], src, dst)
    return (adj, keep) if keep[src] else None
