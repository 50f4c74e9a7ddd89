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
So is canonical_order, which sorts each cell's nodes by Weisfeiler-Lehman
colour, so that a relabeled cell gives the same arrays.
"""

from __future__ import annotations

import operator
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
        raw = np.asarray(adjacency)
        if raw.dtype.kind not in "biuf":
            raise CellError(f"adjacency must hold numbers, got {raw.dtype}")
        # binarized before any narrowing: every nonzero entry is an edge
        adj = (raw != 0).astype(np.uint8)
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
            raise CellError(f"adjacency must be square, got shape {adj.shape}")
        try:
            ops = tuple(map(operator.index, op_ids))
            space_id = operator.index(space_id)
        except TypeError:
            raise CellError(f"op ids and space_id must be integers, got "
                            f"{op_ids!r} and {space_id!r}") from None
        if len(ops) != adj.shape[0]:
            raise CellError(
                f"op_ids length {len(ops)} does not match {adj.shape[0]} nodes"
            )
        if adj.shape[0] < 2:
            raise CellError("a cell needs at least two nodes")
        if any(o < 0 for o in ops):
            raise CellError("op ids must be non-negative")
        adj.flags.writeable = False
        self.num_nodes = adj.shape[0]
        self.adjacency = adj
        self.op_ids = ops
        self.space_id = space_id

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
    nodes included), op ids inside the vocabulary, one source and one sink
    in the active subgraph, and no input or output op on an interior
    active node (the lowest is named), which every encoder refuses too.
    One reachability closure of the raw adjacency stack finds cycles: an
    edge i -> j closes one when j reaches i.  Every node of a DAG descends
    from a source and reaches a sink, so a unique source and sink put every
    active node on a path between them.
    Messages are formatted only for the cells that fail.  Padding nodes
    carry the none op, which every vocabulary (size >= 3) covers.
    """
    _, ops, sources, sinks, raw = stack_cells(cells)
    loops = np.diagonal(raw, axis1=1, axis2=2) != 0
    cyclic = ((raw != 0) & _closure(raw).transpose(0, 2, 1)).any(axis=(1, 2))
    bad_op = ops >= vocab_size
    one_end = (sources.sum(axis=1) == 1) & (sinks.sum(axis=1) == 1)
    reserved = (ops < OP_NONE) & ~sources & ~sinks  # none nodes are neither
    failing = (loops.any(axis=1) | cyclic | bad_op.any(axis=1) | ~one_end
               | reserved.any(axis=1))
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
        elif not one_end[k]:
            out[k] = (
                f"disconnected: expected one source and one sink, found "
                f"sources {np.flatnonzero(sources[k]).tolist()} and "
                f"sinks {np.flatnonzero(sinks[k]).tolist()}"
            )
        else:
            i = reserved[k].argmax()
            out[k] = f"interior node {i} carries reserved op {ops[k, i]}"
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


_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_PRED_SALT, _SUCC_SALT = np.uint64(0x632BE59BD9B4E019), np.uint64(0x85157AF5D2C1F6B3)


def _mix(z: np.ndarray) -> np.ndarray:
    """splitmix64's finaliser over a uint64 array (wrapping arithmetic)."""
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def canonical_order(adjacency: np.ndarray, ops: np.ndarray) -> np.ndarray:
    """(M, n) node orders for an (M, n, n) stack of active adjacencies and
    its (M, n) op ids: order[m] lists graph m's active nodes, sorted by
    Weisfeiler-Lehman colour, then its none nodes.

    A node's colour starts as a hash of its op.  Each round hashes it with
    the wrapping sums of its predecessors' and its successors' salted
    colours, which are multiset hashes, so colours depend on the graph and
    not on its labeling.  A graph runs one round per active node, whatever
    the stack holds besides it.  Nodes of one colour keep their given
    order; 1-WL does not tell them apart, and neither does a
    message-passing network (Xu et al., ICLR 2019).
    """
    adj = np.asarray(adjacency).astype(np.uint64)
    ops = np.asarray(ops)
    active = ops != OP_NONE
    rounds = active.sum(axis=1)[:, None]
    colour = _mix(ops.astype(np.uint64) + _GOLDEN)
    # adj[m, i, j] is the edge i -> j: a node's column holds its
    # predecessors, its row its successors
    adj_t = adj.transpose(0, 2, 1)
    for r in range(int(rounds.max(initial=0))):
        pred = np.matmul(adj_t, _mix(colour ^ _PRED_SALT)[:, :, None])[:, :, 0]
        succ = np.matmul(adj, _mix(colour ^ _SUCC_SALT)[:, :, None])[:, :, 0]
        colour = np.where(r < rounds, _mix(_mix(colour + pred) + succ), colour)
    return np.lexsort((colour, ~active), axis=-1)


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
