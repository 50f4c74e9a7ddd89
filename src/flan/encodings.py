"""Architecture encodings: structural vectors, score features, unified op ids.

Adjacency encoding flattens the strict upper triangle of each cell plus a
one-hot per node op, so it assumes topologically relabelled (upper
triangular) cells and refuses anything else.  Path encoding enumerates
interior op sequences along input-to-output paths; its index depends only on
the op sequence, never on node labels.  Score features are eight cheap graph
statistics used both as a supplemental predictor input and to derive the
synthetic proxy metrics.

The one-arch encoders (`encode_adjacency`, `encode_path`, `score_features`)
work on one cell at a time: path and score walk each cell's successor
lists in plain Python, which for one small cell costs far less than a
padded array pass, and they refuse a cell whose active nodes form a cycle.
`score_feature_matrix` scores many archs in one array pass over a cell
stack and refuses such a cell too.

Unified ids make vocabularies from several spaces share one embedding table:
ids 0/1/2 (input/output/none) are common, every other (space, op) pair gets
its own id.  ``unify`` builds the table sorted by space id so the assignment
is independent of argument order; ``UnifiedVocabulary.extend`` appends a new
space while preserving all existing ids, which is what transfer needs.
"""

from __future__ import annotations

import functools
import itertools
import json
import operator
import re
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import cellgraph
from ._kernels import dag_path_stats
from .cellgraph import CellArch, CellError, CellGraph, OpVocabulary, OP_NONE

PATH_COUNT_CAP = 1 << 16
# the most dimensions one cell's path block may have; a larger block (24
# nodes and 5 interior ops index 3e15 sequences) is refused before any
# allocation, and max_paths truncates the block to fit
PATH_DIM_CAP = 1 << 20

ENCODING_KINDS = ("adjacency", "path", "score")


class EncodingError(ValueError):
    """Raised when an architecture cannot be encoded as requested."""


@dataclass(frozen=True, eq=False)
class EncodingVector:
    kind: str
    values: np.ndarray

    def __post_init__(self):
        if self.kind not in ENCODING_KINDS:
            raise EncodingError(f"unknown encoding kind {self.kind!r}")
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.ndim != 1:
            raise EncodingError(f"encoding must be 1-d, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise EncodingError("encoding contains non-finite values")
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    @property
    def dim(self) -> int:
        return self.values.shape[0]


_CYCLE_ERROR = "cell has a cycle among its active nodes; validate first"


class _CellWalk(NamedTuple):
    """A cell's active subgraph as successor lists (ascending), its unique
    source and sink, and its active nodes in topological order."""

    succ: list[list[int]]
    src: int
    dst: int
    order: list[int]


def _cell_walk(cell: CellGraph) -> _CellWalk:
    """The `_CellWalk` of one cell, with every edge that touches a none
    node dropped, as a padded cell stack drops it.

    Raises the CellError of ``CellStack.ends`` unless the active subgraph
    has one source and one sink, and an EncodingError when it has a cycle:
    then some active node never loses its last in-edge.
    """
    ops = cell.op_ids
    succ: list[list[int]] = [[] for _ in ops]
    indegree = [0] * len(ops)
    rows, cols = cell.adjacency.nonzero()
    for i, j in zip(rows.tolist(), cols.tolist()):
        if ops[i] != OP_NONE and ops[j] != OP_NONE:
            succ[i].append(j)
            indegree[j] += 1
    active = [i for i, op in enumerate(ops) if op != OP_NONE]
    sources = [i for i in active if not indegree[i]]
    sinks = [i for i in active if not succ[i]]
    if len(sources) != 1 or len(sinks) != 1:
        raise CellError("cell has no unique source/sink; validate first")
    order = list(sources)
    for node in order:  # grows as nodes lose their last in-edge
        for nxt in succ[node]:
            indegree[nxt] -= 1
            if not indegree[nxt]:
                order.append(nxt)
    if len(order) != len(active):
        raise EncodingError(_CYCLE_ERROR)
    return _CellWalk(succ, sources[0], sinks[0], order)


@functools.lru_cache(maxsize=64)
def _upper_triangle(num_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only indices of the strict upper triangle of an adjacency."""
    rows, cols = np.triu_indices(num_nodes, 1)
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols


@functools.lru_cache(maxsize=64)
def _onehot_table(vocab_size: int) -> np.ndarray:
    """Read-only identity whose row i is the one-hot of op i."""
    table = np.eye(vocab_size)
    table.flags.writeable = False
    return table


def encode_adjacency(arch: CellArch, vocab: OpVocabulary) -> EncodingVector:
    """Upper-triangle edge bits followed by per-node op one-hots, per cell."""
    upper = _upper_triangle(arch.cells[0].num_nodes)
    onehots = _onehot_table(vocab.size)
    parts = []
    for cell in arch.cells:
        bits = cell.adjacency[upper]
        # the upper triangle holds every edge when it holds as many as the
        # whole adjacency, diagonal included
        if np.count_nonzero(bits) != np.count_nonzero(cell.adjacency):
            raise EncodingError(
                "adjacency encoding needs a topologically relabelled cell "
                "(upper triangular adjacency)"
            )
        ops = list(cell.op_ids)
        if max(ops) >= vocab.size:
            bad = next(op for op in ops if op >= vocab.size)
            raise EncodingError(f"op {bad} outside vocabulary of size {vocab.size}")
        parts += (bits, onehots[ops].reshape(-1))
    return EncodingVector("adjacency", np.concatenate(parts))


def path_index_size(num_nodes: int, vocab: OpVocabulary) -> int:
    """Number of distinct interior op sequences of length 0..num_nodes-2."""
    k = vocab.size - 3
    max_len = num_nodes - 2
    if k == 0:
        return 1
    return sum(k**length for length in range(max_len + 1))


def _path_indices(walk: _CellWalk, ops: tuple[int, ...], k: int) -> list[int]:
    """The sequence index of every source-to-sink path of a walked cell.

    Sequences are ordered by (length, lexicographic), so the sequences of
    length L fill [offset(L), offset(L) + k**L) with offset(L) the number
    of shorter ones.  A frontier of distinct (node, index) pairs advances
    one path length per step: a step to the sink yields index, a step to
    an interior node with op o moves to offset(L+1) + (index - offset(L))·k
    + (o - 3).  On an acyclic cell the frontier empties within n - 1 steps.
    """
    hits = [0] if walk.src == walk.dst else []
    frontier = {(walk.src, 0)}
    offset, width = 0, 1  # offset(L) and k**L
    while frontier:
        base = offset + width - 3
        step = set()
        for node, index in frontier:
            head = base + (index - offset) * k
            for nxt in walk.succ[node]:
                if nxt == walk.dst:
                    hits.append(index)
                else:
                    step.add((nxt, head + ops[nxt]))
        frontier = step
        offset, width = offset + width, width * k
    return hits


def encode_path(
    arch: CellArch, vocab: OpVocabulary, max_paths: int | None = None
) -> EncodingVector:
    """Binary presence vector over interior op sequences, one block per cell.

    With max_paths the block is truncated (or zero padded) to exactly that
    many dimensions; indices past the limit are dropped.  A block may have
    at most PATH_DIM_CAP (2**20) dimensions: a larger one, from the space or
    from max_paths, raises an EncodingError before anything is allocated.
    A cell whose active nodes form a cycle raises an EncodingError too.
    """
    full = path_index_size(arch.cells[0].num_nodes, vocab)
    try:
        dim = full if max_paths is None else operator.index(max_paths)
    except TypeError:
        dim = 0
    if dim <= 0 or isinstance(max_paths, bool):
        raise EncodingError(f"max_paths must be a positive integer, got {max_paths!r}")
    if dim > PATH_DIM_CAP:
        raise EncodingError(
            f"a path block of {dim} dimensions exceeds the cap of {PATH_DIM_CAP}; "
            f"set max_paths to at most {PATH_DIM_CAP}"
        )
    walks = [_cell_walk(cell) for cell in arch.cells]
    out = np.zeros((len(walks), dim))
    for row, cell, walk in zip(out, arch.cells, walks):
        ops = cell.op_ids
        interior = [i for i in walk.order if i != walk.src and i != walk.dst]
        for i in interior:
            if ops[i] < 3:
                raise EncodingError(f"interior node {i} carries reserved op {ops[i]}")
        for i in interior:
            if ops[i] >= vocab.size:
                raise EncodingError(
                    f"op {ops[i]} is not an interior op of the vocabulary")
        row[[i for i in _path_indices(walk, ops, vocab.size - 3) if i < dim]] = 1.0
    return EncodingVector("path", out.reshape(-1))


_KERNEL_RE = re.compile(r"(\d+)\s*x\s*(\d+)")


def _op_cost(name: str) -> float:
    """Crude parameter-count proxy from an op name."""
    lowered = name.lower()
    if "conv" in lowered:
        found = _KERNEL_RE.search(lowered)
        if found:
            return float(int(found.group(1)) * int(found.group(2)))
        return 9.0
    if any(tag in lowered for tag in ("pool", "skip", "identity", "zero")):
        return 0.0
    return 1.0


@functools.lru_cache(maxsize=64)
def _op_tables(op_names: tuple[str, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Per-op-id lookups: is the op a conv, and its `_op_cost`."""
    conv = np.array(["conv" in name.lower() for name in op_names])
    return conv, np.array([_op_cost(name) for name in op_names])


def zscore_columns(matrix: np.ndarray) -> np.ndarray:
    """Column-wise z-normalization; constant columns map to zeros."""
    mat = np.asarray(matrix, dtype=np.float64)
    mu = mat.mean(axis=0)
    sd = mat.std(axis=0)
    out = np.zeros_like(mat)
    # the rounded mean of equal values can miss them, leaving sd a few ulps
    # above 0, so a column counts as varying only if two entries differ
    nonzero = (sd > 0.0) & np.any(mat != mat[:1], axis=0)
    out[:, nonzero] = (mat[:, nonzero] - mu[nonzero]) / sd[nonzero]
    return out


def _finish_scores(sums: np.ndarray) -> np.ndarray:
    """Score features, in place, from per-arch sums of the per-cell counts.

    Columns 0-4 and 7 of `sums` hold the features' counts; columns 5 and 6
    hold the conv and interior counts until the two ratios replace them.
    """
    sums[:, 4] = np.minimum(sums[:, 4], PATH_COUNT_CAP)
    sums[:, 5] /= np.maximum(sums[:, 6], 1)
    sums[:, 6] = sums[:, 1] / np.maximum(sums[:, 0], 1)
    return sums


def score_features(arch: CellArch, vocab: OpVocabulary) -> EncodingVector:
    """Eight raw graph statistics; z-normalize per benchmark before use.

    Counts each cell by one walk in topological order, so a cell whose
    active nodes form a cycle raises an EncodingError.
    """
    walks = [_cell_walk(cell) for cell in arch.cells]
    top = max(max(cell.op_ids) for cell in arch.cells)
    if top >= vocab.size:
        raise EncodingError(f"op {top} outside vocabulary of size {vocab.size}")
    conv, cost = (table.tolist() for table in _op_tables(vocab.op_names))
    sums = [0] * 8
    for cell, walk in zip(arch.cells, walks):
        ops, src, dst, n = cell.op_ids, walk.src, walk.dst, cell.num_nodes
        # edge counts of the longest and shortest src -> v paths, and their number
        longest, shortest, paths = [0] * n, [n] * n, [0] * n
        shortest[src], paths[src] = 0, 1
        for node in walk.order:
            for nxt in walk.succ[node]:
                longest[nxt] = max(longest[nxt], longest[node] + 1)
                shortest[nxt] = min(shortest[nxt], shortest[node] + 1)
                paths[nxt] += paths[node]
        interior = [ops[i] for i in walk.order if i != src and i != dst]
        counts = (len(walk.order), sum(map(len, walk.succ)),
                  longest[dst], shortest[dst], min(paths[dst], PATH_COUNT_CAP),
                  sum(conv[op] for op in interior), len(interior),
                  sum(cost[op] for op in interior))
        sums = [a + b for a, b in zip(sums, counts)]
    return EncodingVector("score", _finish_scores(np.array([sums], dtype=float))[0])


def score_feature_matrix(archs, vocab: OpVocabulary) -> np.ndarray:
    """(num_archs, 8) raw score features, row order following archs; all
    cells of all archs go through one pass over a padded stack.  Like
    `score_features` it raises an EncodingError for a cell whose active
    nodes form a cycle, since `dag_path_stats` needs acyclic cells.

    A cell whose active adjacency is strictly upper triangular is acyclic as
    it stands, so only the other cells go through the reachability closure.
    """
    archs = list(archs)
    if not archs:
        return np.zeros((0, 8))
    cells = cellgraph.stack_cells([c for arch in archs for c in arch.cells])
    src, dst = cells.ends()
    rows, cols = np.tril_indices(cells.adjacency.shape[-1])
    unordered = cells.adjacency[cells.adjacency[:, rows, cols].any(axis=1)]
    # an edge i -> j closes a cycle when j reaches i
    if (unordered & cellgraph._closure(unordered).transpose(0, 2, 1)).any():
        raise EncodingError(_CYCLE_ERROR)
    ops = cells.ops
    if ops.max() >= vocab.size:
        raise EncodingError(f"op {ops.max()} outside vocabulary of size {vocab.size}")
    conv, cost = _op_tables(vocab.op_names)
    active = ops != OP_NONE
    interior = active & ~cells.sources & ~cells.sinks
    per_cell = np.empty((ops.shape[0], 8))
    per_cell[:, 0] = active.sum(axis=1)
    per_cell[:, 1] = cells.adjacency.sum(axis=(1, 2))
    per_cell[:, 2], per_cell[:, 3], per_cell[:, 4] = dag_path_stats(
        cells.adjacency, src, dst, PATH_COUNT_CAP)
    per_cell[:, 5] = (conv[ops] & interior).sum(axis=1)
    per_cell[:, 6] = interior.sum(axis=1)
    per_cell[:, 7] = (cost[ops] * interior).sum(axis=1)
    starts = np.cumsum([0] + [len(arch.cells) for arch in archs[:-1]])
    return _finish_scores(np.add.reduceat(per_cell, starts, axis=0))


_NO_IDS = np.empty(0, dtype=np.int64)  # an unregistered space's lookup


@dataclass(frozen=True)
class UnifiedVocabulary:
    """Shared op-id assignment across one or more registered spaces.

    Ids 0/1/2 are the reserved input/output/none in every space; each other
    (space, local op) pair owns one id.  ``spaces`` keeps registration order,
    which fixes the id layout and is serialized into checkpoints.  Each
    space keeps one int64 array of its unified ids, indexed by local op.
    """

    spaces: tuple[OpVocabulary, ...]

    def __post_init__(self):
        object.__setattr__(self, "spaces", tuple(self.spaces))
        seen = set()
        for vocab in self.spaces:
            if vocab.space_id in seen:
                raise EncodingError(f"space {vocab.space_id} registered twice")
            seen.add(vocab.space_id)
        lookup: dict[int, np.ndarray] = {}
        nxt = 3
        for vocab in self.spaces:
            interior = len(vocab.interior_op_ids)
            lookup[vocab.space_id] = np.concatenate(
                [np.arange(3), np.arange(nxt, nxt + interior)])
            nxt += interior
        object.__setattr__(self, "_lookup", lookup)
        object.__setattr__(self, "_size", nxt)

    @property
    def size(self) -> int:
        return self._size

    def has_space(self, space_id: int) -> bool:
        return space_id in self._lookup

    def space(self, space_id: int) -> OpVocabulary:
        for vocab in self.spaces:
            if vocab.space_id == space_id:
                return vocab
        raise EncodingError(f"space {space_id} is not registered")

    def map_ops(self, space_id: int, op_ids) -> np.ndarray:
        """The unified ids of an array of one space's local op ids, in its
        shape; the first op without one (in C order) raises."""
        ops = np.asarray(op_ids, dtype=np.int64)
        table = self._lookup.get(space_id, _NO_IDS)
        bad = (ops < 0) | (ops >= table.size)
        if bad.any():
            raise EncodingError(
                f"no unified id for op {ops[bad][0]} of space {space_id}; "
                "the space is unregistered or the op is out of range"
            )
        return table[ops]

    def extend(self, vocab: OpVocabulary) -> "UnifiedVocabulary":
        """Register another space; existing ids are preserved, new ids appended."""
        if self.has_space(vocab.space_id):
            raise EncodingError(f"space {vocab.space_id} is already registered")
        return UnifiedVocabulary(self.spaces + (vocab,))

    def to_dict(self) -> dict:
        return {
            "spaces": [
                {"space_id": v.space_id, "op_names": list(v.op_names)}
                for v in self.spaces
            ]
        }

    @staticmethod
    def from_dict(payload: dict) -> "UnifiedVocabulary":
        spaces = tuple(
            OpVocabulary(entry["space_id"], tuple(entry["op_names"]))
            for entry in payload["spaces"]
        )
        return UnifiedVocabulary(spaces)


def unify(vocabs) -> UnifiedVocabulary:
    """Build a unified vocabulary; id layout is sorted by space id, so the
    result does not depend on argument order."""
    ordered = tuple(sorted(vocabs, key=lambda v: v.space_id))
    if not ordered:
        raise EncodingError("unify needs at least one vocabulary")
    return UnifiedVocabulary(ordered)


SUPP_FORMAT = "flan-supp/1"
# z-normalising a column squares deviations of up to twice this and sums
# them, which stays finite for any realistic number of records (< 4e107)
SUPP_MAX_ABS = 1e100


@dataclass(frozen=True, eq=False)
class SupplementalTable:
    """Per-architecture auxiliary vectors (zero-cost proxies or similar)."""

    kind: str
    dim: int
    vectors: dict[int, np.ndarray]

    def __post_init__(self):
        if self.dim <= 0:
            raise EncodingError(f"supplemental dim must be positive, got {self.dim}")
        for arch_id, vec in self.vectors.items():
            if vec.shape != (self.dim,):
                raise EncodingError(
                    f"arch {arch_id}: vector shape {vec.shape} != ({self.dim},)"
                )

    def vector(self, arch_id: int) -> np.ndarray:
        try:
            return self.vectors[arch_id]
        except KeyError:
            raise EncodingError(
                f"supplemental table {self.kind!r} has no vector for arch {arch_id}"
            ) from None

    def z_normalized(self) -> "SupplementalTable":
        ids = sorted(self.vectors)
        if not ids:
            raise EncodingError(f"supplemental table {self.kind!r} has no vectors")
        mat = zscore_columns(np.stack([self.vectors[i] for i in ids]))
        return SupplementalTable(
            self.kind, self.dim, {i: mat[row] for row, i in enumerate(ids)}
        )


class SupplementalProvider:
    """Stacks several tables (z-normalized each) into one lookup matrix.

    Table order is the caller's and determines column order.  A missing
    arch id in any table is a hard error: silently zero-filling auxiliary
    inputs would corrupt training unnoticed.
    """

    def __init__(self, tables):
        tables = list(tables)
        if not tables:
            raise EncodingError("SupplementalProvider needs at least one table")
        self.tables = [t.z_normalized() for t in tables]
        self.dims = tuple(t.dim for t in self.tables)

    @property
    def dim(self) -> int:
        return sum(self.dims)

    def row(self, arch_id: int) -> np.ndarray:
        return np.concatenate([t.vector(arch_id) for t in self.tables])

    def matrix(self, arch_ids) -> np.ndarray:
        return np.stack([self.row(i) for i in arch_ids])


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    # the bound keeps float() of a huge JSON integer from overflowing
    return isinstance(value, float) or (
        _is_int(value) and abs(value) <= sys.float_info.max
    )


# JSON field kinds shared by the flan-supp/1 and flan-bench/1 readers; a
# list kind also checks every item by its item kind
_FIELD_KINDS = {
    "int": ("an integer", _is_int),
    "number": ("a number", _is_number),
    "str": ("a string", lambda v: isinstance(v, str)),
    "object": ("an object", lambda v: isinstance(v, dict)),
    "list": ("a list", lambda v: isinstance(v, list)),
}
_LIST_ITEMS = {"integers": "int", "numbers": "number", "strings": "str"}


def check_field(error, value, what: str, line: int, kind: str):
    """`value` if it is of `kind` (a `number` as a float), else raise
    ``error(message, line)``."""
    item = _LIST_ITEMS.get(kind)
    description, test = _FIELD_KINDS["list" if item else kind]
    if item:
        description = f"a list of {kind}"
    if not test(value):
        raise error(f"{what} must be {description}, got {type(value).__name__}", line)
    if item and not all(map(_FIELD_KINDS[item][1], value)):
        for i, x in enumerate(value):
            check_field(error, x, f"{what}[{i}]", line, item)
    return float(value) if kind == "number" else value


def need_field(error, mapping, key: str, line: int, kind: str):
    """``mapping[key]``, checked by `check_field`."""
    if not isinstance(mapping, dict):
        raise error(f"expected an object with key {key!r}, got "
                    f"{type(mapping).__name__}", line)
    if key not in mapping:
        raise error(f"missing key {key!r}", line)
    return check_field(error, mapping[key], key, line, kind)


def need_vector(error, mapping, key: str, line: int, dim: int) -> np.ndarray:
    """``mapping[key]`` as a float64 vector of shape ``(dim,)``, finite and
    at most `SUPP_MAX_ABS` in magnitude."""
    vec = np.asarray(need_field(error, mapping, key, line, "numbers"), dtype=np.float64)
    if vec.shape != (dim,):
        raise error(f"{key} must hold {dim} values, got shape {vec.shape}", line)
    if not (np.abs(vec) <= SUPP_MAX_ABS).all():  # NaN fails the bound too
        if not np.isfinite(vec).all():
            raise error(f"{key} contains non-finite values", line)
        raise error(f"{key} values must be at most {SUPP_MAX_ABS:g} in magnitude", line)
    return vec


def read_jsonl(path, fmt: str, error, what: str):
    """Yield the header of a JSONL file of format `fmt`, then one
    ``(line, arch_id, record)`` per record line, in file order.

    The flan-bench/1 and flan-supp/1 formats share this container: a JSON
    object header whose ``format`` is `fmt` and whose optional ``count``
    is the number of records, then one JSON record per line, each with an
    integer ``id`` no earlier record used.  ``count`` is checked when the
    records are first asked for, after the caller's own header checks.
    Faults raise ``error(message, line)``; `what` names the file in the
    messages without a line.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except UnicodeDecodeError as exc:
        raise error(f"{what} file is not UTF-8: {exc}") from None
    if not lines:
        raise error(f"empty {what} file")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise error(f"header is not valid JSON: {exc}", 1) from None
    check_field(error, header, "header", 1, "object")
    if header.get("format") != fmt:
        raise error(f"expected format {fmt!r}, got {header.get('format')!r}", 1)
    yield header
    records = lines[1:]
    count = check_field(error, header.get("count", len(records)), "count", 1, "int")
    if len(records) != count:
        raise error(f"header promises {count} records, file has {len(records)}")
    seen: set[int] = set()
    for line, raw in enumerate(records, 2):
        try:
            rec = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise error(f"record is not valid JSON: {exc}", line) from None
        arch_id = need_field(error, rec, "id", line, "int")
        if arch_id in seen:
            raise error(f"duplicate arch id {arch_id}", line)
        seen.add(arch_id)
        yield line, arch_id, rec


def write_jsonl(path, header: dict, records) -> None:
    """Write the header, then each record, as one sorted-key JSON line."""
    with open(path, "w", encoding="utf-8") as fh:
        for obj in itertools.chain((header,), records):
            fh.write(json.dumps(obj, sort_keys=True) + "\n")


def _supp_error(message: str, line: int | None = None) -> EncodingError:
    return EncodingError(message if line is None else f"line {line}: {message}")


def load_supplemental(path) -> SupplementalTable:
    """Read a flan-supp/1 JSONL file, validating as it goes."""
    rows = read_jsonl(path, SUPP_FORMAT, _supp_error, "supplemental")
    header = next(rows)
    kind = need_field(_supp_error, header, "kind", 1, "str")
    dim = need_field(_supp_error, header, "dim", 1, "int")
    if dim <= 0:
        raise _supp_error(f"dim must be positive, got {dim}", 1)
    vectors = {arch_id: need_vector(_supp_error, rec, "v", line, dim)
               for line, arch_id, rec in rows}
    return SupplementalTable(kind, dim, vectors)


def save_supplemental(table: SupplementalTable, path) -> None:
    header = {"format": SUPP_FORMAT, "kind": table.kind, "dim": table.dim,
              "count": len(table.vectors)}
    write_jsonl(path, header, ({"id": i, "v": [float(v) for v in table.vectors[i]]}
                               for i in sorted(table.vectors)))
