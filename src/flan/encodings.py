"""Architecture encodings: structural vectors, score features, unified op ids.

Adjacency encoding flattens the strict upper triangle of each cell plus a
one-hot per node op, so it assumes topologically relabelled (upper
triangular) cells and refuses anything else.  Path encoding enumerates
interior op sequences along input-to-output paths; its index depends only on
the op sequence, never on node labels.  Score features are eight cheap graph
statistics used both as a supplemental predictor input and to derive the
synthetic proxy metrics.

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
import re
import sys
from dataclasses import dataclass

import numpy as np

from . import cellgraph
from ._kernels import dag_path_stats
from .cellgraph import CellArch, OpVocabulary, OP_NONE

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


def _check_cells(arch: CellArch) -> None:
    sizes = {c.num_nodes for c in arch.cells}
    if len(sizes) != 1:
        raise EncodingError(f"cells of one arch must share a node count, got {sizes}")


def encode_adjacency(arch: CellArch, vocab: OpVocabulary) -> EncodingVector:
    """Upper-triangle edge bits followed by per-node op one-hots, per cell."""
    _check_cells(arch)
    parts = []
    for cell in arch.cells:
        if np.any(np.tril(cell.adjacency)):
            raise EncodingError(
                "adjacency encoding needs a topologically relabelled cell "
                "(upper triangular adjacency)"
            )
        ops = np.asarray(cell.op_ids)
        if (ops >= vocab.size).any():
            raise EncodingError(
                f"op {ops[ops >= vocab.size][0]} outside vocabulary of size "
                f"{vocab.size}"
            )
        bits = cell.adjacency[np.triu_indices(cell.num_nodes, 1)]
        onehots = np.eye(vocab.size)[ops]
        parts.append(np.concatenate([bits, onehots.reshape(-1)]))
    return EncodingVector("adjacency", np.concatenate(parts))


def path_index_size(num_nodes: int, vocab: OpVocabulary) -> int:
    """Number of distinct interior op sequences of length 0..num_nodes-2."""
    k = vocab.size - 3
    max_len = num_nodes - 2
    if k == 0:
        return 1
    return sum(k**length for length in range(max_len + 1))


def path_sequence_index(seq: tuple[int, ...], vocab: OpVocabulary) -> int:
    """Position of an interior op sequence, ordered by (length, lexicographic)."""
    k = vocab.size - 3
    offset = sum(k**length for length in range(len(seq)))
    rank = 0
    for op in seq:
        if not 3 <= op < vocab.size:
            raise EncodingError(f"op {op} is not an interior op of the vocabulary")
        rank = rank * k + (op - 3)
    return offset + rank


def _cell_op_sequences(adj, ops, src: int, dst: int) -> set[tuple[int, ...]]:
    sequences: set[tuple[int, ...]] = set()
    stack: list[tuple[int, tuple[int, ...]]] = [(src, ())]
    while stack:
        node, seq = stack.pop()
        if node == dst:
            sequences.add(seq)
            continue
        for nxt in np.nonzero(adj[node])[0]:
            nxt = int(nxt)
            if nxt == dst:
                stack.append((nxt, seq))
            else:
                op = ops[nxt]
                if op < 3:
                    raise EncodingError(
                        f"interior node {nxt} carries reserved op {op}"
                    )
                stack.append((nxt, seq + (op,)))
    return sequences


def encode_path(
    arch: CellArch, vocab: OpVocabulary, max_paths: int | None = None
) -> EncodingVector:
    """Binary presence vector over interior op sequences, one block per cell.

    With max_paths the block is truncated (or zero padded) to exactly that
    many dimensions; indices past the limit are dropped.  A block may have
    at most PATH_DIM_CAP (2**20) dimensions: a larger one, from the space or
    from max_paths, raises an EncodingError before anything is allocated.
    """
    _check_cells(arch)
    full = path_index_size(arch.cells[0].num_nodes, vocab)
    dim = full if max_paths is None else int(max_paths)
    if dim <= 0:
        raise EncodingError(f"max_paths must be positive, got {max_paths}")
    if dim > PATH_DIM_CAP:
        raise EncodingError(
            f"a path block of {dim} dimensions exceeds the cap of {PATH_DIM_CAP}; "
            f"set max_paths to at most {PATH_DIM_CAP}"
        )
    parts = []
    cells = cellgraph.stack_cells(arch.cells)
    ends = zip(*cells.ends())
    for adj, ops, (src, dst) in zip(cells.adjacency, cells.ops.tolist(), ends):
        vec = np.zeros(dim, dtype=np.float64)
        for seq in _cell_op_sequences(adj, ops, int(src), int(dst)):
            idx = path_sequence_index(seq, vocab)
            if idx < dim:
                vec[idx] = 1.0
        parts.append(vec)
    return EncodingVector("path", np.concatenate(parts))


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


def score_features(arch: CellArch, vocab: OpVocabulary) -> EncodingVector:
    """Eight raw graph statistics; z-normalize per benchmark before use."""
    return EncodingVector("score", score_feature_matrix([arch], vocab)[0])


def score_feature_matrix(archs, vocab: OpVocabulary) -> np.ndarray:
    """(num_archs, 8) raw score features, row order following archs; all
    cells of all archs go through one pass over a padded stack."""
    archs = list(archs)
    if not archs:
        return np.zeros((0, 8))
    for arch in archs:
        _check_cells(arch)
    cells = cellgraph.stack_cells([c for arch in archs for c in arch.cells])
    src, dst = cells.ends()
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
    out = np.add.reduceat(per_cell, starts, axis=0)
    # columns 5 and 6 hold conv and interior counts until the ratios replace them
    out[:, 4] = np.minimum(out[:, 4], PATH_COUNT_CAP)
    out[:, 5] /= np.maximum(out[:, 6], 1)
    out[:, 6] = out[:, 1] / np.maximum(out[:, 0], 1)
    return out


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
