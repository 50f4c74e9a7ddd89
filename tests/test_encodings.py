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

from conftest import arch_of, basic_vocab, cell, chain_cell, random_valid_cell
from flan.benchmark import SyntheticSpec, export, generate_synthetic
from flan.cellgraph import OP_NONE, OpVocabulary, pad, permute
from flan.cli import main
from flan.encodings import (
    PATH_COUNT_CAP,
    EncodingError,
    SupplementalProvider,
    SupplementalTable,
    UnifiedVocabulary,
    encode_adjacency,
    encode_path,
    load_supplemental,
    path_index_size,
    path_sequence_index,
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
    adj = c.active_adjacency()
    active = c.active_nodes()
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


def path_bits_oracle(c, vocab, dim):
    vec = np.zeros(dim, dtype=np.float64)
    for seq in dfs_op_sequences(c):
        idx = path_sequence_index(seq, vocab)
        if idx < dim:
            vec[idx] = 1.0
    return vec


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


def test_adjacency_no_edges_all_zero_bits():
    vocab = basic_vocab()
    c = cell(np.zeros((2, 2), dtype=np.uint8), [0, 1])
    enc = encode_adjacency(arch_of(c), vocab)
    assert enc.values[0] == 0.0
    assert enc.dim == 1 + 2 * vocab.size


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
    with pytest.raises(EncodingError):
        encode_adjacency(arch_of((chain_cell(3), chain_cell(4))), basic_vocab())


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
    vocab = basic_vocab()
    rng = Rng(404)
    for _ in range(150):
        c = random_valid_cell(rng, 5, vocab.size)
        enc = encode_path(arch_of(c), vocab)
        dim = path_index_size(5, vocab)
        assert np.array_equal(enc.values, path_bits_oracle(c, vocab, dim))


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
        active = [i for i in c.active_nodes()]
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
    rng = Rng(91)
    archs = []
    for arch_id in range(150):
        n = 3 + rng.randint(6)
        cells = [random_valid_cell(rng, n, vocab.size)
                 for _ in range(1 + rng.randint(2))]
        perm = list(range(n))
        rng.shuffle(perm)
        cells[0] = permute(cells[0], perm)
        if rng.randint(3) == 0:
            cells = [pad(c, n + 2) for c in cells]
        archs.append(arch_of(cells, arch_id))
    assert {len(a.cells) for a in archs} == {1, 2}
    want = np.array([oracle_score_features(a, vocab.op_names) for a in archs],
                    dtype=np.float64)
    assert score_feature_matrix(archs, vocab).tobytes() == want.tobytes()
    for a, row in zip(archs[:20], want):
        assert score_features(a, vocab).values.tobytes() == row.tobytes()


def test_score_feature_matrix_of_no_archs():
    assert score_feature_matrix([], basic_vocab()).shape == (0, 8)


# -- unified vocabulary --------------------------------------------------------------------

def test_unify_single_space_is_identity():
    vocab = OpVocabulary(0, ("input", "output", "none", "op_a", "op_b"))
    uni = unify([vocab])
    assert uni.size == 5
    assert [uni.unified_id(0, i) for i in range(5)] == [0, 1, 2, 3, 4]


def test_unify_two_spaces_share_reserved_ids():
    va = OpVocabulary(0, ("input", "output", "none", "a1", "a2"))
    vb = OpVocabulary(1, ("input", "output", "none", "b1", "b2"))
    uni = unify([va, vb])
    assert uni.size == 3 + 2 + 2
    for local in range(3):
        assert uni.unified_id(0, local) == uni.unified_id(1, local) == local
    interiors = {
        uni.unified_id(s, o) for s in (0, 1) for o in (3, 4)
    }
    assert len(interiors) == 4 and interiors.isdisjoint({0, 1, 2})


def test_unify_order_independent():
    va = OpVocabulary(0, ("input", "output", "none", "a1"))
    vb = OpVocabulary(3, ("input", "output", "none", "b1", "b2"))
    ab = unify([va, vb])
    ba = unify([vb, va])
    for space, op in ((0, 3), (3, 3), (3, 4)):
        assert ab.unified_id(space, op) == ba.unified_id(space, op)


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
            uid = uni.unified_id(s, op)
            assert uid not in seen, f"collision with {seen.get(uid)}"
            seen[uid] = (s, op)
    assert uni.size == 3 + 5 * 7
    assert sorted(seen) == list(range(3, uni.size))


def test_extend_preserves_existing_ids():
    va = OpVocabulary(0, ("input", "output", "none", "a1", "a2"))
    vb = OpVocabulary(1, ("input", "output", "none", "b1"))
    base = unify([va])
    before = {op: base.unified_id(0, op) for op in range(va.size)}
    grown = base.extend(vb)
    for op, uid in before.items():
        assert grown.unified_id(0, op) == uid
    assert grown.unified_id(1, 3) == base.size
    with pytest.raises(EncodingError):
        grown.extend(vb)


def test_map_ops_and_errors():
    va = OpVocabulary(2, ("input", "output", "none", "a1"))
    uni = unify([va])
    assert uni.map_ops(2, [0, 3, 1]).tolist() == [0, 3, 1]
    with pytest.raises(EncodingError):
        uni.unified_id(9, 0)
    with pytest.raises(EncodingError):
        uni.unified_id(2, 4)


def test_unified_vocab_dict_round_trip():
    va = OpVocabulary(0, ("input", "output", "none", "a1"))
    vb = OpVocabulary(1, ("input", "output", "none", "b1"))
    uni = unify([va]).extend(vb)
    back = UnifiedVocabulary.from_dict(uni.to_dict())
    assert back.size == uni.size
    assert back.unified_id(1, 3) == uni.unified_id(1, 3)
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
    with pytest.raises(KeyError):
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
    with pytest.raises(KeyError):
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
