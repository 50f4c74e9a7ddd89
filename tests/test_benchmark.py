"""Synthetic generation, file round-trips and splits."""

import collections
import contextlib
import io
import itertools
import json
import math
import re
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flan import benchmark, cellgraph
from flan.benchmark import (
    MAX_NUM_NODES,
    BenchmarkError,
    SyntheticSpec,
    TabularBenchmark,
    _sample_attempts,
    count_distinct_cells,
    export,
    generate_synthetic,
    ingest,
    make_vocab,
    split,
)
from flan.cellgraph import validate_cells
from flan.cli import main
from flan.metrics import spearman_rho
from flan.rng import Rng, batch_u64
from reference_gen import ScriptedRng, reference_generate, sample_cell


def base_spec(**overrides):
    kwargs = dict(
        num_nodes=4, vocab_size=6, num_archs=24, seed=9,
        noise_sigma=0.05, interaction_scale=0.5,
    )
    kwargs.update(overrides)
    return SyntheticSpec(**kwargs)


# -- spec validation ---------------------------------------------------------------

def test_spec_rejects_bad_fields():
    with pytest.raises(BenchmarkError):
        base_spec(num_nodes=1)
    with pytest.raises(BenchmarkError, match=f"at most {MAX_NUM_NODES}, got"):
        base_spec(num_nodes=MAX_NUM_NODES + 1)
    assert base_spec(num_nodes=MAX_NUM_NODES).num_nodes == MAX_NUM_NODES
    with pytest.raises(BenchmarkError):
        base_spec(vocab_size=2)
    with pytest.raises(BenchmarkError):
        base_spec(num_archs=0)
    with pytest.raises(BenchmarkError):
        base_spec(noise_sigma=-0.1)
    with pytest.raises(BenchmarkError):
        base_spec(op_utilities=(1.0, 2.0))
    for bad in (math.nan, math.inf):
        with pytest.raises(BenchmarkError, match="noise_sigma"):
            base_spec(noise_sigma=bad)
        with pytest.raises(BenchmarkError, match="interaction_scale"):
            base_spec(interaction_scale=bad)
        with pytest.raises(BenchmarkError, match="op_utilities"):
            base_spec(op_utilities=(0.0,) * 5 + (bad,))
        with pytest.raises(BenchmarkError, match="interaction_scale"):
            base_spec(interaction_scale=-bad)
    # a field of the wrong type is refused before any sampling
    for field, bad in (("num_archs", 2.5), ("seed", 1.0), ("vocab_size", 4.5),
                       ("num_nodes", True), ("noise_sigma", "0.1")):
        with pytest.raises(BenchmarkError, match=f"^{field} must be"):
            base_spec(**{field: bad})


def test_default_utilities_ramp():
    utils = base_spec(vocab_size=5).utilities()
    assert utils.tolist() == [0.0, 0.0, 0.0, 0.5, 1.0]


def test_make_vocab_names():
    v = make_vocab(2, 6)
    assert v.space_id == 2
    assert v.op_names == ("input", "output", "none", "op_a", "op_b", "op_c")


# -- distinct-cell counting -----------------------------------------------------------

def test_count_distinct_cells_hand_derived():
    # n=3 structures: direct edge, chain via node 1, chain plus direct
    assert count_distinct_cells(3, 4) == 3      # one interior op
    assert count_distinct_cells(3, 5) == 5      # two interior ops: 1 + 2 + 2
    assert count_distinct_cells(2, 9) == 1      # only the direct edge
    assert count_distinct_cells(3, 3) == 1      # no interior ops at all
    assert count_distinct_cells(7, 5) is None   # beyond exact enumeration


# values of the per-mask enumeration this stacked count replaced
DISTINCT_CELLS = {
    (2, 3): 1, (2, 4): 1, (2, 5): 1, (2, 9): 1,
    (3, 3): 1, (3, 4): 3, (3, 5): 5, (3, 9): 13,
    (4, 3): 1, (4, 4): 15, (4, 5): 49, (4, 9): 385,
    (5, 3): 1, (5, 4): 159, (5, 5): 1109, (5, 9): 27469,
    (6, 3): 1, (6, 4): 3903, (6, 5): 57697, (6, 9): 4444033,
}


@pytest.mark.parametrize("num_nodes, vocab_size", sorted(DISTINCT_CELLS))
def test_count_distinct_cells_pinned(num_nodes, vocab_size):
    count = count_distinct_cells(num_nodes, vocab_size)
    assert count == DISTINCT_CELLS[num_nodes, vocab_size]


def test_count_distinct_cells_enumerates_once_per_node_count(monkeypatch):
    first = count_distinct_cells(6, 9)

    def no_enumeration(*args):
        raise AssertionError("re-enumerated the masks of a node count seen before")

    monkeypatch.setattr(cellgraph, "prune_stack", no_enumeration)
    assert count_distinct_cells(6, 5) == DISTINCT_CELLS[6, 5]
    assert count_distinct_cells(6, 9) == first


def test_count_matches_saturation_sampling():
    # sampling with a huge request must fail citing the exact count
    exact = count_distinct_cells(3, 5)
    with pytest.raises(BenchmarkError, match=f"only {exact} distinct"):
        generate_synthetic(base_spec(num_nodes=3, vocab_size=5, num_archs=exact + 1))


def test_oversized_request_fails_before_sampling(monkeypatch):
    def no_sampling(*args):
        raise AssertionError("sampled a cell for a request the count refuses")

    monkeypatch.setattr("flan.benchmark._sample_attempts", no_sampling)
    with pytest.raises(BenchmarkError, match="space holds only 49 distinct cells"):
        generate_synthetic(base_spec(num_nodes=4, vocab_size=5, num_archs=50))


def test_spent_budget_gives_up(monkeypatch):
    # beyond six nodes there is no exact count, so only the budget ends it
    monkeypatch.setattr("flan.benchmark._sample_attempts",
                        lambda *args: itertools.repeat(None))
    with pytest.raises(BenchmarkError, match="gave up after 10500 attempts"):
        generate_synthetic(base_spec(num_nodes=7, num_archs=1))


def test_exhaustible_space_can_be_fully_sampled():
    bench = generate_synthetic(base_spec(num_nodes=3, vocab_size=5, num_archs=5))
    assert len(bench) == 5
    assert len({(a.cells[0].adjacency.tobytes(), a.cells[0].op_ids) for a in bench.archs}) == 5


# -- generation --------------------------------------------------------------------------

def test_generated_archs_are_valid_and_distinct():
    bench = generate_synthetic(base_spec(num_archs=40))
    assert len(bench) == 40
    seen = set()
    for arch in bench.archs:
        c = arch.cells[0]
        assert validate_cells([c], bench.vocab.size)[0] is None
        key = (c.adjacency.tobytes(), c.op_ids)
        assert key not in seen
        seen.add(key)
        assert 0.0 <= bench.accuracy(arch.arch_id) <= 1.0


def test_generation_is_deterministic(tmp_path):
    a = generate_synthetic(base_spec())
    b = generate_synthetic(base_spec())
    export(a, tmp_path / "a.jsonl")
    export(b, tmp_path / "b.jsonl")
    assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()


def test_generation_varies_with_seed():
    a = generate_synthetic(base_spec(seed=1))
    b = generate_synthetic(base_spec(seed=2))
    assert [a.accuracy(i) for i in a.arch_ids] != [b.accuracy(i) for i in b.arch_ids]


def test_constant_spec_gives_constant_accuracy():
    spec = base_spec(
        noise_sigma=0.0,
        interaction_scale=0.0,
        op_utilities=(0.3,) * 6,
    )
    bench = generate_synthetic(spec)
    accs = {bench.accuracy(i) for i in bench.arch_ids}
    assert len(accs) == 1


def test_noise_shifts_accuracies_per_arch():
    quiet = generate_synthetic(base_spec(noise_sigma=0.0))
    noisy = generate_synthetic(base_spec(noise_sigma=0.2))
    diffs = [
        noisy.accuracy(i) - quiet.accuracy(i) for i in quiet.arch_ids
    ]
    assert any(abs(d) > 1e-6 for d in diffs)
    assert len({round(d, 12) for d in diffs}) > 1


@pytest.mark.parametrize("count, sigma", [(1, 0.2), (5, 0.5)])
def test_arch_normals_equal_scalar_child_normals(count, sigma, monkeypatch):
    ids = [3, 0, 1, 2**63, 2**64 - 1, 2**64 + 2] + list(range(10, 60))
    archs = [types.SimpleNamespace(arch_id=i) for i in ids]
    root = Rng(41)
    want = []
    for i in ids:
        stream = root.child("proxy", i)
        want.append([stream.normal(0.0, sigma) for _ in range(count)])
    # the per-arch streams are derived as arrays: one child call, the tag's
    calls = []
    child = Rng.child

    def counted_child(self, *tags):
        calls.append(tags)
        return child(self, *tags)

    monkeypatch.setattr(Rng, "child", counted_child)
    got = benchmark._arch_normals(root, "proxy", archs, count, sigma)
    assert calls == [("proxy",)]
    assert got.tolist() == want


def test_proxy_regression_frozen():
    # regression anchor for the reference generator; 271 distinct cells here
    spec = SyntheticSpec(num_nodes=4, vocab_size=8, num_archs=256, seed=7)
    bench = generate_synthetic(spec)
    ids = sorted(bench.arch_ids)
    accs = [bench.accuracy(i) for i in ids]
    rho = spearman_rho([bench.proxies.vector(i)[0] for i in ids], accs)
    assert rho > 0.3
    assert rho == pytest.approx(0.8950613685718365, abs=1e-9)
    assert accs[0] == pytest.approx(0.549833997312478, abs=1e-12)


def test_proxies_do_not_equal_accuracy():
    bench = generate_synthetic(base_spec())
    ids = sorted(bench.arch_ids)
    accs = np.array([bench.accuracy(i) for i in ids])
    p0 = np.array([bench.proxies.vector(i)[0] for i in ids])
    assert bench.proxies.dim == 8
    rho = spearman_rho(p0, accs)
    assert 0.0 < rho < 1.0


def test_metadata_is_string_valued():
    bench = generate_synthetic(base_spec(), name="custom")
    assert bench.name == "custom"
    assert all(isinstance(v, str) for v in bench.metadata.values())
    assert bench.metadata["num_nodes"] == "4"


# -- batched sampling against the scalar reference -------------------------------------

def _export_bytes(bench, path):
    export(bench, path)
    return path.read_bytes()


def _assert_same_as_reference(spec, tmp):
    """generate_synthetic writes the reference's file, or refuses alike."""
    try:
        want = _export_bytes(reference_generate(spec), tmp / "ref.jsonl")
    except BenchmarkError as exc:
        with pytest.raises(BenchmarkError, match=f"^{re.escape(str(exc))}$"):
            generate_synthetic(spec)
        return
    assert _export_bytes(generate_synthetic(spec), tmp / "got.jsonl") == want


@st.composite
def small_specs(draw):
    n = draw(st.integers(min_value=2, max_value=9))
    v = draw(st.integers(min_value=3, max_value=10))
    exact = count_distinct_cells(n, v)
    if exact is None:
        # beyond six nodes a 3-op vocabulary holds one cell, and a second
        # one would cost the whole attempt budget
        most = 1 if v == 3 else 30
    else:
        most = min(exact + 1, 30)  # exact + 1 is refused up front
    return SyntheticSpec(
        num_nodes=n, vocab_size=v,
        num_archs=draw(st.integers(min_value=1, max_value=most)),
        seed=draw(st.integers(min_value=0, max_value=2**64 - 1)),
        noise_sigma=draw(st.sampled_from([0.0, 0.1])),
        interaction_scale=draw(st.sampled_from([0.0, 0.5])),
    )


@given(small_specs())
@settings(max_examples=60, deadline=None)
def test_generation_matches_the_scalar_reference(tmp_path_factory, spec):
    _assert_same_as_reference(spec, tmp_path_factory.mktemp("gen"))


@pytest.mark.parametrize("spec", [
    # 66 edge bits per attempt: more than an int64 mask holds
    SyntheticSpec(num_nodes=12, vocab_size=7, num_archs=40, seed=5,
                  noise_sigma=0.1, interaction_scale=0.5),
    # every distinct cell of the space
    SyntheticSpec(num_nodes=3, vocab_size=5, num_archs=5, seed=2),
    SyntheticSpec(num_nodes=4, vocab_size=4, num_archs=15, seed=3, noise_sigma=0.1),
    # the attempt budget runs out
    SyntheticSpec(num_nodes=7, vocab_size=3, num_archs=2, seed=1),
], ids=["12-nodes", "3-nodes-full", "4-nodes-full", "budget-spent"])
def test_generation_matches_the_scalar_reference_at_the_edges(tmp_path, spec):
    _assert_same_as_reference(spec, tmp_path)


@pytest.mark.parametrize("block, spec", [
    (1, base_spec(num_archs=20)),
    (37, SyntheticSpec(num_nodes=12, vocab_size=7, num_archs=10, seed=5)),
    (100, base_spec(num_nodes=7, vocab_size=8, num_archs=60, seed=4)),
])
def test_block_size_changes_no_byte(monkeypatch, tmp_path, block, spec):
    monkeypatch.setattr(benchmark, "GEN_BLOCK", block)
    _assert_same_as_reference(spec, tmp_path)


def test_a_rejected_op_draw_is_redrawn():
    # randint(3) redraws 2**64 - 1, which no seeded run meets; plant it
    spec = base_spec(num_nodes=4, vocab_size=6)
    top = 2**64 - 1
    draws = batch_u64([Rng(3)], [3000])[0].tolist()
    # all six edges, then a rejected, an accepted, a rejected and an
    # accepted op draw
    draws[:10] = [1] * 6 + [top, top - 1, top, 5]
    draws[10::7] = [top] * len(draws[10::7])
    scripted = ScriptedRng(draws)
    want = []
    while scripted._used < len(draws) - 40:
        cell = sample_cell(spec, scripted, 0)
        want.append(None if cell is None else (cell.adjacency.tobytes(), cell.op_ids))
    assert scripted.redraws > 10
    assert want[0] == (np.array([[0, 1, 1, 1], [0, 0, 1, 1], [0, 0, 0, 1], [0, 0, 0, 0]],
                                dtype=np.uint8).tobytes(), (0, 5, 5, 1))
    cuts = [0, 1, 7, 64, 65, 500, 1800, len(draws)]
    blocks = (np.array(draws[a:b], dtype=np.uint64) for a, b in zip(cuts, cuts[1:]))
    assert list(itertools.islice(_sample_attempts(spec, blocks), len(want))) == want


def test_generation_makes_no_scalar_draw_and_prunes_no_single_cell(monkeypatch):
    calls = collections.Counter()

    def spy(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    monkeypatch.setattr(Rng, "randint", spy("randint", Rng.randint))
    monkeypatch.setattr(Rng, "normal", spy("normal", Rng.normal))
    monkeypatch.setattr(cellgraph, "prune_to_paths",
                        spy("prune_to_paths", cellgraph.prune_to_paths))
    reference_generate(base_spec(num_archs=4))
    assert min(calls[name] for name in ("randint", "normal", "prune_to_paths")) > 0
    calls.clear()
    bench = generate_synthetic(SyntheticSpec(
        num_nodes=7, vocab_size=8, num_archs=1024, seed=1,
        noise_sigma=0.05, interaction_scale=0.5))
    assert len(bench) == 1024
    assert (calls["randint"], calls["normal"], calls["prune_to_paths"]) == (0, 0, 0)


# -- export / ingest -------------------------------------------------------------------------

def test_round_trip_identity(tmp_path):
    bench = generate_synthetic(base_spec())
    path = tmp_path / "bench.jsonl"
    export(bench, path)
    back = ingest(path)
    assert back.name == bench.name
    assert back.vocab == bench.vocab
    assert back.arch_ids == bench.arch_ids
    assert back.accuracies == bench.accuracies
    assert back.metadata == bench.metadata
    for i in bench.arch_ids:
        assert back.arch(i).cells == bench.arch(i).cells
        assert np.array_equal(back.proxies.vector(i), bench.proxies.vector(i))
    # re-export is byte identical
    export(back, tmp_path / "again.jsonl")
    assert path.read_bytes() == (tmp_path / "again.jsonl").read_bytes()


def test_ingest_single_record(tmp_path):
    header = {
        "format": "flan-bench/1", "name": "one", "space_id": 0,
        "num_nodes": 2, "cells_per_arch": 1, "ops": ["input", "output", "none"],
        "zcp_dim": 0,
    }
    record = {"id": 0, "cells": [{"adj": [[0, 1], [0, 0]], "ops": [0, 1]}], "acc": 0.5}
    path = tmp_path / "one.jsonl"
    path.write_text(json.dumps(header) + "\n" + json.dumps(record) + "\n")
    bench = ingest(path)
    assert len(bench) == 1 and bench.accuracy(0) == 0.5
    assert bench.proxies is None


def write_two_records(tmp_path, mutate):
    """`mutate(header, records)` edits both in place, or returns a
    replacement header."""
    header = {
        "format": "flan-bench/1", "name": "t", "space_id": 0,
        "num_nodes": 2, "cells_per_arch": 1, "ops": ["input", "output", "none"],
    }
    records = [
        {"id": 0, "cells": [{"adj": [[0, 1], [0, 0]], "ops": [0, 1]}], "acc": 0.5},
        {"id": 1, "cells": [{"adj": [[0, 1], [0, 0]], "ops": [0, 1]}], "acc": 0.6},
    ]
    header = mutate(header, records) or header
    path = tmp_path / "bad.jsonl"
    path.write_text(
        "\n".join(json.dumps(x) for x in [header] + records) + "\n"
    )
    return path


def test_ingest_duplicate_id_names_line(tmp_path):
    def mutate(header, records):
        records[1]["id"] = 0

    with pytest.raises(BenchmarkError, match="line 3.*duplicate"):
        ingest(write_two_records(tmp_path, mutate))


def test_ingest_bad_accuracy_names_line(tmp_path):
    def mutate(header, records):
        records[1]["acc"] = 1.5

    with pytest.raises(BenchmarkError, match="line 3"):
        ingest(write_two_records(tmp_path, mutate))


def test_ingest_invalid_cell_names_line(tmp_path):
    def mutate(header, records):
        records[0]["cells"][0]["adj"] = [[1, 1], [0, 0]]  # self loop on node 0

    with pytest.raises(BenchmarkError, match="line 2.*cycle"):
        ingest(write_two_records(tmp_path, mutate))


def set_record(**fields):
    return lambda header, records: records[1].update(fields)


def set_header(**fields):
    return lambda header, records: header.update(fields)


def set_cell(**fields):
    return lambda header, records: records[1]["cells"][0].update(fields)


def set_interior_op(op):
    """Three-node chains whose second record's middle node carries op."""
    def mutate(header, records):
        header.update(num_nodes=3, ops=["input", "output", "none", "conv"])
        for k, rec in enumerate(records):
            rec["cells"][0] = {"adj": [[0, 1, 0], [0, 0, 1], [0, 0, 0]],
                               "ops": [0, op if k else 3, 1]}
    return mutate


def set_zcp(zcp):
    def mutate(header, records):
        header["zcp_dim"] = 1
        records[1]["zcp"] = zcp
    return mutate


@pytest.mark.parametrize("mutate, message", [
    # the first two ids are kept from the cells-only form of this test
    pytest.param(set_record(cells=5), "line 3: cells must be a list, got int",
                 id="5-line 3: cells must be a list, got int"),
    pytest.param(set_record(cells=[5]),
                 "line 3: expected an object with key 'adj', got int",
                 id="cells1-line 3: expected an object with key 'adj', got int"),
    pytest.param(set_cell(adj=5), "line 3: adj must be a list, got int",
                 id="adj-int"),
    pytest.param(set_cell(ops=5), "line 3: ops must be a list of integers, got int",
                 id="ops-int"),
    pytest.param(set_cell(adj=[5, 5]), "line 3: adj[0] must be a list, got int",
                 id="adj-row-int"),
    pytest.param(set_cell(ops=[0, None]),
                 "line 3: ops[1] must be an integer, got NoneType",
                 id="ops-null"),
    pytest.param(set_cell(adj=[[0, None], [0, 0]]),
                 "line 3: adjacency entries must be 0 or 1", id="adj-null"),
    pytest.param(set_cell(adj=[[0, 300], [0, 0]]),
                 "line 3: adjacency entries must be 0 or 1", id="adj-300"),
    pytest.param(set_cell(adj=[[0, -1], [0, 0]]),
                 "line 3: adjacency entries must be 0 or 1", id="adj-negative"),
    pytest.param(set_cell(adj=[[0, True], [0, 0]]),
                 "line 3: adjacency entries must be 0 or 1", id="adj-true"),
    pytest.param(set_cell(adj=[[0, 1.0], [0, 0]]),
                 "line 3: adjacency entries must be 0 or 1", id="adj-float"),
    pytest.param(set_record(id=[0]), "line 3: id must be an integer, got list",
                 id="id-list"),
    pytest.param(set_record(id="x"), "line 3: id must be an integer, got str",
                 id="id-str"),
    pytest.param(set_record(id=3.7), "line 3: id must be an integer, got float",
                 id="id-float"),
    pytest.param(set_record(acc=[0.5]), "line 3: acc must be a number, got list",
                 id="acc-list"),
    pytest.param(set_record(acc=None), "line 3: acc must be a number, got NoneType",
                 id="acc-null"),
    pytest.param(set_zcp(["a"]), "line 3: zcp[0] must be a number, got str",
                 id="zcp-str"),
    pytest.param(set_zcp([-1e300]),
                 "line 3: zcp values must be at most 1e+100 in magnitude",
                 id="zcp-huge"),
    pytest.param(lambda header, records: [header],
                 "line 1: header must be an object, got list", id="header-list"),
    pytest.param(set_header(num_nodes=[2]),
                 "line 1: num_nodes must be an integer, got list",
                 id="num_nodes-list"),
    pytest.param(set_header(space_id=[0]),
                 "line 1: space_id must be an integer, got list",
                 id="space_id-list"),
    pytest.param(set_header(cells_per_arch=[1]),
                 "line 1: cells_per_arch must be an integer, got list",
                 id="cells_per_arch-list"),
    pytest.param(set_header(zcp_dim=[0]),
                 "line 1: zcp_dim must be an integer, got list",
                 id="zcp_dim-list"),
    pytest.param(set_header(count=[2]),
                 "line 1: count must be an integer, got list", id="count-list"),
    pytest.param(set_header(metadata=5),
                 "line 1: metadata must be an object, got int",
                 id="metadata-int"),
    pytest.param(set_header(ops=["input", "output", "none", 5]),
                 "line 1: ops[3] must be a string, got int", id="op-names-int"),
    # every encoder refuses an interior input or output op, so ingest does
    pytest.param(set_interior_op(0),
                 "line 3: invalid cell: interior node 1 carries reserved op 0",
                 id="interior-input-op"),
    pytest.param(set_interior_op(1),
                 "line 3: invalid cell: interior node 1 carries reserved op 1",
                 id="interior-output-op"),
])
def test_ingest_malformed_cells_names_line(tmp_path, capsys, mutate, message):
    path = write_two_records(tmp_path, mutate)
    with pytest.raises(BenchmarkError, match=re.escape(message)):
        ingest(path)
    code = main(["encode", "--bench", str(path), "--kind", "path",
                 "--out", str(tmp_path / "enc.supp")])
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"error: {message}\n"


def test_ingest_reports_parse_errors_before_invalid_cells(tmp_path):
    # cells are validated in one pass once every record has parsed
    def mutate(header, records):
        records[0]["cells"][0]["adj"] = [[1, 1], [0, 0]]
        records[1]["acc"] = 1.5

    with pytest.raises(BenchmarkError, match="line 3: acc"):
        ingest(write_two_records(tmp_path, mutate))


def test_ingest_accepts_non_upper_triangular_dags(tmp_path):
    # node labels need not be topologically sorted in the file
    def mutate(header, records):
        records[0]["cells"][0]["adj"] = [[0, 0], [1, 0]]
        records[0]["cells"][0]["ops"] = [1, 0]

    bench = ingest(write_two_records(tmp_path, mutate))
    assert bench.arch(0).cells[0].adjacency[1, 0] == 1


def test_ingest_wrong_adjacency_size(tmp_path):
    def mutate(header, records):
        records[1]["cells"][0]["adj"] = [[0]]

    with pytest.raises(BenchmarkError, match="line 3"):
        ingest(write_two_records(tmp_path, mutate))


def test_ingest_missing_header_key(tmp_path):
    def mutate(header, records):
        del header["ops"]

    with pytest.raises(BenchmarkError, match="line 1"):
        ingest(write_two_records(tmp_path, mutate))


def test_ingest_bad_format_tag(tmp_path):
    def mutate(header, records):
        header["format"] = "flan-bench/2"

    with pytest.raises(BenchmarkError, match="line 1"):
        ingest(write_two_records(tmp_path, mutate))


def test_ingest_count_checked_when_present(tmp_path):
    def mutate(header, records):
        header["count"] = 3

    with pytest.raises(BenchmarkError, match="promises 3"):
        ingest(write_two_records(tmp_path, mutate))


def test_ingest_unexpected_zcp_rejected(tmp_path):
    def mutate(header, records):
        records[0]["zcp"] = [1.0]

    with pytest.raises(BenchmarkError, match="zcp"):
        ingest(write_two_records(tmp_path, mutate))


def test_ingest_partial_zcp_allowed(tmp_path):
    def mutate(header, records):
        header["zcp_dim"] = 2
        records[0]["zcp"] = [1.0, 2.0]

    bench = ingest(write_two_records(tmp_path, mutate))
    assert sorted(bench.proxies.vectors) == [0]


def test_ingest_record_json_error(tmp_path):
    path = tmp_path / "broken.jsonl"
    header = {
        "format": "flan-bench/1", "name": "t", "space_id": 0,
        "num_nodes": 2, "cells_per_arch": 1, "ops": ["input", "output", "none"],
    }
    path.write_text(json.dumps(header) + "\n{nope\n")
    with pytest.raises(BenchmarkError, match="line 2"):
        ingest(path)


def test_ingest_non_utf8_file_is_a_benchmark_error(tmp_path, capsys):
    path = tmp_path / "latin1.jsonl"
    path.write_bytes(b'{"format": "flan-bench/1", "name": "caf\xe9"}\n')
    with pytest.raises(BenchmarkError, match="not UTF-8"):
        ingest(path)
    assert main(["encode", "--bench", str(path), "--kind", "score",
                 "--out", str(tmp_path / "x.supp")]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: benchmark file is not UTF-8")


# -- mutation fuzz ------------------------------------------------------------------------

JSON_VALUES = st.one_of(
    st.integers(-3, 300), st.booleans(), st.none(), st.text(max_size=3),
    st.floats(allow_nan=True, allow_infinity=True),
    st.lists(st.integers(0, 1), max_size=3),
)


@st.composite
def mutations(draw):
    """A function that puts one drawn fault into a 4-node bench's lines."""
    k = draw(st.integers(0, 5))
    i, j = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    kind = draw(st.sampled_from(
        ["adj", "ops", "delete", "retype", "back-edge", "self-loop",
         "duplicate-id", "truncate"]))
    key = draw(st.sampled_from(["id", "cells", "acc", "zcp"]))
    value = draw(JSON_VALUES)
    other = draw(st.integers(0, 5))
    at, cut = draw(st.integers(0, 6)), draw(st.floats(0.0, 1.0))

    def mutate(lines):
        records = [json.loads(line) for line in lines[1:]]
        rec = records[k]
        cell = rec["cells"][0]
        if kind == "adj":
            cell["adj"][i][j] = value
        elif kind == "ops":
            cell["ops"][i] = value
        elif kind == "delete":
            rec.pop(key, None)
        elif kind == "retype":
            rec[key] = value
        elif kind == "back-edge":
            cell["adj"][max(i, j)][min(i, j)] = 1
        elif kind == "self-loop":
            cell["adj"][i][i] = 1
        elif kind == "duplicate-id":
            rec["id"] = records[other]["id"]
        out = lines[:1] + [json.dumps(r) for r in records]
        if kind == "truncate":
            out[at] = out[at][:int(cut * (len(out[at]) - 1))]
        return "\n".join(out) + "\n"

    return mutate


@pytest.fixture(scope="module")
def fuzz_bench(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    export(generate_synthetic(base_spec(num_archs=6)), root / "seed.jsonl")
    return root, (root / "seed.jsonl").read_text().splitlines()


@given(mutate=mutations(), kind=st.sampled_from(["adjacency", "path", "score"]))
@settings(max_examples=200, deadline=None)
def test_ingest_mutation_fuzz(fuzz_bench, mutate, kind):
    root, lines = fuzz_bench
    path = root / "mutated.jsonl"
    path.write_text(mutate(lines))
    try:
        bench = ingest(path)
    except BenchmarkError:
        pass
    else:
        for arch in bench.archs:
            for c in arch.cells:
                assert validate_cells([c], bench.vocab.size)[0] is None
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["encode", "--bench", str(path), "--kind", kind,
                     "--out", str(root / "enc.supp")])
    assert code in (0, 2)
    assert err.getvalue().count("\n") == (code == 2)


def test_benchmark_error_carries_line():
    err = BenchmarkError("boom", 7)
    assert err.line == 7
    assert "line 7" in str(err)


# -- split ------------------------------------------------------------------------------------

def test_split_deterministic_and_complementary():
    bench = generate_synthetic(base_spec(num_archs=30))
    train1, test1 = split(bench, 10, seed=4)
    train2, test2 = split(bench, 10, seed=4)
    assert train1 == train2 and test1 == test2
    assert len(train1) == 10 and len(test1) == 20
    assert sorted(train1 + test1) == sorted(bench.arch_ids)
    assert list(train1) == sorted(train1)


def test_split_varies_with_seed():
    bench = generate_synthetic(base_spec(num_archs=30))
    assert split(bench, 10, seed=1)[0] != split(bench, 10, seed=2)[0]


def test_split_boundaries():
    bench = generate_synthetic(base_spec(num_archs=12))
    train, test = split(bench, 1, seed=0)
    assert len(train) == 1 and len(test) == 11
    with pytest.raises(BenchmarkError):
        split(bench, 0, seed=0)
    with pytest.raises(BenchmarkError):
        split(bench, 12, seed=0)
    for count in (2.5, "3", True):
        with pytest.raises(BenchmarkError, match="must be an integer"):
            split(bench, count, seed=0)
    assert split(bench, np.int64(3), seed=0) == split(bench, 3, seed=0)


def test_tabular_invariants():
    bench = generate_synthetic(base_spec(num_archs=5))
    with pytest.raises(BenchmarkError):
        TabularBenchmark(
            name="x", vocab=bench.vocab, archs=bench.archs,
            accuracies={0: 0.5}, proxies=None, metadata={},
            cells_per_arch=1, num_nodes=4,
        )
    with pytest.raises(BenchmarkError):
        bench.accuracy(10_000)


@pytest.mark.parametrize("cells, nodes, match", [
    (2, 4, "arch 0 holds 1 cell"),
    (1, 9, "arch 0 holds 1 cell.* of 4 nodes, expected 1 of 9"),
    (2, 9, "expected 2 of 9"),
    (3, 4, "cells_per_arch must be 1 or 2, got 3"),
    (True, 4, "cells_per_arch must be 1 or 2, got True"),
])
def test_tabular_benchmark_checks_its_shape_fields(tmp_path, cells, nodes, match):
    # export writes these fields as the header, so a benchmark that
    # disagrees with them would export a file ingest refuses
    bench = generate_synthetic(base_spec(num_archs=5))
    fields = dict(name="x", vocab=bench.vocab, archs=bench.archs,
                  accuracies=bench.accuracies, proxies=None, metadata={})
    with pytest.raises(BenchmarkError, match=match):
        TabularBenchmark(**fields, cells_per_arch=cells, num_nodes=nodes)
    ok = TabularBenchmark(**fields, cells_per_arch=1, num_nodes=4)
    export(ok, tmp_path / "ok.jsonl")
    assert ingest(tmp_path / "ok.jsonl").arch_ids == ok.arch_ids
