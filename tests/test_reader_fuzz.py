"""Mutation fuzz for the supplemental, checkpoint and config readers.

Each test puts one drawn fault into a valid file.  The reader must either
accept the file or raise its documented error, and the command line must
exit 0, or exit 2 with exactly one ``error:`` line on stderr.
"""

import contextlib
import io
import json
import struct
from argparse import Namespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flan.cli import _load_config, main
from flan.encodings import EncodingError, load_supplemental
from flan.nas_search import SearchConfig
from flan.predictor import PredictorConfig
from flan.training import CheckpointError, TrainConfig, TrainError, load_model

CFG_LINES = [
    "# predictor", "op_embedding_dim = 6", "node_embedding_dim = 6",
    "hidden_dim = 8", "gcn_dims = 7,5", "backward_gcn_dims = 6",
    "op_update_mlp_dims = 5", "mlp_dims = 8", "supp_embedder_dims = 6",
    "nn_emb_dim = 5", "timesteps = 2", "", "# training", "epochs = 1",
    "batch_size = 6", "lr = 0.01",
]

JSON_VALUES = st.one_of(
    st.integers(-3, 300), st.integers(2**62, 2**70), st.booleans(), st.none(),
    st.text(max_size=3), st.floats(allow_nan=True, allow_infinity=True),
    st.lists(st.integers(0, 3), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(0, 3), max_size=2),
)
DELETE = object()
SEARCH_BASE = {"budget_per_iter": 4, "max_iters": 2}


def run_cli(*argv):
    """Run the CLI and check its exit contract; returns the exit code."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    assert code in (0, 2)
    if code == 2:
        assert err.getvalue().startswith("error: ")
    assert err.getvalue().count("\n") == (code == 2)
    return code


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    root = tmp_path_factory.mktemp("reader-fuzz")
    (root / "tiny.cfg").write_text("\n".join(CFG_LINES) + "\n")
    assert run_cli("gen-bench", "--num-nodes", 4, "--vocab-size", 6,
                   "--num-archs", 24, "--seed", 3, "--out", root / "b.bench") == 0
    assert run_cli("encode", "--bench", root / "b.bench", "--kind", "score",
                   "--out", root / "fuzz.supp") == 0
    common = ["--bench", root / "b.bench", "--train-count", 16, "--seed", 5,
              "--config", root / "tiny.cfg"]
    # the supp checkpoint's provenance names fuzz.supp, so eval rereads it
    assert run_cli("train", *common, "--supp", root / "fuzz.supp",
                   "--out", root / "supp.ckpt") == 0
    assert run_cli("train", *common, "--out", root / "plain.ckpt") == 0
    (root / "seed.supp").write_bytes((root / "fuzz.supp").read_bytes())
    return root


# -- flan-supp/1 ----------------------------------------------------------------

@st.composite
def supp_mutations(draw):
    """A function that puts one drawn fault into a flan-supp/1 file's text."""
    kind = draw(st.sampled_from(
        ["header", "record", "v-item", "duplicate-id", "truncate", "drop-line",
         "extra-line", "byte"]))
    header_key = draw(st.sampled_from(["format", "kind", "dim", "count"]))
    record_key = draw(st.sampled_from(["id", "v"]))
    value = draw(st.one_of(st.just(DELETE), JSON_VALUES))
    k, other, i = draw(st.integers(0, 23)), draw(st.integers(0, 23)), draw(st.integers(0, 4))
    at, byte = draw(st.floats(0.0, 1.0)), draw(st.integers(0, 255))

    def put(mapping, key):
        if value is DELETE:
            mapping.pop(key, None)
        else:
            mapping[key] = value

    def mutate(text) -> bytes:
        lines = text.splitlines()
        header, records = json.loads(lines[0]), [json.loads(x) for x in lines[1:]]
        rec = records[k % len(records)]
        if kind == "header":
            put(header, header_key)
        elif kind == "record":
            put(rec, record_key)
        elif kind == "v-item":
            rec["v"][i % len(rec["v"])] = None if value is DELETE else value
        elif kind == "duplicate-id":
            rec["id"] = records[other % len(records)]["id"]
        out = [json.dumps(header)] + [json.dumps(r) for r in records]
        if kind == "truncate":
            line = k % len(out)
            out[line] = out[line][:int(at * len(out[line]))]
        elif kind == "drop-line":
            del out[k % len(out)]
        elif kind == "extra-line":
            out.append(json.dumps(rec))
        data = bytearray(("\n".join(out) + "\n").encode("utf-8"))
        if kind == "byte":
            data[int(at * (len(data) - 1))] = byte
        return bytes(data)

    return mutate


@given(mutate=supp_mutations())
@settings(max_examples=120, deadline=None)
def test_load_supplemental_mutation_fuzz(ws, mutate):
    path = ws / "fuzz.supp"
    path.write_bytes(mutate((ws / "seed.supp").read_text()))
    try:
        table = load_supplemental(path)
    except EncodingError:
        pass
    else:
        for vec in table.vectors.values():
            assert vec.shape == (table.dim,) and np.isfinite(vec).all()
    run_cli("eval", "--ckpt", ws / "supp.ckpt", "--bench", ws / "b.bench")


# -- checkpoints ----------------------------------------------------------------

METADATA_PATHS = [
    ("config", "gcn_dims"), ("config", "timesteps"), ("config", "op_embedding_dim"),
    ("config", "attention_variant"), ("config", "supplemental_dims"),
    ("config", "forward_mode"),
    ("vocab",), ("vocab", "spaces"), ("cells_per_arch",), ("tensors",),
    ("provenance",), ("provenance", "bench_name"), ("provenance", "train_count"),
    ("provenance", "split_seed"), ("provenance", "supp"), ("config",),
]


@st.composite
def checkpoint_mutations(draw):
    """A function that puts one drawn fault into a checkpoint's bytes."""
    kind = draw(st.sampled_from(["byte", "u64", "truncate", "append", "metadata"]))
    at, byte = draw(st.floats(0.0, 1.0)), draw(st.integers(0, 255))
    word = draw(st.sampled_from([0, 1, 2, 3, 255, 2**31, 2**32, 2**63, 2**64 - 1]))
    keys = draw(st.sampled_from(METADATA_PATHS))
    value = draw(st.one_of(st.just(DELETE), JSON_VALUES))

    def mutate(raw: bytes) -> bytes:
        data = bytearray(raw)
        pos = int(at * (len(data) - 1))
        if kind == "byte":
            data[pos] = byte
        elif kind == "u64":
            data[pos:pos + 8] = struct.pack("<Q", word)
        elif kind == "truncate":
            del data[pos:]
        elif kind == "append":
            data += bytes([byte]) * (1 + pos % 17)
        else:
            (size,) = struct.unpack("<Q", raw[12:20])
            metadata = json.loads(raw[20:20 + size])
            target = metadata
            for key in keys[:-1]:
                target = target[key]
            if value is DELETE:
                target.pop(keys[-1])
            else:
                target[keys[-1]] = value
            blob = json.dumps(metadata).encode("utf-8")
            data = raw[:12] + struct.pack("<Q", len(blob)) + blob + raw[20 + size:]
        return bytes(data)

    return mutate


@given(mutate=checkpoint_mutations())
@settings(max_examples=150, deadline=None)
def test_load_checkpoint_mutation_fuzz(ws, mutate):
    path = ws / "fuzz.ckpt"
    path.write_bytes(mutate((ws / "plain.ckpt").read_bytes()))
    try:
        model, _ = load_model(path)
    except CheckpointError:
        pass
    else:
        assert np.isfinite(model.flat).all()
    run_cli("eval", "--ckpt", path, "--bench", ws / "b.bench")


# -- --config files -------------------------------------------------------------

CONFIG_VALUES = st.one_of(
    st.integers(-2, 8).map(str),
    st.sampled_from(["", " ", "x", "nan", "inf", "-inf", "1e400", "0.5", "1,2",
                     ",", "3,", "yes", "off", "dgf", "gat", "kqv_softmax",
                     "#", "=", "None"]),
    st.text(max_size=4),
)
CONFIG_KEYS = st.sampled_from([
    "epochs", "batch_size", "lr", "gcn_dims", "nn_emb_dim", "timesteps",
    "forward_mode", "backward_mode", "attention_variant", "unified",
    "supplemental_dims", "supp_embedder_dims", "weight_decay", "hinge_margin",
    "adam_beta1", "adam_eps", "seed", "pool_floor", "bogus", "",
])


@st.composite
def config_mutations(draw):
    """A function that puts one drawn fault into a config file's text."""
    kind = draw(st.sampled_from(
        ["value", "key", "drop-eq", "duplicate", "delete", "insert", "truncate",
         "byte"]))
    k = draw(st.integers(0, len(CFG_LINES) - 1))
    key, value = draw(CONFIG_KEYS), draw(CONFIG_VALUES)
    at, byte = draw(st.floats(0.0, 1.0)), draw(st.integers(0, 255))

    def mutate(lines) -> bytes:
        lines = list(lines)
        old_key, _, old_value = lines[k].partition("=")
        if kind == "value":
            lines[k] = f"{old_key}= {value}"
        elif kind == "key":
            lines[k] = f"{key} ={old_value}"
        elif kind == "drop-eq":
            lines[k] = lines[k].replace("=", " ")
        elif kind == "duplicate":
            lines.append(lines[k])
        elif kind == "delete":
            del lines[k]
        elif kind == "insert":
            lines.insert(k, f"{key} = {value}")
        data = bytearray(("\n".join(lines) + "\n").encode("utf-8"))
        if kind == "truncate":
            del data[int(at * len(data)):]
        elif kind == "byte":
            data[int(at * (len(data) - 1))] = byte
        return bytes(data)

    return mutate


@given(mutate=config_mutations())
@settings(max_examples=100, deadline=None)
def test_parse_config_file_mutation_fuzz(ws, mutate):
    path = ws / "fuzz.cfg"
    path.write_bytes(mutate(CFG_LINES))
    try:
        pred, train, search = _load_config(Namespace(config=str(path), seed=None))
    except ValueError:
        pass
    else:
        # what `train` and `search` build next: invalid values raise the
        # config's own error, which the CLI reports with exit 2
        for cls, kwargs in ((PredictorConfig, pred), (TrainConfig, train),
                            (SearchConfig, {**SEARCH_BASE, **search})):
            try:
                cls(**kwargs)
            except (ValueError, TrainError):
                pass
    # zero-shot transfer parses the whole file and builds TrainConfig without
    # training, so a mutation that drops `epochs = 1` stays fast
    run_cli("transfer", "--ckpt", ws / "plain.ckpt", "--bench", ws / "b.bench",
            "--train-count", 0, "--config", path, "--out", ws / "fuzz-transfer.ckpt")
