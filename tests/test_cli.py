"""End-to-end command line runs against generated benchmark files."""

import hashlib
import json
import os
import subprocess
import sys
from argparse import Namespace, _SubParsersAction
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import flan
from flan.benchmark import ingest
from flan.cli import _load_config, _split_config, build_parser, main, parse_config_file
from flan.encodings import SupplementalProvider, load_supplemental
from flan.nas_search import SearchConfig, predictor_factory, search, write_trace_csv
from flan.predictor import PredictorConfig
from flan.training import TrainConfig, load_model, save_model

from conftest import REFERENCE_DIMS

TINY_CFG = """\
# predictor
op_embedding_dim = 6
node_embedding_dim = 6
hidden_dim = 8
gcn_dims = 7,5
backward_gcn_dims = 6
op_update_mlp_dims = 5
mlp_dims = 8
supp_embedder_dims = 6
nn_emb_dim = 5
timesteps = 2

# training
epochs = 2
batch_size = 6
lr = 0.01
transfer_epochs = 2
"""


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    payload = None
    if out.out.strip():
        payload = json.loads(out.out.strip().splitlines()[-1])
    return code, payload, out.err


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "tiny.cfg"
    cfg.write_text(TINY_CFG)
    bench_a = root / "a.bench"
    bench_b = root / "b.bench"
    for path, space, vocab, count, seed in (
        (bench_a, 0, 6, 24, 3),
        (bench_b, 1, 7, 12, 4),
    ):
        code = main([
            "gen-bench", "--num-nodes", "4", "--vocab-size", str(vocab),
            "--num-archs", str(count), "--seed", str(seed),
            "--noise-sigma", "0.05", "--interaction-scale", "0.5",
            "--space-id", str(space), "--out", str(path),
        ])
        assert code == 0
    return {"root": root, "cfg": cfg, "bench_a": bench_a, "bench_b": bench_b}


@pytest.fixture(scope="module")
def trained(ws, tmp_path_factory):
    root = tmp_path_factory.mktemp("ckpt")
    ckpt = root / "model.ckpt"
    report = root / "train.json"
    code = main([
        "train", "--bench", str(ws["bench_a"]), "--train-count", "16",
        "--seed", "5", "--config", str(ws["cfg"]),
        "--out", str(ckpt), "--report", str(report),
    ])
    assert code == 0
    return {"ckpt": ckpt, "report": json.loads(report.read_text())}


# -- config files ---------------------------------------------------------------------

def test_parse_config_file(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("# comment\n\nepochs = 3\nlr = 0.5\ngcn_dims = 8,8\n")
    assert parse_config_file(path) == {
        "epochs": "3", "lr": "0.5", "gcn_dims": "8,8"
    }


def test_parse_config_rejects_duplicates(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("epochs = 3\nepochs = 4\n")
    with pytest.raises(ValueError, match="duplicate"):
        parse_config_file(path)


def test_parse_config_rejects_unknown_keys(tmp_path):
    # unified is retired: checkpoints may still carry it, config files not
    path = tmp_path / "c.cfg"
    for key, value in (("learning_rate", "0.1"), ("unified", "true")):
        path.write_text(f"{key} = {value}\n")
        with pytest.raises(ValueError, match=rf"unknown config keys \['{key}'\]"):
            parse_config_file(path)


def test_parse_config_rejects_bad_lines(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("epochs 3\n")
    with pytest.raises(ValueError, match="key = value"):
        parse_config_file(path)
    path.write_text("epochs =\n")
    with pytest.raises(ValueError, match="empty"):
        parse_config_file(path)


@pytest.mark.parametrize("command, line, key", [
    ("train", "epochs = x", "epochs"),
    ("search", "initial_sample = none", "initial_sample"),
    ("train", "gcn_dims = 16, x", "gcn_dims"),
])
def test_unparsable_config_value_names_file_and_key(ws, tmp_path, capsys,
                                                    command, line, key):
    path = tmp_path / "run.cfg"
    path.write_text(f"lr = 0.01\n{line}\n")
    args = {"train": ["--train-count", "16", "--out", str(tmp_path / "m.ckpt")],
            "search": ["--out", str(tmp_path / "trace.csv")]}[command]
    code, payload, err = run_cli(
        capsys, command, "--bench", str(ws["bench_a"]), "--config", str(path),
        *args,
    )
    assert code == 2 and payload is None
    (message,) = err.strip().splitlines()
    assert message.startswith(f"error: {path}: {key}: ")


# field -> (config value, parsed value); every value differs from the default
NON_DEFAULT = {
    "op_embedding_dim": ("8", 8),
    "node_embedding_dim": ("8", 8),
    "hidden_dim": ("7", 7),
    "gcn_dims": ("16, 16", (16, 16)),
    "mlp_dims": ("5,3", (5, 3)),
    "backward_gcn_dims": ("9", (9,)),
    "op_update_mlp_dims": ("4,4", (4, 4)),
    "supp_embedder_dims": ("6", (6,)),
    "nn_emb_dim": ("16", 16),
    "timesteps": ("3", 3),
    "forward_mode": ("dgf", "dgf"),
    "backward_mode": ("gat", "gat"),
    "attention_variant": ("kqv_softmax", "kqv_softmax"),
    "supplemental_dims": ("3, 2", (3, 2)),
    "lr": ("0.005", 0.005),
    "weight_decay": ("0", 0.0),
    "epochs": ("3", 3),
    "batch_size": ("4", 4),
    "transfer_epochs": ("2", 2),
    "transfer_lr": ("0.02", 0.02),
    "hinge_margin": ("0.3", 0.3),
    "seed": ("11", 11),
    "adam_beta1": ("0.8", 0.8),
    "adam_beta2": ("0.99", 0.99),
    "adam_eps": ("1e-6", 1e-6),
    "budget_per_iter": ("6", 6),
    "max_iters": ("5", 5),
    "initial_sample": ("12", 12),
    "pool_floor": ("64", 64),
}
# validation ties these pairs, so each is written with its partner
TIED = {"op_embedding_dim": "node_embedding_dim",
        "node_embedding_dim": "op_embedding_dim",
        "gcn_dims": "nn_emb_dim", "nn_emb_dim": "gcn_dims"}
SEARCH_BASE = {"budget_per_iter": 4, "max_iters": 2}
CONFIG_CLASSES = (PredictorConfig, TrainConfig, SearchConfig)


def build_configs(path):
    pred, train, search = _load_config(Namespace(config=str(path), seed=None))
    return (PredictorConfig(**pred), TrainConfig(**train),
            SearchConfig(**{**SEARCH_BASE, **search}))


@pytest.mark.parametrize("cls, name", [
    (cls, f.name) for cls in CONFIG_CLASSES for f in fields(cls)
])
def test_config_file_sets_every_field(tmp_path, cls, name):
    keys = [name] + ([TIED[name]] if name in TIED else [])
    path = tmp_path / "c.cfg"
    path.write_text("".join(f"{k} = {NON_DEFAULT[k][0]}\n" for k in keys))
    built = build_configs(path)[CONFIG_CLASSES.index(cls)]
    value = NON_DEFAULT[name][1]
    default = {**{f.name: f.default for f in fields(cls)}, **SEARCH_BASE}[name]
    assert value != default
    assert getattr(built, name) == value
    assert type(getattr(built, name)) is type(value)


def test_seed_flag_overrides_train_and_search_seed_only(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("seed = 11\nepochs = 3\n")
    args = Namespace(config=str(path), seed=7)
    pred, train, search = _load_config(args)
    assert pred == {}
    assert train == {"seed": 7, "epochs": 3}
    assert search == {"seed": 7}
    assert _split_config({}, 7) == ({}, {"seed": 7}, {"seed": 7})
    assert _split_config({}, None) == ({}, {}, {})


# -- gen-bench ------------------------------------------------------------------------

def test_gen_bench_is_byte_deterministic(tmp_path, capsys):
    paths = [tmp_path / "x.bench", tmp_path / "y.bench"]
    for path in paths:
        code, payload, _ = run_cli(
            capsys, "gen-bench", "--num-nodes", "4", "--vocab-size", "6",
            "--num-archs", "10", "--seed", "7", "--out", str(path),
        )
        assert code == 0
        assert payload["archs"] == 10
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_gen_bench_invalid_spec_fails_cleanly(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "gen-bench", "--num-nodes", "1", "--vocab-size", "6",
        "--num-archs", "4", "--out", str(tmp_path / "x.bench"),
    )
    assert code == 2
    assert "error:" in err
    # one node past the bound is refused by the spec, before generation
    code, payload, err = run_cli(
        capsys, "gen-bench", "--num-nodes", "65", "--vocab-size", "6",
        "--num-archs", "4", "--out", str(tmp_path / "x.bench"),
    )
    assert (code, payload) == (2, None)
    assert err == "error: num_nodes must be at most 64, got 65\n"
    assert not (tmp_path / "x.bench").exists()


def test_gen_bench_non_finite_noise_fails_cleanly(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "gen-bench", "--num-nodes", "4", "--vocab-size", "6",
        "--num-archs", "4", "--noise-sigma", "nan",
        "--out", str(tmp_path / "x.bench"),
    )
    assert code == 2
    assert err.startswith("error: ") and "noise_sigma" in err
    assert err.count("\n") == 1


# sha256 of CLI outputs; any change to generation, export or encoding that
# alters a byte shows up here
GEN_BENCH_DIGESTS = [
    (["--num-nodes", "4", "--vocab-size", "5", "--num-archs", "40", "--seed", "1"],
     "a792e406979ac9853415c56da91b5f0a379ee55822b3fe298cd026c86eafd4b5"),
    (["--num-nodes", "7", "--vocab-size", "8", "--num-archs", "800", "--seed", "3",
      "--interaction-scale", "0.5"],
     "84493dcfe21ab05b963a4892fc8b7f249b4d4e0e2e51ed28661974c3b50b813d"),
    (["--num-nodes", "6", "--vocab-size", "9", "--num-archs", "500", "--seed", "4",
      "--interaction-scale", "1.5", "--noise-sigma", "0.1"],
     "54b9450e3ff439f70f81425b1178d8fd046f33b60ca00d7643ade9e22c3f142b"),
]
ENCODE_DIGESTS = {
    "adjacency": "658f212043822f19246b715d8ad979fbf788bdbb1770215d88cd45d12e74ffb0",
    "path": "1049196a488ff195dbc447aa25e88f437b0493a0c7a7e36469dc370f0157e3ff",
}
# checkpoint of a reference-dims `flan train` (two epochs, 32 archs) on 1.bench
TRAIN_DIGEST = "c47e8f68efb1246994b558c3da50978c9f2a0ea454273f70a5d3be05030756db"


def test_same_seed_gives_pinned_bytes(tmp_path, capsys):
    def sha(path):
        return hashlib.sha256(path.read_bytes()).hexdigest()

    for k, (args, digest) in enumerate(GEN_BENCH_DIGESTS):
        out = tmp_path / f"{k}.bench"
        code, _, _ = run_cli(capsys, "gen-bench", *args, "--out", str(out))
        assert code == 0
        assert sha(out) == digest, args
    for kind, digest in ENCODE_DIGESTS.items():
        out = tmp_path / f"{kind}.supp"
        code, _, _ = run_cli(capsys, "encode", "--bench", str(tmp_path / "1.bench"),
                             "--kind", kind, "--out", str(out))
        assert code == 0
        assert sha(out) == digest, kind
    cfg = tmp_path / "ref.cfg"
    cfg.write_text("".join(
        f"{key} = {','.join(map(str, value)) if isinstance(value, tuple) else value}\n"
        for key, value in REFERENCE_DIMS.items()) + "epochs = 2\n")
    out = tmp_path / "train.ckpt"
    code, _, _ = run_cli(capsys, "train", "--bench", str(tmp_path / "1.bench"),
                         "--train-count", "32", "--seed", "2", "--config", str(cfg),
                         "--out", str(out))
    assert code == 0
    assert sha(out) == TRAIN_DIGEST


# -- encode ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", ["adjacency", "path", "score"])
def test_encode_kinds_round_trip(ws, tmp_path, capsys, kind):
    out = tmp_path / f"{kind}.supp"
    args = ["encode", "--bench", str(ws["bench_a"]), "--kind", kind,
            "--out", str(out)]
    if kind == "path":
        args += ["--max-paths", "64"]
    code, payload, _ = run_cli(capsys, *args)
    assert code == 0
    table = load_supplemental(out)
    assert table.kind == kind
    assert table.dim == payload["dim"]
    assert len(table.vectors) == 24


def test_encode_score_output_is_z_normalized(ws, tmp_path, capsys):
    out = tmp_path / "score.supp"
    code, _, _ = run_cli(capsys, "encode", "--bench", str(ws["bench_a"]),
                         "--kind", "score", "--out", str(out))
    assert code == 0
    rows = np.stack(list(load_supplemental(out).vectors.values()))
    np.testing.assert_allclose(rows.mean(axis=0), 0.0, atol=1e-9)


def test_encode_is_deterministic(ws, tmp_path, capsys):
    outs = [tmp_path / "p1.supp", tmp_path / "p2.supp"]
    for out in outs:
        run_cli(capsys, "encode", "--bench", str(ws["bench_a"]),
                "--kind", "path", "--out", str(out))
    assert outs[0].read_bytes() == outs[1].read_bytes()


@pytest.mark.parametrize("kind", ["adjacency", "score"])
def test_encode_refuses_max_paths_outside_the_path_kind(ws, tmp_path, capsys, kind):
    out = tmp_path / f"{kind}.supp"
    code, payload, err = run_cli(capsys, "encode", "--bench", str(ws["bench_a"]),
                                 "--kind", kind, "--max-paths", "3", "--out", str(out))
    assert (code, payload) == (2, None)
    assert err == f"error: --max-paths applies only to --kind path, not --kind {kind}\n"
    assert not out.exists()


def test_encode_path_of_a_space_too_large_names_max_paths(tmp_path, capsys):
    # 24 nodes and 5 interior ops index about 3e15 op sequences
    bench = tmp_path / "n24.bench"
    assert main(["gen-bench", "--num-nodes", "24", "--vocab-size", "8",
                 "--num-archs", "4", "--out", str(bench)]) == 0
    capsys.readouterr()
    out = tmp_path / "path.supp"
    for extra in ([], ["--max-paths", str(1 << 50)]):
        code, payload, err = run_cli(capsys, "encode", "--bench", str(bench),
                                     "--kind", "path", "--out", str(out), *extra)
        assert (code, payload) == (2, None)
        assert err.startswith("error: a path block of ")
        assert err.endswith("; set max_paths to at most 1048576\n")
        assert err.count("\n") == 1
        assert not out.exists()
    code, payload, err = run_cli(capsys, "encode", "--bench", str(bench), "--kind",
                                 "path", "--max-paths", "64", "--out", str(out))
    assert (code, payload["dim"], payload["count"], err) == (0, 64, 4, "")


@pytest.mark.parametrize("error, line", [
    (MemoryError("Unable to allocate 37.3 GiB for an array with shape "
                 "(200000, 200000) and data type bool"),
     "error: out of memory: Unable to allocate 37.3 GiB for an array with shape "
     "(200000, 200000) and data type bool\n"),
    (MemoryError(), "error: out of memory: allocation failed\n"),
])
def test_out_of_memory_exits_2_with_one_line(tmp_path, capsys, monkeypatch, error,
                                             line):
    # an allocation too large for the machine fails so; a stand-in raises
    # the error here, with no real allocation
    def refuse(*args, **kwargs):
        raise error

    monkeypatch.setattr(flan.benchmark, "generate_synthetic", refuse)
    code, payload, err = run_cli(
        capsys, "gen-bench", "--num-nodes", "64", "--vocab-size", "8",
        "--num-archs", "4", "--out", str(tmp_path / "huge.bench"))
    assert (code, payload, err) == (2, None, line)
    assert not (tmp_path / "huge.bench").exists()


@pytest.mark.parametrize("kind", ["adjacency", "path", "score"])
def test_encode_zero_record_bench_exits_2(ws, tmp_path, capsys, kind):
    header = json.loads(ws["bench_a"].read_text().splitlines()[0])
    header["count"] = 0
    empty = tmp_path / "empty.bench"
    empty.write_text(json.dumps(header) + "\n")
    out = tmp_path / f"{kind}.supp"
    code, payload, err = run_cli(capsys, "encode", "--bench", str(empty),
                                 "--kind", kind, "--out", str(out))
    assert code == 2 and payload is None
    assert err.startswith("error: ") and "no architectures" in err
    assert len(err.strip().splitlines()) == 1
    assert not out.exists()


# -- train / eval ---------------------------------------------------------------------

def test_train_writes_checkpoint_and_report(trained):
    report = trained["report"]
    assert trained["ckpt"].exists()
    assert report["train_count"] == 16
    assert report["n"] == 8
    assert -1.0 <= report["kendall_tau"] <= 1.0
    assert report["final_loss"] is not None


def test_eval_reproduces_the_training_report(ws, trained, capsys):
    code, payload, _ = run_cli(
        capsys, "eval", "--ckpt", str(trained["ckpt"]),
        "--bench", str(ws["bench_a"]),
    )
    assert code == 0
    assert payload["kendall_tau"] == trained["report"]["kendall_tau"]
    assert payload["spearman_rho"] == trained["report"]["spearman_rho"]
    assert payload["n"] == trained["report"]["n"]


def test_eval_rejects_a_different_benchmark(ws, trained, capsys):
    code, _, err = run_cli(
        capsys, "eval", "--ckpt", str(trained["ckpt"]),
        "--bench", str(ws["bench_b"]),
    )
    assert code == 2
    assert "trained on" in err


@pytest.mark.parametrize("provenance, key", [
    (None, "bench_name"),
    ({"bench_name": "synthetic-n4v6-s3"}, "train_count"),
    ({"bench_name": "synthetic-n4v6-s3", "train_count": 16}, "split_seed"),
])
def test_eval_of_a_checkpoint_without_provenance_names_the_missing_key(
        ws, trained, tmp_path, capsys, provenance, key):
    # save_model takes any provenance; eval needs the split train wrote
    model, _ = load_model(trained["ckpt"])
    path = tmp_path / "library.ckpt"
    save_model(model, path, provenance)
    code, payload, err = run_cli(capsys, "eval", "--ckpt", str(path),
                                 "--bench", str(ws["bench_a"]))
    assert (code, payload) == (2, None)
    assert err == (f"error: checkpoint provenance has no {key!r}: eval reads "
                   "checkpoints written by flan train or flan transfer\n")


@pytest.mark.parametrize("key", ["train_count", "split_seed"])
def test_eval_of_a_checkpoint_with_a_non_integer_provenance_names_the_key(
        ws, trained, tmp_path, capsys, key):
    model, provenance = load_model(trained["ckpt"])
    path = tmp_path / "library.ckpt"
    save_model(model, path, {**provenance, key: "x"})
    code, payload, err = run_cli(capsys, "eval", "--ckpt", str(path),
                                 "--bench", str(ws["bench_a"]))
    assert (code, payload) == (2, None)
    assert err == f"error: checkpoint provenance {key!r} is 'x', not an integer\n"


def test_train_with_proxies(ws, tmp_path, capsys):
    code, payload, _ = run_cli(
        capsys, "train", "--bench", str(ws["bench_a"]), "--train-count", "16",
        "--seed", "5", "--config", str(ws["cfg"]), "--supp", "zcp",
        "--out", str(tmp_path / "m.ckpt"),
    )
    assert code == 0
    assert payload["n"] == 8


def test_train_refuses_zcp_values_too_large_to_normalise(tmp_path, capsys):
    # z-normalising a column of +-1e300 overflows and leaves it all -0.0
    bench = tmp_path / "big.bench"
    code, _, _ = run_cli(capsys, "gen-bench", "--num-nodes", "4", "--vocab-size", "6",
                         "--num-archs", "40", "--seed", "3", "--out", str(bench))
    assert code == 0
    lines = bench.read_text().splitlines()
    for k in range(1, len(lines)):
        record = json.loads(lines[k])
        record["zcp"][0] = (-1.0) ** k * 1e300
        lines[k] = json.dumps(record, sort_keys=True)
    bench.write_text("\n".join(lines) + "\n")
    code, payload, err = run_cli(
        capsys, "train", "--bench", str(bench), "--train-count", "20",
        "--supp", "zcp", "--out", str(tmp_path / "m.ckpt"))
    assert (code, payload) == (2, None)
    assert err == "error: line 2: zcp values must be at most 1e+100 in magnitude\n"
    assert not (tmp_path / "m.ckpt").exists()


def test_train_with_an_empty_supplemental_table_names_its_kind(ws, tmp_path, capsys):
    supp = tmp_path / "empty.supp"
    supp.write_text(json.dumps({"format": "flan-supp/1", "kind": "cate", "dim": 2,
                                "count": 0}) + "\n")
    code, payload, err = run_cli(
        capsys, "train", "--bench", str(ws["bench_a"]), "--train-count", "16",
        "--config", str(ws["cfg"]), "--supp", str(supp),
        "--out", str(tmp_path / "m.ckpt"))
    assert (code, payload) == (2, None)
    assert err == "error: supplemental table 'cate' has no vectors\n"


def test_train_with_zcp_missing_for_an_arch_prints_one_unquoted_line(ws, tmp_path,
                                                                     capsys):
    bench = tmp_path / "holes.bench"
    lines = ws["bench_a"].read_text().splitlines()
    record = json.loads(lines[1])
    assert record["id"] == 0
    del record["zcp"]
    lines[1] = json.dumps(record, sort_keys=True)
    bench.write_text("\n".join(lines) + "\n")
    code, payload, err = run_cli(
        capsys, "train", "--bench", str(bench), "--train-count", "16",
        "--config", str(ws["cfg"]), "--supp", "zcp",
        "--out", str(tmp_path / "m.ckpt"))
    assert (code, payload) == (2, None)
    assert err == "error: supplemental table 'zcp' has no vector for arch 0\n"
    assert not (tmp_path / "m.ckpt").exists()


def _strict_json(text):
    def refuse(name):
        raise ValueError(f"{name} is not JSON")

    return json.loads(text, parse_constant=refuse)


def test_stdout_and_report_are_strict_json_when_a_value_is_not_finite(
        ws, tmp_path, capsys):
    # one training arch gives no ranking pair, so every batch is skipped
    # and the final epoch loss is NaN
    report = tmp_path / "r.json"
    code = main(["train", "--bench", str(ws["bench_a"]), "--train-count", "1",
                 "--seed", "5", "--config", str(ws["cfg"]),
                 "--out", str(tmp_path / "m.ckpt"), "--report", str(report)])
    assert code == 0
    payload = _strict_json(capsys.readouterr().out)
    assert payload["final_loss"] is None
    assert _strict_json(report.read_text()) == payload


def test_diverging_train_exits_2_naming_the_failure(ws, tmp_path, capsys):
    # the first Adam step at this rate overflows the weights; the run must
    # end in one error line, with no numpy warning (pytest makes warnings
    # errors) and no checkpoint
    path = tmp_path / "diverge.cfg"
    path.write_text(ws["cfg"].read_text().replace("lr = 0.01", "lr = 1e300"))
    out = tmp_path / "m.ckpt"
    code, payload, err = run_cli(
        capsys, "train", "--bench", str(ws["bench_a"]), "--train-count", "16",
        "--seed", "5", "--config", str(path), "--out", str(out),
    )
    assert code == 2 and payload is None
    (message,) = err.strip().splitlines()
    assert message.startswith("error: non-finite loss")
    assert "parameter op_table is non-finite" in message
    assert not out.exists()


def test_train_whose_last_step_diverges_exits_2_naming_the_parameter(
        ws, tmp_path, capsys):
    # one step on six archs: no later loss sees what that update did
    path = tmp_path / "diverge.cfg"
    path.write_text(ws["cfg"].read_text().replace("lr = 0.01", "lr = 1e300")
                    .replace("epochs = 2", "epochs = 1"))
    out = tmp_path / "m.ckpt"
    code, payload, err = run_cli(
        capsys, "train", "--bench", str(ws["bench_a"]), "--train-count", "6",
        "--seed", "5", "--config", str(path), "--out", str(out),
    )
    assert code == 2 and payload is None
    (message,) = err.strip().splitlines()
    assert message == ("error: the last update (step 1) diverged: parameter "
                       "op_table is non-finite; lower the learning rate")
    assert not out.exists()


def test_train_degenerate_test_split_fails_cleanly(ws, tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "train", "--bench", str(ws["bench_a"]), "--train-count", "23",
        "--seed", "5", "--config", str(ws["cfg"]),
        "--out", str(tmp_path / "m.ckpt"),
    )
    assert code == 2
    assert "error:" in err


# -- transfer -------------------------------------------------------------------------

def test_transfer_zero_shot_and_fine_tune(ws, trained, tmp_path, capsys):
    code, zero, _ = run_cli(
        capsys, "transfer", "--ckpt", str(trained["ckpt"]),
        "--bench", str(ws["bench_b"]), "--train-count", "0",
        "--config", str(ws["cfg"]), "--seed", "2",
        "--out", str(tmp_path / "zero.ckpt"),
    )
    assert code == 0
    assert zero["train_count"] == 0 and zero["n"] == 12

    code, tuned, _ = run_cli(
        capsys, "transfer", "--ckpt", str(trained["ckpt"]),
        "--bench", str(ws["bench_b"]), "--train-count", "6",
        "--config", str(ws["cfg"]), "--seed", "2",
        "--out", str(tmp_path / "tuned.ckpt"),
    )
    assert code == 0
    assert tuned["train_count"] == 6 and tuned["n"] == 6
    assert (tmp_path / "zero.ckpt").read_bytes() != (tmp_path / "tuned.ckpt").read_bytes()


def test_eval_ranks_every_arch_of_a_zero_shot_transfer(ws, trained, tmp_path,
                                                      capsys):
    ckpt = tmp_path / "zero.ckpt"
    code, zero, _ = run_cli(
        capsys, "transfer", "--ckpt", str(trained["ckpt"]),
        "--bench", str(ws["bench_b"]), "--train-count", "0",
        "--config", str(ws["cfg"]), "--out", str(ckpt),
    )
    assert code == 0
    code, payload, err = run_cli(capsys, "eval", "--ckpt", str(ckpt),
                                 "--bench", str(ws["bench_b"]))
    assert (code, err) == (0, "")
    assert payload == {"n": 12, "train_count": 0,
                       "kendall_tau": zero["kendall_tau"],
                       "spearman_rho": zero["spearman_rho"]}


def test_eval_prints_the_report_of_supp_train_and_fine_tuned_transfer(
        ws, trained, tmp_path, capsys):
    # train and transfer write one provenance; eval ranks the same split
    # with the same supplemental input, so it prints the report they printed
    source, tuned = tmp_path / "source.ckpt", tmp_path / "tuned.ckpt"
    runs = [
        (source, ws["bench_a"], ("train", "--train-count", "16", "--seed", "5")),
        (tuned, ws["bench_b"], ("transfer", "--ckpt", str(source),
                                "--train-count", "6", "--seed", "2")),
    ]
    for out, bench, argv in runs:
        code, report, _ = run_cli(capsys, *argv, "--bench", str(bench),
                                  "--config", str(ws["cfg"]), "--supp", "zcp",
                                  "--out", str(out))
        assert code == 0 and report["checkpoint"] == str(out)
        code, payload, err = run_cli(capsys, "eval", "--ckpt", str(out),
                                     "--bench", str(bench))
        assert (code, err) == (0, "")
        del report["checkpoint"]
        report.pop("final_loss", None)
        assert payload == report


def test_a_split_too_small_to_rank_leaves_no_checkpoint(ws, trained, tmp_path, capsys):
    # a vocabulary of input, output and none holds one distinct cell, so a
    # zero-shot transfer into it has one arch to rank; train holds out one
    target = tmp_path / "reserved.bench"
    assert main(["gen-bench", "--num-nodes", "4", "--vocab-size", "3",
                 "--num-archs", "1", "--seed", "2", "--space-id", "1",
                 "--out", str(target)]) == 0
    runs = [
        ("transfer", "--ckpt", str(trained["ckpt"]), "--bench", str(target),
         "--train-count", "0", "--config", str(ws["cfg"])),
        ("train", "--bench", str(ws["bench_a"]), "--train-count", "23",
         "--seed", "5", "--config", str(ws["cfg"])),
    ]
    for argv in runs:
        out = tmp_path / f"{argv[0]}.ckpt"
        code, _, err = run_cli(capsys, *argv, "--out", str(out))
        assert code == 2
        assert err == "error: rank correlation needs at least two observations\n"
        assert not out.exists()


# -- search ---------------------------------------------------------------------------

def test_search_oracle_surrogate(ws, tmp_path, capsys):
    out = tmp_path / "trace.csv"
    code, payload, _ = run_cli(
        capsys, "search", "--bench", str(ws["bench_a"]),
        "--surrogate", "oracle", "--budget", "4", "--iters", "2",
        "--pool-floor", "4", "--seed", "3", "--out", str(out),
    )
    assert code == 0
    assert payload["evaluated"] == 12
    assert payload["iterations"] == 2
    assert not payload["budget_truncated"]
    header = out.read_text().splitlines()[0]
    assert header == "iter,pool_size,phase,arch_id,true_acc,pred_score,best_so_far"


def test_search_trace_is_deterministic(ws, tmp_path, capsys):
    outs = [tmp_path / "t1.csv", tmp_path / "t2.csv"]
    payloads = []
    for out in outs:
        code, payload, _ = run_cli(
            capsys, "search", "--bench", str(ws["bench_a"]),
            "--surrogate", "constant", "--budget", "4", "--iters", "2",
            "--pool-floor", "4", "--seed", "9", "--out", str(out),
        )
        assert code == 0
        payload.pop("trace")
        payloads.append(payload)
    assert outs[0].read_bytes() == outs[1].read_bytes()
    assert payloads[0] == payloads[1]


def test_search_flan_surrogate_with_proxies(ws, tmp_path, capsys):
    code, payload, _ = run_cli(
        capsys, "search", "--bench", str(ws["bench_a"]),
        "--surrogate", "flan", "--supp", "zcp", "--budget", "4",
        "--iters", "1", "--pool-floor", "4", "--seed", "1",
        "--config", str(ws["cfg"]), "--out", str(tmp_path / "t.csv"),
    )
    assert code == 0
    assert payload["evaluated"] == 8


def test_search_requires_a_budget(ws, tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "search", "--bench", str(ws["bench_a"]),
        "--surrogate", "oracle", "--iters", "2",
        "--out", str(tmp_path / "t.csv"),
    )
    assert code == 2
    assert "budget" in err


@pytest.mark.parametrize("surrogate", ["oracle", "constant"])
def test_search_supp_with_a_surrogate_that_ignores_it_exits_2(ws, tmp_path, capsys,
                                                              surrogate):
    out = tmp_path / "t.csv"
    code, _, err = run_cli(
        capsys, "search", "--bench", str(ws["bench_a"]), "--surrogate", surrogate,
        "--supp", str(tmp_path / "no-such-file.supp"), "--budget", "4",
        "--iters", "1", "--out", str(out),
    )
    assert code == 2
    assert err == ("error: --supp feeds only the flan surrogate, "
                   f"not --surrogate {surrogate}\n")
    assert not out.exists()


def test_search_takes_a_file_supp_and_zcp(ws, tmp_path, capsys):
    supp = tmp_path / "score.supp"
    assert main(["encode", "--bench", str(ws["bench_a"]), "--kind", "score",
                 "--out", str(supp)]) == 0
    code, payload, err = run_cli(
        capsys, "search", "--bench", str(ws["bench_a"]),
        "--surrogate", "flan", "--supp", str(supp), "--supp", "zcp",
        "--budget", "4", "--iters", "2", "--pool-floor", "4", "--seed", "1",
        "--config", str(ws["cfg"]), "--out", str(tmp_path / "t.csv"),
    )
    assert (code, err) == (0, "")
    assert payload["evaluated"] == 4 + 2 * 4
    assert not payload["budget_truncated"]


def test_search_supp_zcp_writes_the_trace_of_the_library_search(ws, tmp_path,
                                                                capsys):
    out = tmp_path / "cli.csv"
    code, _, _ = run_cli(
        capsys, "search", "--bench", str(ws["bench_a"]),
        "--surrogate", "flan", "--supp", "zcp", "--budget", "4",
        "--iters", "2", "--pool-floor", "4", "--seed", "1",
        "--config", str(ws["cfg"]), "--out", str(out),
    )
    assert code == 0
    bench = ingest(ws["bench_a"])
    pred, train, search_kw = _load_config(Namespace(config=ws["cfg"], seed=1))
    cfg = PredictorConfig(**pred, supplemental_dims=(bench.proxies.dim,))
    scfg = SearchConfig(budget_per_iter=4, max_iters=2, pool_floor=4, **search_kw)
    state = search(bench, predictor_factory(
        cfg, TrainConfig(**train), SupplementalProvider([bench.proxies])), scfg)
    write_trace_csv(state, tmp_path / "lib.csv")
    assert out.read_bytes() == (tmp_path / "lib.csv").read_bytes()


# -- plumbing -------------------------------------------------------------------------

class ReadRecorder(Namespace):
    """A namespace that notes the name of every attribute read from it."""

    def __getattribute__(self, name):
        if not name.startswith("_"):
            object.__getattribute__(self, "_reads").add(name)
        return object.__getattribute__(self, name)


def test_every_flag_a_subcommand_accepts_is_read(ws, tmp_path, capsys):
    ckpt = tmp_path / "m.ckpt"
    common = ["--config", str(ws["cfg"]), "--seed", "2"]
    runs = [
        ["gen-bench", "--num-nodes", "4", "--vocab-size", "5",
         "--num-archs", "8", "--seed", "1", "--noise-sigma", "0.05",
         "--interaction-scale", "0.5", "--utilities", "0.1,0.2,0.3,0.4,0.5",
         "--space-id", "2", "--name", "g", "--out", str(tmp_path / "g.bench")],
        ["encode", "--bench", str(ws["bench_a"]), "--kind", "path",
         "--max-paths", "64", "--out", str(tmp_path / "p.supp")],
        ["train", "--bench", str(ws["bench_a"]), "--train-count", "16",
         "--supp", "zcp", "--out", str(ckpt),
         "--report", str(tmp_path / "m.json"), *common],
        ["eval", "--ckpt", str(ckpt), "--bench", str(ws["bench_a"]),
         "--out", str(tmp_path / "e.json")],
        ["transfer", "--ckpt", str(ckpt), "--bench", str(ws["bench_b"]),
         "--train-count", "6", "--supp", "zcp", "--out", str(tmp_path / "t.ckpt"),
         "--report", str(tmp_path / "t.json"), *common],
        ["search", "--bench", str(ws["bench_a"]), "--surrogate", "flan",
         "--supp", "zcp", "--budget", "4", "--iters", "1", "--initial", "4",
         "--pool-floor", "4", "--out", str(tmp_path / "s.csv"), *common],
    ]
    parser = build_parser()
    accepted, read = {}, {}
    for argv in runs:
        args = ReadRecorder(**vars(parser.parse_args(argv)))
        object.__setattr__(args, "_reads", set())
        assert args.func(args) == 0, argv
        capsys.readouterr()
        accepted[argv[0]] = set(vars(args)) - {"func", "command", "_reads"}
        read.setdefault(argv[0], set()).update(args._reads)
    (subcommands,) = [a.choices for a in parser._actions
                      if isinstance(a, _SubParsersAction)]
    assert set(accepted) == set(subcommands)
    for command, dests in accepted.items():
        assert dests <= read[command], (command, sorted(dests - read[command]))


@pytest.mark.parametrize("argv", [
    ["gen-bench", "--num-nodes", "4", "--vocab-size", "5", "--num-archs", "8",
     "--config", "c.cfg", "--out", "g.bench"],
    ["encode", "--bench", "a.bench", "--kind", "path", "--config", "c.cfg",
     "--out", "p.supp"],
    ["encode", "--bench", "a.bench", "--kind", "path", "--seed", "1",
     "--out", "p.supp"],
    ["eval", "--ckpt", "m.ckpt", "--bench", "a.bench", "--seed", "1"],
    ["eval", "--ckpt", "m.ckpt", "--bench", "a.bench", "--config", "c.cfg"],
])
def test_a_flag_a_subcommand_does_not_read_exits_via_argparse(argv, capsys):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_unknown_flag_exits_via_argparse(ws, capsys):
    with pytest.raises(SystemExit) as info:
        main(["train", "--bench", str(ws["bench_a"]), "--nope"])
    assert info.value.code == 2
    capsys.readouterr()


def test_missing_bench_file_exits_cleanly(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "train", "--bench", str(tmp_path / "absent.bench"),
        "--train-count", "4", "--out", str(tmp_path / "m.ckpt"),
    )
    assert code == 2
    assert "error:" in err


def test_module_entry_point_smoke(tmp_path):
    out = tmp_path / "m.bench"
    # the child imports the same flan as this process, installed or not
    package_root = str(Path(flan.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (package_root, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "flan.cli", "gen-bench", "--num-nodes", "3",
         "--vocab-size", "5", "--num-archs", "3", "--seed", "1",
         "--out", str(out)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr
    assert out.exists()
    assert json.loads(proc.stdout)["archs"] == 3
