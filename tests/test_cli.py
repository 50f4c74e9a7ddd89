"""End-to-end command line runs against generated benchmark files."""

import json
import os
import subprocess
import sys
from argparse import Namespace
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import flan
from flan.cli import _load_config, _split_config, main, parse_config_file
from flan.encodings import load_supplemental
from flan.nas_search import SearchConfig
from flan.predictor import PredictorConfig
from flan.training import TrainConfig

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
        "--seed", "5", "--config", str(ws["cfg"]), "--unified",
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
    path = tmp_path / "c.cfg"
    path.write_text("learning_rate = 0.1\n")
    with pytest.raises(ValueError, match="unknown config keys"):
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
    ("search", "unified = maybe", "unified"),
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
    "unified": ("yes", True),
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


def test_train_with_proxies(ws, tmp_path, capsys):
    code, payload, _ = run_cli(
        capsys, "train", "--bench", str(ws["bench_a"]), "--train-count", "16",
        "--seed", "5", "--config", str(ws["cfg"]), "--supp", "zcp",
        "--out", str(tmp_path / "m.ckpt"),
    )
    assert code == 0
    assert payload["n"] == 8


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


def test_transfer_requires_a_unified_checkpoint(ws, tmp_path, capsys):
    ckpt = tmp_path / "plain.ckpt"
    code, _, _ = run_cli(
        capsys, "train", "--bench", str(ws["bench_a"]), "--train-count", "16",
        "--seed", "5", "--config", str(ws["cfg"]), "--out", str(ckpt),
    )
    assert code == 0
    code, _, err = run_cli(
        capsys, "transfer", "--ckpt", str(ckpt),
        "--bench", str(ws["bench_b"]), "--train-count", "0",
        "--config", str(ws["cfg"]), "--out", str(tmp_path / "t.ckpt"),
    )
    assert code == 2
    assert "unified" in err


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


def test_search_rejects_file_supp(ws, tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "search", "--bench", str(ws["bench_a"]),
        "--surrogate", "flan", "--supp", "other.supp", "--budget", "4",
        "--iters", "1", "--config", str(ws["cfg"]),
        "--out", str(tmp_path / "t.csv"),
    )
    assert code == 2
    assert "zcp" in err


# -- plumbing -------------------------------------------------------------------------

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
