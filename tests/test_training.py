"""Hinge ranking loss, fit/transfer behavior, and checkpoint persistence.

The loss oracle below recomputes the pairwise hinge with two explicit
loops so the vectorized pair indexing is checked against something that
cannot share its bugs.
"""

import hashlib
import itertools
import json
import math
import re
import struct
from dataclasses import replace

import numpy as np
import pytest

from flan.autodiff import Tape, Tensor
from flan.benchmark import SyntheticSpec, generate_synthetic, split
from flan.cellgraph import CellArch
from flan.encodings import SupplementalProvider, SupplementalTable, unify
from flan.metrics import kendall_tau
from flan.predictor import (
    PredictorModel,
    forward,
    forward_batch,
    init,
    parameter_shapes,
    prepare_batch,
    score_archs,
)
from flan.rng import Rng
from flan.training import (
    ADAM_BLOCK,
    CKPT_MAGIC,
    Checkpoint,
    CheckpointError,
    TrainConfig,
    TrainError,
    _adam_step,
    _AdamState,
    fit,
    hinge_rank_loss,
    load_checkpoint,
    load_model,
    model_from_checkpoint,
    ranking_pairs,
    save_model,
    transfer,
)

from conftest import ref_config, reference_bench, small_bench, tiny_config


def hinge_oracle(scores, accs, margin):
    total, pairs = 0.0, 0
    for i in range(len(accs)):
        for j in range(len(accs)):
            if accs[i] > accs[j]:
                total += max(0.0, margin - (scores[i] - scores[j]))
                pairs += 1
    return total / pairs if pairs else 0.0


def model_for(bench, seed=0, **overrides):
    return init(tiny_config(**overrides), unify([bench.vocab]), 1, seed)


def params_bytes(model):
    return {name: p.data.tobytes() for name, p in model.params.items()}


def quick_cfg(**kw):
    base = dict(epochs=4, batch_size=6, lr=0.01, seed=3)
    base.update(kw)
    return TrainConfig(**base)


# -- config -------------------------------------------------------------------------

def test_train_config_rejections():
    for bad in (
        dict(lr=0.0),
        dict(transfer_lr=-1.0),
        dict(epochs=-1),
        dict(transfer_epochs=-2),
        dict(batch_size=0),
        dict(hinge_margin=-0.1),
        dict(adam_beta1=1.0),
        dict(adam_beta2=-0.5),
        dict(weight_decay=-1e-9),
        dict(adam_eps=-1.0),
        dict(adam_eps=0.0),
    ):
        with pytest.raises(TrainError):
            TrainConfig(**bad)
    for name in ("lr", "transfer_lr", "weight_decay", "hinge_margin", "adam_eps"):
        for value in (math.nan, math.inf):
            with pytest.raises(TrainError, match=name):
                TrainConfig(**{name: value})
    assert TrainConfig(epochs=0).epochs == 0


# -- ranking pairs and loss ---------------------------------------------------------

def test_ranking_pairs_enumeration():
    i, j = ranking_pairs(np.array([0.3, 0.1, 0.3, 0.5]))
    got = sorted(zip(i.tolist(), j.tolist()))
    assert got == [(0, 1), (2, 1), (3, 0), (3, 1), (3, 2)]


def test_ranking_pairs_all_tied():
    i, j = ranking_pairs(np.array([0.5, 0.5, 0.5]))
    assert i.size == 0 and j.size == 0


def test_hinge_zero_when_margin_met():
    loss = hinge_rank_loss(Tensor([2.0, 1.0]), [1.0, 0.0], 0.1)
    assert loss.item() == 0.0


def test_hinge_tied_scores_pay_the_margin():
    loss = hinge_rank_loss(Tensor([0.0, 0.0]), [1.0, 0.0], 0.1)
    assert loss.item() == pytest.approx(0.1, abs=1e-15)


def test_hinge_inverted_pair():
    loss = hinge_rank_loss(Tensor([0.2, 0.5]), [1.0, 0.0], 0.1)
    assert loss.item() == pytest.approx(0.4, abs=1e-15)


def test_hinge_matches_double_loop_oracle():
    rng = Rng(17)
    for _ in range(100):
        n = 2 + rng.randint(9)
        scores = np.array([rng.normal(0.0, 1.0) for _ in range(n)])
        accs = np.array([round(rng.uniform(0.0, 1.0), 1) for _ in range(n)])
        margin = rng.uniform(0.0, 0.5)
        got = hinge_rank_loss(Tensor(scores), accs, margin).item()
        assert got == pytest.approx(hinge_oracle(scores, accs, margin), abs=1e-12)


def test_hinge_sees_only_the_ordering():
    scores = Tensor([0.3, -0.2, 0.9, 0.1])
    accs = np.array([0.1, 0.4, 0.2, 0.9])
    a = hinge_rank_loss(scores, accs, 0.1).item()
    b = hinge_rank_loss(scores, 2.0 * accs + 1.0, 0.1).item()
    assert a == b


def test_hinge_no_pairs_returns_constant_zero():
    loss = hinge_rank_loss(Tensor([1.0, 2.0, 3.0]), [0.5, 0.5, 0.5], 0.1)
    assert loss.item() == 0.0
    assert not loss.requires_grad


def test_hinge_gradient_direction():
    scores = Tensor([0.0, 0.0], requires_grad=True)
    with Tape() as tape:
        loss = hinge_rank_loss(scores, [1.0, 0.0], 0.1)
        tape.backward(loss)
    np.testing.assert_allclose(scores.grad, [-1.0, 1.0])


def test_hinge_validation():
    with pytest.raises(TrainError):
        hinge_rank_loss(Tensor(np.zeros((2, 2))), [1.0, 0.0], 0.1)
    with pytest.raises(TrainError):
        hinge_rank_loss(Tensor([1.0, 2.0]), [1.0, 0.0, 0.5], 0.1)
    with pytest.raises(TrainError):
        hinge_rank_loss(Tensor([1.0]), [1.0], 0.1)


# -- fit ----------------------------------------------------------------------------

def test_fit_zero_epochs_is_identity():
    bench = small_bench()
    model = model_for(bench)
    before = params_bytes(model)
    history = fit(model, bench, bench.arch_ids, quick_cfg(epochs=0))
    assert history["epoch_losses"] == []
    assert history["steps"] == 0
    assert params_bytes(model) == before


def test_fit_epochs_override_wins():
    bench = small_bench()
    model = model_for(bench)
    before = params_bytes(model)
    fit(model, bench, bench.arch_ids, quick_cfg(epochs=5), epochs=0)
    assert params_bytes(model) == before


def test_fit_is_bit_deterministic():
    bench = small_bench()
    runs = []
    for _ in range(2):
        model = model_for(bench, seed=4)
        history = fit(model, bench, bench.arch_ids, quick_cfg(epochs=3))
        runs.append((params_bytes(model), history["epoch_losses"]))
    assert runs[0][0] == runs[1][0]
    assert runs[0][1] == runs[1][1]


def test_fit_seed_changes_trajectory():
    bench = small_bench()
    a = model_for(bench, seed=4)
    b = model_for(bench, seed=4)
    fit(a, bench, bench.arch_ids, quick_cfg(epochs=3, seed=1))
    fit(b, bench, bench.arch_ids, quick_cfg(epochs=3, seed=2))
    assert params_bytes(a) != params_bytes(b)


def test_fit_reduces_ranking_loss():
    bench = small_bench(num_archs=16)
    model = model_for(bench)
    history = fit(model, bench, bench.arch_ids, quick_cfg(epochs=20, batch_size=8))
    assert history["epoch_losses"][-1] < history["epoch_losses"][0]


def test_fit_reduces_loss_at_reference_scale():
    bench = reference_bench("a")
    train_ids, _ = split(bench, 128, seed=0)
    model = init(ref_config(), unify([bench.vocab]), 1, seed=0)
    history = fit(model, bench, train_ids,
                  TrainConfig(epochs=10, batch_size=16, lr=0.01, seed=0))
    assert history["epoch_losses"][-1] < history["epoch_losses"][0]


# sha256 of model.flat after a short reference-dims fit, one per graph-layer
# variant; the layers' backward must keep every gradient byte
VARIANT_DIGESTS = {
    ("ensemble", "ensemble", "shared_sigmoid", 2):
        "944a7e02b0b231871c8ddff0f04e4abf2cc8da0fd33c9214d7be5a532f794362",
    ("ensemble", "ensemble", "kqv_softmax", 2):
        "96255eab33cd92052590c279cecffd5199d25d5c1f75c1013b5fbd1ef83c787c",
    ("gat", "dgf", "shared_sigmoid", 3):
        "b779c48e0594d2896f5c5e280ae4d7049c464df7d51ef56833e7afc77a2122a7",
}


@pytest.mark.parametrize("variant", sorted(VARIANT_DIGESTS),
                         ids=lambda v: "-".join(map(str, v)))
def test_fit_gives_pinned_bytes_for_each_layer_variant(variant):
    forward_mode, backward_mode, attention, timesteps = variant
    bench = small_bench(num_archs=32, seed=5)
    model = init(ref_config(forward_mode=forward_mode, backward_mode=backward_mode,
                            attention_variant=attention, timesteps=timesteps),
                 unify([bench.vocab]), 1, seed=0)
    fit(model, bench, bench.arch_ids,
        TrainConfig(epochs=2, batch_size=8, lr=0.01, seed=3))
    assert hashlib.sha256(model.flat.tobytes()).hexdigest() == VARIANT_DIGESTS[variant]


def test_fit_improves_held_out_ranking():
    bench = small_bench(num_archs=32, seed=5)
    train_ids, test_ids = split(bench, 24, seed=0)
    model = model_for(bench, seed=1)
    test_archs = [bench.arch(i) for i in test_ids]
    true_accs = bench.accuracy_vector(test_ids)
    before = kendall_tau(score_archs(model, test_archs), true_accs)
    fit(model, bench, train_ids, quick_cfg(epochs=30, batch_size=8))
    after = kendall_tau(score_archs(model, test_archs), true_accs)
    assert after > before


def test_fit_input_validation():
    bench = small_bench()
    model = model_for(bench)
    with pytest.raises(TrainError):
        fit(model, bench, [], quick_cfg())
    with pytest.raises(TrainError):
        fit(model, bench, [0, 1, 1], quick_cfg())


def test_fit_counts_skipped_short_batches():
    bench = small_bench(num_archs=5)
    model = model_for(bench)
    history = fit(model, bench, bench.arch_ids, quick_cfg(epochs=2, batch_size=2))
    # 5 ids in batches of 2 leaves a singleton chunk every epoch
    assert history["skipped_batches"] >= 2


def test_fit_all_tied_accuracies_never_steps():
    spec = SyntheticSpec(
        num_nodes=4, vocab_size=6, num_archs=8, seed=3,
        op_utilities=(0.3,) * 6,
    )
    bench = generate_synthetic(spec)
    assert len(set(bench.accuracies.values())) == 1
    model = model_for(bench)
    before = params_bytes(model)
    history = fit(model, bench, bench.arch_ids, quick_cfg(epochs=2))
    assert history["steps"] == 0
    assert params_bytes(model) == before
    assert all(np.isnan(history["epoch_losses"]))


def test_fit_supplemental_contract():
    bench = small_bench()
    model = model_for(bench, supplemental_dims=(4,))
    with pytest.raises(TrainError, match="provider"):
        fit(model, bench, bench.arch_ids, quick_cfg(epochs=1))
    table = SupplementalTable(
        "zc", 3, {i: np.arange(3.0) + i for i in bench.arch_ids}
    )
    with pytest.raises(TrainError, match="dim"):
        fit(model, bench, bench.arch_ids, quick_cfg(epochs=1),
            supplemental=SupplementalProvider([table]))


def test_fit_with_supplemental_runs_and_uses_it():
    bench = small_bench(num_archs=10)
    provider = SupplementalProvider([bench.proxies])
    model = model_for(bench, seed=2, supplemental_dims=(provider.dim,))
    history = fit(model, bench, bench.arch_ids, quick_cfg(epochs=2),
                  supplemental=provider)
    assert history["steps"] > 0
    assert any(name.startswith("supp") for name in model.params)


def two_cell_bench(bench):
    """The same ids and accuracies with each arch's cell paired with the next
    arch's cell."""
    archs = bench.archs
    paired = tuple(
        CellArch((a.cells[0], archs[(k + 1) % len(archs)].cells[0]), a.arch_id)
        for k, a in enumerate(archs)
    )
    return replace(bench, archs=paired, cells_per_arch=2)


@pytest.mark.parametrize("modes", [("dgf", "gat"), ("gat", "dgf"),
                                   ("ensemble", "ensemble")])
@pytest.mark.parametrize("variant", ["shared_sigmoid", "kqv_softmax"])
def test_every_parameter_receives_a_gradient(modes, variant):
    base = small_bench()
    for timesteps, supplemental, cells in itertools.product(
            (1, 2, 3), (False, True), (1, 2)):
        bench = base if cells == 1 else two_cell_bench(base)
        provider = SupplementalProvider([bench.proxies]) if supplemental else None
        model = init(
            tiny_config(forward_mode=modes[0], backward_mode=modes[1],
                        attention_variant=variant, timesteps=timesteps,
                        supplemental_dims=(provider.dim,) if provider else ()),
            unify([bench.vocab]), cells, seed=1,
        )
        refinement = [n for n in model.params if re.match(r"c\d\.(b|up)\d", n)]
        assert bool(refinement) == (timesteps > 1)
        ids = bench.arch_ids
        batch = prepare_batch(model, [bench.arch(i) for i in ids],
                              provider.matrix(ids) if provider else None)
        with Tape() as tape:
            loss = hinge_rank_loss(forward_batch(model, batch),
                                   bench.accuracy_vector(ids), 0.1)
            tape.backward(loss)
        assert all(p.grad is not None for p in model.params.values())
        # the loss sees only score differences, so the output bias gets a
        # zero gradient up to rounding and may stay at its initial zero
        out_bias = f"head{len(model.config.mlp_dims)}.b"
        assert abs(model.params[out_bias].grad[0]) < 1e-12
        before = params_bytes(model)
        history = fit(model, bench, ids,
                      quick_cfg(epochs=1, batch_size=len(ids), weight_decay=0.5),
                      supplemental=provider)
        assert history["steps"] == 1
        after = params_bytes(model)
        assert {n for n in before if before[n] == after[n]} <= {out_bias}


def reference_adam(arrays, grads, lr, config, steps):
    """Adam with decoupled decay, one tensor at a time."""
    b1, b2 = config.adam_beta1, config.adam_beta2
    m = {n: np.zeros_like(a) for n, a in arrays.items()}
    v = {n: np.zeros_like(a) for n, a in arrays.items()}
    for t in range(1, steps + 1):
        for n, w in arrays.items():
            g = grads[t - 1][n]
            m[n] = b1 * m[n] + (1.0 - b1) * g
            v[n] = b2 * v[n] + (1.0 - b2) * g * g
            step = (m[n] / (1.0 - b1**t)) / (np.sqrt(v[n] / (1.0 - b2**t))
                                             + config.adam_eps)
            w -= lr * step
            w -= lr * config.weight_decay * w
    return arrays


def test_adam_step_matches_per_tensor_adam_bitwise():
    bench = small_bench()
    model = model_for(bench, gcn_dims=(96, 96), backward_gcn_dims=(96,))
    assert model.num_params() > ADAM_BLOCK
    config = quick_cfg(weight_decay=0.01)
    rng = np.random.default_rng(4)
    grads = [{n: rng.normal(size=p.shape) for n, p in model.params.items()}
             for _ in range(5)]
    want = reference_adam({n: p.data.copy() for n, p in model.params.items()},
                          grads, 0.01, config, 5)
    state = _AdamState(model.num_params())
    for step_grads in grads:
        for n, p in model.params.items():
            p.grad = step_grads[n].copy()
        _adam_step(model, state, 0.01, config)
        assert all(p.grad is None for p in model.params.values())
    assert params_bytes(model) == {n: a.tobytes() for n, a in want.items()}


def test_adam_step_names_a_parameter_without_gradient():
    model = model_for(small_bench())
    for p in model.params.values():
        p.grad = np.zeros_like(p.data)
    model.params["head0.b"].grad = None
    with pytest.raises(TrainError, match="head0.b"):
        _adam_step(model, _AdamState(model.num_params()), 0.01, quick_cfg())


# -- transfer -----------------------------------------------------------------------

def two_space_setup():
    src = small_bench(num_archs=12, seed=11)
    tgt_spec = SyntheticSpec(
        num_nodes=4, vocab_size=7, num_archs=10, seed=21,
        noise_sigma=0.1, interaction_scale=0.5,
    )
    tgt = generate_synthetic(tgt_spec, space_id=1)
    model = init(tiny_config(unified=True), unify([src.vocab]), 1, seed=6)
    return src, tgt, model


def test_transfer_requires_unified_model():
    src = small_bench()
    model = model_for(src)
    with pytest.raises(TrainError, match="unified"):
        transfer(model, src, [], quick_cfg())


def test_zero_shot_same_space_is_an_exact_clone():
    src, _, model = two_space_setup()
    out = transfer(model, src, [], quick_cfg())
    assert out is not model
    assert params_bytes(out) == params_bytes(model)
    arch = src.arch(src.arch_ids[0])
    assert forward(out, arch) == forward(model, arch)


def test_zero_shot_new_space_appends_rows_only():
    src, tgt, model = two_space_setup()
    before = params_bytes(model)
    out = transfer(model, tgt, [], quick_cfg())
    # source model untouched, old rows carried over bit for bit
    assert params_bytes(model) == before
    old = model.params["op_table"].data
    new = out.params["op_table"].data
    assert new.shape[0] == out.vocab.size > model.vocab.size
    assert new[: old.shape[0]].tobytes() == old.tobytes()
    assert out.vocab.has_space(1)
    # fresh rows are deterministic in the seed
    again = transfer(model, tgt, [], quick_cfg())
    assert again.params["op_table"].data.tobytes() == new.tobytes()


def test_zero_shot_preserves_source_predictions():
    src, tgt, model = two_space_setup()
    out = transfer(model, tgt, [], quick_cfg())
    for arch_id in src.arch_ids[:4]:
        arch = src.arch(arch_id)
        assert forward(out, arch) == forward(model, arch)


def test_zero_shot_scores_target_archs():
    src, tgt, model = two_space_setup()
    out = transfer(model, tgt, [], quick_cfg())
    scores = score_archs(out, [tgt.arch(i) for i in tgt.arch_ids])
    assert np.all(np.isfinite(scores))


def test_transfer_fine_tuning_moves_parameters():
    src, tgt, model = two_space_setup()
    shot = transfer(model, tgt, [], quick_cfg())
    tuned = transfer(model, tgt, list(tgt.arch_ids)[:8],
                     quick_cfg(transfer_epochs=3))
    assert params_bytes(tuned) != params_bytes(shot)


def test_transfer_rejects_renamed_space():
    src, _, model = two_space_setup()
    other = generate_synthetic(
        SyntheticSpec(num_nodes=4, vocab_size=6, num_archs=4, seed=2),
        space_id=0,
    )
    assert other.vocab.op_names != src.vocab.op_names
    with pytest.raises(TrainError, match="different op names"):
        transfer(model, other, [], quick_cfg())


def test_transfer_rejects_cell_count_mismatch():
    src, tgt, model = two_space_setup()
    model2 = init(tiny_config(unified=True), unify([src.vocab]), 2, seed=6)
    with pytest.raises(TrainError, match="cells_per_arch"):
        transfer(model2, tgt, [], quick_cfg())


# -- checkpoints --------------------------------------------------------------------

def test_checkpoint_round_trip_is_bit_exact(tmp_path):
    bench = small_bench()
    model = model_for(bench, seed=8)
    fit(model, bench, bench.arch_ids, quick_cfg(epochs=1))
    path = tmp_path / "m.ckpt"
    save_model(model, path, provenance={"train_seed": 3, "note": "unit"})
    loaded, provenance = load_model(path)
    assert provenance == {"train_seed": "3", "note": "unit"}
    assert params_bytes(loaded) == params_bytes(model)
    assert loaded.config == model.config
    assert loaded.vocab.to_dict() == model.vocab.to_dict()
    arch = bench.arch(bench.arch_ids[0])
    assert forward(loaded, arch) == forward(model, arch)


def test_checkpoint_bytes_are_stable(tmp_path):
    bench = small_bench()
    model = model_for(bench)
    a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_model(model, a)
    save_model(model, b)
    assert a.read_bytes() == b.read_bytes()


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "x.ckpt"
    path.write_bytes(b"NOTAFILE" + b"\x00" * 16)
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(path)


def test_checkpoint_bad_version(tmp_path):
    bench = small_bench()
    path = tmp_path / "x.ckpt"
    save_model(model_for(bench), path)
    raw = bytearray(path.read_bytes())
    raw[8] = 99
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(path)


def test_checkpoint_truncation(tmp_path):
    bench = small_bench()
    path = tmp_path / "x.ckpt"
    save_model(model_for(bench), path)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) - 10])
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(path)


def test_checkpoint_shape_and_name_mismatches(tmp_path):
    bench = small_bench()
    model = model_for(bench)
    path = tmp_path / "x.ckpt"
    save_model(model, path)
    ckpt = load_checkpoint(path)

    bad = Checkpoint(**{**ckpt.__dict__})
    bad.tensors = dict(ckpt.tensors)
    bad.tensors["op_table"] = np.zeros((1, 1))
    with pytest.raises(CheckpointError, match="shape"):
        model_from_checkpoint(bad)

    bad.tensors = dict(ckpt.tensors)
    del bad.tensors["op_table"]
    with pytest.raises(CheckpointError, match="missing"):
        model_from_checkpoint(bad)

    bad.tensors = dict(ckpt.tensors)
    bad.tensors["mystery"] = np.zeros(3)
    with pytest.raises(CheckpointError, match="unknown"):
        model_from_checkpoint(bad)


def test_single_timestep_checkpoint_with_refinement_tensors_is_refused(tmp_path):
    # older single-timestep checkpoints also carried the never-read backward
    # stack and update MLP, in the two-timestep layout
    bench = small_bench()
    model = model_for(bench, timesteps=1)
    shapes = parameter_shapes(tiny_config(timesteps=2), model.vocab.size, 1)
    arrays = {name: (model.params[name].data if name in model.params
                     else np.zeros(shape))
              for name, shape in shapes.items()}
    path = tmp_path / "old.ckpt"
    save_model(PredictorModel(model.config, model.vocab, 1, arrays), path)
    with pytest.raises(CheckpointError, match=r"unknown tensors \['c0\.b0\."):
        load_model(path)


def test_checkpoint_tensor_names_must_match_promise(tmp_path):
    bench = small_bench()
    path = tmp_path / "x.ckpt"
    save_model(model_for(bench), path)
    raw = path.read_bytes()
    # drop the final tensor record: find the last name length prefix is
    # fragile, so instead truncate at the metadata promise and re-append
    # nothing; simplest robust corruption is chopping the last record off
    ckpt = load_checkpoint(path)
    last = list(ckpt.tensors)[-1]
    arr = ckpt.tensors[last]
    record = (
        8 + len(last.encode()) + 8 + 8 * arr.ndim + arr.size * 8
    )
    path.write_bytes(raw[: len(raw) - record])
    with pytest.raises(CheckpointError, match="promised"):
        load_checkpoint(path)


@pytest.mark.parametrize("mutate, name, shape, match", [
    (None, b"\xff\xfe", (1,), "tensor name is not UTF-8"),
    # 2**64 elements: wraps to 0 in int64, must still read as truncated
    (None, b"op_table", (2**32, 2**32), "truncated"),
    (None, b"op_table", (0, 2**62), "has shape"),
    (lambda m: m["config"].update(timesteps=1.5), b"op_table", (1,),
     "timesteps must be integer"),
    (lambda m: m.update(provenance=[]), b"op_table", (1,), "invalid metadata"),
    # unbounded loops: layer stacks per cell, and a full pass per timestep
    (lambda m: m.update(cells_per_arch=2**62), b"op_table", (1,),
     "cells_per_arch must be 1 or 2"),
    (lambda m: m["config"].update(timesteps=2**62), b"op_table", (1,),
     "timesteps must be between 1 and 64"),
])
def test_checkpoint_hostile_bytes_raise_checkpoint_error(
        tmp_path, mutate, name, shape, match):
    path = tmp_path / "x.ckpt"
    save_model(model_for(small_bench()), path)
    raw = path.read_bytes()
    (blob_len,) = struct.unpack("<Q", raw[12:20])
    metadata = json.loads(raw[20:20 + blob_len])
    if mutate is not None:
        mutate(metadata)
    blob = json.dumps(metadata).encode()
    path.write_bytes(
        raw[:12] + struct.pack("<Q", len(blob)) + blob
        + struct.pack("<Q", len(name)) + name
        + struct.pack("<Q", len(shape))
        + b"".join(struct.pack("<Q", d) for d in shape)
        + b"\x00" * 8
    )
    with pytest.raises(CheckpointError, match=match):
        load_checkpoint(path)


def test_checkpoint_refuses_non_finite(tmp_path):
    bench = small_bench()
    model = model_for(bench)
    path = tmp_path / "x.ckpt"
    save_model(model, path)
    last = list(model.params)[-1]
    for value in (np.inf, np.nan):
        data = bytearray(path.read_bytes())
        data[-8:] = struct.pack("<d", value)
        broken = tmp_path / "broken.ckpt"
        broken.write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match=f"tensor '{last}'.*non-finite"):
            load_model(broken)
    model.params["op_table"].data[0, 0] = np.inf
    with pytest.raises(Exception):
        save_model(model, tmp_path / "x.ckpt")


def test_magic_is_eight_bytes():
    assert len(CKPT_MAGIC) == 8
