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
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from flan import predictor, training
from flan.autodiff import Tape, Tensor
from flan.benchmark import SyntheticSpec, generate_synthetic, split
from flan.cellgraph import CellArch
from flan.encodings import SupplementalProvider, SupplementalTable, unify
from flan.metrics import kendall_tau
from flan.predictor import (
    PredictorConfig,
    PredictorModel,
    clone_model,
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
    CheckpointError,
    TrainConfig,
    TrainError,
    _adam_step,
    _AdamState,
    fit,
    hinge_rank_loss,
    load_model,
    ranking_pairs,
    save_model,
    transfer,
)

from conftest import REFERENCE_DIMS, ref_config, reference_bench, small_bench, tiny_config
from gradcheck import grad_check


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

@pytest.mark.parametrize("name, value, kind", [
    ("epochs", 2.5, "integer-valued"),
    ("batch_size", 2.5, "integer-valued"),
    ("transfer_epochs", True, "integer-valued"),
    ("seed", 1.5, "integer-valued"),
    ("lr", "0.1", "a real number"),
    ("hinge_margin", True, "a real number"),
])
def test_train_config_names_a_field_of_the_wrong_type(name, value, kind):
    with pytest.raises(TrainError) as info:
        TrainConfig(**{name: value})
    assert str(info.value) == f"{name} must be {kind}, got {value!r}"


def test_train_config_takes_any_integer_type():
    config = TrainConfig(epochs=np.int64(3), lr=1)
    assert type(config.epochs) is int and config.epochs == 3
    assert config.lr == 1


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


@pytest.mark.parametrize("case", ["generic", "tied", "past_margin"])
def test_hinge_gradients_match_finite_differences(case):
    # every score sits in several pairs, so each gradient entry sums the
    # scatters of repeated indices; ties form no pair, and a pair already
    # past the margin adds nothing
    rng = Rng(19)
    scores = Tensor([rng.normal(0.0, 1.0) for _ in range(6)], requires_grad=True)
    accs = np.array([0.3, 0.1, 0.7, 0.5, 0.9, 0.2])
    if case == "tied":
        accs = np.array([0.3, 0.3, 0.7, 0.7, 0.7, 0.1])
    elif case == "past_margin":
        scores.data[:] = 4.0 * accs  # correctly ordered, some pairs by > margin
        scores.data[1] += 1.0
    margin = 0.5
    i, j = ranking_pairs(accs)
    violation = margin - (scores.data[i] - scores.data[j])
    assert np.abs(violation).min() > 1e-3  # no pair on the kink
    if case == "past_margin":
        assert (violation < 0.0).any() and (violation > 0.0).any()
    report = grad_check(lambda: hinge_rank_loss(scores, accs, margin), {"s": scores})
    assert report.ok(rel_tol=1e-7), report.blocks
    with Tape() as tape:
        tape.backward(hinge_rank_loss(scores, accs, margin))
    active = (violation > 0.0) / i.size
    want = np.zeros(6)
    np.add.at(want, i, -active)
    np.add.at(want, j, active)
    np.testing.assert_allclose(scores.grad, want, rtol=1e-15, atol=1e-15)


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
# variant; the gradient bytes are those of the layers' backward with each
# weight product folded into one GEMM (autodiff.matmul_grads), so a change
# to the order in which a gradient's terms are summed moves these pins
VARIANT_DIGESTS = {
    ("ensemble", "ensemble", "shared_sigmoid", 2):
        "34df1c050b0be41efc4d810832b9b31da2f45c3ef40403d7fca5d8fc44fffb01",
    ("ensemble", "ensemble", "kqv_softmax", 2):
        "71100f477497e703f9a3c24a30c1ec931e67e8775485b1d64989e2b4ab14e074",
    ("gat", "dgf", "shared_sigmoid", 3):
        "91d24fb3318b084023e7a83ba6622dc64219b91c069b88e62867557df71523e5",
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


# sha256 of a paper-default model after one fit step on twelve 7-node archs,
# and of its score_archs output on them: the only pins at the paper's
# 128-wide layers, where the timestep-0 gates come from op-table rows
PAPER_DEFAULT_DIGESTS = {
    "model": "989b0dc070b2b50b42312f0b6a778e19860db395b8619b815e813346ecc49662",
    "scores": "1052472336556609c34fdb96bedf61b3473e5984f29d5e659c2c9765e55a304c",
}


def test_paper_default_fit_and_score_give_pinned_bytes():
    bench = small_bench(num_archs=12, seed=5, num_nodes=7, vocab_size=8)
    model = init(PredictorConfig(), unify([bench.vocab]), 1, seed=0)
    history = fit(model, bench, bench.arch_ids,
                  TrainConfig(epochs=1, batch_size=12, lr=0.01, seed=3))
    assert history["steps"] == 1
    scores = score_archs(model, list(bench.archs))
    digests = {"model": hashlib.sha256(model.flat.tobytes()).hexdigest(),
               "scores": hashlib.sha256(scores.tobytes()).hexdigest()}
    assert digests == PAPER_DEFAULT_DIGESTS


# tape records of one forward_batch plus hinge_rank_loss: each graph stack
# level (both branches of an ensemble level together), dense layer, the
# readout pool and the loss record once
TAPE_RECORDS = {"reference": 16, "paper-default": 28}


@pytest.mark.parametrize("label", sorted(TAPE_RECORDS))
def test_training_step_tape_length_is_pinned(label):
    config = PredictorConfig(**({} if label == "paper-default" else REFERENCE_DIMS))
    bench = small_bench(num_archs=8, seed=5)
    model = init(config, unify([bench.vocab]), 1, seed=0)
    batch = prepare_batch(model, list(bench.archs))
    with Tape() as tape:
        hinge_rank_loss(forward_batch(model, batch),
                        bench.accuracy_vector(bench.arch_ids), 0.1)
        assert len(tape) == TAPE_RECORDS[label]


def test_paper_default_tape_holds_only_what_backward_reads():
    # each record keeps the arrays its backward reads and no more: table-row
    # gates hold the per-row table, attention messages are recomputed, and an
    # ensemble level is one record; the tape that recorded a record per
    # branch plus the mix, holding both, kept 5.2 MB here
    bench = small_bench(num_archs=8, seed=5)
    model = init(PredictorConfig(), unify([bench.vocab]), 1, seed=0)
    batch = prepare_batch(model, list(bench.archs))
    accuracy = bench.accuracy_vector(bench.arch_ids)
    tracemalloc.start()
    try:
        with Tape():
            hinge_rank_loss(forward_batch(model, batch), accuracy, 0.1)
            held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held <= 3.0e6, held


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


def test_fit_refuses_a_provider_the_model_cannot_take():
    # scoring refuses these rows, so training must not quietly drop them
    bench = small_bench()
    model = model_for(bench)
    before = params_bytes(model)
    with pytest.raises(TrainError, match="dim .* != config total 0"):
        fit(model, bench, bench.arch_ids, quick_cfg(epochs=1),
            supplemental=SupplementalProvider([bench.proxies]))
    assert params_bytes(model) == before


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
def test_every_parameter_receives_a_gradient(monkeypatch, modes, variant):
    # one fit step on the whole split; fit's backward writes every gradient
    # in place into the vector Adam reads, which must hold the bytes a plain
    # backward on fit's batch leaves in .grad, in parameter order
    calls = {}

    def spy(name):
        fn = getattr(training, name)

        def wrapper(*args):
            calls[name] = args
            return fn(*args)

        monkeypatch.setattr(training, name, wrapper)

    for name in ("forward_batch", "hinge_rank_loss", "_adam_step"):
        spy(name)
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
        plain = clone_model(model)
        before = params_bytes(model)
        ids = bench.arch_ids
        history = fit(model, bench, ids,
                      quick_cfg(epochs=1, batch_size=len(ids), weight_decay=0.5),
                      supplemental=provider)
        assert history["steps"] == 1
        _, batch = calls["forward_batch"]
        _, z, margin = calls["hinge_rank_loss"]
        with Tape() as tape:
            tape.backward(hinge_rank_loss(forward_batch(plain, batch), z, margin))
        assert all(p.grad is not None for p in plain.params.values())
        want = b"".join(p.grad.tobytes() for p in plain.params.values())
        assert calls["_adam_step"][1].g.tobytes() == want
        # the loss sees only score differences, so the output bias gets a
        # zero gradient up to rounding and may stay at its initial zero
        out_bias = f"head{len(model.config.mlp_dims)}.b"
        assert abs(plain.params[out_bias].grad[0]) < 1e-12
        after = params_bytes(model)
        assert {n for n in before if before[n] == after[n]} <= {out_bias}


def test_fit_and_score_archs_prepare_each_arch_once_per_call(monkeypatch):
    # counted as a tracer does: the length of the second positional argument
    counts = []
    for module in (training, predictor):
        def wrapper(*args, _fn=module.prepare_batch):
            counts.append(len(args[1]))
            return _fn(*args)

        monkeypatch.setattr(module, "prepare_batch", wrapper)
    bench = small_bench()
    provider = SupplementalProvider([bench.proxies])
    model = model_for(bench, supplemental_dims=(provider.dim,))
    ids = bench.arch_ids
    history = fit(model, bench, ids, quick_cfg(epochs=3, batch_size=4),
                  supplemental=provider)
    assert history["steps"] > 3
    assert counts == [len(ids)]
    # score_archs prepares chunk by chunk: the chunks cover each arch once
    counts.clear()
    monkeypatch.setattr(predictor, "SCORE_CHUNK", 5)
    scores = score_archs(model, [bench.arch(i) for i in ids], provider.matrix(ids))
    assert counts == [min(5, len(ids) - lo) for lo in range(0, len(ids), 5)]
    assert np.isfinite(scores).all()


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
    # each gradient is written into its parameter's view of the state's
    # gradient vector, as Tape.backward(loss, into=state.views) does in fit
    state = _AdamState(model)
    for step_grads in grads:
        for n, p in model.params.items():
            state.views[p][...] = step_grads[n]
            p.grad = state.views[p]
        _adam_step(model, state, config)
        assert all(p.grad is None for p in model.params.values())
    assert params_bytes(model) == {n: a.tobytes() for n, a in want.items()}


def test_diverging_fit_names_the_parameter_an_update_blew_up():
    # the first Adam step at this rate overflows every weight it moves, and
    # the next batch's loss is NaN
    bench = small_bench()
    model = model_for(bench)
    with pytest.raises(TrainError, match="parameter op_table is non-finite"):
        fit(model, bench, bench.arch_ids, quick_cfg(epochs=2, lr=1e300))


def test_diverging_fit_names_the_op_that_overflowed():
    # finite head weights that overflow the forward pass: the first head
    # layer's output is still finite, the second's is not
    bench = small_bench()
    model = model_for(bench)
    for name, p in model.params.items():
        if name.startswith("head") and name.endswith(".w"):
            p.data[...] = 1e200
    with pytest.raises(TrainError, match="dense_layer overflowed with finite "
                                         "parameters"):
        fit(model, bench, bench.arch_ids, quick_cfg(epochs=1))


def test_fit_raises_when_its_last_update_blows_up_the_parameters():
    # one step on six archs: no later loss sees what that update did
    bench = small_bench()
    model = model_for(bench)
    with pytest.raises(TrainError, match="parameter op_table is non-finite"):
        fit(model, bench, bench.arch_ids[:6],
            TrainConfig(epochs=1, batch_size=6, lr=1e300))


def test_adam_step_names_a_parameter_without_gradient():
    model = model_for(small_bench())
    state = _AdamState(model)
    state.g[:] = 0.0
    for p in model.params.values():
        p.grad = state.views[p]
    model.params["head0.b"].grad = None
    with pytest.raises(TrainError, match="head0.b"):
        _adam_step(model, state, quick_cfg())


# -- transfer -----------------------------------------------------------------------

def two_space_setup():
    src = small_bench(num_archs=12, seed=11)
    tgt_spec = SyntheticSpec(
        num_nodes=4, vocab_size=7, num_archs=10, seed=21,
        noise_sigma=0.1, interaction_scale=0.5,
    )
    tgt = generate_synthetic(tgt_spec, space_id=1)
    model = init(tiny_config(), unify([src.vocab]), 1, seed=6)
    return src, tgt, model


def test_zero_shot_same_space_is_an_exact_clone():
    src, _, model = two_space_setup()
    out = transfer(model, src, [], quick_cfg())
    assert out is not model
    assert params_bytes(out) == params_bytes(model)
    arch = src.arch(src.arch_ids[0])
    assert score_archs(out, [arch])[0] == score_archs(model, [arch])[0]


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
        assert score_archs(out, [arch])[0] == score_archs(model, [arch])[0]


def test_zero_shot_scores_target_archs():
    src, tgt, model = two_space_setup()
    out = transfer(model, tgt, [], quick_cfg())
    scores = score_archs(out, [tgt.arch(i) for i in tgt.arch_ids])
    assert np.all(np.isfinite(scores))


def test_zero_shot_into_a_space_of_reserved_ops_only():
    # a target whose vocabulary is input, output, none brings no new op, so
    # no op-table row is added
    _, _, model = two_space_setup()
    before = params_bytes(model)
    tgt = generate_synthetic(SyntheticSpec(
        num_nodes=4, vocab_size=3, num_archs=1, seed=21,
        noise_sigma=0.1, interaction_scale=0.5), space_id=1)
    out = transfer(model, tgt, [], quick_cfg())
    assert params_bytes(model) == before
    assert out.vocab.has_space(1) and out.vocab.size == model.vocab.size
    assert params_bytes(out) == before
    scores = score_archs(out, [tgt.arch(i) for i in tgt.arch_ids])
    assert scores.shape == (1,) and np.all(np.isfinite(scores))


def test_transfer_fine_tuning_moves_parameters():
    src, tgt, model = two_space_setup()
    shot = transfer(model, tgt, [], quick_cfg())
    tuned = transfer(model, tgt, list(tgt.arch_ids)[:8],
                     quick_cfg(transfer_epochs=3))
    assert params_bytes(tuned) != params_bytes(shot)


def test_transfer_fine_tunes_with_the_transfer_epochs_and_lr():
    # fine-tuning is fit on the zero-shot clone under the transfer fields;
    # epochs and lr play no part
    _, tgt, model = two_space_setup()
    ids = list(tgt.arch_ids)[:8]
    config = quick_cfg(epochs=5, lr=0.5, transfer_epochs=3, transfer_lr=0.02)
    tuned = transfer(model, tgt, ids, config)
    want = transfer(model, tgt, [], config)
    fit(want, tgt, ids, replace(config, epochs=3, lr=0.02))
    assert params_bytes(tuned) == params_bytes(want)
    idle = transfer(model, tgt, ids, replace(config, transfer_epochs=0))
    assert params_bytes(idle) == params_bytes(transfer(model, tgt, [], config))


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
    model2 = init(tiny_config(), unify([src.vocab]), 2, seed=6)
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
    assert score_archs(loaded, [arch])[0] == score_archs(model, [arch])[0]


def set_config_key(path, key, value):
    """Rewrite the config JSON of the checkpoint at path with key = value."""
    raw = path.read_bytes()
    (size,) = struct.unpack("<Q", raw[12:20])
    metadata = json.loads(raw[20:20 + size])
    metadata["config"][key] = value
    blob = json.dumps(metadata, sort_keys=True).encode("utf-8")
    path.write_bytes(raw[:12] + struct.pack("<Q", len(blob)) + blob
                     + raw[20 + size:])


@pytest.mark.parametrize("value", [False, True, "maybe", None])
def test_checkpoint_with_a_retired_unified_key_loads_scores_and_transfers(
        tmp_path, value):
    # every checkpoint written while the config had a `unified` flag carries
    # the key; it shapes nothing now and any value of it is dropped
    src, tgt, model = two_space_setup()
    fit(model, src, src.arch_ids, quick_cfg(epochs=1))
    path = tmp_path / "old.ckpt"
    save_model(model, path)
    set_config_key(path, "unified", value)
    loaded, _ = load_model(path)
    assert loaded.config == model.config
    assert params_bytes(loaded) == params_bytes(model)
    archs = list(src.archs)
    assert score_archs(loaded, archs).tobytes() == score_archs(model, archs).tobytes()
    shot = transfer(loaded, tgt, [], quick_cfg())
    assert params_bytes(shot) == params_bytes(transfer(model, tgt, [], quick_cfg()))
    assert np.isfinite(score_archs(shot, list(tgt.archs))).all()


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
        load_model(path)


def test_checkpoint_bad_version(tmp_path):
    bench = small_bench()
    path = tmp_path / "x.ckpt"
    save_model(model_for(bench), path)
    raw = bytearray(path.read_bytes())
    raw[8] = 99
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="version"):
        load_model(path)


def test_checkpoint_truncation(tmp_path):
    bench = small_bench()
    path = tmp_path / "x.ckpt"
    save_model(model_for(bench), path)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) - 10])
    with pytest.raises(CheckpointError, match="truncated"):
        load_model(path)


def test_checkpoint_shape_and_name_mismatches(tmp_path):
    # each file holds the tensors it promises, but not the ones its config builds
    bench = small_bench()
    model = model_for(bench)
    arrays = {name: p.data for name, p in model.params.items()}
    path = tmp_path / "x.ckpt"
    vocab_size = model.vocab.size
    d_op = model.config.op_embedding_dim
    cases = [
        ({**arrays, "op_table": np.zeros((1, 1))},
         rf"tensor 'op_table' has shape \(1, 1\), config expects "
         rf"\({vocab_size}, {d_op}\)"),
        ({name: a for name, a in arrays.items() if name != "op_table"},
         "checkpoint is missing tensor 'op_table'"),
        ({**arrays, "mystery": np.zeros(3)},
         r"checkpoint carries unknown tensors \['mystery'\]"),
    ]
    for altered, match in cases:
        save_model(PredictorModel(model.config, model.vocab, model.cells_per_arch,
                                  altered), path)
        with pytest.raises(CheckpointError, match=match):
            load_model(path)


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
    model = model_for(bench)
    path = tmp_path / "x.ckpt"
    save_model(model, path)
    raw = path.read_bytes()
    # chop the last tensor record off: the metadata still promises it
    last = list(model.params)[-1]
    arr = model.params[last].data
    record = (
        8 + len(last.encode()) + 8 + 8 * arr.ndim + arr.size * 8
    )
    path.write_bytes(raw[: len(raw) - record])
    with pytest.raises(CheckpointError, match="promised"):
        load_model(path)


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
    (lambda m: m.update(cells_per_arch=1.5), b"op_table", (1,),
     "invalid metadata: 'float' object cannot be interpreted as an integer"),
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
        load_model(path)


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
