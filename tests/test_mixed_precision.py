"""Mixed precision: fit's taped passes run in float32 on one working copy
of the float64 master vector per call, which each Adam step refreshes,
while Adam and the gradient checks stay float64.  score_archs computes in
float32 on a working copy of its own and returns float64 scores.

The float64 reference for a training step is the same batch with its 0/1
routing and mask widened to float64 (exactly), run on the master
parameters: the float32 gradient fit writes for Adam must match its
gradient closely, every array of the float32 step must stay float32, and
every array of a float64 pass must stay float64.
"""

import hashlib
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import flan.autodiff as ad
from flan import predictor, training
from flan.autodiff import Tape
from flan.encodings import unify
from flan.predictor import (
    PredictorConfig,
    PredictorModel,
    PreparedBatch,
    clone_model,
    forward_batch,
    init,
    prepare_batch,
    score_archs,
)
from flan.training import TrainConfig, TrainError, fit, hinge_rank_loss

from conftest import REFERENCE_DIMS, small_bench, tiny_config
from gradcheck import grad_check

ROOT = Path(__file__).resolve().parents[1]
DIMS = {"reference": REFERENCE_DIMS, "paper-default": {}}


def paper_bench():
    return small_bench(num_archs=12, seed=5, num_nodes=7, vocab_size=8)


def as_float64(batch):
    """The batch with its routing and mask widened to float64, exactly."""
    def wide(arrays):
        return [a.astype(np.float64) for a in arrays]

    supp = None if batch.supplemental is None else batch.supplemental.astype(np.float64)
    return PreparedBatch(batch.size, batch.ids, wide(batch.routing_fwd),
                         wide(batch.routing_bwd), wide(batch.mask), supp)


def one_step(monkeypatch, config, bench):
    """The model before one fit step on the whole split, the step's batch,
    standardised accuracies and margin, and the gradient fit handed Adam."""
    calls = {}

    def spy(name, keep=lambda args: args):
        fn = getattr(training, name)

        def wrapper(*args):
            calls[name] = keep(args)
            return fn(*args)

        monkeypatch.setattr(training, name, wrapper)

    spy("forward_batch")
    spy("hinge_rank_loss")
    spy("_adam_step", keep=lambda args: args[1].g.copy())
    model = init(config, unify([bench.vocab]), 1, seed=0)
    before = clone_model(model)
    ids = bench.arch_ids
    history = fit(model, bench, ids,
                  TrainConfig(epochs=1, batch_size=len(ids), lr=0.01, seed=3))
    assert history["steps"] == 1
    _, batch = calls["forward_batch"]
    _, z, margin = calls["hinge_rank_loss"]
    return before, batch, z, margin, calls["_adam_step"]


def spy_emit(monkeypatch):
    """Every record's output dtype and every backward gradient's dtype, per
    op, as (op, dtype) pairs in the order they were made."""
    seen = {"out": [], "grad": []}
    emit = ad.emit

    def wrapper(op, arr, inputs, backward):
        seen["out"].append((op, arr.dtype))

        def checked(g):
            grads = backward(g)
            seen["grad"].extend((op, c.dtype) for c in grads if c is not None)
            return grads

        return emit(op, arr, inputs, checked)

    monkeypatch.setattr(ad, "emit", wrapper)
    return seen


# -- gradient fidelity --------------------------------------------------------------

@pytest.mark.parametrize("dims", sorted(DIMS))
@pytest.mark.parametrize("variant", predictor.ATTENTION_VARIANTS)
def test_float32_step_gradient_matches_the_float64_tape(monkeypatch, dims, variant):
    config = PredictorConfig(**DIMS[dims], attention_variant=variant)
    before, batch, z, margin, got = one_step(monkeypatch, config, paper_bench())
    assert batch.dtype == np.float32
    with Tape() as tape:
        tape.backward(hinge_rank_loss(forward_batch(before, as_float64(batch)), z, margin))
    want = np.concatenate([p.grad.ravel() for p in before.params.values()])
    assert want.dtype == np.float64 and got.dtype == np.float32
    error = np.linalg.norm(got - want) / np.linalg.norm(want)
    assert error <= 1e-4, error


# -- dtype discipline ---------------------------------------------------------------

@pytest.mark.parametrize("dims", sorted(DIMS))
def test_float32_step_records_and_gradients_stay_float32(monkeypatch, dims):
    seen = spy_emit(monkeypatch)
    bench = paper_bench()
    model = init(PredictorConfig(**DIMS[dims]), unify([bench.vocab]), 1, seed=0)
    fit(model, bench, bench.arch_ids,
        TrainConfig(epochs=1, batch_size=len(bench.arch_ids), lr=0.01, seed=3))
    assert seen["out"] and seen["grad"]
    assert {dtype for _, dtype in seen["out"]} == {np.dtype(np.float32)}, seen["out"]
    assert {dtype for _, dtype in seen["grad"]} == {np.dtype(np.float32)}, seen["grad"]
    assert model.flat.dtype == np.float64


def test_gradcheck_stays_float64(monkeypatch):
    seen = spy_emit(monkeypatch)
    bench = small_bench(num_archs=6, seed=11)
    model = init(tiny_config(), unify([bench.vocab]), 1, seed=7)
    batch = prepare_batch(model, list(bench.archs))
    z = bench.accuracy_vector(bench.arch_ids)
    report = grad_check(lambda: hinge_rank_loss(forward_batch(model, batch), z, 0.1),
                        model.params, max_entries_per_block=2)
    assert report.blocks
    assert seen["grad"]
    assert {dtype for _, dtype in seen["out"] + seen["grad"]} == {np.dtype(np.float64)}


def test_score_archs_computes_in_float32_and_returns_float64(monkeypatch):
    seen = spy_emit(monkeypatch)
    bench = small_bench(num_archs=6, seed=11)
    model = init(tiny_config(), unify([bench.vocab]), 1, seed=7)
    before = model.flat.copy()
    scores = score_archs(model, list(bench.archs))
    assert seen["out"] and scores.dtype == np.float64
    assert {dtype for _, dtype in seen["out"]} == {np.dtype(np.float32)}
    assert model.flat.dtype == np.float64
    assert model.flat.tobytes() == before.tobytes()


def test_a_float32_pass_on_a_cast_copy_gives_the_copy_float32_gradients():
    bench = small_bench(num_archs=6, seed=11)
    model = init(tiny_config(), unify([bench.vocab]), 1, seed=7)
    batch = prepare_batch(model, list(bench.archs), dtype=np.float32)
    z = bench.accuracy_vector(bench.arch_ids)
    work = model.cast(np.float32)
    assert model.cast(np.float64) is model
    assert work.flat.tobytes() == model.flat.astype(np.float32).tobytes()
    with Tape() as tape:
        loss = hinge_rank_loss(forward_batch(work, batch), z, 0.1)
        assert loss.data.dtype == np.float32
        tape.backward(loss)
    assert all(p.grad is not None and p.grad.dtype == np.float32
               for p in work.params.values())
    # nothing links the copy to the model it was cast from
    assert all(p.grad is None for p in model.params.values())
    # no tape: the copy scores in float32
    assert forward_batch(work, batch).data.dtype == np.float32


def test_tensor_keeps_float32_and_float64_and_refuses_other_dtypes():
    for dtype in (np.float32, np.float64):
        assert ad.Tensor(np.zeros(2, dtype=dtype)).data.dtype == dtype
    assert ad.Tensor(1.5).data.dtype == np.float64
    for bad in (np.zeros(2, dtype=np.float16), np.arange(3), np.zeros(2, dtype=bool)):
        with pytest.raises(TypeError, match="float32 or float64"):
            ad.Tensor(bad)


def test_the_output_bias_gradient_is_exactly_zero_in_float32():
    # the hinge loss ignores a shift of every score; each arch's float32
    # gradient is an exact multiple of one pair weight, so they sum to 0
    for n in (2, 5, 16, 40):
        bench = small_bench(num_archs=n, seed=n)
        model = init(tiny_config(), unify([bench.vocab]), 1, seed=1)
        batch = prepare_batch(model, list(bench.archs), dtype=np.float32)
        work = model.cast(np.float32)
        with Tape() as tape:
            tape.backward(hinge_rank_loss(forward_batch(work, batch),
                                          bench.accuracy_vector(bench.arch_ids), 0.5))
        out_bias = f"head{len(model.config.mlp_dims)}.b"
        assert work.params[out_bias].grad[0] == 0.0, n


# -- the working copy ---------------------------------------------------------------

@pytest.mark.parametrize("dims", sorted(DIMS))
def test_each_adam_step_leaves_the_working_copy_at_the_rounded_master_values(
        monkeypatch, dims):
    matches = []
    adam_step = training._adam_step

    def checked(model, state, config):
        adam_step(model, state, config)
        matches.append(state.work.flat.tobytes()
                       == model.flat.astype(np.float32).tobytes())

    monkeypatch.setattr(training, "_adam_step", checked)
    bench = paper_bench()
    model = init(PredictorConfig(**DIMS[dims]), unify([bench.vocab]), 1, seed=0)
    history = fit(model, bench, bench.arch_ids,
                  TrainConfig(epochs=2, batch_size=4, lr=0.01, seed=3))
    assert len(matches) == history["steps"] > 1
    assert all(matches)


def test_fit_casts_the_model_once_per_call(monkeypatch):
    dtypes = []
    cast = PredictorModel.cast

    def counted(self, dtype):
        dtypes.append(np.dtype(dtype))
        return cast(self, dtype)

    monkeypatch.setattr(PredictorModel, "cast", counted)
    bench = small_bench()
    model = init(tiny_config(), unify([bench.vocab]), 1, seed=0)
    for calls in (1, 2):
        history = fit(model, bench, bench.arch_ids,
                      TrainConfig(epochs=3, batch_size=4, lr=0.01))
        assert history["steps"] > 3
        assert dtypes == [np.dtype(np.float32)] * calls


def test_forward_batch_refuses_a_batch_of_another_dtype():
    bench = small_bench(num_archs=6, seed=11)
    model = init(tiny_config(), unify([bench.vocab]), 1, seed=7)
    for params, dtype in ((model, np.float32), (model.cast(np.float32), np.float64)):
        batch = prepare_batch(model, list(bench.archs), dtype=dtype)
        with pytest.raises(predictor.PredictorError, match="cast the model first"):
            forward_batch(params, batch)


# float32 working copy and gradient plus float64 moments make 24 bytes per
# parameter; the rest covers the step's tape and Adam's block temporaries.
# One paper-default step on 16 archs peaked at 19.2 MB (572,113 parameters);
# a fresh float32 copy per step and a float64 gradient vector made 23.8 MB
BYTES_PER_PARAMETER = 28
TAPE_ALLOWANCE = 5_000_000


def test_a_paper_default_fit_step_peaks_under_a_per_parameter_bound():
    bench = small_bench(num_archs=16, seed=5, num_nodes=7, vocab_size=8)
    model = init(PredictorConfig(), unify([bench.vocab]), 1, seed=0)
    tracemalloc.start()
    try:
        fit(model, bench, bench.arch_ids,
            TrainConfig(epochs=1, batch_size=16, lr=0.01, seed=3))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= BYTES_PER_PARAMETER * model.num_params() + TAPE_ALLOWANCE, peak


# -- divergence ---------------------------------------------------------------------

def test_a_parameter_beyond_float32_range_is_named():
    # finite in float64, so Adam, checkpoints and scoring could hold it; the
    # float32 step's copy overflows, and fit names the parameter
    bench = small_bench()
    model = init(tiny_config(), unify([bench.vocab]), 1, seed=0)
    model.params["c0.f0.dgf.w_f"].data[0, 0] = 1e39
    model.check_finite()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TrainError, match=r"overflowed with finite parameters: "
                                             r"parameter c0\.f0\.dgf\.w_f overflows float32"):
            fit(model, bench, bench.arch_ids, TrainConfig(epochs=1, batch_size=6))


def test_score_archs_names_the_first_parameter_beyond_float32_range():
    # finite in float64, so a checkpoint holding it loads; the float32
    # working copy of score_archs cannot hold it, and no cast warns
    bench = small_bench()
    model = init(tiny_config(), unify([bench.vocab]), 1, seed=0)
    model.params["head0.w"].data[0, 0] = -1e39
    model.params["c0.f0.dgf.w_f"].data[0, 0] = 1e39
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(predictor.PredictorError,
                           match=r"^scores are non-finite: parameter c0\.f0\.dgf\.w_f "
                                 r"overflows float32$"):
            score_archs(model, list(bench.archs))


def test_check_finite_names_the_first_parameter_a_dtype_cannot_hold():
    model = init(tiny_config(), unify([small_bench().vocab]), 1, seed=0)
    model.params["head0.w"].data[1, 1] = -4e38
    model.check_finite()
    with pytest.raises(predictor.PredictorError, match="head0.w overflows float32"):
        model.check_finite(np.float32)
    model.params["c0.f0.dgf.b_f"].data[0] = np.inf
    with pytest.raises(predictor.PredictorError, match=r"c0\.f0\.dgf\.b_f is non-finite"):
        model.check_finite(np.float32)


def test_supplemental_rows_beyond_float32_range_are_refused():
    bench = small_bench()
    model = init(tiny_config(supplemental_dims=(2,)), unify([bench.vocab]), 1, seed=0)
    archs = list(bench.archs)[:2]
    supp = np.array([[1.0, 1e39], [0.0, 0.0]])
    prepare_batch(model, archs, supp)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(predictor.PredictorError, match="non-finite values in float32"):
            prepare_batch(model, archs, supp, dtype=np.float32)


# -- BLAS threads -------------------------------------------------------------------

CHILD = """
import hashlib
from test_mixed_precision import paper_default_step
print(hashlib.sha256(paper_default_step().flat.tobytes()).hexdigest())
"""


def paper_default_step():
    bench = small_bench(num_archs=16, seed=5, num_nodes=7, vocab_size=8)
    model = init(PredictorConfig(), unify([bench.vocab]), 1, seed=0)
    fit(model, bench, bench.arch_ids, TrainConfig(epochs=1, batch_size=16, lr=0.01, seed=3))
    return model


def test_blas_thread_count_keeps_the_training_bytes():
    # a float32 GEMM split over two BLAS threads must not move a byte
    digests = set()
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")]))
        proc = subprocess.run([sys.executable, "-c", CHILD],
                              env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        digests.add(proc.stdout.strip())
    assert digests == {hashlib.sha256(paper_default_step().flat.tobytes()).hexdigest()}
