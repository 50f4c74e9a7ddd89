"""score_archs on two threads: a helper thread embeds the second half of
each wide chunk, and the scores keep the bytes of the serial pass.

The serial reference is a loop of one prepare_batch and one forward_batch
per chunk, with no helper.  Tests that need the helper report two CPUs, so
they run the helper path on a one-CPU host too.
"""

import hashlib
import concurrent.futures
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import flan.autodiff as ad
from flan import predictor
from flan.benchmark import make_vocab
from flan.cellgraph import CellArch
from flan.encodings import unify
from flan.predictor import (
    HELPER_MIN_ELEMENTS,
    PredictorConfig,
    PredictorError,
    forward_batch,
    init,
    prepare_batch,
    score_archs,
)
from flan.rng import Rng

from conftest import random_valid_cell, ref_config, weighted_sum

ROOT = Path(__file__).resolve().parents[1]
NODES, VOCAB = 7, 5


def make_model(config=None, cells=1, seed=0):
    return init(config or PredictorConfig(), unify([make_vocab(0, VOCAB)]),
                cells, seed)


def make_archs(count, cells=1, nodes=NODES, seed=8):
    rng = Rng(seed)
    return [CellArch(tuple(random_valid_cell(rng, nodes, VOCAB)
                           for _ in range(cells)), i) for i in range(count)]


def serial_scores(model, archs, supplemental=None, chunk=64):
    parts = []
    for lo in range(0, len(archs), chunk):
        supp = None if supplemental is None else supplemental[lo:lo + chunk]
        batch = prepare_batch(model, archs[lo:lo + chunk], supp)
        parts.append(forward_batch(model, batch).data)
    return np.concatenate(parts)


@pytest.fixture
def helper_calls(monkeypatch):
    """Two CPUs, and the batch sizes the helper thread embedded."""
    calls = []

    def counted(model, batch, _embed=predictor._helper_embedding):
        calls.append(batch.size)
        return _embed(model, batch)

    monkeypatch.setattr(predictor, "_helper_embedding", counted)
    monkeypatch.setattr(predictor, "_cpu_count", lambda: 2)
    return calls


def test_paper_default_chunks_are_wide_enough_for_the_helper():
    # the rank-paper workload's chunk: 32 rows of 7 nodes at 128 wide
    assert 32 * NODES * max(PredictorConfig().gcn_dims) >= HELPER_MIN_ELEMENTS


# count, config overrides, cells per arch; chunks of 64
CASES = {
    "ragged": (119, {}, 1),        # chunks 64 and 55, both helped
    "one-arch-chunk": (65, {}, 1),  # the last chunk of one arch runs serial
    "kqv_softmax": (64, {"attention_variant": "kqv_softmax"}, 1),
    "supplemental": (70, {"supplemental_dims": (3, 2)}, 1),
    "two-cells": (64, {}, 2),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_helper_scores_equal_a_serial_chunk_loop(case, helper_calls):
    count, overrides, cells = CASES[case]
    model = make_model(PredictorConfig(**overrides), cells=cells)
    archs = make_archs(count, cells)
    supp = None
    if overrides.get("supplemental_dims"):
        supp = np.random.default_rng(3).standard_normal((count, 5))
    got = score_archs(model, archs, supp)
    assert helper_calls, "the helper path did not run"
    assert got.tobytes() == serial_scores(model, archs, supp).tobytes()
    if case == "ragged":
        assert helper_calls == [32, 27]
    if case == "one-arch-chunk":
        assert helper_calls == [32]


@pytest.mark.parametrize("chunk", [1, 2, 3, 5])
def test_helper_splits_small_and_odd_chunks_with_the_same_bytes(
        chunk, helper_calls, monkeypatch):
    monkeypatch.setattr(predictor, "HELPER_MIN_ELEMENTS", 1)
    monkeypatch.setattr(predictor, "SCORE_CHUNK", chunk)
    model = make_model()
    archs = make_archs(7)
    got = score_archs(model, archs)
    assert got.tobytes() == serial_scores(model, archs, chunk=chunk).tobytes()
    # a one-arch chunk has no second half to hand over
    sizes = [min(chunk, 7 - lo) for lo in range(0, 7, chunk)]
    assert helper_calls == [size // 2 for size in sizes if size > 1]


@pytest.mark.parametrize("mode", predictor.FORWARD_MODES)
def test_no_thread_enters_the_public_layer_names(mode, helper_calls):
    # a tracer may wrap public names with a span stack of one thread; the
    # levels have none to wrap, and each records itself from _run_stack on
    # whichever thread runs it
    for name in ("dgf_layer", "gat_layer", "ensemble_layer"):
        assert not hasattr(predictor, name)
    model = make_model(PredictorConfig(forward_mode=mode, backward_mode=mode))
    archs = make_archs(64)
    got = score_archs(model, archs)
    assert helper_calls == [32]
    assert got.tobytes() == serial_scores(model, archs).tobytes()


def test_a_later_chunk_mixing_node_counts_scores_group_by_group(helper_calls):
    # 60 seven-node archs, 3 six-node ones, then 7 seven-node ones: a
    # chunk of 64 seven-node archs, one of 3 and one of the six-node archs,
    # each scored with the bytes of its group scored alone
    model = make_model()
    seven, six = make_archs(67), make_archs(3, nodes=6)
    archs = seven[:60] + six + seven[60:]
    got = score_archs(model, archs)
    assert helper_calls == [32]
    assert (np.concatenate([got[:60], got[63:]]).tobytes()
            == score_archs(model, seven).tobytes()
            == serial_scores(model, seven).tobytes())
    assert got[60:63].tobytes() == serial_scores(model, six).tobytes()


def test_overflow_on_the_helper_path_is_a_predictor_error(helper_calls):
    # warnings are errors in this suite, so an overflow the helper thread
    # did not silence would surface as a RuntimeWarning
    model = make_model()
    model.flat[:] = 1e200
    with pytest.raises(PredictorError, match="scores are non-finite"):
        score_archs(model, make_archs(64))
    assert helper_calls == [32]


def test_reference_dims_never_start_a_thread(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("score_archs started a helper thread")

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", refuse)
    monkeypatch.setattr(predictor, "_cpu_count", lambda: 2)
    model = make_model(ref_config())
    archs = make_archs(130)
    assert score_archs(model, archs).tobytes() == serial_scores(model, archs).tobytes()


def test_one_cpu_never_starts_a_thread(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("score_archs started a helper thread")

    model = make_model()
    archs = make_archs(64)
    want = serial_scores(model, archs)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", refuse)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert score_archs(model, archs).tobytes() == want.tobytes()


@pytest.mark.parametrize("count, dims", [(130, "reference"), (64, "paper-default")])
def test_score_archs_records_nothing_on_an_active_tape(count, dims, helper_calls):
    # the tape is suspended for the call, so a wide chunk takes the helper
    model = make_model(ref_config() if dims == "reference" else None)
    archs = make_archs(count)
    want = serial_scores(model, archs)
    with ad.Tape() as tape:
        got = score_archs(model, archs)
        assert ad.active_tape() is tape
    assert len(tape) == 0
    assert got.tobytes() == want.tobytes()
    assert helper_calls == ([] if dims == "reference" else [32])


def test_cpu_count_falls_back_without_affinity(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert predictor._cpu_count() == 1
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert predictor._cpu_count() == 4


def test_forward_batch_refuses_a_helper_under_a_tape():
    model = make_model(ref_config())
    batch = prepare_batch(model, make_archs(6))
    weights = ad.Tensor(np.linspace(-1.0, 1.0, 6))

    def grads(tape, scores):
        tape.backward(weighted_sum(scores, weights))
        out = {name: p.grad.copy() for name, p in model.params.items()}
        for p in model.params.values():
            p.grad = None
        return out

    with concurrent.futures.ThreadPoolExecutor(1) as pool:
        with ad.Tape() as tape:
            with pytest.raises(PredictorError, match="tape is active"):
                forward_batch(model, batch, helper=pool)
            assert len(tape) == 0
            refused = grads(tape, forward_batch(model, batch))
    with ad.Tape() as tape:
        serial = grads(tape, forward_batch(model, batch))
    assert refused.keys() == serial.keys()
    for name in serial:
        assert refused[name].tobytes() == serial[name].tobytes(), name


def test_score_archs_leaves_no_thread_behind(helper_calls):
    before = threading.active_count()
    score_archs(make_model(), make_archs(65))
    assert helper_calls == [32]
    assert threading.active_count() == before


# -- input checks -------------------------------------------------------------------

@pytest.mark.parametrize("rows", [4, 9])
def test_score_archs_refuses_supplemental_rows_that_miss_the_archs(rows, monkeypatch):
    monkeypatch.setattr(predictor, "SCORE_CHUNK", 2)
    model = make_model(ref_config(supplemental_dims=(2,)))
    supp = np.zeros((rows, 2))
    with pytest.raises(PredictorError, match="one row per arch"):
        score_archs(model, make_archs(5), supp)
    with pytest.raises(PredictorError, match="one row per arch"):
        score_archs(model, make_archs(5), 0.5)


# -- BLAS threads -------------------------------------------------------------------

CHILD = """
import hashlib
from flan import predictor
from test_score_helper import make_archs, make_model
calls = []
embed = predictor._helper_embedding
predictor._helper_embedding = lambda m, b: calls.append(b.size) or embed(m, b)
predictor._cpu_count = lambda: 2
scores = predictor.score_archs(make_model(), make_archs(119))
print(hashlib.sha256(scores.tobytes()).hexdigest(), calls)
"""


@pytest.mark.parametrize("threads", ["1", "2"])
def test_blas_thread_count_keeps_the_helper_bytes(threads):
    # the helper thread and the main thread call BLAS at once; with two BLAS
    # threads each GEMM may also be split, and neither may move a byte
    want = hashlib.sha256(serial_scores(make_model(), make_archs(119)).tobytes())
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")]))
    proc = subprocess.run([sys.executable, "-c", CHILD],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().split(" ", 1) == [want.hexdigest(), "[32, 27]"]
