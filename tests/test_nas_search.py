"""Iterative-sampling search: pool schedule, phases, trace, determinism."""

import csv
import dataclasses

import numpy as np
import pytest

from flan.encodings import SupplementalProvider
from flan.nas_search import (
    SearchConfig,
    SearchError,
    constant_factory,
    oracle_factory,
    pool_size,
    predictor_factory,
    search,
    write_trace_csv,
)
from flan.rng import Rng
from flan.training import TrainConfig, TrainError

from conftest import ref_config, reference_bench, small_bench, tiny_config


def quick_tc(**kw):
    base = dict(epochs=2, batch_size=4, lr=0.01, seed=0)
    base.update(kw)
    return TrainConfig(**base)


def run(bench, factory, budget=4, iters=2, floor=2, seed=0, initial=None):
    cfg = SearchConfig(
        budget_per_iter=budget, max_iters=iters, initial_sample=initial,
        pool_floor=floor, seed=seed,
    )
    return search(bench, factory, cfg)


# -- pool schedule -------------------------------------------------------------------

def test_pool_size_examples():
    assert pool_size(1024, 1) == 512
    assert pool_size(1024, 2) == 512
    assert pool_size(4096, 1) == 2048
    assert pool_size(100, 1, floor=4) == 50
    assert pool_size(100, 2, floor=4) == 25
    assert pool_size(100, 3, floor=4) == 13
    assert pool_size(100, 10, floor=4) == 4
    assert pool_size(1, 1, floor=1) == 1


def test_pool_size_rejects_degenerate_inputs():
    with pytest.raises(SearchError):
        pool_size(0, 1)
    with pytest.raises(SearchError):
        pool_size(10, 0)


def test_pool_size_exhaustive_grid():
    for floor in (1, 7, 512):
        for m in range(1, 2049):
            for i in range(1, 13):
                want = max(floor, (m + (1 << i) - 1) // (1 << i))
                assert pool_size(m, i, floor) == want


def test_pool_size_monotone_in_iteration():
    for m in (10, 100, 5000):
        sizes = [pool_size(m, i, floor=1) for i in range(1, 15)]
        assert sizes == sorted(sizes, reverse=True)
        assert sizes[-1] == 1


# -- config --------------------------------------------------------------------------

def test_search_config_rejections():
    for bad in (
        dict(budget_per_iter=0, max_iters=1),
        dict(budget_per_iter=3, max_iters=1),
        dict(budget_per_iter=4, max_iters=0),
        dict(budget_per_iter=4, max_iters=1, pool_floor=0),
        dict(budget_per_iter=4, max_iters=1, initial_sample=2),
    ):
        with pytest.raises(SearchError):
            SearchConfig(**bad)


@pytest.mark.parametrize("name, value", [
    ("budget_per_iter", 4.0), ("max_iters", True), ("pool_floor", 2.5),
    ("seed", 1.5), ("initial_sample", 8.0),
])
def test_search_config_names_a_non_integer_field(name, value):
    with pytest.raises(SearchError) as info:
        SearchConfig(**{"budget_per_iter": 4, "max_iters": 1, name: value})
    assert str(info.value) == f"{name} must be integer-valued, got {value!r}"


def test_initial_defaults_to_budget():
    assert SearchConfig(budget_per_iter=6, max_iters=1).initial == 6
    assert SearchConfig(budget_per_iter=4, max_iters=1, initial_sample=10).initial == 10


def test_initial_sample_cannot_exceed_space():
    bench = small_bench(num_archs=8)
    cfg = SearchConfig(budget_per_iter=4, max_iters=1, initial_sample=9)
    with pytest.raises(SearchError, match="exceeds"):
        search(bench, oracle_factory, cfg)


# -- search dynamics -----------------------------------------------------------------

def test_oracle_scorer_finds_argmax_in_first_iteration():
    bench = small_bench(num_archs=64, seed=13, vocab_size=6)
    state = run(bench, oracle_factory, budget=4, iters=1, floor=2)
    best_true = max(bench.accuracies.values())
    assert state.best_so_far[1] == best_true
    assert bench.accuracies[state.best_so_far[0]] == best_true


def test_trace_layout_and_phases():
    bench = small_bench(num_archs=32, seed=13)
    state = run(bench, oracle_factory, budget=4, iters=2, floor=2, initial=6)
    assert len(state.trace) == 6 + 2 * 4
    init_rows = [r for r in state.trace if r.iteration == 0]
    assert len(init_rows) == 6
    assert all(r.phase == "init" and r.pred_score is None for r in init_rows)
    for i in (1, 2):
        rows = [r for r in state.trace if r.iteration == i]
        assert [r.phase for r in rows] == ["exploit"] * 2 + ["explore"] * 2
        assert all(r.pool == pool_size(32, i, 2) for r in rows)
        explore_ids = [r.arch_id for r in rows if r.phase == "explore"]
        assert explore_ids == sorted(explore_ids)
    assert all(r.pred_score is not None for r in state.trace if r.iteration > 0)


def test_best_so_far_is_monotone_and_correct():
    bench = small_bench(num_archs=48, seed=3)
    state = run(bench, constant_factory, budget=4, iters=3, floor=4)
    best = -np.inf
    for row in state.trace:
        best = max(best, row.true_acc)
        assert row.best_acc == best
    assert state.best_so_far[1] == best


def test_no_architecture_evaluated_twice():
    bench = small_bench(num_archs=40, seed=7)
    state = run(bench, constant_factory, budget=6, iters=4, floor=3)
    ids = [r.arch_id for r in state.trace]
    assert len(ids) == len(set(ids))
    assert set(ids) == set(state.evaluated)


def test_exhausting_the_space_sets_the_truncation_flag():
    bench = small_bench(num_archs=9, seed=5)
    state = run(bench, oracle_factory, budget=4, iters=5, floor=2)
    assert set(state.evaluated) == set(bench.arch_ids)
    assert state.budget_truncated
    assert state.iteration <= 5


def test_full_budget_run_is_not_truncated():
    bench = small_bench(num_archs=32, seed=5)
    state = run(bench, oracle_factory, budget=4, iters=2, floor=4)
    assert not state.budget_truncated
    assert len(state.evaluated) == 4 + 2 * 4


def test_constant_scores_exploit_lowest_remaining_ids():
    bench = small_bench(num_archs=20, seed=9)
    state = run(bench, constant_factory, budget=4, iters=1, floor=20)
    seeded = {r.arch_id for r in state.trace if r.iteration == 0}
    remaining = sorted(set(bench.arch_ids) - seeded)
    exploit = [r.arch_id for r in state.trace
               if r.iteration == 1 and r.phase == "exploit"]
    assert exploit == remaining[:2]


def test_search_is_deterministic():
    bench = small_bench(num_archs=32, seed=2)
    a = run(bench, constant_factory, budget=4, iters=3, floor=4, seed=11)
    b = run(bench, constant_factory, budget=4, iters=3, floor=4, seed=11)
    assert a.trace == b.trace
    c = run(bench, constant_factory, budget=4, iters=3, floor=4, seed=12)
    assert a.trace != c.trace


def test_scorer_shape_is_validated():
    bench = small_bench(num_archs=16)

    def bad_factory(b, evaluated_ids, seed):
        return lambda ids: np.zeros(3)

    with pytest.raises(SearchError, match="shape"):
        run(bench, bad_factory, budget=4, iters=1)

    def nan_factory(b, evaluated_ids, seed):
        return lambda ids: np.where(np.asarray(ids) % 3 == 0, np.nan, 0.5)

    with pytest.raises(SearchError, match="non-finite scores at iteration 1"):
        run(bench, nan_factory, budget=4, iters=2)


def test_factory_receives_sorted_evaluated_ids_and_iteration_seeds():
    bench = small_bench(num_archs=24, seed=4)
    calls = []

    def spy_factory(b, evaluated_ids, seed):
        calls.append((list(evaluated_ids), seed))
        return lambda ids: b.accuracy_vector(ids)

    run(bench, spy_factory, budget=4, iters=3, floor=4, seed=8)
    assert len(calls) == 3
    for ids, _ in calls:
        assert ids == sorted(ids)
    assert len(calls[0][0]) == 4 and len(calls[1][0]) == 8
    seeds = [seed for _, seed in calls]
    assert len(set(seeds)) == 3


# -- trace csv -----------------------------------------------------------------------

def test_trace_csv_round_trip(tmp_path):
    bench = small_bench(num_archs=16, seed=6)
    state = run(bench, oracle_factory, budget=4, iters=2, floor=4)
    path = tmp_path / "trace.csv"
    write_trace_csv(state, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == [
        "iter", "pool_size", "phase", "arch_id", "true_acc",
        "pred_score", "best_so_far",
    ]
    assert len(rows) == 1 + len(state.trace)
    for got, row in zip(rows[1:], state.trace):
        assert int(got[0]) == row.iteration
        assert int(got[1]) == row.pool
        assert got[2] == row.phase
        assert int(got[3]) == row.arch_id
        assert float(got[4]) == row.true_acc
        assert (got[5] == "") == (row.pred_score is None)
        if row.pred_score is not None:
            assert float(got[5]) == row.pred_score
        assert float(got[6]) == row.best_acc


def test_trace_csv_bytes_deterministic(tmp_path):
    bench = small_bench(num_archs=16, seed=6)
    paths = []
    for tag in ("a", "b"):
        state = run(bench, oracle_factory, budget=4, iters=2, floor=4, seed=3)
        path = tmp_path / f"{tag}.csv"
        write_trace_csv(state, path)
        paths.append(path.read_bytes())
    assert paths[0] == paths[1]


# -- surrogate factories ----------------------------------------------------------------

def test_predictor_factory_runs_end_to_end():
    bench = small_bench(num_archs=12, seed=10)
    factory = predictor_factory(tiny_config(), quick_tc())
    state = run(bench, factory, budget=4, iters=2, floor=4, seed=1)
    assert len(state.evaluated) == 12
    assert state.best_so_far is not None


def test_predictor_factory_with_proxies():
    bench = small_bench(num_archs=12, seed=10)
    dim = bench.proxies.dim
    factory = predictor_factory(
        tiny_config(supplemental_dims=(dim,)), quick_tc(),
        SupplementalProvider([bench.proxies]),
    )
    state = run(bench, factory, budget=4, iters=1, floor=4, seed=1)
    assert len(state.evaluated) == 8


def test_predictor_factory_proxy_dim_mismatch():
    bench = small_bench(num_archs=12, seed=10)
    assert bench.proxies.dim != 3
    factory = predictor_factory(
        tiny_config(supplemental_dims=(3,)), quick_tc(),
        SupplementalProvider([bench.proxies]),
    )
    with pytest.raises(TrainError, match="dim"):
        run(bench, factory, budget=4, iters=1)


def test_predictor_factory_trains_with_every_base_config_field(monkeypatch):
    import flan.training

    base = TrainConfig(
        lr=0.02, weight_decay=0.003, epochs=3, batch_size=5, transfer_epochs=4,
        transfer_lr=0.006, hinge_margin=0.2, seed=11, adam_beta1=0.8,
        adam_beta2=0.99, adam_eps=1e-6,
    )
    defaults = TrainConfig()
    for f in dataclasses.fields(TrainConfig):
        assert getattr(base, f.name) != getattr(defaults, f.name), f.name
    seen = []
    monkeypatch.setattr(
        flan.training, "fit",
        lambda model, bench, ids, config, **kw: seen.append(config),
    )
    bench = small_bench(num_archs=12, seed=10)
    predictor_factory(tiny_config(), base)(bench, list(bench.arch_ids)[:4], 42)
    assert seen == [dataclasses.replace(base, seed=42)]


def test_surrogate_search_beats_equal_budget_random_sampling():
    # 16 + 3*16 = 64 oracle queries per arm; the guided arm must match or
    # beat the best of 64 uniform draws in at least 8 of 9 trials
    bench = reference_bench("a")
    wins = 0
    for seed in range(9):
        tc = TrainConfig(epochs=20, batch_size=16, lr=0.01, seed=seed)
        state = search(
            bench, predictor_factory(ref_config(), tc),
            SearchConfig(budget_per_iter=16, max_iters=3, seed=seed),
        )
        assert len(state.evaluated) == 64
        random_ids = Rng(seed).child("random-arm").sample(list(bench.arch_ids), 64)
        random_best = max(bench.accuracy(i) for i in random_ids)
        wins += state.best_so_far[1] >= random_best
    assert wins >= 8
