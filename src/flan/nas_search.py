"""Predictor-guided iterative-sampling search over a tabular benchmark.

Each iteration retrains the surrogate from scratch on everything evaluated
so far, ranks all unevaluated architectures, queries the oracle for the top
n/2 (ties by ascending arch id), and for the other n/2 samples uniformly
without replacement from the remainder of the top max(floor, ceil(m / 2^i))
of that ranking, where m is the space size.  The candidate pool is
recomputed from the fresh ranking every iteration.  The run starts from
initial_sample uniformly drawn architectures, which count as evaluated.

The trace records every oracle query with the phase that caused it; a run
whose final iteration could not fill its budget is flagged, not failed.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, replace

import numpy as np

from .benchmark import TabularBenchmark
from .predictor import _check_fields
from .rng import Rng
from .training import TrainConfig


class SearchError(ValueError):
    """Raised for invalid search configurations or factories."""


@dataclass(frozen=True)
class SearchConfig:
    budget_per_iter: int
    max_iters: int
    initial_sample: int | None = None
    pool_floor: int = 512
    seed: int = 0

    def __post_init__(self):
        _check_fields(self, SearchError)
        n = self.budget_per_iter
        if n < 2 or n % 2 != 0:
            raise SearchError(f"budget_per_iter must be even and >= 2, got {n}")
        if self.max_iters < 1:
            raise SearchError(f"max_iters must be >= 1, got {self.max_iters}")
        if self.pool_floor < 1:
            raise SearchError(f"pool_floor must be >= 1, got {self.pool_floor}")
        if self.initial_sample is not None and self.initial_sample < n:
            raise SearchError(
                f"initial_sample must be >= budget_per_iter, got "
                f"{self.initial_sample} < {n}"
            )

    @property
    def initial(self) -> int:
        return self.budget_per_iter if self.initial_sample is None else self.initial_sample


def pool_size(m: int, i: int, floor: int = 512) -> int:
    """max(floor, ceil(m / 2^i)); the exploration pool shrinks each iteration."""
    if m < 1 or i < 1:
        raise SearchError(f"need m >= 1 and i >= 1, got m={m}, i={i}")
    return max(floor, -(-m // (1 << i)))


@dataclass(frozen=True)
class TraceRow:
    iteration: int          # 0 for the seeding sample
    pool: int
    phase: str              # init | exploit | explore
    arch_id: int
    true_acc: float
    pred_score: float | None
    best_acc: float


@dataclass
class SearchState:
    iteration: int = 0
    evaluated: dict[int, float] = field(default_factory=dict)
    best_so_far: tuple[int, float] | None = None
    trace: list[TraceRow] = field(default_factory=list)
    budget_truncated: bool = False

    def record(self, iteration: int, pool: int, phase: str, arch_id: int,
               acc: float, score: float | None) -> None:
        if arch_id in self.evaluated:
            raise SearchError(f"arch {arch_id} evaluated twice")
        self.evaluated[arch_id] = acc
        if self.best_so_far is None or acc > self.best_so_far[1] or (
            acc == self.best_so_far[1] and arch_id < self.best_so_far[0]
        ):
            self.best_so_far = (arch_id, acc)
        self.trace.append(TraceRow(
            iteration, pool, phase, arch_id, acc, score, self.best_so_far[1]
        ))


def search(bench: TabularBenchmark, scorer_factory,
           search_config: SearchConfig) -> SearchState:
    """Run the loop; scorer_factory(bench, evaluated_ids, seed) must return a
    callable mapping a list of arch ids to a finite float score array.
    Training settings, if any, belong to the factory (see predictor_factory)."""
    m = len(bench)
    cfg = search_config
    if cfg.initial > m:
        raise SearchError(
            f"initial_sample {cfg.initial} exceeds the space size {m}"
        )
    rng = Rng(cfg.seed).child("search")
    state = SearchState()

    seed_ids = sorted(rng.sample(list(bench.arch_ids), cfg.initial))
    for arch_id in seed_ids:
        state.record(0, m, "init", arch_id, bench.accuracy(arch_id), None)

    half = cfg.budget_per_iter // 2
    for i in range(1, cfg.max_iters + 1):
        remaining = [a for a in bench.arch_ids if a not in state.evaluated]
        if not remaining:
            break
        state.iteration = i
        scorer = scorer_factory(bench, sorted(state.evaluated), rng.child("train", i).seed)
        scores = np.asarray(scorer(remaining), dtype=np.float64)
        if scores.shape != (len(remaining),):
            raise SearchError(
                f"scorer returned shape {scores.shape} for {len(remaining)} archs"
            )
        if not np.isfinite(scores).all():
            # a NaN would rank first under the (-score, id) key below
            raise SearchError(f"scorer returned non-finite scores at iteration {i}")
        ranked = sorted(zip(remaining, scores), key=lambda t: (-t[1], t[0]))
        pool = pool_size(m, i, cfg.pool_floor)

        exploit_count = min(half, len(ranked))
        if exploit_count < half:
            state.budget_truncated = True
        for arch_id, score in ranked[:exploit_count]:
            state.record(i, pool, "exploit", arch_id,
                         bench.accuracy(arch_id), float(score))

        pool_rest = ranked[exploit_count:pool]
        explore_count = min(half, len(pool_rest))
        if explore_count < half and len(ranked) > exploit_count:
            state.budget_truncated = True
        if explore_count:
            chosen = rng.child("explore", i).sample(pool_rest, explore_count)
            for arch_id, score in sorted(chosen, key=lambda t: t[0]):
                state.record(i, pool, "explore", arch_id,
                             bench.accuracy(arch_id), float(score))
    return state


def write_trace_csv(state: SearchState, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([
            "iter", "pool_size", "phase", "arch_id", "true_acc",
            "pred_score", "best_so_far",
        ])
        for row in state.trace:
            writer.writerow([
                row.iteration,
                row.pool,
                row.phase,
                row.arch_id,
                repr(row.true_acc),
                "" if row.pred_score is None else repr(row.pred_score),
                repr(row.best_acc),
            ])


def oracle_factory(bench: TabularBenchmark, evaluated_ids, seed: int):
    """Scores equal true accuracies: the search upper bound."""
    del evaluated_ids, seed
    return lambda ids: bench.accuracy_vector(ids)


def constant_factory(bench: TabularBenchmark, evaluated_ids, seed: int):
    """All scores equal: exploit falls back to id order, explore is uniform."""
    del bench, evaluated_ids, seed
    return lambda ids: np.zeros(len(ids), dtype=np.float64)


def predictor_factory(predictor_config, base_train_config: TrainConfig,
                      supplemental=None):
    """Train-from-scratch surrogate; the factory seed varies per iteration
    so retraining does not reuse the previous iteration's init.  A
    SupplementalProvider, if given, feeds both training and scoring, and
    fit refuses one whose dim is not predictor_config's supplemental total."""
    # imported at call time, so a wrapper installed on these names after
    # import (a tracer, a test's monkeypatch) is the one that runs
    from .encodings import unify
    from .predictor import init, score_archs
    from .training import fit

    def factory(bench, evaluated_ids, seed):
        model = init(predictor_config, unify([bench.vocab]),
                     bench.cells_per_arch, seed)
        fit(model, bench, evaluated_ids, replace(base_train_config, seed=seed),
            supplemental=supplemental)

        def scorer(ids):
            supp = None if supplemental is None else supplemental.matrix(ids)
            return score_archs(model, [bench.arch(i) for i in ids], supp)

        return scorer

    return factory
