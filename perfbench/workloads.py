"""The three benchmark workloads: search-ref, rank-paper and bench-data.

A workload is built from the run seed, a scratch directory inside the
checkout and a size ("full" for measurement, "tiny" for the benchmark's own
tests).  The harness calls

- ``setup()``: builds what a repetition needs plus the expected answers the
  checks compare against.  It runs several times; ``setup_s`` is its median.
- ``run()``: one closed-loop repetition.  It makes only program calls and
  returns their outputs; ``stages`` maps each timed program stage to seconds,
  and their sum is the repetition's ``wall_s``.
- ``check(out)``: the list of failed output checks (empty when correct).
- ``fingerprint(out)``: digests that must be equal on every repetition of
  one seed.
- ``summary(out)``: the workload's own metrics, ``name -> value``, with
  units in ``WORKLOAD_METRICS``.

Every program call goes through a module attribute (``benchmark.ingest``,
not a name bound at import), so the traced run's wrappers see it.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import time

import numpy as np

from flan import benchmark, cli, encodings, metrics, predictor, training

# Mirrors REFERENCE_DIMS in tests/conftest.py: the frozen reference scale the
# acceptance criteria are measured at.
REFERENCE_DIMS = dict(
    op_embedding_dim=8,
    node_embedding_dim=8,
    hidden_dim=16,
    gcn_dims=(16, 16),
    backward_gcn_dims=(16,),
    op_update_mlp_dims=(16,),
    mlp_dims=(16,),
    supp_embedder_dims=(16,),
    nn_emb_dim=16,
    timesteps=2,
)

# A predictor small enough for the tiny size that still builds every
# parameter group.
TINY_DIMS = dict(
    op_embedding_dim=4,
    node_embedding_dim=4,
    hidden_dim=4,
    gcn_dims=(4,),
    backward_gcn_dims=(4,),
    op_update_mlp_dims=(4,),
    mlp_dims=(4,),
    supp_embedder_dims=(4,),
    nn_emb_dim=4,
    timesteps=2,
)

NUM_NODES = 7
VOCAB_SIZE = 8  # three reserved ops plus five interior ops


def _space(seed: int, num_archs: int) -> benchmark.SyntheticSpec:
    return benchmark.SyntheticSpec(
        num_nodes=NUM_NODES, vocab_size=VOCAB_SIZE, num_archs=num_archs,
        seed=seed, noise_sigma=0.05, interaction_scale=0.5,
    )


def _digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.hexdigest()


def _file_digest(path) -> str:
    with open(path, "rb") as fh:
        return _digest(fh.read())


def _best_id(accuracies: dict) -> int:
    """The search's own rule: highest accuracy, ties to the smaller id."""
    return min(accuracies, key=lambda i: (-accuracies[i], i))


class SearchRef:
    """In-process ``flan search --surrogate flan`` at the reference dims."""

    name = "search-ref"

    def __init__(self, seed: int, workdir, size: str):
        self.seed = seed
        tiny = size == "tiny"
        self.num_archs = 256 if tiny else 1024
        self.budget = 16
        self.iters = 2 if tiny else 4
        self.epochs = 2 if tiny else 30
        self.bench_path = workdir / "search-bench.jsonl"
        self.config_path = workdir / "search.cfg"
        self.trace_path = workdir / "search-trace.csv"
        self.dims = TINY_DIMS if tiny else REFERENCE_DIMS

    def setup(self):
        bench = benchmark.generate_synthetic(
            _space(self.seed, self.num_archs), name=f"perfbench-search-{self.seed}"
        )
        benchmark.export(bench, self.bench_path)
        lines = [
            f"{key} = {', '.join(map(str, value)) if isinstance(value, tuple) else value}"
            for key, value in self.dims.items()
        ]
        lines += [f"epochs = {self.epochs}", "batch_size = 16", "lr = 0.01"]
        self.config_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        self.accuracies = dict(bench.accuracies)
        return _file_digest(self.bench_path)

    def run(self) -> dict:
        argv = [
            "search", "--bench", str(self.bench_path),
            "--config", str(self.config_path), "--surrogate", "flan",
            "--budget", str(self.budget), "--iters", str(self.iters),
            "--pool-floor", "64", "--seed", str(self.seed),
            "--out", str(self.trace_path),
        ]
        stdout = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(stdout):
            code = cli.main(argv)
        elapsed = time.perf_counter() - start
        return {"code": code, "stdout": stdout.getvalue(),
                "trace": self.trace_path.read_bytes(),
                "stages": {"search": elapsed}}

    def _rows(self, out) -> list[dict]:
        return list(csv.DictReader(io.StringIO(out["trace"].decode("utf-8"))))

    def check(self, out) -> list[str]:
        if out["code"] != 0:
            return [f"flan search exited {out['code']}"]
        failures = []
        rows = self._rows(out)
        expected = self.budget + self.budget * self.iters
        if len(rows) != expected:
            failures.append(f"trace has {len(rows)} rows, expected {expected}")
        ids = [int(r["arch_id"]) for r in rows]
        if len(set(ids)) != len(ids):
            failures.append("trace evaluates an arch twice")
        if any(float(r["true_acc"]) != self.accuracies.get(int(r["arch_id"]))
               for r in rows):
            failures.append("trace true_acc disagrees with the benchmark")
        best = [float(r["best_so_far"]) for r in rows]
        running = np.maximum.accumulate([float(r["true_acc"]) for r in rows])
        if best != list(running):
            failures.append("best_so_far is not the running maximum of true_acc")
        lines = out["stdout"].strip().splitlines()
        if len(lines) != 1:
            return failures + [f"search printed {len(lines)} stdout lines, not 1"]
        report = json.loads(lines[0])
        found = {int(r["arch_id"]): float(r["true_acc"]) for r in rows}
        agrees = (
            report["evaluated"] == len(rows)
            and report["iterations"] == self.iters
            and report["budget_truncated"] is False
            and report["best_accuracy"] == best[-1]
            and report["best_arch_id"] == _best_id(found)
            and report["trace"] == str(self.trace_path)
        )
        if not agrees:
            failures.append(f"stdout JSON disagrees with the trace: {report}")
        return failures

    def fingerprint(self, out) -> dict:
        return {"trace_csv": _digest(out["trace"]),
                "stdout": _digest(out["stdout"].encode("utf-8"))}

    def summary(self, out) -> dict:
        rows = self._rows(out)
        found = {int(r["arch_id"]): float(r["true_acc"]) for r in rows}
        best_id = _best_id(found)
        position = 1 + [int(r["arch_id"]) for r in rows].index(best_id)
        return {"search_regret": max(self.accuracies.values()) - found[best_id],
                "search_evals_to_best": position}


class RankPaper:
    """Paper-default predictor: fit a split, round-trip a checkpoint, score
    the whole space."""

    name = "rank-paper"

    def __init__(self, seed: int, workdir, size: str):
        self.seed = seed
        tiny = size == "tiny"
        self.num_archs = 256 if tiny else 1024
        self.train_count = 32 if tiny else 64
        self.config = (predictor.PredictorConfig(**TINY_DIMS) if tiny
                       else predictor.PredictorConfig())
        self.train_config = training.TrainConfig(
            epochs=1 if tiny else 3, batch_size=16, seed=seed
        )
        self.ckpt_path = workdir / "rank.ckpt"
        self.check_count = 64  # one score_archs chunk

    def setup(self):
        bench = benchmark.generate_synthetic(
            _space(self.seed, self.num_archs), name=f"perfbench-rank-{self.seed}"
        )
        train_ids, test_ids = benchmark.split(bench, self.train_count, self.seed)
        self.model = predictor.init(
            self.config, encodings.unify([bench.vocab]), bench.cells_per_arch,
            self.seed,
        )
        self.bench = bench
        self.train_ids = train_ids
        self.archs = list(bench.archs)
        position = {a.arch_id: k for k, a in enumerate(self.archs)}
        self.test_positions = np.array([position[i] for i in test_ids])
        self.test_accs = bench.accuracy_vector(test_ids)
        return _digest(*(p.data.tobytes() for p in self.model.params.values()))

    def run(self) -> dict:
        t0 = time.perf_counter()
        model = predictor.clone_model(self.model)
        history = training.fit(model, self.bench, self.train_ids, self.train_config)
        t1 = time.perf_counter()
        training.save_model(model, self.ckpt_path, {"workload": self.name})
        reloaded, _ = training.load_model(self.ckpt_path)
        t2 = time.perf_counter()
        scores = predictor.score_archs(reloaded, self.archs)
        t3 = time.perf_counter()
        tau = metrics.kendall_tau(self.test_accs, scores[self.test_positions])
        t4 = time.perf_counter()
        return {
            "model": model, "steps": history["steps"], "scores": scores,
            "tau": tau, "ckpt": self.ckpt_path.read_bytes(),
            "stages": {"fit": t1 - t0, "checkpoint": t2 - t1,
                       "score": t3 - t2, "tau": t4 - t3},
        }

    def check(self, out) -> list[str]:
        failures = []
        if not np.all(np.isfinite(out["scores"])):
            failures.append("scores contain non-finite values")
        if out["steps"] < 1:
            failures.append("fit took no optimizer step")
        head = predictor.score_archs(out["model"], self.archs[:self.check_count])
        if head.tobytes() != out["scores"][:self.check_count].tobytes():
            failures.append("reloaded checkpoint scores differ from the in-memory model")
        if not math.isfinite(out["tau"]):
            failures.append(f"held-out tau is {out['tau']}")
        return failures

    def fingerprint(self, out) -> dict:
        return {"checkpoint": _digest(out["ckpt"]),
                "scores": _digest(out["scores"].tobytes())}

    def summary(self, out) -> dict:
        stages = out["stages"]
        return {"fit_ms_per_step": 1000.0 * stages["fit"] / max(1, out["steps"]),
                "score_archs_per_s": len(self.archs) / stages["score"],
                "heldout_tau": out["tau"]}


def kendall_reference(x: np.ndarray, y: np.ndarray) -> float:
    """Tau-b by direct pair counting, O(n^2) in blocks of rows."""
    s = tx = ty = 0
    for lo in range(0, x.shape[0], 256):
        dx = np.sign(x[lo:lo + 256, None] - x[None, :])
        dy = np.sign(y[lo:lo + 256, None] - y[None, :])
        s += int((dx * dy).sum())
        tx += int(np.count_nonzero(dx))
        ty += int(np.count_nonzero(dy))
    # every unordered pair was counted twice, which cancels in the ratio
    return s / math.sqrt(tx * ty)


def _midranks(v: np.ndarray) -> np.ndarray:
    _, inverse, counts = np.unique(v, return_inverse=True, return_counts=True)
    first = np.cumsum(counts) - counts  # 0-based position of each value's run
    return (first + (counts + 1) / 2.0)[inverse]


def spearman_reference(x: np.ndarray, y: np.ndarray) -> float:
    """Pearson correlation of midranks from np.unique counts."""
    return float(np.corrcoef(_midranks(x), _midranks(y))[0, 1])


class BenchData:
    """The non-neural path: generate, export, ingest, encode, rank-correlate."""

    name = "bench-data"

    def __init__(self, seed: int, workdir, size: str):
        self.seed = seed
        tiny = size == "tiny"
        self.num_archs = 256 if tiny else 1024
        self.entries = 5_000 if tiny else 25_000
        self.slice = 500 if tiny else 2_000
        self.bench_path = workdir / "data-bench.jsonl"

    def setup(self):
        rng = np.random.default_rng(self.seed & (2**64 - 1))
        x = rng.standard_normal(self.entries)
        y = 0.6 * x + 0.8 * rng.standard_normal(self.entries)
        # heavy ties: seven levels per side
        xt = np.clip(np.round(1.5 * x), -3, 3)
        yt = np.clip(np.round(1.5 * y), -3, 3)
        self.pairs = {"free": (x, y), "tied": (xt, yt)}
        k = self.slice
        self.expected = {
            (kind, name): ref(a[:k], b[:k])
            for kind, (a, b) in self.pairs.items()
            for name, ref in (("kendall_tau", kendall_reference),
                              ("spearman_rho", spearman_reference))
        }
        self.spec = _space(self.seed, self.num_archs)
        return _digest(x.tobytes(), y.tobytes(),
                       repr(sorted(self.expected.items())).encode("utf-8"))

    def run(self) -> dict:
        t0 = time.perf_counter()
        bench = benchmark.generate_synthetic(self.spec, name=f"perfbench-data-{self.seed}")
        t1 = time.perf_counter()
        benchmark.export(bench, self.bench_path)
        t2 = time.perf_counter()
        loaded = benchmark.ingest(self.bench_path)
        t3 = time.perf_counter()
        encode_s = 0.0
        digest = hashlib.sha256()
        for arch in loaded.archs:
            start = time.perf_counter()
            vectors = (
                encodings.score_features(arch, loaded.vocab).values,
                encodings.encode_path(arch, loaded.vocab).values,
                encodings.encode_adjacency(arch, loaded.vocab).values,
            )
            encode_s += time.perf_counter() - start
            for v in vectors:
                digest.update(v.tobytes())
        t4 = time.perf_counter()
        ranks = {}
        for kind, (a, b) in self.pairs.items():
            ranks[(kind, "kendall_tau")] = metrics.kendall_tau(a, b)
            ranks[(kind, "spearman_rho")] = metrics.spearman_rho(a, b)
        t5 = time.perf_counter()
        return {
            "bench": bench, "loaded": loaded, "export": self.bench_path.read_bytes(),
            "encodings": digest.hexdigest(), "ranks": ranks,
            "stages": {"generate": t1 - t0, "export": t2 - t1,
                       "ingest": t3 - t2, "encode": encode_s, "rank_corr": t5 - t4},
        }

    def check(self, out) -> list[str]:
        failures = []
        bench, loaded = out["bench"], out["loaded"]
        if len(loaded) != self.num_archs:
            failures.append(f"generated {len(loaded)} archs, asked for {self.num_archs}")
        if (loaded.arch_ids != bench.arch_ids
                or any(a.cells != b.cells for a, b in zip(loaded.archs, bench.archs))):
            failures.append("ingest(export(b)) changed the archs")
        if loaded.accuracies != bench.accuracies:
            failures.append("ingest(export(b)) changed the accuracies")
        k = self.slice
        for (kind, name), want in self.expected.items():
            a, b = self.pairs[kind]
            got = getattr(metrics, name)(a[:k], b[:k])
            if not abs(got - want) <= 1e-9:
                failures.append(f"{name} on the {kind} slice is {got}, reference {want}")
        for key, value in out["ranks"].items():
            if not -1.0 <= value <= 1.0:
                failures.append(f"{key[1]} on {key[0]} entries is {value}")
        return failures

    def fingerprint(self, out) -> dict:
        return {"export": _digest(out["export"]), "encodings": out["encodings"],
                "ranks": _digest(repr(sorted(out["ranks"].items())).encode("utf-8"))}

    def summary(self, out) -> dict:
        stages = out["stages"]
        entries = self.entries * len(out["ranks"])
        return {"gen_archs_per_s": self.num_archs / stages["generate"],
                "export_s": stages["export"],
                "ingest_archs_per_s": self.num_archs / stages["ingest"],
                "encode_archs_per_s": self.num_archs / stages["encode"],
                "rank_corr_entries_per_s": entries / stages["rank_corr"]}


WORKLOADS = {w.name: w for w in (SearchRef, RankPaper, BenchData)}

# Every summary() metric: name -> (unit, better, workload that reports it).
# The traced result carries them all; on the other workloads they read 0.
WORKLOAD_METRICS = {
    "search_regret": ("acc", "lower", "search-ref"),
    "search_evals_to_best": ("count", "lower", "search-ref"),
    "fit_ms_per_step": ("ms", "lower", "rank-paper"),
    "score_archs_per_s": ("archs/s", "higher", "rank-paper"),
    "heldout_tau": ("tau", "higher", "rank-paper"),
    "gen_archs_per_s": ("archs/s", "higher", "bench-data"),
    "export_s": ("s", "lower", "bench-data"),
    "ingest_archs_per_s": ("archs/s", "higher", "bench-data"),
    "encode_archs_per_s": ("archs/s", "higher", "bench-data"),
    "rank_corr_entries_per_s": ("entries/s", "higher", "bench-data"),
}
