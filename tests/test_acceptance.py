"""Acceptance gate: nine release criteria, one verdict line each.

Every test prints `criterion N: PASS|FAIL - <measurements>` (run pytest
with -s to see the lines as they happen; captured output is shown for any
failure).  Tolerances are pinned here and nowhere else:

  1. tape gradients vs central differences, 12 mode combinations, < 1e-4
  2. rank metrics vs brute-force oracles < 1e-12; hinge loss exact
  3. path encoding == DFS enumeration on every valid cell up to 5 nodes
  4. permutation/padding invariance of the forward pass < 1e-8
  5. oracle-scored search hits the true argmax in iteration 1; pool
     schedule exhaustively checked
  6. ensemble >= max(single-branch) - 0.02 median tau, absolute >= 0.70
  7. transfer at 16 samples >= scratch + 0.05 median tau, zero-shot > 0
  8. proxy supplement at 16 samples >= plain + 0.03 median tau
  9. byte determinism and persistence round trips

Criteria 6-8 are deterministic reference experiments on the frozen
1024-arch synthetic spaces (9 seeds each); the 0.70 floor in criterion 6
was frozen from the first reference run (observed medians: dgf 0.7363,
gat 0.7493, ensemble 0.7460).
"""

import itertools
import json
import time

import numpy as np
import pytest

from flan.autodiff import Tensor
from flan.benchmark import (
    SyntheticSpec,
    export,
    generate_synthetic,
    ingest,
    make_vocab,
    split,
)
from flan.cellgraph import CellArch, CellGraph, validate_cells
from flan.cli import main as cli_main
from flan.encodings import SupplementalProvider, encode_path, unify
from flan.metrics import kendall_tau, spearman_rho
from flan.nas_search import SearchConfig, oracle_factory, pool_size, search
from flan.predictor import forward_batch, init, prepare_batch, score_archs
from flan.rng import Rng
from flan.training import (
    TrainConfig,
    fit,
    hinge_rank_loss,
    load_model,
    save_model,
    transfer,
)

from conftest import (
    jitter_params,
    pad,
    permute,
    random_valid_cell,
    ref_config,
    reference_bench,
    small_bench,
    tiny_config,
)
from gradcheck import grad_check


def verdict(num, ok, detail):
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def full_space_tau(model, bench, provider=None):
    archs = [bench.arch(i) for i in bench.arch_ids]
    supp = provider.matrix(bench.arch_ids) if provider is not None else None
    return kendall_tau(score_archs(model, archs, supp),
                       bench.accuracy_vector(bench.arch_ids))


# -- 1. gradient suite ------------------------------------------------------------------

def test_criterion_1_gradient_suite():
    started = time.monotonic()
    bench = small_bench(num_archs=6, seed=11)
    archs = [bench.arch(i) for i in bench.arch_ids]
    accs = bench.accuracy_vector(bench.arch_ids)
    z = (accs - accs.mean()) / accs.std()

    worst = 0.0
    retried = 0
    failures = []
    combos = list(itertools.product(
        ("dgf", "gat", "ensemble"),
        ("shared_sigmoid", "kqv_softmax"),
        (1, 2),
    ))
    assert len(combos) == 12
    for mode, variant, steps in combos:
        cfg = tiny_config(forward_mode=mode, backward_mode=mode,
                          attention_variant=variant, timesteps=steps)
        tag = f"{mode}/{variant}/T={steps}"
        # The loss surface has hinge and relu kinks; if a finite-difference
        # probe happens to straddle one, the two-sided slope disagrees with
        # the (correct) one-sided tape gradient by O(1) no matter how small
        # h is.  A wrong gradient formula fails at every generic point, so
        # the check passes if any of three independent jitter points is
        # clean.
        errs = []
        for jitter_seed in (13, 14, 15):
            model = init(cfg, unify([bench.vocab]), 1, seed=7)
            jitter_params(model, seed=jitter_seed)
            batch = prepare_batch(model, archs)

            def loss_fn():
                return hinge_rank_loss(forward_batch(model, batch), z, 0.1)

            if loss_fn().item() <= 0.0:
                continue
            report = grad_check(loss_fn, model.params, h=1e-4,
                                max_entries_per_block=6, seed=5)
            checked = sum(b.checked_entries for b in report.blocks)
            if checked >= 40 and report.ok(1e-4):
                errs.append(report.max_rel_err)
                break
            errs.append(report.max_rel_err)
        else:
            failures.append(f"{tag}: rel errs {[f'{e:.2e}' for e in errs]}")
            continue
        retried += len(errs) > 1
        worst = max(worst, errs[-1])
    elapsed = time.monotonic() - started
    ok = not failures and elapsed < 120.0
    verdict(1, ok,
            f"12/12 combos, max rel err {worst:.3e} (tol 1e-4), "
            f"{retried} kink retries, {elapsed:.1f}s (limit 120s)"
            + (f"; failures: {failures}" if failures else ""))


# -- 2. metric oracles ------------------------------------------------------------------

def _tau_oracle(x, y):
    n = len(x)
    nc = nd = tx = ty = 0
    for i in range(n):
        for j in range(i + 1, n):
            dx = x[i] - x[j]
            dy = y[i] - y[j]
            if dx == 0 and dy == 0:
                tx += 1
                ty += 1
            elif dx == 0:
                tx += 1
            elif dy == 0:
                ty += 1
            elif (dx > 0) == (dy > 0):
                nc += 1
            else:
                nd += 1
    n0 = n * (n - 1) // 2
    denom = np.sqrt(float(n0 - tx) * float(n0 - ty))
    return np.nan if denom == 0 else (nc - nd) / denom


def _midranks(v):
    order = np.argsort(v, kind="mergesort")
    ranks = np.empty(len(v))
    i = 0
    while i < len(v):
        j = i
        while j + 1 < len(v) and v[order[j + 1]] == v[order[i]]:
            j += 1
        ranks[order[i:j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def _spearman_oracle(x, y):
    rx, ry = _midranks(x), _midranks(y)
    cx, cy = rx - rx.mean(), ry - ry.mean()
    denom = np.sqrt((cx * cx).sum() * (cy * cy).sum())
    return np.nan if denom == 0 else (cx * cy).sum() / denom


def _hinge_oracle(scores, accs, margin):
    vals = []
    for i in range(len(accs)):
        for j in range(len(accs)):
            if accs[i] > accs[j]:
                vals.append(max(0.0, margin - (scores[i] - scores[j])))
    return float(np.mean(np.array(vals))) if vals else 0.0


def _random_metric_instance(rng):
    n = 2 + rng.randint(59)
    x = np.array([rng.normal(0.0, 1.0) for _ in range(n)])
    y = np.array([rng.normal(0.0, 1.0) for _ in range(n)])
    if rng.randint(2):
        x = np.round(x, 1)
    if rng.randint(2):
        y = np.round(y, 1)
    return x, y


def test_criterion_2_metric_oracles():
    rng = Rng(2024)
    max_dev = 0.0
    compared = 0
    for _ in range(1000):
        x, y = _random_metric_instance(rng)
        while len(set(x)) == 1 or len(set(y)) == 1:
            x, y = _random_metric_instance(rng)
        max_dev = max(max_dev, abs(kendall_tau(x, y) - _tau_oracle(x, y)))
        max_dev = max(max_dev, abs(spearman_rho(x, y) - _spearman_oracle(x, y)))
        compared += 1

    hinge_exact = 0
    for _ in range(100):
        n = 2 + rng.randint(10)
        scores = np.array([rng.normal(0.0, 1.0) for _ in range(n)])
        accs = np.round([rng.uniform(0.0, 1.0) for _ in range(n)], 1)
        margin = rng.uniform(0.0, 0.5)
        got = hinge_rank_loss(Tensor(scores), accs, margin).item()
        hinge_exact += got == _hinge_oracle(scores, accs, margin)

    ok = compared == 1000 and max_dev < 1e-12 and hinge_exact == 100
    verdict(2, ok,
            f"{compared} tau/rho instances, max |dev| {max_dev:.2e} "
            f"(tol 1e-12); hinge exact on {hinge_exact}/100")


# -- 3. path encoding vs DFS enumeration -------------------------------------------------

def _all_paths(adj, n):
    paths = []

    def walk(node, trail):
        if node == n - 1:
            paths.append(trail)
            return
        for nxt in np.nonzero(adj[node])[0]:
            walk(int(nxt), trail + (int(nxt),))

    walk(0, (0,))
    return paths


def _oracle_path_bits(cell, k):
    n = cell.num_nodes
    dim = sum(k ** l for l in range(n - 1))
    bits = np.zeros(dim, dtype=np.float64)
    for path in _all_paths(cell.adjacency, n):
        seq = [cell.op_ids[v] - 3 for v in path[1:-1]]
        index = sum(k ** l for l in range(len(seq)))
        for pos, digit in enumerate(seq):
            index += digit * k ** (len(seq) - 1 - pos)
        bits[index] = 1.0
    return bits


def test_criterion_3_path_encoding_exhaustive():
    vocab = make_vocab(0, 6)
    uni = unify([vocab])
    cells = 0
    mismatches = 0
    for n in range(2, 6):
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for mask in range(1 << len(edges)):
            adj = np.zeros((n, n), dtype=np.uint8)
            for b, (i, j) in enumerate(edges):
                if mask >> b & 1:
                    adj[i, j] = 1
            for mid in itertools.product((3, 4, 5), repeat=max(0, n - 2)):
                cell = CellGraph(adj, [0, *mid, 1], 0)
                if validate_cells([cell], 6)[0] is not None:
                    continue
                cells += 1
                got = encode_path(CellArch((cell,), 0), uni).values
                want = _oracle_path_bits(cell, 3)
                if not np.array_equal(got, want):
                    mismatches += 1
    ok = mismatches == 0 and cells >= 3000
    verdict(3, ok,
            f"{cells} valid cells enumerated (all sizes 2-5, 3 ops), "
            f"{mismatches} encoding mismatches")


# -- 4. predictor symmetry ----------------------------------------------------------------

def test_criterion_4_predictor_symmetry():
    vocab = unify([make_vocab(0, 6)])
    model = init(tiny_config(), vocab, 1, seed=5)
    jitter_params(model, seed=6)
    rng = Rng(404)
    worst = 0.0
    for _ in range(200):
        n = 3 + rng.randint(4)
        cell = random_valid_cell(rng, n, 6)
        base = score_archs(model, [CellArch((cell,), 0)])[0]

        perm = list(range(n))
        rng.shuffle(perm)
        moved = score_archs(model, [CellArch((permute(cell, perm),), 0)])[0]
        padded = score_archs(model, [CellArch((pad(cell, n + 1 + rng.randint(3)),), 0)])[0]
        worst = max(worst, abs(base - moved), abs(base - padded))
    verdict(4, worst <= 1e-8,
            f"200 cells, max |forward delta| {worst:.2e} under relabeling "
            f"and padding (tol 1e-8)")


# -- 5. search correctness ----------------------------------------------------------------

def test_criterion_5_search_correctness():
    benches = [
        reference_bench("a"),
        small_bench(num_archs=40, seed=7, vocab_size=6),
        small_bench(num_archs=200, seed=3, num_nodes=5, vocab_size=6),
    ]
    argmax_hits = 0
    for bench in benches:
        cfg = SearchConfig(budget_per_iter=8, max_iters=1, pool_floor=16, seed=1)
        state = search(bench, oracle_factory, cfg)
        best_id, best_acc = state.best_so_far
        true_best = max(bench.accuracies.values())
        hit = (
            best_acc == true_best
            and bench.accuracies[best_id] == true_best
            and any(r.arch_id == best_id and r.iteration <= 1 for r in state.trace)
        )
        argmax_hits += hit

    calls = 0
    mismatch = 0
    prev = None
    for i in range(1, 21):
        d = 1 << i
        got = np.array([pool_size(m, i) for m in range(1, (1 << 20) + 1)],
                       dtype=np.int64)
        m = np.arange(1, (1 << 20) + 1, dtype=np.int64)
        want = np.maximum(512, (m + d - 1) // d)
        mismatch += int((got != want).sum())
        calls += got.size
        if prev is not None and (got > prev).any():
            mismatch += 1
        prev = got
    for floor in (1, 64):
        for i in range(1, 17):
            d = 1 << i
            got = np.array(
                [pool_size(m, i, floor) for m in range(1, 65537)], dtype=np.int64
            )
            m = np.arange(1, 65537, dtype=np.int64)
            mismatch += int((got != np.maximum(floor, (m + d - 1) // d)).sum())
            calls += got.size

    ok = argmax_hits == len(benches) and mismatch == 0
    verdict(5, ok,
            f"oracle argmax in iteration 1 on {argmax_hits}/{len(benches)} "
            f"benchmarks; pool schedule exact on {calls} calls "
            f"({mismatch} mismatches)")


# -- 6. ensemble direction of effect ------------------------------------------------------

def _trained_tau(bench, mode, seed, train_count, epochs):
    train_ids, _ = split(bench, train_count, seed=seed)
    model = init(ref_config(forward_mode=mode, backward_mode=mode),
                 unify([bench.vocab]), 1, seed=seed)
    fit(model, bench, train_ids,
        TrainConfig(epochs=epochs, batch_size=16, lr=0.01, seed=seed))
    return full_space_tau(model, bench)


def test_criterion_6_ensemble_beats_single_branch():
    bench = reference_bench("a")
    medians = {}
    for mode in ("dgf", "gat", "ensemble"):
        taus = [_trained_tau(bench, mode, seed, 128, 30) for seed in range(9)]
        medians[mode] = float(np.median(taus))
    gap = medians["ensemble"] - max(medians["dgf"], medians["gat"])
    ok = gap >= -0.02 and medians["ensemble"] >= 0.70
    verdict(6, ok,
            f"median tau over 9 seeds: dgf {medians['dgf']:.4f}, "
            f"gat {medians['gat']:.4f}, ensemble {medians['ensemble']:.4f}; "
            f"ensemble-max(single) {gap:+.4f} (floor -0.02), "
            f"absolute floor 0.70")


# -- 7. transfer beats scratch ------------------------------------------------------------

def test_criterion_7_transfer_beats_scratch():
    started = time.monotonic()
    src_bench = reference_bench("a")
    tgt_bench = reference_bench("b")

    pretrained = init(ref_config(), unify([src_bench.vocab]), 1, seed=0)
    fit(pretrained, src_bench, src_bench.arch_ids,
        TrainConfig(epochs=10, batch_size=16, lr=0.01, seed=0))

    zero_shot = transfer(pretrained, tgt_bench, [], TrainConfig(seed=0))
    tau_zero = full_space_tau(zero_shot, tgt_bench)

    transferred, scratch = [], []
    for seed in range(9):
        ids16, _ = split(tgt_bench, 16, seed=seed)
        tc = TrainConfig(epochs=20, transfer_epochs=20, batch_size=16,
                         lr=0.01, transfer_lr=0.01, seed=seed)
        tuned = transfer(pretrained, tgt_bench, ids16, tc)
        transferred.append(full_space_tau(tuned, tgt_bench))
        cold = init(ref_config(), unify([tgt_bench.vocab]), 1,
                    seed=seed)
        fit(cold, tgt_bench, ids16, tc)
        scratch.append(full_space_tau(cold, tgt_bench))
    med_transfer = float(np.median(transferred))
    med_scratch = float(np.median(scratch))
    elapsed = time.monotonic() - started
    ok = (
        med_transfer >= med_scratch + 0.05
        and tau_zero > 0.0
        and elapsed < 600.0
    )
    verdict(7, ok,
            f"16-sample median tau: transfer {med_transfer:.4f} vs scratch "
            f"{med_scratch:.4f} (need +0.05); zero-shot tau {tau_zero:.4f} "
            f"(> 0); {elapsed:.0f}s (limit 600s)")


# -- 8. proxy supplement helps at low samples ---------------------------------------------

def test_criterion_8_supplement_improves_low_sample_tau():
    bench = reference_bench("a")
    provider = SupplementalProvider([bench.proxies])
    plain, hybrid = [], []
    for seed in range(9):
        ids16, _ = split(bench, 16, seed=seed)
        tc = TrainConfig(epochs=20, batch_size=16, lr=0.01, seed=seed)
        model = init(ref_config(), unify([bench.vocab]), 1, seed=seed)
        fit(model, bench, ids16, tc)
        plain.append(full_space_tau(model, bench))

        model = init(ref_config(supplemental_dims=(provider.dim,)),
                     unify([bench.vocab]), 1, seed=seed)
        fit(model, bench, ids16, tc, supplemental=provider)
        hybrid.append(full_space_tau(model, bench, provider))
    med_plain = float(np.median(plain))
    med_hybrid = float(np.median(hybrid))
    ok = med_hybrid >= med_plain + 0.03
    verdict(8, ok,
            f"16-sample median tau: plain {med_plain:.4f}, with proxies "
            f"{med_hybrid:.4f} (need +0.03)")


# -- 9. determinism and persistence -------------------------------------------------------

TINY_CLI_CFG = """\
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
epochs = 2
batch_size = 6
lr = 0.01
"""


def test_criterion_9_determinism_and_persistence(tmp_path, capsys):
    problems = []

    # same-seed end-to-end runs, byte for byte
    cfg_path = tmp_path / "tiny.cfg"
    cfg_path.write_text(TINY_CLI_CFG)
    bench_paths = [tmp_path / "e1.bench", tmp_path / "e2.bench"]
    ckpt_paths = [tmp_path / "e1.ckpt", tmp_path / "e2.ckpt"]
    reports = []
    for bench_path, ckpt_path in zip(bench_paths, ckpt_paths):
        assert cli_main([
            "gen-bench", "--num-nodes", "4", "--vocab-size", "6",
            "--num-archs", "24", "--seed", "3", "--noise-sigma", "0.05",
            "--interaction-scale", "0.5", "--out", str(bench_path),
        ]) == 0
        assert cli_main([
            "train", "--bench", str(bench_path), "--train-count", "16",
            "--seed", "5", "--config", str(cfg_path), "--out", str(ckpt_path),
        ]) == 0
        reports.append(capsys.readouterr().out.strip().splitlines()[-1])
    if bench_paths[0].read_bytes() != bench_paths[1].read_bytes():
        problems.append("generated benchmarks differ")
    if ckpt_paths[0].read_bytes() != ckpt_paths[1].read_bytes():
        problems.append("trained checkpoints differ")
    parsed = [json.loads(r) for r in reports]
    for p in parsed:
        p.pop("checkpoint")  # echoes the output path, which differs by design
    if parsed[0] != parsed[1]:
        problems.append("training reports differ")

    # checkpoint round trip is prediction-bit-exact
    bench = small_bench(num_archs=10, seed=21)
    model = init(tiny_config(), unify([bench.vocab]), 1, seed=4)
    fit(model, bench, bench.arch_ids,
        TrainConfig(epochs=2, batch_size=5, lr=0.01, seed=4))
    save_model(model, tmp_path / "direct.ckpt", {"stage": "test"})
    loaded, _ = load_model(tmp_path / "direct.ckpt")
    for arch_id in bench.arch_ids:
        a = score_archs(model, [bench.arch(arch_id)])[0]
        b = score_archs(loaded, [bench.arch(arch_id)])[0]
        if a != b:
            problems.append(f"prediction drift on arch {arch_id}: {a} vs {b}")
            break

    # benchmark export/ingest round trip identity
    src = reference_bench("a")
    export(src, tmp_path / "r1.bench")
    back = ingest(tmp_path / "r1.bench")
    export(back, tmp_path / "r2.bench")
    if (tmp_path / "r1.bench").read_bytes() != (tmp_path / "r2.bench").read_bytes():
        problems.append("export/ingest/export not byte stable")
    if back.accuracies != src.accuracies or back.archs != src.archs:
        problems.append("ingest changed benchmark contents")

    verdict(9, not problems,
            "end-to-end bytes, checkpoint predictions, and benchmark "
            "round trips all identical"
            + (f"; problems: {problems}" if problems else ""))
