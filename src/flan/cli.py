"""Command line front end.

Subcommands: gen-bench, encode, train, eval, transfer, search.  train,
transfer and search take --seed and an optional --config file of
`key = value` lines whose keys match the training, predictor, or search
config fields; explicit command line flags win over the file.  gen-bench
takes --seed alone, and encode and eval take neither.  Outputs are machine
readable (JSON, JSONL, or CSV) and deterministic for a fixed seed.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import fields

from . import benchmark as bench_mod
from . import encodings as enc_mod
from .benchmark import SyntheticSpec, TabularBenchmark
from .metrics import kendall_tau, spearman_rho
from .nas_search import (
    SearchConfig,
    constant_factory,
    oracle_factory,
    predictor_factory,
    search,
    write_trace_csv,
)
from .predictor import PredictorConfig, init, score_archs
from .training import TrainConfig, fit, load_model, save_model, transfer


# one parser per field annotation in use by the config dataclasses
_FIELD_PARSERS = {
    "int": int,
    "int | None": int,
    "float": float,
    "str": str,
    "tuple[int, ...]": lambda raw: tuple(
        int(v) for v in raw.split(",") if v.strip() != ""
    ),
}
_CONFIG_CLASSES = (PredictorConfig, TrainConfig, SearchConfig)


def parse_config_file(path) -> dict[str, str]:
    """`key = value` per line; blank lines and #-comments allowed."""
    out: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected `key = value`")
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if not key or not value:
                raise ValueError(f"{path}:{lineno}: empty key or value")
            if key in out:
                raise ValueError(f"{path}:{lineno}: duplicate key {key!r}")
            out[key] = value
    known = {f.name for cls in _CONFIG_CLASSES for f in fields(cls)}
    unknown = set(out) - known
    if unknown:
        raise ValueError(
            f"{path}: unknown config keys {sorted(unknown)}; "
            f"known keys are {sorted(known)}"
        )
    return out


def _split_config(raw: dict[str, str], seed: int | None, path="config"):
    """Parse raw values by field annotation into kwargs for each config
    dataclass; a key fills every config with that field, and `seed`
    overrides every seed field.  A bad value is reported with path and key."""
    out = []
    for cls in _CONFIG_CLASSES:
        types = {f.name: f.type for f in fields(cls)}
        kwargs = {}
        for key in [key for key in raw if key in types]:
            try:
                kwargs[key] = _FIELD_PARSERS[types[key]](raw[key])
            except ValueError as exc:
                raise ValueError(f"{path}: {key}: {exc}") from None
        if seed is not None and "seed" in types:
            kwargs["seed"] = seed
        out.append(kwargs)
    return tuple(out)


def _load_config(args) -> tuple[dict, dict, dict]:
    raw = parse_config_file(args.config) if args.config else {}
    return _split_config(raw, args.seed, args.config)


def _supplemental_provider(specs, bench: TabularBenchmark):
    """Resolve --supp tokens into a provider, or None without any: `zcp`
    uses the benchmark's proxies, anything else is a flan-supp/1 path.
    Order is preserved and significant."""
    tables = []
    for spec in specs:
        if spec == "zcp":
            if bench.proxies is None:
                raise ValueError(
                    f"benchmark {bench.name!r} carries no proxy vectors"
                )
            tables.append(bench.proxies)
        else:
            tables.append(enc_mod.load_supplemental(spec))
    return enc_mod.SupplementalProvider(tables) if tables else None


def _emit(payload: dict, out_path) -> None:
    """One strict JSON line: a non-finite float (the rank correlation of
    constant accuracies, the loss of a fit that skipped every batch) is null."""
    payload = {key: None if isinstance(v, float) and not math.isfinite(v) else v
               for key, v in payload.items()}
    text = json.dumps(payload, sort_keys=True, allow_nan=False)
    print(text)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


def _cmd_gen_bench(args) -> int:
    utilities = None
    if args.utilities:
        utilities = tuple(float(v) for v in args.utilities.split(","))
    spec = SyntheticSpec(
        num_nodes=args.num_nodes,
        vocab_size=args.vocab_size,
        num_archs=args.num_archs,
        seed=args.seed,
        noise_sigma=args.noise_sigma,
        op_utilities=utilities,
        interaction_scale=args.interaction_scale,
    )
    bench = bench_mod.generate_synthetic(spec, name=args.name, space_id=args.space_id)
    bench_mod.export(bench, args.out)
    _emit({"name": bench.name, "archs": len(bench), "out": str(args.out)}, None)
    return 0


def _cmd_encode(args) -> int:
    if args.max_paths is not None and args.kind != "path":
        raise ValueError(
            f"--max-paths applies only to --kind path, not --kind {args.kind}")
    bench = bench_mod.ingest(args.bench)
    if not bench.archs:
        raise ValueError(f"{args.bench} holds no architectures to encode")
    if args.kind == "score":
        rows = enc_mod.score_feature_matrix(bench.archs, bench.vocab)
    elif args.kind == "adjacency":
        rows = [enc_mod.encode_adjacency(a, bench.vocab).values for a in bench.archs]
    else:
        rows = [enc_mod.encode_path(a, bench.vocab, args.max_paths).values
                for a in bench.archs]
    vectors = dict(zip(bench.arch_ids, rows))
    dim = next(iter(vectors.values())).shape[0]
    table = enc_mod.SupplementalTable(args.kind, dim, vectors)
    if args.kind == "score":
        table = table.z_normalized()
    enc_mod.save_supplemental(table, args.out)
    _emit({"kind": args.kind, "dim": dim, "count": len(vectors),
           "out": str(args.out)}, None)
    return 0


def _predictor_config(pred_kwargs: dict, provider) -> PredictorConfig:
    """A --supp provider's dims are the default supplemental dims."""
    if provider is not None:
        pred_kwargs.setdefault("supplemental_dims", provider.dims)
    return PredictorConfig(**pred_kwargs)


def _score_report(model, bench, train_ids, test_ids, provider) -> dict:
    supp = provider.matrix(test_ids) if provider is not None else None
    scores = score_archs(model, [bench.arch(i) for i in test_ids], supp)
    accs = bench.accuracy_vector(test_ids)
    return {
        "n": len(test_ids),
        "kendall_tau": kendall_tau(accs, scores),
        "spearman_rho": spearman_rho(accs, scores),
        "train_count": len(train_ids),
    }


def _cmd_train(args) -> int:
    bench = bench_mod.ingest(args.bench)
    pred_kwargs, train_kwargs, _ = _load_config(args)
    tcfg = TrainConfig(**train_kwargs)
    train_ids, test_ids = bench_mod.split(bench, args.train_count, tcfg.seed)
    provider = _supplemental_provider(args.supp, bench)
    model = init(_predictor_config(pred_kwargs, provider),
                 enc_mod.unify([bench.vocab]), bench.cells_per_arch, tcfg.seed)
    losses = fit(model, bench, train_ids, tcfg, supplemental=provider)["epoch_losses"]
    _save_scored(args, model, bench, train_ids, test_ids, provider, tcfg.seed,
                 tcfg.epochs, final_loss=losses[-1] if losses else None)
    return 0


def _held_out_split(bench, train_count: int, seed: int):
    """(train ids, held-out ids) of a seeded split; a train count of 0 is
    a zero-shot transfer, which holds out every arch."""
    if train_count == 0:
        return (), bench.arch_ids
    return bench_mod.split(bench, train_count, seed)


def _save_scored(args, model, bench, train_ids, test_ids, provider, seed,
                 epochs, **extra) -> None:
    """Score, then save with the provenance eval reads, then report."""
    provenance = {
        "bench_name": bench.name,
        "bench_count": len(bench),
        "split_seed": seed,
        "train_count": args.train_count,
        "epochs": epochs,
        "supp": ",".join(args.supp),
    }
    # score first: a split too small to rank must not leave a checkpoint
    payload = _score_report(model, bench, train_ids, test_ids, provider)
    save_model(model, args.out, provenance)
    _emit({**payload, **extra, "checkpoint": str(args.out)}, args.report)


def _cmd_eval(args) -> int:
    model, provenance = load_model(args.ckpt)
    bench = bench_mod.ingest(args.bench)
    try:
        name, count, seed = (provenance[key] for key in
                             ("bench_name", "train_count", "split_seed"))
    except KeyError as exc:
        raise ValueError(f"checkpoint provenance has no {exc}: eval reads "
                         "checkpoints written by flan train or flan transfer") from None
    for key in ("train_count", "split_seed"):
        try:
            int(provenance[key])
        except ValueError:
            raise ValueError(f"checkpoint provenance {key!r} is {provenance[key]!r}, "
                             "not an integer") from None
    if name != bench.name:
        raise ValueError(
            f"checkpoint was trained on {name!r}, given benchmark is {bench.name!r}"
        )
    train_ids, test_ids = _held_out_split(bench, int(count), int(seed))
    supp_specs = [s for s in provenance.get("supp", "").split(",") if s]
    provider = _supplemental_provider(supp_specs, bench)
    _emit(_score_report(model, bench, train_ids, test_ids, provider), args.out)
    return 0


def _cmd_transfer(args) -> int:
    model, _ = load_model(args.ckpt)
    bench = bench_mod.ingest(args.bench)
    _, train_kwargs, _ = _load_config(args)
    tcfg = TrainConfig(**train_kwargs)
    train_ids, test_ids = _held_out_split(bench, args.train_count, tcfg.seed)
    provider = _supplemental_provider(args.supp, bench)
    tuned = transfer(model, bench, train_ids, tcfg, supplemental=provider)
    _save_scored(args, tuned, bench, train_ids, test_ids, provider, tcfg.seed,
                 tcfg.transfer_epochs)
    return 0


def _cmd_search(args) -> int:
    if args.supp and args.surrogate != "flan":
        raise ValueError(
            f"--supp feeds only the flan surrogate, not --surrogate {args.surrogate}"
        )
    bench = bench_mod.ingest(args.bench)
    pred_kwargs, train_kwargs, search_kwargs = _load_config(args)
    for key, value in (("budget_per_iter", args.budget), ("max_iters", args.iters),
                       ("initial_sample", args.initial),
                       ("pool_floor", args.pool_floor)):
        if value is not None:
            search_kwargs[key] = value
    for key, flag in (("budget_per_iter", "--budget"), ("max_iters", "--iters")):
        if key not in search_kwargs:
            raise ValueError(f"search needs {flag} or {key} in --config")
    scfg = SearchConfig(**search_kwargs)
    tcfg = TrainConfig(**train_kwargs)
    factory = {"oracle": oracle_factory, "constant": constant_factory}.get(args.surrogate)
    if factory is None:
        provider = _supplemental_provider(args.supp, bench)
        factory = predictor_factory(_predictor_config(pred_kwargs, provider),
                                    tcfg, provider)
    state = search(bench, factory, scfg)
    write_trace_csv(state, args.out)
    best_id, best_acc = state.best_so_far
    _emit({
        "best_arch_id": best_id,
        "best_accuracy": best_acc,
        "evaluated": len(state.evaluated),
        "iterations": state.iteration,
        "budget_truncated": state.budget_truncated,
        "trace": str(args.out),
    }, None)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flan",
        description="Accuracy prediction and iterative-sampling search over "
                    "tabular architecture benchmarks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def config_flags(p):
        p.add_argument("--seed", type=int, default=None,
                       help="run seed; overrides any seed in --config")
        p.add_argument("--config", default=None,
                       help="key = value file with config fields")

    p = sub.add_parser("gen-bench", help="generate a synthetic benchmark file")
    p.add_argument("--seed", type=int, default=0, help="generator seed")
    p.add_argument("--num-nodes", type=int, required=True)
    p.add_argument("--vocab-size", type=int, required=True)
    p.add_argument("--num-archs", type=int, required=True)
    p.add_argument("--noise-sigma", type=float, default=0.0)
    p.add_argument("--interaction-scale", type=float, default=0.0)
    p.add_argument("--utilities", default=None,
                   help="comma-separated per-op utilities (vocab_size entries)")
    p.add_argument("--space-id", type=int, default=0)
    p.add_argument("--name", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen_bench)

    p = sub.add_parser("encode", help="write structural or score encodings")
    p.add_argument("--bench", required=True)
    p.add_argument("--kind", choices=("adjacency", "path", "score"),
                   required=True)
    p.add_argument("--max-paths", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("train", help="fit a predictor on a benchmark split")
    config_flags(p)
    p.add_argument("--bench", required=True)
    p.add_argument("--train-count", type=int, required=True)
    p.add_argument("--supp", action="append", default=[],
                   help="supplemental input: `zcp` or a flan-supp file; "
                        "repeatable, order matters")
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--report", default=None, help="also write the JSON report here")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="rank the held-out split of a checkpoint")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--bench", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("transfer", help="fine-tune a checkpoint on a new space")
    config_flags(p)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--bench", required=True, help="target benchmark")
    p.add_argument("--train-count", type=int, required=True,
                   help="target samples; 0 = zero-shot")
    p.add_argument("--supp", action="append", default=[])
    p.add_argument("--out", required=True, help="fine-tuned checkpoint path")
    p.add_argument("--report", default=None)
    p.set_defaults(func=_cmd_transfer)

    p = sub.add_parser("search", help="iterative-sampling search with a surrogate")
    config_flags(p)
    p.add_argument("--bench", required=True)
    p.add_argument("--surrogate", choices=("flan", "oracle", "constant"),
                   default="flan")
    p.add_argument("--supp", action="append", default=[],
                   help="as for train; feeds the flan surrogate")
    p.add_argument("--budget", type=int, default=None,
                   help="oracle evaluations per iteration (even)")
    p.add_argument("--iters", type=int, default=None)
    p.add_argument("--initial", type=int, default=None)
    p.add_argument("--pool-floor", type=int, default=None)
    p.add_argument("--out", required=True, help="trace CSV path")
    p.set_defaults(func=_cmd_search)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, RuntimeError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # a size no array of this machine can hold
        print(f"error: out of memory: {str(exc) or 'allocation failed'}",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
