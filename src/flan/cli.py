"""Command line front end.

Subcommands: gen-bench, encode, train, eval, transfer, search.  Every
command takes --seed and an optional --config file of `key = value` lines
whose keys match the training, predictor, or search config fields; explicit
command line flags win over the file.  Outputs are machine readable (JSON,
JSONL, or CSV) and deterministic for a fixed seed.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields

from . import benchmark as bench_mod
from . import encodings as enc_mod
from .benchmark import SyntheticSpec, TabularBenchmark
from .metrics import rank_report
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


def _parse_bool(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


# one parser per field annotation in use by the config dataclasses
_FIELD_PARSERS = {
    "int": int,
    "int | None": int,
    "float": float,
    "str": str,
    "bool": _parse_bool,
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
    text = json.dumps(payload, sort_keys=True)
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
        seed=args.seed if args.seed is not None else 0,
        noise_sigma=args.noise_sigma,
        op_utilities=utilities,
        interaction_scale=args.interaction_scale,
    )
    bench = bench_mod.generate_synthetic(spec, name=args.name, space_id=args.space_id)
    bench_mod.export(bench, args.out)
    _emit({"name": bench.name, "archs": len(bench), "out": str(args.out)}, None)
    return 0


def _cmd_encode(args) -> int:
    bench = bench_mod.ingest(args.bench)
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


def _train_model(bench, train_ids, pred_kwargs, train_kwargs, supp_specs,
                 unified: bool):
    provider = _supplemental_provider(supp_specs, bench)
    if provider is not None:
        pred_kwargs.setdefault("supplemental_dims", provider.dims)
    if unified:
        pred_kwargs["unified"] = True
    pcfg = PredictorConfig(**pred_kwargs)
    tcfg = TrainConfig(**train_kwargs)
    vocab = enc_mod.unify([bench.vocab])
    model = init(pcfg, vocab, bench.cells_per_arch, tcfg.seed)
    history = fit(model, bench, train_ids, tcfg, supplemental=provider)
    return model, history, provider, tcfg


def _score_report(model, bench, test_ids, provider) -> dict:
    supp = provider.matrix(test_ids) if provider is not None else None
    scores = score_archs(model, [bench.arch(i) for i in test_ids], supp)
    accs = bench.accuracy_vector(test_ids)
    report = rank_report(accs, scores)
    return {
        "n": report.n,
        "kendall_tau": report.kendall,
        "spearman_rho": report.spearman,
    }


def _cmd_train(args) -> int:
    bench = bench_mod.ingest(args.bench)
    pred_kwargs, train_kwargs, _ = _load_config(args)
    train_ids, test_ids = bench_mod.split(
        bench, args.train_count, train_kwargs.get("seed", 0)
    )
    model, history, provider, tcfg = _train_model(
        bench, train_ids, pred_kwargs, train_kwargs, args.supp, args.unified
    )
    provenance = {
        "bench_name": bench.name,
        "bench_count": len(bench),
        "split_seed": tcfg.seed,
        "train_count": args.train_count,
        "epochs": tcfg.epochs,
        "supp": ",".join(args.supp),
    }
    save_model(model, args.out, provenance)
    payload = _score_report(model, bench, test_ids, provider)
    payload.update({
        "train_count": len(train_ids),
        "final_loss": history["epoch_losses"][-1] if history["epoch_losses"] else None,
        "checkpoint": str(args.out),
    })
    _emit(payload, args.report)
    return 0


def _restore(args):
    model, provenance = load_model(args.ckpt)
    bench = bench_mod.ingest(args.bench)
    return model, provenance, bench


def _cmd_eval(args) -> int:
    model, provenance, bench = _restore(args)
    if provenance.get("bench_name") != bench.name:
        raise ValueError(
            f"checkpoint was trained on {provenance.get('bench_name')!r}, "
            f"given benchmark is {bench.name!r}"
        )
    train_ids, test_ids = bench_mod.split(
        bench, int(provenance["train_count"]), int(provenance["split_seed"])
    )
    supp_specs = [s for s in provenance.get("supp", "").split(",") if s]
    provider = _supplemental_provider(supp_specs, bench)
    payload = _score_report(model, bench, test_ids, provider)
    payload["train_count"] = len(train_ids)
    _emit(payload, args.out)
    return 0


def _cmd_transfer(args) -> int:
    model, _, bench = _restore(args)
    _, train_kwargs, _ = _load_config(args)
    tcfg = TrainConfig(**train_kwargs)
    if args.train_count > 0:
        train_ids, test_ids = bench_mod.split(bench, args.train_count, tcfg.seed)
    else:
        train_ids, test_ids = (), bench.arch_ids
    supp_specs = list(args.supp)
    provider = _supplemental_provider(supp_specs, bench)
    tuned = transfer(model, bench, train_ids, tcfg, supplemental=provider)
    provenance = {
        "bench_name": bench.name,
        "bench_count": len(bench),
        "split_seed": tcfg.seed,
        "train_count": args.train_count,
        "epochs": tcfg.transfer_epochs,
        "supp": ",".join(supp_specs),
    }
    save_model(tuned, args.out, provenance)
    payload = _score_report(tuned, bench, test_ids, provider)
    payload.update({
        "train_count": len(train_ids),
        "checkpoint": str(args.out),
    })
    _emit(payload, args.report)
    return 0


def _cmd_search(args) -> int:
    bench = bench_mod.ingest(args.bench)
    pred_kwargs, train_kwargs, search_kwargs = _load_config(args)
    if args.budget is not None:
        search_kwargs["budget_per_iter"] = args.budget
    if args.iters is not None:
        search_kwargs["max_iters"] = args.iters
    if args.initial is not None:
        search_kwargs["initial_sample"] = args.initial
    if args.pool_floor is not None:
        search_kwargs["pool_floor"] = args.pool_floor
    if "budget_per_iter" not in search_kwargs:
        raise ValueError("search needs --budget or budget_per_iter in --config")
    if "max_iters" not in search_kwargs:
        raise ValueError("search needs --iters or max_iters in --config")
    scfg = SearchConfig(**search_kwargs)
    tcfg = TrainConfig(**train_kwargs)
    if args.surrogate == "oracle":
        factory = oracle_factory
    elif args.surrogate == "constant":
        factory = constant_factory()
    else:
        if args.supp:
            if args.supp != ["zcp"]:
                raise ValueError(
                    "search supports only --supp zcp (proxies from the benchmark)"
                )
            if bench.proxies is None:
                raise ValueError(f"benchmark {bench.name!r} carries no proxies")
            pred_kwargs.setdefault("supplemental_dims", (bench.proxies.dim,))
        pcfg = PredictorConfig(**pred_kwargs)
        factory = predictor_factory(pcfg, tcfg, use_proxies=bool(args.supp))
    state = search(bench, factory, tcfg, scfg)
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

    def common(p):
        p.add_argument("--seed", type=int, default=None,
                       help="run seed; overrides any seed in --config")
        p.add_argument("--config", default=None,
                       help="key = value file with config fields")

    p = sub.add_parser("gen-bench", help="generate a synthetic benchmark file")
    common(p)
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
    common(p)
    p.add_argument("--bench", required=True)
    p.add_argument("--kind", choices=("adjacency", "path", "score"),
                   required=True)
    p.add_argument("--max-paths", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("train", help="fit a predictor on a benchmark split")
    common(p)
    p.add_argument("--bench", required=True)
    p.add_argument("--train-count", type=int, required=True)
    p.add_argument("--unified", action="store_true",
                   help="build a transfer-capable unified-vocabulary model")
    p.add_argument("--supp", action="append", default=[],
                   help="supplemental input: `zcp` or a flan-supp file; "
                        "repeatable, order matters")
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--report", default=None, help="also write the JSON report here")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="rank the held-out split of a checkpoint")
    common(p)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--bench", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("transfer", help="fine-tune a checkpoint on a new space")
    common(p)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--bench", required=True, help="target benchmark")
    p.add_argument("--train-count", type=int, required=True,
                   help="target samples; 0 = zero-shot")
    p.add_argument("--supp", action="append", default=[])
    p.add_argument("--out", required=True, help="fine-tuned checkpoint path")
    p.add_argument("--report", default=None)
    p.set_defaults(func=_cmd_transfer)

    p = sub.add_parser("search", help="iterative-sampling search with a surrogate")
    common(p)
    p.add_argument("--bench", required=True)
    p.add_argument("--surrogate", choices=("flan", "oracle", "constant"),
                   default="flan")
    p.add_argument("--supp", action="append", default=[])
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


if __name__ == "__main__":
    sys.exit(main())
