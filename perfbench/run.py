"""Seeded end-to-end and per-layer benchmark for flan.

    python3 perfbench/run.py --workload search-ref|rank-paper|bench-data \\
        --seed N --seconds S --trace 0|1 [--size full|tiny]

Run from the root of a source checkout; the program is imported from
``src/`` of that checkout and nothing else.  The workload's set-up runs
several times (``setup_s`` is the median), then repetitions run closed loop,
one caller, each starting when the previous one ended, until ``--seconds``
have passed.  Every repetition's outputs are checked, and its output digests
must equal those of the first repetition.

Shared hosts change speed, by up to 2x for minutes at a time, while other
tenants run.  So a fixed probe of the benchmark's own work (no program
code) runs before the first set-up and after every set-up and repetition,
and each set-up or repetition time is rescaled by PROBE_REFERENCE_S over
the mean of the probes on either side of it.  ``wall_s`` and ``setup_s``
are medians of these rescaled times: seconds on a host whose probe takes
PROBE_REFERENCE_S.  The report shows the raw medians and probe times too.

With ``--trace 0`` the result line carries the end-to-end metrics.  With
``--trace 1`` the set-ups and every second repetition run under span
wrappers (see tracing.py); the result line carries the per-layer metrics,
the workload metrics of workloads.WORKLOAD_METRICS, and
``trace.overhead_s``: traced minus untraced median repetition time.
Human-readable lines come first; the last line of stdout is the JSON result.
BLAS is pinned to one thread, so a run loads one core.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
WORKLOAD_NAMES = ("search-ref", "rank-paper", "bench-data")
# Set-up runs at least SETUP_MIN_RUNS times, and more (up to SETUP_MAX_RUNS)
# while the set-ups so far took under SETUP_MIN_SECONDS, so that a
# millisecond set-up still gets a steady median.
SETUP_MIN_RUNS = 3
SETUP_MAX_RUNS = 10
SETUP_MIN_SECONDS = 2.0
# The probe's duration on the 2-vCPU x86-64 Xeon VM (numpy 2.4, OpenBLAS on
# one thread) this benchmark was tuned on, while that host ran at full speed.
PROBE_REFERENCE_S = 0.15


def _blas_info() -> dict:
    import ctypes

    import numpy as np

    info = {"blas": "unknown", "blas_threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError, AttributeError):
        pass
    for lib in sorted(Path(np.__file__).parent.parent.glob("numpy.libs/*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["blas_threads"] = fn()
                return info
    return info


def environment() -> dict:
    import importlib.util

    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        **_blas_info(),
        "numba": importlib.util.find_spec("numba") is not None,
    }


def probe() -> float:
    """Seconds for a fixed mix of interpreter loop, small-array and BLAS work."""
    import numpy as np

    # the iterates stay near 0.5: no subnormal floats, whose arithmetic is slow
    b = np.linspace(-0.01, 0.01, 96 * 96).reshape(96, 96)
    start = time.perf_counter()
    a, c = np.full((16, 16), 0.5), np.full((96, 96), 0.5)
    total, slots = 0, {}
    for i in range(100_000):
        total += (i * 7) % 13
        slots[i & 255] = total
        if i % 8 == 0:
            a = np.tanh(a @ a * 0.05 + 0.5)
        if i % 64 == 0:
            c = np.tanh(c @ b + 0.5)
    return time.perf_counter() - start


class HostClock:
    """Rescales a time by the probes taken just before and just after it."""

    def __init__(self):
        self.probes = [probe()]

    def scaled(self, seconds: float) -> float:
        """Call right after the timed work; probes once more."""
        self.probes.append(probe())
        return seconds * PROBE_REFERENCE_S / statistics.mean(self.probes[-2:])


@dataclass
class Rep:
    unit: str
    traced: bool
    wall: float = 0.0
    raw: float = 0.0
    summary: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)


def _call(fn, tracer, tracing):
    """fn() under the tracer's wrappers when there is a tracer."""
    if tracer is None:
        return fn()
    with tracing.install(tracer):
        return fn()


def _repetition(work, rep: Rep, tracer, tracing, first: dict, clock: HostClock) -> None:
    try:
        out = _call(work.run, tracer if rep.traced else None, tracing)
        rep.raw = sum(out["stages"].values())
        rep.wall = clock.scaled(rep.raw)
        rep.problems = work.check(out)
        fingerprint = work.fingerprint(out)
    except Exception as exc:  # a failed repetition is counted, not fatal
        rep.problems = [f"{type(exc).__name__}: {exc}"]
        return
    first.setdefault("digests", fingerprint)
    changed = sorted(k for k, v in fingerprint.items() if v != first["digests"][k])
    if changed:
        rep.problems.append(f"outputs differ from the first repetition: {changed}")
    rep.summary = work.summary(out)


def _line(name, value, unit, note=""):
    return f"{name:<32} {value:>14.6g} {unit:<10} {note}".rstrip()


def _median_line(name, values, unit, what):
    return _line(name, statistics.median(values), unit,
                 f"median of {len(values)} {what} [{min(values):.6g} .. {max(values):.6g}]")


def measure(workload_name: str, seed: int, seconds: float, trace: bool,
            size: str = "full") -> dict:
    """Run one workload; the result holds the contract keys plus the report
    lines and, when traced, the spans' self time per repetition."""
    import tracing
    import workloads

    workdir = ROOT / ".bench_build" / "perfbench" / f"{workload_name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        work = workloads.WORKLOADS[workload_name](seed, workdir, size)
        return _measure(work, seconds, tracing.Tracer() if trace else None,
                        tracing, workloads.WORKLOAD_METRICS)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(work, seconds, tracer, tracing, workload_metrics) -> dict:
    clock = HostClock()
    setup_raw, setup_walls, setup_units, digests = [], [], [], set()
    while len(setup_raw) < SETUP_MIN_RUNS or (
            sum(setup_raw) < SETUP_MIN_SECONDS and len(setup_raw) < SETUP_MAX_RUNS):
        setup_units.append(f"setup {len(setup_raw)}")
        if tracer is not None:
            tracer.unit = setup_units[-1]
        gc.collect()
        start = time.perf_counter()
        digests.add(_call(work.setup, tracer, tracing))
        setup_raw.append(time.perf_counter() - start)
        setup_walls.append(clock.scaled(setup_raw[-1]))
    failures = [] if len(digests) == 1 else ["set-up gave different inputs on one seed"]

    reps: list[Rep] = []
    first: dict = {}
    deadline = time.perf_counter() + seconds
    while len(reps) < (2 if tracer else 1) or time.perf_counter() < deadline:
        rep = Rep(f"rep {len(reps)}", traced=tracer is not None and len(reps) % 2 == 1)
        if rep.traced:
            tracer.unit = rep.unit
        gc.collect()
        _repetition(work, rep, tracer, tracing, first, clock)
        reps.append(rep)
        failures.extend(f"{rep.unit}: {p}" for p in rep.problems)

    good = [r for r in reps if not r.problems]
    untraced = [r for r in good if not r.traced]
    plain = [r.wall for r in untraced]
    attempted = len(setup_walls) + len(reps)
    failed = (len(digests) != 1) + len(reps) - len(good)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    lines = [
        f"perfbench {work.name} seed={work.seed} seconds={seconds} trace={int(tracer is not None)}",
        "env " + json.dumps(environment(), sort_keys=True),
        _median_line("setup_s", setup_walls, "s", "set-ups"),
        _median_line("wall_s", plain or [float("nan")], "s", "repetitions"),
        _median_line("setup_raw_s", setup_raw, "s", "set-ups"),
        _median_line("wall_raw_s", [r.raw for r in untraced] or [float("nan")], "s", "repetitions"),
        _median_line("probe_s", clock.probes, "s", f"probes, reference {PROBE_REFERENCE_S}"),
        _line("error_rate", failed / attempted, "ratio", f"{failed} failed of {attempted} attempted"),
        _line("peak_rss_mb", peak_rss_mb, "MB"),
    ]
    summary = {}  # from untraced repetitions: wrappers would slow the rates
    for name in untraced[0].summary if untraced else ():
        values = [r.summary[name] for r in untraced]
        summary[name] = statistics.median(values)
        lines.append(_median_line(name, values, workload_metrics[name][0], "repetitions"))

    result = {"correct": not failures, "attempted": attempted, "failed": failed}
    if tracer is None:
        metrics = {
            "wall_s": (statistics.median(plain) if plain else float("nan"), "s"),
            "setup_s": (statistics.median(setup_walls), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        traced = [r for r in good if r.traced]
        own = tracing.self_times(tracer.spans)
        result["rep_self_s"] = {r.unit: 0.0 for r in traced}
        for span, seconds_own in zip(tracer.spans, own):
            if span.unit in result["rep_self_s"]:
                result["rep_self_s"][span.unit] += seconds_own
        result["rep_wall_s"] = {r.unit: r.raw for r in traced}
        layers = (tracing.layer_metrics(tracer, setup_units, [r.unit for r in traced])
                  if traced else dict.fromkeys(tracing.LAYER_METRICS, float("nan")))
        metrics = {name: (value, tracing.LAYER_METRICS[name][0])
                   for name, value in layers.items()}
        overhead = (statistics.median(r.wall for r in traced) - statistics.median(plain)
                    if traced and plain else float("nan"))
        metrics["trace.overhead_s"] = (overhead, "s")
        lines.append(_line("trace.overhead_s", overhead, "s", "traced minus untraced wall_s"))
        for name, (unit, _, target) in tracing.LAYER_METRICS.items():
            lines.append(_line(name, layers[name], unit, f"-> {target}"))
        for name, (unit, _, _) in workload_metrics.items():
            metrics[name] = (summary.get(name, 0.0), unit)
    lines.extend(f"FAILED {f}" for f in failures)
    result["metrics"] = {name: {"value": float(v), "unit": u} for name, (v, u) in metrics.items()}
    result["report"] = lines
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs each workload in about a second, for tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "flan" / "__init__.py").is_file():
        print(f"perfbench: no flan sources under {ROOT / 'src'}; run from the "
              "root of a source checkout", file=sys.stderr)
        return 2
    # before numpy loads: one BLAS thread keeps the run on one core
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]

    result = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    print("\n".join(result["report"]))
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
