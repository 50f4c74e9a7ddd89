"""perfbench's traced run wraps flan functions by (module, attribute) name.

A target the program no longer has is skipped with one stderr line, and its
per-layer metrics then read 0.  This test resolves every target as the
traced run does, so a rename in src/ fails here instead.  The stale targets
that are known are listed; dropping them is a change to the benchmark.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

KNOWN_STALE = {
    "flan.predictor.dgf_layer",
    "flan.predictor.gat_layer",
    "flan.cellgraph.validate",
    "flan.benchmark.dag_path_stats",
}


def _tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while the module runs
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves_but_the_known_stale_ones(monkeypatch):
    missing = set()
    for module_name, attr, _, _ in _tracing(monkeypatch).TARGETS:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if owner is None:
            missing.add(f"{module_name}.{attr}")
    assert missing == KNOWN_STALE
