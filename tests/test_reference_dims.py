"""perfbench measures the reference predictor at the dims the acceptance
criteria use; its own copy of those dims must not drift from conftest's."""

import importlib.util
from pathlib import Path

from conftest import REFERENCE_DIMS

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def test_perfbench_reference_dims_mirror_conftest():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.REFERENCE_DIMS == REFERENCE_DIMS
