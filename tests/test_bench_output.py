"""The benchmark's result line stays well formed on every workload.

perfbench/run.py prints human-readable lines and then one JSON object as
the last line of standard output.  A traced run fills every per-layer
metric; a function that no operation reaches any more would leave its
metric null, and the result would no longer be a set of numbers.  This
runs each workload for one second with tracing on and checks that last
line.  The runs use a copy of ``perfbench/`` and ``src/``, so the files
they write stay out of the checkout.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PER_LAYER = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]


@pytest.fixture(scope="module")
def bench_copy(tmp_path_factory):
    copy = tmp_path_factory.mktemp("bench")
    for part in ("perfbench", "src"):
        shutil.copytree(ROOT / part, copy / part, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return copy


@pytest.mark.parametrize("workload", ["long_block", "cli_batch", "oracle_sweep"])
def test_traced_run_ends_in_a_numeric_result(workload, bench_copy):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=bench_copy,
        capture_output=True,
        text=True,
        timeout=300,
        check=False,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    metrics = result["metrics"]
    assert len(PER_LAYER) == 27
    assert sorted(metrics) == sorted(PER_LAYER)
    for name in PER_LAYER:
        value = metrics[name]["value"]
        assert isinstance(value, (int, float)) and not isinstance(value, bool), (name, value)
        assert math.isfinite(value), (name, value)
