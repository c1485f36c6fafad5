"""Smoke check of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload for about a second (the oracle on a tiny job list),
checks that BENCHMARK.json names exactly the metrics run.py prints, runs
run.py once timed and once traced and checks the shape of its result
line, checks that it fails without the package, shows that each
workload's correctness gate fires when decode_errors returns a word with
one symbol flipped, and runs the Tier-1 oracle jobs once against their
instance counts.  Exits 0 when all of that holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import vtcodes  # noqa: E402
import vtcodes.cli  # noqa: E402
import vtcodes.oracle  # noqa: E402

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"smoke: FAILED: {message}")


def tiny(name: str, seed: int, workdir: Path):
    if name == "oracle_sweep":
        return workloads.OracleSweep(seed, layers.MINI_ORACLE)
    return run.make_workload(name, seed, workdir)


def loop(name: str, workdir: Path) -> list:
    groups: list = []
    run.closed_loop(tiny(name, 7, workdir), 1.0, groups)
    return groups


def flipped(decode):
    def wrong(word, spec, offset):
        out = list(decode(word, spec, offset))
        out[0] = (out[0] + 1) % spec.q
        return tuple(out)

    return wrong


def gate_fires(name: str, workdir: Path) -> bool:
    """Flip one symbol of every decode_errors result, wherever it is called from."""
    sites = [vtcodes, vtcodes.cli, vtcodes.oracle]
    originals = [site.decode_errors for site in sites]
    for site, original in zip(sites, originals):
        site.decode_errors = flipped(original)
    try:
        loop(name, workdir)
    except workloads.GateError:
        return True
    finally:
        for site, original in zip(sites, originals):
            site.decode_errors = original
    return False


def result_line(argv: list[str], cwd: Path) -> tuple[int, dict | None]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *argv],
        cwd=cwd, capture_output=True, text=True, timeout=180, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return proc.returncode, None


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check(
        [m["name"] for m in spec["end_to_end"]] == [n for n, _ in run.END_TO_END],
        "BENCHMARK.json end_to_end differs from run.END_TO_END",
    )
    check(
        [m["name"] for m in spec["per_layer"]] == [n for n, _, _ in layers.PER_LAYER],
        "BENCHMARK.json per_layer differs from layers.PER_LAYER",
    )
    check([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS), "workload names differ")

    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench_tmp-") as tmp:
        workdir = Path(tmp)
        for name in run.WORKLOADS:
            groups = loop(name, workdir)
            check(groups and all(g.failed == 0 for g in groups), f"{name}: tiny run failed")
            check(gate_fires(name, workdir), f"{name}: gate did not fire on a flipped symbol")
            print(f"smoke: {name}: {len(groups)} groups ran; gate fires on a flipped symbol")

        tier1 = workloads.OracleSweep(0, workloads.OracleSweep.TIER1_JOBS)
        tier1.run_group(0, workloads.Group())
        print(f"smoke: the {len(tier1.jobs)} Tier-1 oracle jobs pass with their instance counts")

        for trace, names in (("0", run.END_TO_END), ("1", layers.PER_LAYER)):
            argv = ["--workload", "cli_batch", "--seed", "3", "--seconds", "1", "--trace", trace]
            code, result = result_line(argv, ROOT)
            check(code == 0 and result is not None, f"run.py --trace {trace} exited {code}")
            check(set(result) == {"correct", "attempted", "failed", "metrics"}, "result keys")
            check(set(result["metrics"]) == {n[0] for n in names}, f"--trace {trace} metric names")
            print(f"smoke: run.py --trace {trace}: {len(result['metrics'])} metrics")

        bare = workdir / "bare"
        (bare / "perfbench").mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for source in HERE.glob("*.py"):
            shutil.copy(source, bare / "perfbench")
        code, result = result_line(["--workload", "long_block", "--seed", "1", "--seconds", "1"], bare)
        check(code != 0 and result is None, "run.py without the package must fail without a result")
        print(f"smoke: without the package run.py exits {code} and prints no result")
    print("smoke: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
