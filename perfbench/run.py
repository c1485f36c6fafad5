"""vtcodes benchmark: one workload, one seed, timed or traced.

    python3 perfbench/run.py --workload long_block --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; the package is imported from ./src.  With
--trace 0 the run reports the end-to-end metrics with no tracing in place.
With --trace 1 it replays part of the workload under timing wrappers and
reports the per-layer metrics instead (tracing inflates times, so it never
feeds an end-to-end number).  Human-readable lines come first; the last
line of standard output is one JSON object.  Exit status: 0 on success,
2 when the package cannot be loaded, 3 when a correctness gate fails, 4
when set-up fails or no operation of some kind succeeds.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("long_block", "cli_batch", "oracle_sweep")
END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("clean_min_ms", "ms"),
    ("clean_tail_ms", "ms"),
    ("errors_min_ms", "ms"),
    ("errors_tail_ms", "ms"),
    ("erasures_min_ms", "ms"),
    ("erasures_tail_ms", "ms"),
)
OPS_NAME = {"long_block": "words_per_s", "cli_batch": "words_per_s", "oracle_sweep": "cases_per_s"}
SETUP_REPEATS = 7
TRACE_SHARE = 0.35  # of --seconds, run untraced and then replayed traced
TAIL_LADDER = (90, 75, 50)


def tail(samples: list[float]) -> tuple[int, float]:
    """Highest ladder percentile with at least ten samples beyond it.

    The ladder stops at p90 so the percentile reported does not drift
    upwards as a faster program fits more samples into the same run.
    With too few samples for p50 the maximum is reported as p100.
    """
    ordered = sorted(samples)
    for pct in TAIL_LADDER:
        rank = math.ceil(pct / 100 * len(ordered))
        if len(ordered) - rank >= 10:
            return pct, ordered[rank - 1]
    return 100, ordered[-1]


def per_job(groups: list, kind: str, pick) -> float:
    """Time per operation of one kind, in ms, assembled job by job.

    A job is one oracle sweep; elsewhere the kind's one call.  ``pick``
    reduces a job's per-operation times over the run's groups to one, and
    the kind's figure is the sum over its jobs, so an oracle pass is
    assembled from each sweep's own fastest, or tail, run.
    """
    mine = [g for g in groups if g.by_kind.get(kind, (0.0, 0))[1]]
    return sum(
        pick([g.job_seconds[kind][job] / g.by_kind[kind][1] * 1e3 for g in mine])
        for job in mine[0].job_seconds[kind]
    )


def setup_seconds(workload: str) -> float:
    """Set-up time of the workload, in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up of {workload} failed: {proc.stderr.strip()[-500:]}")
    return float(proc.stdout.split()[-1])


def closed_loop(workload, seconds: float, groups: list, between=None, times: int = 0) -> float:
    """Run groups back to back while the next one is expected to fit.

    ``between`` is called up to ``times`` times, at even intervals between
    groups starting before the first; its time counts towards ``seconds``
    but falls in no group.
    """
    from workloads import Group

    start = time.perf_counter()
    last = 0.0
    calls = 0
    while not groups or time.perf_counter() - start + last <= seconds:
        if calls < times and time.perf_counter() - start >= calls * seconds / times:
            between()
            calls += 1
        group = Group()
        begin = time.perf_counter()
        workload.run_group(len(groups), group)
        last = time.perf_counter() - begin
        groups.append(group)
    return time.perf_counter() - start


def make_workload(name: str, seed: int, workdir: Path):
    import workloads

    if name == "long_block":
        return workloads.LongBlock(seed)
    if name == "cli_batch":
        return workloads.CliBatch(seed, workdir)
    return workloads.OracleSweep(seed)


def timed_run(name: str, seed: int, seconds: int, workdir: Path):
    import workloads

    workloads.prepare(name)
    workload = make_workload(name, seed, workdir)
    groups: list = []
    # Set-ups are spread over the run so that their median speaks for the
    # whole run, not for the host's speed in its first second.
    setups: list[float] = []
    closed_loop(workload, seconds, groups, lambda: setups.append(setup_seconds(name)), SETUP_REPEATS)
    while len(setups) < SETUP_REPEATS:
        setups.append(setup_seconds(name))

    metrics: dict[str, float] = {}
    lines = [f"  {'setup_s':<18} {statistics.median(setups):.4f} s   median of {len(setups)} set-ups"]
    metrics["setup_s"] = statistics.median(setups)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    lines.append(f"  {'peak_rss_mb':<18} {metrics['peak_rss_mb']:.1f} MiB")
    busy = sum(s for g in groups for s, _ in g.by_kind.values())
    done = sum(n for g in groups for _, n in g.by_kind.values())
    lines.append(f"  {OPS_NAME[name]:<18} {done / busy:.2f} 1/s   {done} correct in {busy:.2f} s of timed calls (not gated)")
    for kind in workloads.KINDS:
        slots = [slot for g in groups for k, slot in g.by_kind.items() if k == kind and slot[1]]
        if not slots:
            raise RuntimeError(f"no {kind} operation succeeded")
        samples = [s / n * 1e3 for s, n in slots]
        pct, _ = tail(samples)
        metrics[f"{kind}_min_ms"] = per_job(groups, kind, min)
        metrics[f"{kind}_tail_ms"] = per_job(groups, kind, lambda times: tail(times)[1])
        mean = sum(s for s, _ in slots) / sum(n for _, n in slots) * 1e3
        lines.append(
            f"  {kind + '_min_ms':<18} {metrics[kind + '_min_ms']:.4f} ms  fastest, n={len(samples)}"
            f" (not gated: p50 {statistics.median(samples):.4f}, mean {mean:.4f})"
        )
        lines.append(f"  {kind + '_tail_ms':<18} {metrics[kind + '_tail_ms']:.4f} ms  p{pct}, n={len(samples)}")
    attempted = sum(g.attempted for g in groups)
    failed = sum(g.failed for g in groups)
    lines.append(f"  {'failed_ratio':<18} {failed / attempted:.4f}   {failed} of {attempted} attempted")
    result = {metric: {"value": metrics[metric], "unit": unit} for metric, unit in END_TO_END}
    return lines, attempted, failed, result


def traced_run(name: str, seed: int, seconds: int, workdir: Path):
    import numpy as np

    import layers
    import workloads
    from tracer import Tracer

    workloads.prepare(name)
    workload = make_workload(name, seed, workdir)
    probes = layers.Probes(name, workload, seed, workdir)
    probes.untraced()

    plain: list = []
    plain_wall = closed_loop(workload, seconds * TRACE_SHARE, plain)
    rates = {mode: list(v) for mode, v in getattr(workload, "mode_seconds", {}).items()}

    tracer = Tracer()
    tracer.install()
    try:
        traced: list = []
        start = time.perf_counter()
        for i in range(len(plain)):
            tracer.current_op = i
            group = workloads.Group()
            workload.run_group(i, group)
            traced.append(group)
        traced_wall = time.perf_counter() - start
        probes.traced(tracer)
    finally:
        tracer.uninstall()
    tracer.write(ROOT / ".perfbench_out" / f"{name}-spans.npz")

    damaged = np.array([i for i in range(len(plain)) if workload.damaged(i)], dtype=np.int64)
    values = layers.layer_metrics(tracer.spans(), damaged, probes, rates, traced_wall / plain_wall)
    lines = [f"  {len(plain)} groups untraced in {plain_wall:.2f} s, replayed traced in {traced_wall:.2f} s"]
    lines += [f"  note: {label} not found; metrics built on it are null" for label in tracer.missing]
    lines += [f"  note: {note}" for note in probes.notes]
    result = {}
    for metric, unit, _ in layers.PER_LAYER:
        value = values.get(metric)
        result[metric] = {"value": value, "unit": unit}
        shown = "null" if value is None else f"{value:.6g}"
        lines.append(f"  {metric:<42} {shown} {unit}")
    attempted = sum(g.attempted for g in plain + traced)
    failed = sum(g.failed for g in plain + traced)
    return lines, attempted, failed, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    try:
        import vtcodes  # noqa: F401
        import workloads
    except ImportError as exc:
        print(f"perfbench: cannot import the package from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    run = traced_run if args.trace else timed_run
    try:
        with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench_tmp-") as tmp:
            lines, attempted, failed, metrics = run(args.workload, args.seed, args.seconds, Path(tmp))
    except workloads.GateError as exc:
        print(f"perfbench: correctness gate failed: {exc}", file=sys.stderr)
        return 3
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 4
    print("\n".join(lines))
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
