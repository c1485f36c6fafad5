"""Scaling report: decode time against length n and distance d.

    python3 tools/scaling.py [--seed 1]

The package is imported from the checkout's src/.  For q = 16 and each
(n, d) of the grid it times a clean `decode_errors`, a `decode_errors`
with t = (d-1)//2 substitutions and a `decode_erasures`
with d-1 erasures, on tuple words, and keeps the best of three calls after
one untimed call (which builds the cached power tables), the minor
page faults (``ru_minflt``) per timed call, and the ratio of the errors
time to the clean time.  The grid is n = 1e3, 1e5, 1e6 at
d = 3, 5, 9, 17, plus n = 4099 at d = 129.  For each d of the first four
it fits the log-log slope of time against n; a quasi-linear decoder
gives a slope near 1.  Every decoded word is checked
against the sent one.  The report goes to BENCH_scaling.json at the root
and, as one JSON line, to standard output.  It is not part of the test
suite or of perfbench: its cells take seconds, and it gates nothing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
Q = 16
LENGTHS = (1000, 100_000, 1_000_000)
DISTANCES = (3, 5, 9, 17)
EXTRA = ((4099, 129),)
REPEATS = 3
KINDS = ("clean", "errors", "erasures")


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def best_ms(call, expected) -> tuple[float, float]:
    """(best time in ms, mean minor page faults) over the timed calls."""
    if call() != expected:
        raise SystemExit("scaling: a decode returned a word other than the one sent")
    best = math.inf
    faults = 0
    for _ in range(REPEATS):
        before = minor_faults()
        start = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - start)
        faults += minor_faults() - before
    return best * 1e3, faults / REPEATS


def cell(vtcodes, n: int, d: int, rng: random.Random) -> dict:
    spec = vtcodes.CodeSpec(Q, n, d)
    sent = tuple(rng.choices(range(Q), k=n))
    offset = vtcodes.syndrome_profile(sent, spec)
    received = list(sent)
    for k in rng.sample(range(n), spec.correction_radius):
        received[k] = (received[k] + rng.randrange(1, Q)) % Q
    received = tuple(received)
    masked = list(sent)
    for k in rng.sample(range(n), d - 1):
        masked[k] = None
    masked = tuple(masked)
    calls = {
        "clean": lambda: vtcodes.decode_errors(sent, spec, offset),
        "errors": lambda: vtcodes.decode_errors(received, spec, offset),
        "erasures": lambda: vtcodes.decode_erasures(masked, spec, offset),
    }
    out = {"n": n, "d": d, "p": spec.power_modulus}
    for kind in KINDS:
        ms, faults = best_ms(calls[kind], sent)
        out[f"{kind}_ms"] = round(ms, 4)
        out[f"{kind}_minflt"] = round(faults, 1)
    out["errors_over_clean"] = round(out["errors_ms"] / out["clean_ms"], 2)
    return out


def slope(points: list[tuple[int, float]]) -> float:
    """Least-squares slope of log(time) against log(n)."""
    xs = [math.log(n) for n, _ in points]
    ys = [math.log(t) for _, t in points]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    sys.path.insert(0, str(ROOT / "src"))
    import vtcodes

    rng = random.Random(args.seed)
    grid = [(n, d) for d in DISTANCES for n in LENGTHS] + list(EXTRA)
    cells = [cell(vtcodes, n, d, rng) for n, d in grid]
    slopes = {
        str(d): {
            kind: round(slope([(c["n"], c[f"{kind}_ms"]) for c in cells if c["d"] == d and c["n"] in LENGTHS]), 3)
            for kind in KINDS
        }
        for d in DISTANCES
    }
    report = {
        "q": Q,
        "seed": args.seed,
        "repeats": REPEATS,
        "input": "tuple",
        "host": f"{platform.machine()}, {os.cpu_count()} CPUs, {platform.python_implementation()} {platform.python_version()}",
        "cells": cells,
        "slope_in_n": slopes,
    }
    for c in cells:
        print(
            f"n={c['n']:>7} d={c['d']:>3}  "
            + "  ".join(f"{k} {c[k + '_ms']:9.3f} ms {c[k + '_minflt']:7.1f} faults" for k in KINDS)
            + f"  errors/clean {c['errors_over_clean']:.2f}",
            file=sys.stderr,
        )
    (ROOT / "BENCH_scaling.json").write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps(report))


if __name__ == "__main__":
    main()
