"""The three workloads: inputs made from a seed, the timed calls, the checks.

Every workload is one single-threaded closed loop with one caller: the next
call starts when the previous one returns.  Inputs are made by the
benchmark from the seed; the package sees only the generated words and
files.  Damage is held as sparse (position, value) patterns and at most one
damaged word exists at a time, so peak memory reflects the program.

Entry points are looked up on their modules at call time, so the tracer's
wrappers apply when installed and a later refactor only has to keep the
public names used here.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
import time
from pathlib import Path

import vtcodes
import vtcodes.cli

KINDS = ("clean", "errors", "erasures")


class GateError(Exception):
    """A wrong word or a failed report: the benchmark stops, nonzero."""


def typed_failures() -> tuple[type, ...]:
    names = ("UncorrectableError", "InconsistentWordError")
    return tuple(getattr(vtcodes, n) for n in names if hasattr(vtcodes, n))


def smallest_prime_geq(m: int) -> int:
    def prime(k: int) -> bool:
        return k >= 2 and all(k % f for f in range(2, int(k**0.5) + 1))

    while not prime(m):
        m += 1
    return m


def profile(word, q: int, d: int) -> tuple[int, ...]:
    """Syndrome profile computed here, independently of the package."""
    n = len(word)
    p = smallest_prime_geq(max(n, q))
    plain = sum(word) % ((d - 1) * (q - 1) + 1)
    weighted = [0] * (d - 2)
    for i, x in enumerate(word, start=1):
        if x:
            power = 1
            for j in range(d - 2):
                power = power * i % p
                weighted[j] += power * x
    return (plain, *(w % p for w in weighted))


def apply_damage(word: tuple, damage) -> tuple:
    out = list(word)
    for pos, value in damage:
        out[pos] = value
    return tuple(out)


def make_damage(rng: random.Random, word, q: int, errors: int, erasures: int):
    """Sparse (position, value) pattern: erasures as None, errors as new symbols."""
    positions = rng.sample(range(len(word)), errors + erasures)
    damage = [(pos, None) for pos in positions[:erasures]]
    for pos in positions[erasures:]:
        damage.append((pos, (word[pos] + 1 + rng.randrange(q - 1)) % q))
    return damage


def shuffled_kind(seed: int, i: int) -> str:
    """Kind of operation i: each block of three holds every kind once."""
    block = list(KINDS)
    random.Random(seed * 7919 + i // 3).shuffle(block)
    return block[i % 3]


def op_rng(seed: int, i: int) -> random.Random:
    return random.Random(seed * 1_000_003 + i)


class Group:
    """What one unit of the closed loop did: per kind (seconds, operations),
    and per kind the seconds of each job (an oracle sweep; elsewhere the
    kind's one call) that made them up."""

    def __init__(self) -> None:
        self.by_kind: dict[str, list[float]] = {}
        self.job_seconds: dict[str, dict[str, float]] = {}
        self.attempted = 0
        self.failed = 0

    def add(self, kind: str, seconds: float, ops: int, job: str = "") -> None:
        slot = self.by_kind.setdefault(kind, [0.0, 0])
        slot[0] += seconds
        slot[1] += ops
        jobs = self.job_seconds.setdefault(kind, {})
        jobs[job] = jobs.get(job, 0.0) + seconds


class LongBlock:
    """Single long-block decodes through the library, on the numpy path."""

    SPEC = (256, 65537, 9)
    ERRORS = 4  # the correction radius
    ERASURES = 8  # d - 1

    def __init__(self, seed: int) -> None:
        q, n, d = self.SPEC
        self.seed = seed
        self.spec = vtcodes.CodeSpec(q, n, d)
        self.base = tuple(random.Random(seed).randbytes(n))
        self.offset = profile(self.base, q, d)
        self.typed = typed_failures()

    def damage(self, i: int) -> tuple[str, list]:
        kind = shuffled_kind(self.seed, i)
        rng = op_rng(self.seed, i)
        q = self.SPEC[0]
        if kind == "clean":
            return kind, []
        if kind == "errors":
            return kind, make_damage(rng, self.base, q, self.ERRORS, 0)
        return kind, make_damage(rng, self.base, q, 0, self.ERASURES)

    def run_group(self, i: int, group: Group) -> None:
        kind, damage = self.damage(i)
        word = apply_damage(self.base, damage)
        decode = vtcodes.decode_erasures if kind == "erasures" else vtcodes.decode_errors
        group.attempted += 1
        start = time.perf_counter()
        try:
            out = decode(word, self.spec, self.offset)
        except self.typed:
            group.failed += 1
            return
        group.add(kind, time.perf_counter() - start, 1)
        if out != self.base:
            raise GateError(f"long_block op {i} ({kind}): decoded word differs from the sent word")

    def damaged(self, i: int) -> bool:
        return shuffled_kind(self.seed, i) != "clean"

    def probe_words(self):
        return self.spec, [self.base]


class CliBatch:
    """Batch decodes through `vtcodes --records decode --word-file`.

    Each file has its own seeded base word and offset; its lines are
    damaged copies of that word, all of one kind, so the per-word time of
    each kind can be read off the file's time.
    """

    SPEC = (256, 1000, 9)
    # 40-80 ms per file: short enough that a run holds a hundred or more
    # files of each kind, many of which land wholly in one of the host's
    # fast or slow phases, which the fastest and tail figures pick out.
    LINES = 20

    def __init__(self, seed: int, workdir: Path) -> None:
        q, n, d = self.SPEC
        self.seed = seed
        self.spec = vtcodes.CodeSpec(q, n, d)
        self.path = workdir / "words.txt"

    def write_file(self, i: int, kind: str | None = None, mixed_at: int | None = None):
        """Write file i; return (kind, base word, offset).

        ``mixed_at`` puts one line with 2 erasures plus 3 errors at that
        index, damage in range for a joint decoder (2t + e = 8 <= d-1).
        """
        q, n, d = self.SPEC
        rng = op_rng(self.seed, i)
        kind = kind or shuffled_kind(self.seed, i)
        base = tuple(rng.randbytes(n))
        with open(self.path, "w", encoding="ascii") as handle:
            for line in range(self.LINES):
                if line == mixed_at:
                    damage = make_damage(rng, base, q, 3, 2)
                elif kind == "errors":
                    damage = make_damage(rng, base, q, rng.randint(1, 4), 0)
                elif kind == "erasures":
                    damage = make_damage(rng, base, q, 0, rng.randint(1, 8))
                else:
                    damage = []
                word = apply_damage(base, damage)
                handle.write(",".join("?" if s is None else str(s) for s in word))
                handle.write("\n")
        return kind, base, profile(base, q, d)

    def decode_file(self, base, offset) -> tuple[float, int]:
        """Run the CLI on the current file; return (seconds, lines decoded).

        Exit 1 (a typed decode failure) leaves the remaining lines
        unprocessed, which counts as failure, not as a gate.
        """
        q, n, d = self.SPEC
        argv = [
            "--records", "decode", "--q", str(q), "--n", str(n), "--d", str(d),
            "--offset", ",".join(map(str, offset)), "--word-file", str(self.path),
        ]
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = vtcodes.cli.main(argv)
        seconds = time.perf_counter() - start
        records = out.getvalue().splitlines()
        expected = list(base)
        for number, line in enumerate(records, start=1):
            if json.loads(line).get("decoded") != expected:
                raise GateError(f"cli_batch: record {number} differs from the sent word")
        if code not in (0, 1) or (code == 0) != (len(records) == self.LINES):
            raise GateError(f"cli_batch: exit {code} after {len(records)} of {self.LINES} lines: {err.getvalue()[-300:]}")
        return seconds, len(records)

    def run_group(self, i: int, group: Group) -> None:
        kind, base, offset = self.write_file(i)
        seconds, decoded = self.decode_file(base, offset)
        group.attempted += self.LINES
        group.failed += self.LINES - decoded
        if decoded:
            group.add(kind, seconds, decoded)

    def damaged(self, i: int) -> bool:
        return shuffled_kind(self.seed, i) != "clean"

    def probe_words(self):
        rng = random.Random(self.seed)
        return self.spec, [tuple(rng.randbytes(self.spec.n)) for _ in range(3)]


class OracleSweep:
    """Exhaustive oracle sweeps, scaled down from the Tier-1 suite.

    One group is one pass over the fixed job list, in an order shuffled by
    the seed.  Every report must pass with exactly the instance count
    listed; best_offset_search is checked against a brute force done here.

    JOBS mirrors TIER1_JOBS entry point by entry point, mode by mode and
    n = p or n < p, at n <= 7, so that each call lasts 5-120 ms and a run
    holds about eighty passes.  A Tier-1 call lasts up to 2 s, so a run
    would hold only a handful of passes, and their times would mostly tell
    how long the host spent in its slow phases.  TIER1_JOBS themselves are
    checked by smoke.py.
    """

    # Instances: erasure q^n * sum(C(n, e), e = 1..d-1); single-error
    # q^n * n * (q-1); multi-error q^n * sum(C(n, k) * (q-1)^k, k = 1..t);
    # partition q^n; distance the pairs of words within one coset.
    JOBS = (
        ("decode_check_sweep", (3, 5, 3), "erasure", 3645),
        ("decode_check_sweep", (2, 6, 4), "erasure", 2624),
        ("decode_check_sweep", (3, 5, 4), "single-error", 2430),
        ("decode_check_sweep", (2, 5, 5), "multi-error", 480),
        ("decode_check_sweep", (2, 6, 5), "multi-error", 1344),
        ("partition_check", (3, 7, 3), None, 2187),
        ("distance_sweep", (3, 6, 3), None, 7238),
        ("best_offset_search", (3, 7, 3), None, None),
    )
    TIER1_JOBS = (
        ("decode_check_sweep", (3, 7, 3), "erasure", 61236),
        ("decode_check_sweep", (2, 8, 4), "erasure", 23552),
        ("decode_check_sweep", (3, 7, 4), "single-error", 30618),
        ("decode_check_sweep", (2, 7, 5), "multi-error", 3584),
        ("decode_check_sweep", (2, 8, 5), "multi-error", 9216),
        ("partition_check", (3, 8, 3), None, 6561),
        ("distance_sweep", (3, 8, 3), None, 388096),
        ("best_offset_search", (3, 8, 3), None, None),
    )
    # Jobs that decode nothing (partition, distance, best offset) make up the
    # clean kind.
    KIND = {"erasure": "erasures", "single-error": "errors", "multi-error": "errors"}

    def __init__(self, seed: int, jobs=JOBS) -> None:
        self.seed = seed
        self.jobs = jobs
        self.specs = {spec: vtcodes.CodeSpec(*spec) for _, spec, _, _ in jobs}
        self.best = {
            spec: best_offset(*spec) for entry, spec, _, _ in jobs if entry == "best_offset_search"
        }
        self.mode_seconds: dict[str, list[float]] = {}

    def order(self, i: int) -> list:
        jobs = list(self.jobs)
        random.Random(self.seed * 104729 + i).shuffle(jobs)
        return jobs

    def run_job(self, entry: str, spec: tuple, mode: str | None, expected: int | None):
        """Run one job; return (seconds, instances) after checking its result."""
        call = getattr(vtcodes, entry)
        args = (self.specs[spec], mode) if mode else (self.specs[spec],)
        start = time.perf_counter()
        result = call(*args)
        seconds = time.perf_counter() - start
        if entry == "best_offset_search":
            if (tuple(result[0]), result[1]) != self.best[spec]:
                raise GateError(f"oracle_sweep: best_offset_search{spec} gave {result}, expected {self.best[spec]}")
            return seconds, 0
        if not result.passed or result.instances != expected:
            raise GateError(
                f"oracle_sweep: {entry}{spec} {mode or ''} passed={result.passed} "
                f"instances={result.instances}, expected {expected}: {result.detail}"
            )
        if mode:
            slot = self.mode_seconds.setdefault(mode, [0.0, 0])
            slot[0] += seconds
            slot[1] += result.instances
        return seconds, result.instances

    def run_group(self, i: int, group: Group) -> None:
        for entry, spec, mode, expected in self.order(i):
            seconds, instances = self.run_job(entry, spec, mode, expected)
            kind = self.KIND.get(mode, "clean")
            group.add(kind, seconds, instances, f"{entry}{spec}{mode or ''}")
            group.attempted += instances

    def damaged(self, i: int) -> bool:
        return True  # every decode in a sweep is of a damaged word

    def probe_words(self):
        spec = (2, 8, 5)
        rng = random.Random(self.seed)
        words = [tuple(rng.randrange(2) for _ in range(8)) for _ in range(50)]
        return vtcodes.CodeSpec(*spec), words


def prepare(name: str) -> None:
    """The set-up a user pays before the first call: the package import (done
    by importing this module), code parameters, the CLI parser, and one
    warm-up call per entry point on words that need no generating."""
    if name == "long_block":
        spec = vtcodes.CodeSpec(*LongBlock.SPEC)
        zero = (0,) * spec.n
        offset = (0,) * (spec.d - 1)
        vtcodes.decode_errors(zero, spec, offset)
        vtcodes.decode_erasures((None,) + zero[1:], spec, offset)
    elif name == "cli_batch":
        q, n, d = CliBatch.SPEC
        vtcodes.CodeSpec(q, n, d)
        vtcodes.cli.build_parser()
        argv = [
            "--records", "decode", "--q", str(q), "--n", str(n), "--d", str(d),
            "--offset", ",".join(["0"] * (d - 1)), "--word", ",".join(["0"] * n),
        ]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            vtcodes.cli.main(argv)
    else:
        for _, spec, _, _ in OracleSweep.JOBS:
            vtcodes.CodeSpec(*spec)
        tiny = vtcodes.CodeSpec(2, 4, 3)
        vtcodes.decode_check_sweep(tiny, "erasure")
        vtcodes.partition_check(tiny)
        vtcodes.distance_sweep(tiny)
        vtcodes.best_offset_search(tiny)


def best_offset(q: int, n: int, d: int) -> tuple[tuple[int, ...], int]:
    """Largest coset by brute force, ties broken lexicographically."""
    counts: dict[tuple[int, ...], int] = {}
    for word in itertools.product(range(q), repeat=n):
        key = profile(word, q, d)
        counts[key] = counts.get(key, 0) + 1
    size = max(counts.values())
    return min(k for k, c in counts.items() if c == size), size
