"""Exhaustive ground-truth checks for small parameter sets.

Everything here works by brute force over the full cube of q**n words, so
all entry points take an enumeration budget and refuse oversized jobs.
The decoders are exercised against corruptions of every codeword of every
coset, which is slow but independent of the algebra being verified: a bug
in the syndrome machinery cannot hide in a check that only compares
words.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import mul

from .core import (
    DEFAULT_ENUMERATION_BUDGET,
    CodeSpec,
    Offset,
    Word,
    _check_budget,
    enumerate_codewords,
    hamming_distance,
    is_codeword,
    validate_offset,
)
from .erasure import InconsistentWordError, decode_erasures
from .errors import UncorrectableError, decode_errors

DECODE_MODES = ("erasure", "single-error", "multi-error")


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one exhaustive check.

    ``instances`` counts the cases examined; ``counterexample`` is the
    lexicographically first failing case, or None.
    """

    property_name: str
    spec: CodeSpec
    instances: int
    passed: bool
    counterexample: tuple | None = None
    detail: str | None = None


def coset_partition(
    spec: CodeSpec, budget: int = DEFAULT_ENUMERATION_BUDGET
) -> dict[Offset, list[Word]]:
    """Group every word of the cube by its syndrome profile, in one pass.

    Values are in lexicographic word order; only occupied profiles appear.
    The profiles come from the defining sums, in exact ints, with this
    module's own loop over columns of i**j built once: the syndrome kernel
    behind ``is_codeword`` and the decoders is not used, so a fault in it
    shows up as a disagreement instead of on both sides.
    """
    _check_budget(spec, budget)
    m0, p = spec.sum_modulus, spec.power_modulus
    columns = [tuple(i**j for i in range(1, spec.n + 1)) for j in range(1, spec.d - 1)]
    buckets: dict[Offset, list[Word]] = {}
    for w in itertools.product(range(spec.q), repeat=spec.n):
        key = (sum(w) % m0, *[sum(map(mul, w, col)) % p for col in columns])
        buckets.setdefault(key, []).append(w)
    return buckets


def partition_check(
    spec: CodeSpec, budget: int = DEFAULT_ENUMERATION_BUDGET
) -> VerificationReport:
    """Every word lands in exactly one coset and membership agrees.

    The partition is rebuilt from scratch, each bucket key is validated as
    an offset, and every word is re-tested with is_codeword against its
    own bucket.
    """
    buckets = coset_partition(spec, budget)
    total = 0
    for key, words in buckets.items():
        validate_offset(key, spec)
        for w in words:
            total += 1
            if not is_codeword(w, spec, key):
                return VerificationReport(
                    property_name="partition",
                    spec=spec,
                    instances=total,
                    passed=False,
                    counterexample=(key, w),
                    detail="membership test disagrees with profile bucket",
                )
    if total != spec.q**spec.n:
        return VerificationReport(
            property_name="partition",
            spec=spec,
            instances=total,
            passed=False,
            detail=f"bucket sizes sum to {total}, cube has {spec.q**spec.n}",
        )
    return VerificationReport(
        property_name="partition",
        spec=spec,
        instances=total,
        passed=True,
        detail=f"{len(buckets)} of {spec.offset_space_size} offsets occupied",
    )


def distance_sweep(
    spec: CodeSpec, budget: int = DEFAULT_ENUMERATION_BUDGET
) -> VerificationReport:
    """Minimum distance of every occupied coset is at least d."""
    buckets = coset_partition(spec, budget)
    pairs = 0
    smallest: int | None = None
    for key in sorted(buckets):
        words = buckets[key]
        if len(words) < 2:
            continue
        for a, b in itertools.combinations(words, 2):
            pairs += 1
            dist = hamming_distance(a, b)
            if smallest is None or dist < smallest:
                smallest = dist
            if dist < spec.d:
                return VerificationReport(
                    property_name="min-distance",
                    spec=spec,
                    instances=pairs,
                    passed=False,
                    counterexample=(key, a, b, dist),
                    detail=f"pair at distance {dist} < {spec.d}",
                )
    return VerificationReport(
        property_name="min-distance",
        spec=spec,
        instances=pairs,
        passed=True,
        detail=f"smallest pairwise distance observed: {smallest}",
    )


def _erasure_cases(word: Word, spec: CodeSpec):
    for count in range(1, spec.d):
        for positions in itertools.combinations(range(spec.n), count):
            masked = list(word)
            for i in positions:
                masked[i] = None
            yield positions, tuple(masked)


def _error_cases(word: Word, spec: CodeSpec, weights):
    for count in weights:
        for positions in itertools.combinations(range(spec.n), count):
            for bumps in itertools.product(range(1, spec.q), repeat=count):
                corrupted = list(word)
                for i, bump in zip(positions, bumps):
                    corrupted[i] = (corrupted[i] + bump) % spec.q
                yield positions, tuple(corrupted)


def exhaustive_decode_check(
    spec: CodeSpec,
    offset: Offset,
    mode: str,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
    codewords: list[Word] | None = None,
) -> VerificationReport:
    """Every within-radius corruption of every codeword decodes back.

    Modes:
      erasure       all erasure masks of 1..d-1 positions
      single-error  all single substitutions
      multi-error   all substitution patterns of weight 1..correction_radius
                    (requires a radius of at least 2)
    """
    if mode not in DECODE_MODES:
        raise ValueError(f"unknown mode {mode!r}, expected one of {DECODE_MODES}")
    if mode == "multi-error" and spec.correction_radius < 2:
        raise ValueError(
            f"multi-error check needs correction radius >= 2, got {spec.correction_radius}"
        )
    if codewords is None:
        codewords = enumerate_codewords(spec, offset, budget)
    name = f"decode:{mode}"
    weights = (1,) if mode == "single-error" else range(1, spec.correction_radius + 1)
    instances = 0
    for x in codewords:
        if mode == "erasure":
            for positions, masked in _erasure_cases(x, spec):
                instances += 1
                try:
                    got = decode_erasures(masked, spec, offset)
                except InconsistentWordError as exc:
                    return VerificationReport(
                        name, spec, instances, False, (offset, x, positions),
                        f"rejected as inconsistent: {exc}",
                    )
                if got != x:
                    return VerificationReport(
                        name, spec, instances, False, (offset, x, positions, got),
                        "filled erasures with a different word",
                    )
        else:
            for positions, corrupted in _error_cases(x, spec, weights):
                instances += 1
                try:
                    got = decode_errors(corrupted, spec, offset)
                except UncorrectableError as exc:
                    return VerificationReport(
                        name, spec, instances, False, (offset, x, positions),
                        f"rejected as uncorrectable: {exc}",
                    )
                if got != x:
                    return VerificationReport(
                        name, spec, instances, False, (offset, x, positions, got),
                        "decoded to a different word",
                    )
    return VerificationReport(
        name, spec, instances, True,
        detail=f"{len(codewords)} codewords, {instances} corruptions",
    )


def decode_check_sweep(
    spec: CodeSpec, mode: str, budget: int = DEFAULT_ENUMERATION_BUDGET
) -> VerificationReport:
    """exhaustive_decode_check over every occupied coset of the partition."""
    buckets = coset_partition(spec, budget)
    instances = 0
    words = 0
    for key in sorted(buckets):
        report = exhaustive_decode_check(
            spec, key, mode, budget=budget, codewords=buckets[key]
        )
        instances += report.instances
        words += len(buckets[key])
        if not report.passed:
            return VerificationReport(
                report.property_name, spec, instances, False,
                report.counterexample, report.detail,
            )
    return VerificationReport(
        f"decode:{mode}", spec, instances, True,
        detail=f"{len(buckets)} cosets, {words} codewords, {instances} corruptions",
    )
