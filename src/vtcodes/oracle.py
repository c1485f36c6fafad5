"""Exhaustive ground-truth checks for small parameter sets.

Everything here works by brute force over the full cube of q**n words, so
all entry points take an enumeration budget and refuse oversized jobs.
The decoders are exercised against corruptions of every codeword of every
coset.  The ground truth is this module's own loop over the cube
(``_profiles``), independent of the algebra being verified: a bug in
the syndrome machinery cannot hide in a check that only compares words.

Every decode mode goes through one report builder, over the cosets the
oracle enumerates itself: one for ``exhaustive_decode_check``, every
occupied one for ``decode_check_sweep``.  Substitution cases are decoded
one word at a time.  Erasure cases run in ``erasure._decode_rows``, one
array pass per erasure mask over every codeword of every coset, each row
with its own offset.  That pass takes every step from the code
``decode_erasures`` runs (validation, the syndrome kernel, the lift, the
solve and the modified moments), so a fault there fails both.  The
one-word decoder stays checked in every sweep: each mask also decodes one
codeword through it, a disagreement fails that case, and the first
failing case is replayed through it to make the report a case-by-case
loop would make.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import mul

import numpy as np

from .core import (
    DEFAULT_ENUMERATION_BUDGET,
    CodeSpec,
    Offset,
    Word,
    _check_budget,
    _masked_sums,
    hamming_distance,
    is_codeword,
    validate_offset,
    validate_word,
)
from .erasure import InconsistentWordError, _decode_rows, _row_dtype, decode_erasures
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
    """
    buckets: dict[Offset, list[Word]] = {}
    for key, w in _profiles(spec, budget):
        buckets.setdefault(key, []).append(w)
    return buckets


def _profiles(spec: CodeSpec, budget: int):
    """(profile, word) for every word of the cube, in lexicographic order.

    The profiles come from the defining sums, in exact ints, with this
    module's own loop over columns of i**j built once: the syndrome kernel
    behind ``is_codeword`` and the decoders is not used, so a fault in it
    shows up as a disagreement instead of on both sides.
    """
    _check_budget(spec, budget)
    m0, p = spec.sum_modulus, spec.power_modulus
    columns = [tuple(i**j for i in range(1, spec.n + 1)) for j in range(1, spec.d - 1)]
    for w in itertools.product(range(spec.q), repeat=spec.n):
        yield (sum(w) % m0, *[sum(map(mul, w, col)) % p for col in columns]), w


def _coset(spec: CodeSpec, offset: Offset, budget: int) -> list[Word]:
    """The members of one coset, in lexicographic order, from _profiles."""
    target = validate_offset(offset, spec)
    return [w for key, w in _profiles(spec, budget) if key == target]


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


def _erasure_masks(spec: CodeSpec) -> list[tuple[int, ...]]:
    """Every erasure mask of 1..d-1 positions, 0-based, by weight and
    then lexicographically."""
    return [
        positions
        for count in range(1, spec.d)
        for positions in itertools.combinations(range(spec.n), count)
    ]


def _masked(word: Word, positions: tuple[int, ...]) -> Word:
    masked = list(word)
    for i in positions:
        masked[i] = None
    return tuple(masked)


def _error_cases(word: Word, spec: CodeSpec, weights):
    for count in weights:
        for positions in itertools.combinations(range(spec.n), count):
            for bumps in itertools.product(range(1, spec.q), repeat=count):
                corrupted = list(word)
                for i, bump in zip(positions, bumps):
                    corrupted[i] = (corrupted[i] + bump) % spec.q
                yield positions, tuple(corrupted)


def _check_mode(spec: CodeSpec, mode: str) -> None:
    if mode not in DECODE_MODES:
        raise ValueError(f"unknown mode {mode!r}, expected one of {DECODE_MODES}")
    if mode == "multi-error" and spec.correction_radius < 2:
        raise ValueError(
            f"multi-error check needs correction radius >= 2, got {spec.correction_radius}"
        )


# Rows per batch of the erasure check: it bounds the arrays at the
# 2**24-word budget, and every Tier-1 sweep fits in one batch.
_BATCH_ROWS = 1 << 14


def _decode_report(spec: CodeSpec, mode: str, groups, summary: str) -> VerificationReport:
    """The report of ``mode`` over ``groups``, (offset, codewords) pairs of
    the oracle's own enumeration, each offset valid; ``summary`` leads the
    detail of a passing report."""
    if mode == "erasure":
        instances, counterexample, detail = _erasure_check(spec, groups)
    else:
        weights = (1,) if mode == "single-error" else range(1, spec.correction_radius + 1)
        instances, counterexample, detail = _error_check(spec, groups, weights)
    name = f"decode:{mode}"
    if counterexample is not None:
        return VerificationReport(name, spec, instances, False, counterexample, detail)
    return VerificationReport(
        name, spec, instances, True, detail=f"{summary}, {instances} corruptions"
    )


def _error_check(spec: CodeSpec, groups, weights) -> tuple[int, tuple | None, str | None]:
    """(instances, counterexample, detail) of the substitution patterns of
    ``weights`` over every codeword of ``groups``, decoded one at a time;
    counterexample and detail are None when every case passes."""
    instances = 0
    for offset, codewords in groups:
        for x in codewords:
            for positions, corrupted in _error_cases(x, spec, weights):
                instances += 1
                try:
                    got = decode_errors(corrupted, spec, offset)
                except UncorrectableError as exc:
                    return instances, (offset, x, positions), f"rejected as uncorrectable: {exc}"
                if got != x:
                    return instances, (offset, x, positions, got), "decoded to a different word"
    return instances, None, None


def _erasure_check(spec: CodeSpec, groups) -> tuple[int, tuple | None, str | None]:
    """(instances, counterexample, detail) of every erasure mask over every
    codeword of ``groups``, as _error_check.

    Case row * masks + mask is the row-th codeword under the mask-th mask
    of _erasure_masks.  The first failing case is replayed through
    decode_erasures, which gives the report a case-by-case loop would.
    """
    masks = _erasure_masks(spec)
    rows = []
    for offset, codewords in groups:
        target = validate_offset(offset, spec)
        rows += [(offset, target, x) for x in codewords]
    for top in range(0, len(rows), _BATCH_ROWS):
        case = _first_failure(spec, rows[top : top + _BATCH_ROWS], masks)
        if case is None:
            continue
        case += top * len(masks)
        row, j = divmod(case, len(masks))
        offset, _, x = rows[row]
        positions = masks[j]
        instances = case + 1
        try:
            got = decode_erasures(_masked(x, positions), spec, offset)
        except InconsistentWordError as exc:
            return instances, (offset, x, positions), f"rejected as inconsistent: {exc}"
        if got != x:
            return instances, (offset, x, positions, got), "filled erasures with a different word"
        return (
            instances, (offset, x, positions),
            "batched erasure decode disagrees with decode_erasures",
        )
    return len(rows) * len(masks), None, None


def _first_failure(spec: CodeSpec, batch, masks) -> int | None:
    """The first failing case among ``batch``'s rows, numbered from its
    first row; None if every case passes.

    Each codeword is read once by validate_word and _masked_sums; then each
    mask is one erasure._decode_rows call over the batch.  A case fails if
    the batch rejects it or fills in other symbols.  Per mask, one row is
    also decoded by decode_erasures, and a disagreement fails that case.
    """
    forms, sums, targets = [], [], []
    for _, target, x in batch:
        symbols, _ = validate_word(x, spec)
        plain, weighted = _masked_sums(symbols, spec)
        forms.append(symbols)
        sums.append((plain, *weighted))
        targets.append(target)
    dtype = _row_dtype(spec)
    symbols, sums, targets = (np.array(a, dtype=dtype) for a in (forms, sums, targets))
    first = None
    for j, positions in enumerate(masks):
        cols = list(positions)
        filled, accepted = _decode_rows(symbols, sums, targets, spec, [i + 1 for i in cols])
        failed = ~accepted | (filled != symbols[:, cols]).any(axis=1)
        s = j % len(batch)
        if not failed[s]:
            offset, _, x = batch[s]
            try:
                failed[s] = decode_erasures(_masked(x, positions), spec, offset) != x
            except InconsistentWordError:
                failed[s] = True
        if failed.any():
            case = int(failed.argmax()) * len(masks) + j
            first = case if first is None else min(first, case)
    return first


def exhaustive_decode_check(
    spec: CodeSpec,
    offset: Offset,
    mode: str,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> VerificationReport:
    """Every within-radius corruption of every codeword decodes back.

    Modes:
      erasure       all erasure masks of 1..d-1 positions
      single-error  all single substitutions
      multi-error   all substitution patterns of weight 1..correction_radius
                    (requires a radius of at least 2)
    """
    _check_mode(spec, mode)
    codewords = _coset(spec, offset, budget)
    return _decode_report(spec, mode, [(offset, codewords)], f"{len(codewords)} codewords")


def decode_check_sweep(
    spec: CodeSpec, mode: str, budget: int = DEFAULT_ENUMERATION_BUDGET
) -> VerificationReport:
    """exhaustive_decode_check over every occupied coset of the partition,
    in sorted offset order, as one run of cases: ``instances`` counts the
    cases of every coset up to the first failing one."""
    _check_mode(spec, mode)
    buckets = coset_partition(spec, budget)
    words = sum(len(words) for words in buckets.values())
    return _decode_report(
        spec, mode, sorted(buckets.items()), f"{len(buckets)} cosets, {words} codewords"
    )
