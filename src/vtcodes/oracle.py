"""Exhaustive ground-truth checks for small parameter sets.

Everything here works by brute force over the full cube of q**n words, so
all entry points take an enumeration budget and refuse oversized jobs.
The decoders are exercised against corruptions of every codeword of every
coset.  The ground truth is this module's own loop over the cube
(``_profiles``), independent of the algebra being verified: a bug in
the syndrome machinery cannot hide in a check that only compares words.

Every decode mode goes through one report builder, over the cosets the
oracle enumerates itself: one for ``exhaustive_decode_check``, every
occupied one for ``decode_check_sweep``.  Cases run one array pass per
corruption pattern over every codeword of every coset, each row with its
own offset: ``erasure._decode_rows`` for an erasure mask, and
``errors._error_rows`` for a substitution pattern, which finds the
decoding core's candidate once per distinct syndrome row and accepts
each row by array masks.  Both passes take every step from the code the
one-word decoders run (validation, the syndrome kernel, the lift, the
solve, the modified moments and, for substitutions, Berlekamp-Massey and
the root scan), so a fault there fails both.  The one-word decoders
stay checked in every sweep: each pattern also decodes one codeword
through ``decode_erasures`` or ``decode_errors``, a disagreement fails
that case, and the first failing case is replayed through it to make
the report a case-by-case loop would make.
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
from .errors import UncorrectableError, _error_rows, decode_errors

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


def _patterns(spec: CodeSpec, mode: str) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Every corruption pattern of ``mode`` in case order: (positions,
    bumps), positions 0-based, by weight, then positions lexicographically,
    then bumps.  An erasure pattern erases 1..d-1 positions and has no
    bumps; a substitution pattern raises each of its positions by a bump in
    1..q-1, mod q."""
    if mode == "erasure":
        return [
            (positions, ())
            for count in range(1, spec.d)
            for positions in itertools.combinations(range(spec.n), count)
        ]
    top = 1 if mode == "single-error" else spec.correction_radius
    return [
        (positions, bumps)
        for count in range(1, top + 1)
        for positions in itertools.combinations(range(spec.n), count)
        for bumps in itertools.product(range(1, spec.q), repeat=count)
    ]


def _check_mode(spec: CodeSpec, mode: str) -> None:
    if mode not in DECODE_MODES:
        raise ValueError(f"unknown mode {mode!r}, expected one of {DECODE_MODES}")
    if mode == "multi-error" and spec.correction_radius < 2:
        raise ValueError(
            f"multi-error check needs correction radius >= 2, got {spec.correction_radius}"
        )


# Rows per batch of the decode checks: it bounds the arrays at the
# 2**24-word budget, and every Tier-1 sweep fits in one batch.
_BATCH_ROWS = 1 << 14

# The detail of a case decoded to another word, and of a case that only
# the batch fails: in the erasure mode, and in the substitution modes.
_ERASURE_DETAILS = (
    "filled erasures with a different word",
    "batched erasure decode disagrees with decode_erasures",
)
_ERROR_DETAILS = (
    "decoded to a different word",
    "batched error decode disagrees with decode_errors",
)


def _decode_report(spec: CodeSpec, mode: str, groups, summary: str) -> VerificationReport:
    """The report of ``mode`` over ``groups``, (offset, codewords) pairs of
    the oracle's own enumeration; ``summary`` leads the detail of a passing
    report.

    Case row * len(patterns) + j is the row-th codeword of ``groups`` under
    the j-th pattern of _patterns.  Rows are decoded in batches of
    _BATCH_ROWS, and the first failing case is replayed through the
    one-word decoder, which gives the report a case-by-case loop would.
    """
    patterns = _patterns(spec, mode)
    rows = []
    for offset, codewords in groups:
        target = validate_offset(offset, spec)
        rows += [(offset, target, x) for x in codewords]
    name = f"decode:{mode}"
    for top in range(0, len(rows), _BATCH_ROWS):
        case = _first_failure(spec, mode, rows[top : top + _BATCH_ROWS], patterns)
        if case is None:
            continue
        case += top * len(patterns)
        row, j = divmod(case, len(patterns))
        offset, _, x = rows[row]
        positions = patterns[j][0]
        got, refusal = _decode_case(spec, mode, offset, x, patterns[j])
        different, disagrees = _ERASURE_DETAILS if mode == "erasure" else _ERROR_DETAILS
        if refusal is not None:
            counterexample, detail = (offset, x, positions), refusal
        elif got != x:
            counterexample, detail = (offset, x, positions, got), different
        else:
            counterexample, detail = (offset, x, positions), disagrees
        return VerificationReport(name, spec, case + 1, False, counterexample, detail)
    instances = len(rows) * len(patterns)
    return VerificationReport(
        name, spec, instances, True, detail=f"{summary}, {instances} corruptions"
    )


def _decode_case(spec: CodeSpec, mode: str, offset: Offset, x: Word, pattern):
    """The one-word decode of codeword ``x`` under ``pattern``: (the word
    returned, None), or (None, why it was refused).  The decoders are
    looked up at call time."""
    positions, bumps = pattern
    corrupted = list(x)
    if mode == "erasure":
        for i in positions:
            corrupted[i] = None
        try:
            return decode_erasures(tuple(corrupted), spec, offset), None
        except InconsistentWordError as exc:
            return None, f"rejected as inconsistent: {exc}"
    for i, bump in zip(positions, bumps):
        corrupted[i] = (corrupted[i] + bump) % spec.q
    try:
        return decode_errors(tuple(corrupted), spec, offset), None
    except UncorrectableError as exc:
        return None, f"rejected as uncorrectable: {exc}"


def _first_failure(spec: CodeSpec, mode: str, batch, patterns) -> int | None:
    """The first failing case among ``batch``'s rows, numbered from its
    first row; None if every case passes.

    Each codeword is read once by validate_word and _masked_sums; then each
    pattern is one batched decode over the batch: erasure._decode_rows for
    an erasure mask, errors._error_rows for a substitution pattern.  A case
    fails if the batch rejects it or decodes it to other symbols.  Per
    pattern, one row is also decoded by the one-word decoder, and a
    disagreement fails that case.
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
    for j, (positions, bumps) in enumerate(patterns):
        nodes = [i + 1 for i in positions]
        if mode == "erasure":
            filled, accepted = _decode_rows(symbols, sums, targets, spec, nodes)
            failed = ~accepted | (filled != symbols[:, list(positions)]).any(axis=1)
        else:
            decoded, accepted = _error_rows(symbols, sums, targets, spec, nodes, bumps)
            failed = ~accepted | (decoded != symbols).any(axis=1)
        s = j % len(batch)
        if not failed[s]:
            offset, _, x = batch[s]
            failed[s] = _decode_case(spec, mode, offset, x, patterns[j])[0] != x
        if failed.any():
            case = int(failed.argmax()) * len(patterns) + j
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
