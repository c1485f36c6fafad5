import math

import pytest

from vtcodes import core
from vtcodes.core import BudgetExceededError, CodeSpec, syndrome_profile
from vtcodes.oracle import (
    coset_partition,
    decode_check_sweep,
    distance_sweep,
    exhaustive_decode_check,
    partition_check,
)


def test_coset_partition_small():
    spec = CodeSpec(2, 5, 3)
    buckets = coset_partition(spec)
    assert len(buckets) == 15
    assert sum(len(words) for words in buckets.values()) == 32
    assert buckets[(0, 0)] == [
        (0, 0, 0, 0, 0),
        (0, 1, 1, 0, 1),
        (1, 0, 0, 1, 1),
    ]


def test_coset_partition_budget():
    with pytest.raises(BudgetExceededError):
        coset_partition(CodeSpec(2, 40, 3), budget=1 << 16)


def test_partition_check():
    report = partition_check(CodeSpec(2, 5, 3))
    assert report.passed
    assert report.instances == 32
    assert "15 of 15" in report.detail

    report = partition_check(CodeSpec(3, 4, 3))
    assert report.passed
    assert report.instances == 81
    assert "25 of 25" in report.detail


def test_exact_min_distance():
    report = distance_sweep(CodeSpec(2, 5, 3))
    assert report.detail == "smallest pairwise distance observed: 3"
    # a singleton coset has no pair to measure
    spec4 = CodeSpec(2, 5, 4)
    buckets = coset_partition(spec4)
    assert any(len(words) == 1 for words in buckets.values())
    report = distance_sweep(spec4)
    assert report.instances == sum(math.comb(len(w), 2) for w in buckets.values())


def test_distance_sweep():
    report = distance_sweep(CodeSpec(2, 5, 3))
    assert report.passed
    assert report.property_name == "min-distance"
    assert "smallest pairwise distance" in report.detail


def test_exhaustive_decode_check_counts():
    spec = CodeSpec(2, 5, 3)
    erasure = exhaustive_decode_check(spec, (0, 0), "erasure")
    assert erasure.passed
    assert erasure.instances == 45  # 3 codewords, 5 + 10 masks each
    single = exhaustive_decode_check(spec, (0, 0), "single-error")
    assert single.passed
    assert single.instances == 15  # 3 codewords, 5 positions, 1 other symbol


def test_exhaustive_decode_check_rejects_bad_mode():
    spec = CodeSpec(2, 5, 3)
    with pytest.raises(ValueError):
        exhaustive_decode_check(spec, (0, 0), "typo")
    with pytest.raises(ValueError):
        exhaustive_decode_check(spec, (0, 0), "multi-error")  # radius is 1


def test_multi_error_check():
    spec = CodeSpec(2, 7, 5)
    offset = syndrome_profile((0,) * 7, spec)
    report = exhaustive_decode_check(spec, offset, "multi-error")
    assert report.passed
    assert report.instances > 0


def test_decode_check_sweep_totals():
    spec = CodeSpec(2, 5, 3)
    erasure = decode_check_sweep(spec, "erasure")
    assert erasure.passed
    assert erasure.instances == 32 * 15  # every cube word, 15 masks
    single = decode_check_sweep(spec, "single-error")
    assert single.passed
    assert single.instances == 32 * 5


def test_failure_is_reported_with_counterexample():
    # Feeding a word that is not in the coset must surface a failure:
    # its corruptions decode to genuine members or not at all.
    spec = CodeSpec(2, 5, 3)
    report = exhaustive_decode_check(
        spec, (0, 0), "single-error", codewords=[(1, 1, 1, 1, 1)]
    )
    assert not report.passed
    assert report.counterexample is not None
    assert report.instances >= 1


def test_partition_check_catches_a_kernel_fault(monkeypatch):
    # coset_partition computes each profile with its own loop, so a fault
    # in the syndrome kernel behind is_codeword shows up as a disagreement
    # instead of shifting both sides alike.
    kernel = core._masked_sums

    def shifted(symbols, spec):
        plain, weighted = kernel(symbols, spec)
        return plain, ((weighted[0] + 1) % spec.power_modulus, *weighted[1:])

    monkeypatch.setattr(core, "_masked_sums", shifted)
    report = partition_check(CodeSpec(3, 5, 3))
    assert not report.passed
    assert report.detail == "membership test disagrees with profile bucket"
