"""Acceptance checks, one test per criterion.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line
per criterion.  Two extra tests (03b and 05b) check two published figures
against exact integer arithmetic: each pins the recomputed value and shows,
without calling the code under test, that the published figure cannot
hold.  Their docstrings carry the arithmetic.
"""

import itertools
import json
import math
import time

import pytest

from vtcodes.bounds import (
    admissible_prime_lengths,
    improvement_interval_defect0,
    improvement_interval_defect1,
    prime_length_report,
    redundancy_upper_bound,
)
from vtcodes.cli import corrupt, main
from vtcodes.core import CodeSpec, best_offset_search, syndrome_profile
from vtcodes.erasure import InconsistentWordError, decode_erasures
from vtcodes.errors import UncorrectableError, decode_errors
from vtcodes.oracle import (
    decode_check_sweep,
    distance_sweep,
    exhaustive_decode_check,
    partition_check,
)

# q in {2, 3}, n in 5..8, d in {3, 4}: small enough to enumerate, rich
# enough to include lengths that collide with the prime modulus.
SMALL_GRID = [
    (q, n, d) for q in (2, 3) for n in range(5, 9) for d in (3, 4)
]


def _table_rows(q: int, d: int, capsys) -> tuple[list[dict], float]:
    start = time.perf_counter()
    rc = main(["--records", "tables", "--q", str(q), "--d", str(d)])
    elapsed = time.perf_counter() - start
    assert rc == 0
    out = capsys.readouterr().out
    return [json.loads(line) for line in out.strip().splitlines()], elapsed


def test_01_quaternary_comparison_table(capsys):
    rows, elapsed = _table_rows(4, 3, capsys)
    # command itself must be quick (interpreter start-up not included)
    assert elapsed < 1.0

    expected = {}
    for n in (22, 23):
        expected[n] = (23, "3.67")
    for n in range(24, 30):
        expected[n] = (29, "3.83")
    for n in (30, 31):
        expected[n] = (31, "3.88")
    for n in range(86, 90):
        expected[n] = (89, "4.64")
    for n in range(90, 98):
        expected[n] = (97, "4.70")

    assert [r["n"] for r in rows] == sorted(expected)
    for row in rows:
        modulus, value = expected[row["n"]]
        assert row["modulus_used"] == modulus
        assert row["redundancy_upper"] == value
        assert row["linear_baseline"] == (4 if row["n"] < 32 else 5)
        assert row["strict_improvement"] is True
        if row["n"] in (86, 87):
            assert row["note"] is not None and "87" in row["note"]
        else:
            assert row["note"] is None
    print(f"[acceptance 01] PASS quaternary table, {len(rows)} rows in {elapsed:.2f}s")


def test_02_ternary_comparison_table(capsys):
    rows, elapsed = _table_rows(3, 3, capsys)
    assert elapsed < 1.0
    assert [r["n"] for r in rows] == list(range(122, 128))
    for row in rows:
        assert row["modulus_used"] == 127
        assert row["redundancy_upper"] == "5.87"
        assert row["linear_baseline"] == 6
        assert row["strict_improvement"] is True
        assert row["note"] is None
    print(f"[acceptance 02] PASS ternary table, {len(rows)} rows in {elapsed:.2f}s")


def test_03_improvement_intervals():
    assert improvement_interval_defect0(7) == (9, 13)
    assert improvement_interval_defect0(8) == (10, 17)
    assert improvement_interval_defect0(9) == (11, 21)
    assert improvement_interval_defect1(7) == (58, 92)
    assert improvement_interval_defect1(8) == (74, 136)
    # every length inside a returned interval really beats the threshold
    for q in (7, 8, 9):
        lo, hi = improvement_interval_defect0(q)
        for n in range(lo, hi + 1):
            assert redundancy_upper_bound(q, n, 3) < 3
        lo, hi = improvement_interval_defect1(q)
        for n in range(lo, hi + 1):
            assert redundancy_upper_bound(q, n, 3) < 4
    print("[acceptance 03] PASS improvement intervals for q in {7, 8, 9}")


def test_03b_published_interval_endpoint_q9():
    """The published upper endpoint 197 for q=9, redundancy below 4, is a slip.

    The interval's defining inequality is (4q-2) * n <= q**4; at q=9 that
    is 34 * n <= 6561.  34 * 192 = 6528 <= 6561 < 6562 = 34 * 193, so 192
    is the endpoint, while 34 * 197 = 6698 > 6561.  The published endpoints
    for q=7 and q=8 (92 and 136, pinned in test_03) follow the same formula.
    The unit suite pins (92, 192) in
    tests/test_bounds.py::test_improvement_intervals_known_answers.

    This does not say n=197 lacks the improvement: its bound is about 3.69
    and stays below 4 up to n=383 (test_04).  197 is only not the endpoint
    of the interval as the function defines it.
    """
    q, published_hi = 9, 197
    assert improvement_interval_defect1(q) == (92, 192)
    # exact integers, independent of vtcodes.bounds
    assert (4 * q - 2) * published_hi > q**4
    assert (4 * q - 2) * 192 <= q**4 < (4 * q - 2) * 193


def test_04_bound_values_with_modulus_override():
    # Pinned to two decimal places with |computed - pinned| <= 0.01: the
    # exact values are 2.97957 and 3.99652, so fixed-downward truncation
    # would break the first pin and half-up rounding the second.  The
    # numeric tolerance is the one reading both pins satisfy.
    assert abs(redundancy_upper_bound(9, 41, 3, modulus=41) - 2.98) <= 0.01
    assert abs(redundancy_upper_bound(9, 383, 3, modulus=383) - 3.99) <= 0.01
    # sanity: both stay strictly below the 3 and 4 symbol thresholds
    assert redundancy_upper_bound(9, 41, 3, modulus=41) < 3
    assert redundancy_upper_bound(9, 383, 3, modulus=383) < 4
    print("[acceptance 04] PASS redundancy bounds under modulus override")


def test_05_admissible_prime_length_reports():
    assert admissible_prime_lengths(13, 5) == {17, 19}
    assert admissible_prime_lengths(17, 5) == {19, 23}
    assert admissible_prime_lengths(32, 7) == {37, 41, 43}

    q13 = {row.n: row for row in prime_length_report(13, 5)}
    assert q13[17].redundancy_upper == "4.83"
    assert q13[19].redundancy_upper == "4.96"

    q17 = {row.n: row for row in prime_length_report(17, 5)}
    assert q17[19].redundancy_upper == "4.59"
    assert q17[23].redundancy_upper == "4.79"

    q32 = {row.n: row for row in prime_length_report(32, 7)}
    assert q32[37].redundancy_upper == "6.72"
    assert q32[43].redundancy_upper == "6.94"

    # rows recomputing away from the published single value say so
    for row in (q13[17], q17[19], q32[43]):
        assert row.note is not None and row.published is not None
    for row in (q13[19], q17[23], q32[37]):
        assert row.note is None
    print("[acceptance 05] PASS admissible prime lengths for (13,5), (17,5), (32,7)")


def test_05b_published_bound_q32_n41():
    """The published 6.88 for q=32, d=7 at n=41 is a slip; the bound is 6.87.

    The sum modulus is (d-1)(q-1)+1 = 187 and the report takes the prime
    modulus equal to n = 41, so the coset count is X = 187 * 41**5
    = 21 665 109 587 and the bound is log_32 X = 6.86693...  With
    32 = 2**5, log_32 X >= a/1000 iff X**200 >= 2**a, so
    2**6865 <= X**200 < 2**6875 puts the bound in [6.865, 6.875): 6.87
    under half-up and half-even rounding alike.  X**100 < 2**3435 puts it
    below 6.87, more than 0.01 under 6.88.  The other six lengths in these
    reports match their published values exactly (pinned in test_05).
    """
    published = "6.88"
    report = {row.n: row for row in prime_length_report(32, 7)}
    assert report[41].redundancy_upper == "6.87"
    assert report[41].redundancy_upper != published
    # exact integers, independent of vtcodes.bounds
    q, d, n = 32, 7, 41
    x = ((d - 1) * (q - 1) + 1) * n ** (d - 2)
    assert x == 187 * 41**5 == 21_665_109_587
    assert 2**6865 <= x**200 < 2**6875
    assert x**100 < 2**3435


def test_06_minimum_distance_exhaustive():
    start = time.perf_counter()
    total_pairs = 0
    for q, n, d in SMALL_GRID:
        report = distance_sweep(CodeSpec(q, n, d))
        assert report.passed, report
        total_pairs += report.instances
    elapsed = time.perf_counter() - start
    assert elapsed < 300
    print(
        f"[acceptance 06] PASS distance >= d on {len(SMALL_GRID)} parameter sets,"
        f" {total_pairs} pairs in {elapsed:.1f}s"
    )


def test_07_partition_and_largest_coset():
    start = time.perf_counter()
    for q, n, d in SMALL_GRID:
        spec = CodeSpec(q, n, d)
        report = partition_check(spec)
        assert report.passed, report
        assert report.instances == q**n
        _, size = best_offset_search(spec)
        guaranteed = -(-(q**n) // spec.offset_space_size)
        assert size >= guaranteed
    elapsed = time.perf_counter() - start
    assert elapsed < 300
    print(
        f"[acceptance 07] PASS partition and pigeonhole coset size on"
        f" {len(SMALL_GRID)} parameter sets in {elapsed:.1f}s"
    )


def test_08_erasure_decoding_exhaustive():
    start = time.perf_counter()
    total = 0
    for q, n, d in SMALL_GRID:
        report = decode_check_sweep(CodeSpec(q, n, d), "erasure")
        assert report.passed, report
        total += report.instances
    elapsed = time.perf_counter() - start
    assert elapsed < 300
    print(
        f"[acceptance 08] PASS every erasure pattern up to d-1 on"
        f" {len(SMALL_GRID)} parameter sets, {total} cases in {elapsed:.1f}s"
    )


def test_09_substitution_decoding_exhaustive():
    start = time.perf_counter()
    total = 0
    # single substitutions: the decoder must return the sent word
    for q, n, d in SMALL_GRID:
        report = decode_check_sweep(CodeSpec(q, n, d), "single-error")
        assert report.passed, report
        total += report.instances
    # a two-error-correcting set, on its largest coset, all weights up to 2;
    # n equals the prime modulus here, the hardest corner for the locator
    spec = CodeSpec(3, 7, 5)
    offset, size = best_offset_search(spec)
    report = exhaustive_decode_check(spec, offset, "multi-error")
    assert report.passed, report
    assert report.instances == size * (14 + 84)
    total += report.instances
    elapsed = time.perf_counter() - start
    assert elapsed < 300
    print(
        f"[acceptance 09] PASS substitution decoding, {total} cases"
        f" in {elapsed:.1f}s"
    )


def test_10_decoder_soundness_complete():
    # Ground truth built from scratch: binary words of length 5 whose plain
    # sum is 0 mod 3 and whose position-weighted sum is 0 mod 5.
    members = [
        w
        for w in itertools.product(range(2), repeat=5)
        if sum(w) % 3 == 0 and sum((i + 1) * s for i, s in enumerate(w)) % 5 == 0
    ]
    assert members == [(0, 0, 0, 0, 0), (0, 1, 1, 0, 1), (1, 0, 0, 1, 1)]
    spec = CodeSpec(2, 5, 3)
    offset = (0, 0)

    for w in itertools.product(range(2), repeat=5):
        dist = min(sum(a != b for a, b in zip(w, m)) for m in members)
        if dist <= 1:
            target = next(
                m for m in members if sum(a != b for a, b in zip(w, m)) == dist
            )
            assert decode_errors(w, spec, offset) == target
        else:
            with pytest.raises(UncorrectableError):
                decode_errors(w, spec, offset)

    erasure_cases = 0
    for w in itertools.product(range(2), repeat=5):
        for count in (0, 1, 2):
            for positions in itertools.combinations(range(5), count):
                masked = tuple(
                    None if i in positions else s for i, s in enumerate(w)
                )
                completions = [
                    m
                    for m in members
                    if all(
                        masked[i] is None or masked[i] == m[i] for i in range(5)
                    )
                ]
                assert len(completions) <= 1  # distance 3 forbids two
                erasure_cases += 1
                if completions:
                    assert decode_erasures(masked, spec, offset) == completions[0]
                else:
                    with pytest.raises(InconsistentWordError):
                        decode_erasures(masked, spec, offset)
    assert erasure_cases == 32 * 16
    print(
        "[acceptance 10] PASS complete soundness on the 32-word cube:"
        " 32 substitution cases and 512 erasure cases"
    )


def test_11_large_block_performance():
    spec = CodeSpec(16, 100_000, 7)
    assert spec.power_modulus == 100_003
    assert spec.correction_radius == 3
    word = tuple((i * 2654435761 + 12345) % 16 for i in range(spec.n))
    offset = syndrome_profile(word, spec)

    damaged = corrupt(word, 16, errors=3, seed=2026)
    start = time.perf_counter()
    decoded = decode_errors(damaged, spec, offset)
    error_time = time.perf_counter() - start
    assert decoded == word
    assert error_time < 5.0

    masked = corrupt(word, 16, erasures=6, seed=2027)
    start = time.perf_counter()
    filled = decode_erasures(masked, spec, offset)
    erasure_time = time.perf_counter() - start
    assert filled == word
    assert erasure_time < 1.0
    print(
        f"[acceptance 11] PASS n=100000: 3 errors in {error_time:.3f}s,"
        f" 6 erasures in {erasure_time:.3f}s"
    )
