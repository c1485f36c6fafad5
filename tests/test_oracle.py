import math

import pytest

from vtcodes import core, errors, oracle
from vtcodes.core import BudgetExceededError, CodeSpec, syndrome_profile
from vtcodes.erasure import InconsistentWordError, _decode_rows
from vtcodes.errors import UncorrectableError
from vtcodes.oracle import (
    VerificationReport,
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


def test_coset_known_members():
    # The members of one coset, from the oracle's own loop over the cube.
    assert oracle._coset(CodeSpec(2, 5, 3), (0, 0), 1 << 5) == [
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


def test_distance_sweep_reports_the_first_close_pair(monkeypatch):
    # Cosets in sorted order: (0, 0)'s three pairs pass, and the first pair
    # of (0, 1) is at distance 1.
    buckets = {
        (0, 1): [(1, 1, 1, 1, 1), (1, 1, 1, 1, 0)],
        (0, 0): [(0, 0, 0, 0, 0), (0, 1, 1, 0, 1), (1, 0, 0, 1, 1)],
        (1, 0): [(1, 0, 0, 0, 0)],
    }
    monkeypatch.setattr(oracle, "coset_partition", lambda spec, budget: buckets)
    assert distance_sweep(SPEC_253) == VerificationReport(
        "min-distance", SPEC_253, 4, False,
        ((0, 1), (1, 1, 1, 1, 1), (1, 1, 1, 1, 0), 1), "pair at distance 1 < 3",
    )


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


def _enumerates(monkeypatch, codewords):
    # The oracle enumerates ``codewords`` as the members of any coset.
    monkeypatch.setattr(oracle, "_coset", lambda spec, offset, budget: codewords)


def test_failure_is_reported_with_counterexample(monkeypatch):
    # Feeding a word that is not in the coset must surface a failure:
    # its corruptions decode to genuine members or not at all.
    spec = CodeSpec(2, 5, 3)
    _enumerates(monkeypatch, [(1, 1, 1, 1, 1)])
    report = exhaustive_decode_check(spec, (0, 0), "single-error")
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


@pytest.mark.parametrize("mode", ["single-error", "erasure"])
def test_exhaustive_check_catches_a_kernel_fault(monkeypatch, mode):
    # exhaustive_decode_check enumerates its coset with the oracle's own
    # loop too.  With every weighted sum shifted by one everywhere the
    # kernel is read, the decoders miss the true members; a coset taken
    # from the faulty kernel would hold words they decode back.
    kernel = core._masked_sums

    def shifted(symbols, spec):
        plain, weighted = kernel(symbols, spec)
        return plain, tuple((w + 1) % spec.power_modulus for w in weighted)

    for module in (core, errors, oracle):
        monkeypatch.setattr(module, "_masked_sums", shifted)
    report = exhaustive_decode_check(CodeSpec(2, 6, 4), (0, 0, 3), mode)
    assert not report.passed


SPEC_253 = CodeSpec(2, 5, 3)


@pytest.mark.parametrize(
    "spec, offset, codewords, instances, counterexample, detail",
    [
        (
            SPEC_253, (0, 0), [(1,) * 5], 1, ((0, 0), (1,) * 5, (0,)),
            "rejected as inconsistent: recovered symbol 2 at position 1 outside [0, 1]",
        ),
        (
            SPEC_253, (0, 0), [(0,) * 5, (1,) * 5], 16, ((0, 0), (1,) * 5, (0,)),
            "rejected as inconsistent: recovered symbol 2 at position 1 outside [0, 1]",
        ),
        (
            SPEC_253, (0, 0), [(0, 0, 0, 1, 1)], 1,
            ((0, 0), (0, 0, 0, 1, 1), (0,), (1, 0, 0, 1, 1)),
            "filled erasures with a different word",
        ),
        (
            CodeSpec(3, 5, 3), (1, 2), [(0,) * 5], 1, ((1, 2), (0,) * 5, (0,)),
            "rejected as inconsistent: moment equation 1 unsatisfied by the recovered symbols",
        ),
        (
            CodeSpec(3, 5, 4), (0, 0, 0), [(0, 0, 0, 0, 2)], 1,
            ((0, 0, 0), (0, 0, 0, 0, 2), (0,)),
            "rejected as inconsistent: completed word fails the membership check",
        ),
    ],
    ids=["range", "second-row", "other-word", "moment", "plain-sum"],
)
def test_erasure_failure_reports(
    monkeypatch, spec, offset, codewords, instances, counterexample, detail
):
    # The first failing case in the order of a case-by-case loop: codewords
    # in the order given, masks by weight and then lexicographically.
    _enumerates(monkeypatch, codewords)
    report = exhaustive_decode_check(spec, offset, "erasure")
    assert report == VerificationReport(
        "decode:erasure", spec, instances, False, counterexample, detail
    )


def test_erasure_check_refusals():
    # A bad offset is refused, with decode_erasures' message, before any
    # case; an unoccupied coset has no case.
    with pytest.raises(ValueError, match=r"^offset\[1\] = 9 outside \[0, 4\]$"):
        exhaustive_decode_check(SPEC_253, (0, 9), "erasure")
    report = exhaustive_decode_check(CodeSpec(2, 5, 4), (0, 0, 1), "erasure")
    assert report.passed and report.instances == 0


def test_batch_disagreement_is_reported(monkeypatch):
    # The replay of a case the batch fails and decode_erasures passes names
    # the disagreement; the oracle looks decode_erasures up at call time.
    calls = []

    def fails_the_batch(symbols, sums, offsets, spec, erased):
        filled, accepted = _decode_rows(symbols, sums, offsets, spec, erased)
        calls.append(erased)
        return filled, accepted & (len(calls) != 3)

    monkeypatch.setattr(oracle, "_decode_rows", fails_the_batch)
    report = exhaustive_decode_check(SPEC_253, (0, 0), "erasure")
    assert report.instances == 3
    assert report.counterexample == ((0, 0), (0,) * 5, (2,))
    assert report.detail == "batched erasure decode disagrees with decode_erasures"


def test_substitution_sweep_counts_cases_across_cosets(monkeypatch):
    # A failure in the third sorted coset, (0, 2), reports the cases of the
    # two cosets before it (3 and 2 codewords, 5 substitutions each) and
    # those of its own first codeword.  The batch fails every case of the
    # word (1, 1, 0, 1, 0), and decode_errors, which replays the first of
    # them, refuses it.
    rows, decode = oracle._error_rows, oracle.decode_errors

    def fails_one_row(symbols, *rest):
        decoded, accepted = rows(symbols, *rest)
        return decoded, accepted & (symbols != (1, 1, 0, 1, 0)).any(axis=1)

    def fails_on_one_word(word, spec, offset):
        got = decode(word, spec, offset)
        if got == (1, 1, 0, 1, 0):
            raise UncorrectableError("injected")
        return got

    monkeypatch.setattr(oracle, "_error_rows", fails_one_row)
    monkeypatch.setattr(oracle, "decode_errors", fails_on_one_word)
    report = decode_check_sweep(SPEC_253, "single-error")
    assert report == VerificationReport(
        "decode:single-error", SPEC_253, 31, False,
        ((0, 2), (1, 1, 0, 1, 0), (0,)), "rejected as uncorrectable: injected",
    )


def test_one_word_sample_disagreement_fails_the_sweep(monkeypatch):
    # Each mask also runs decode_erasures on one row (row 0 for mask 0): a
    # fault there fails the sweep, though the batch passes every case.
    decode = oracle.decode_erasures

    def wrong_first_symbol(word, spec, offset):
        got = decode(word, spec, offset)
        return got if word[0] is not None else ((got[0] + 1) % spec.q, *got[1:])

    monkeypatch.setattr(oracle, "decode_erasures", wrong_first_symbol)
    report = decode_check_sweep(SPEC_253, "erasure")
    assert report == VerificationReport(
        "decode:erasure", SPEC_253, 1, False,
        ((0, 0), (0,) * 5, (0,), (1, 0, 0, 0, 0)), "filled erasures with a different word",
    )


def test_one_word_sample_refusal_fails_the_sweep(monkeypatch):
    # Mask 2, {position 3}, samples row 2, (1, 0, 0, 1, 1), through
    # decode_erasures, which refuses it here while the batch accepts every
    # case; the replay reports the refusal.
    decode = oracle.decode_erasures

    def refuses_mask_2(word, spec, offset):
        if word[2] is None and word.count(None) == 1:
            raise InconsistentWordError("injected")
        return decode(word, spec, offset)

    monkeypatch.setattr(oracle, "decode_erasures", refuses_mask_2)
    assert decode_check_sweep(SPEC_253, "erasure") == VerificationReport(
        "decode:erasure", SPEC_253, 2 * 15 + 2 + 1, False,
        ((0, 0), (1, 0, 0, 1, 1), (2,)), "rejected as inconsistent: injected",
    )


@pytest.mark.parametrize("mode", ["typo", "multi-error"])
def test_sweep_refuses_a_bad_mode_before_enumerating(monkeypatch, mode):
    # Radius 1 admits no multi-error check.  Neither refusal may wait for
    # the cube: even over the budget it is the mode that is refused.
    def no_partition(*args, **kwargs):
        raise AssertionError("coset_partition called")

    monkeypatch.setattr(oracle, "coset_partition", no_partition)
    with pytest.raises(ValueError, match="mode|radius"):
        decode_check_sweep(CodeSpec(2, 16, 3), mode)
    with pytest.raises(ValueError, match="mode|radius"):
        decode_check_sweep(CodeSpec(2, 40, 3), mode)


@pytest.mark.parametrize("rows", [1, 2, 7])
def test_erasure_reports_do_not_depend_on_the_batch_size(monkeypatch, rows):
    # Rows are decoded in batches of _BATCH_ROWS; a failure in a later
    # batch keeps its place in the case order.
    spec = CodeSpec(2, 5, 3)
    _enumerates(monkeypatch, [(0, 0, 0, 0, 0), (0, 1, 1, 0, 1), (1, 0, 0, 1, 1), (1, 1, 1, 1, 1)])
    whole = exhaustive_decode_check(spec, (0, 0), "erasure")
    swept = decode_check_sweep(spec, "erasure")
    monkeypatch.setattr(oracle, "_BATCH_ROWS", rows)
    assert exhaustive_decode_check(spec, (0, 0), "erasure") == whole
    assert whole.instances == 46 and not whole.passed
    assert decode_check_sweep(spec, "erasure") == swept
    assert swept.passed


@pytest.mark.parametrize(
    "spec, offset, codewords, mode, instances, counterexample, detail",
    [
        (
            SPEC_253, (0, 0), [(0, 0, 1, 0, 0)], "single-error", 1,
            ((0, 0), (0, 0, 1, 0, 0), (0,)),
            "rejected as uncorrectable: no coset member within 1 substitutions of the received word",
        ),
        (
            SPEC_253, (0, 0), [(1,) * 5], "single-error", 1,
            ((0, 0), (1,) * 5, (0,), (0, 1, 1, 0, 1)), "decoded to a different word",
        ),
        (
            SPEC_253, (0, 0), [(0,) * 5, (0, 0, 0, 0, 1)], "single-error", 6,
            ((0, 0), (0, 0, 0, 0, 1), (0,), (1, 0, 0, 1, 1)), "decoded to a different word",
        ),
        (
            CodeSpec(3, 7, 5), (0, 0, 0, 0), [(0,) * 7, (0, 2, 0, 2, 1, 0, 1)], "multi-error", 99,
            ((0, 0, 0, 0), (0, 2, 0, 2, 1, 0, 1), (0,)),
            "rejected as uncorrectable: no coset member within 2 substitutions of the received word",
        ),
        (
            CodeSpec(3, 7, 5), (0, 0, 0, 0), [(0, 0, 0, 0, 0, 0, 1)], "multi-error", 1,
            ((0, 0, 0, 0), (0, 0, 0, 0, 0, 0, 1), (0,), (0,) * 7), "decoded to a different word",
        ),
        (
            CodeSpec(2, 6, 5), (0, 0, 0, 0), [(0,) * 6, (0, 1, 0, 0, 0, 1)], "multi-error", 22,
            ((0, 0, 0, 0), (0, 1, 0, 0, 0, 1), (0,)),
            "rejected as uncorrectable: no coset member within 2 substitutions of the received word",
        ),
    ],
    ids=["uncorrectable", "other-word", "second-row", "n-is-p", "n-is-p-other-word", "n-below-p"],
)
def test_substitution_failure_reports(
    monkeypatch, spec, offset, codewords, mode, instances, counterexample, detail
):
    # Words that are not coset members, enumerated as members: the first
    # failing case in the order of a case-by-case loop (codewords in the
    # order given, patterns by weight, then positions, then bumps) is
    # reported as decode_errors reports it.
    _enumerates(monkeypatch, codewords)
    report = exhaustive_decode_check(spec, offset, mode)
    assert report == VerificationReport(
        f"decode:{mode}", spec, instances, False, counterexample, detail
    )


def test_error_batch_disagreement_is_reported(monkeypatch):
    # The replay of a case the batch fails and decode_errors passes names
    # the disagreement.
    calls = []

    def fails_the_batch(symbols, sums, offsets, spec, positions, bumps):
        decoded, accepted = errors._error_rows(symbols, sums, offsets, spec, positions, bumps)
        calls.append(positions)
        return decoded, accepted & (len(calls) != 4)

    monkeypatch.setattr(oracle, "_error_rows", fails_the_batch)
    report = exhaustive_decode_check(SPEC_253, (0, 0), "single-error")
    assert report == VerificationReport(
        "decode:single-error", SPEC_253, 4, False, ((0, 0), (0,) * 5, (3,)),
        "batched error decode disagrees with decode_errors",
    )


def test_one_word_substitution_sample_disagreement_fails_the_sweep(monkeypatch):
    # Each pattern also runs decode_errors on one row (row 0 for pattern 0):
    # a fault there fails the sweep, though the batch passes every case.
    decode = oracle.decode_errors

    def returns_the_received_word(word, spec, offset):
        return word if word == (1, 0, 0, 0, 0) else decode(word, spec, offset)

    monkeypatch.setattr(oracle, "decode_errors", returns_the_received_word)
    report = decode_check_sweep(SPEC_253, "single-error")
    assert report == VerificationReport(
        "decode:single-error", SPEC_253, 1, False,
        ((0, 0), (0,) * 5, (0,), (1, 0, 0, 0, 0)), "decoded to a different word",
    )


def test_one_word_substitution_sample_refusal_fails_the_sweep(monkeypatch):
    # Pattern 2, position 3 raised, samples row 2, (1, 0, 0, 1, 1), through
    # decode_errors, which refuses it here while the batch accepts every
    # case; the replay reports the refusal.
    decode = oracle.decode_errors

    def refuses_one_word(word, spec, offset):
        if word == (1, 0, 1, 1, 1):
            raise UncorrectableError("injected")
        return decode(word, spec, offset)

    monkeypatch.setattr(oracle, "decode_errors", refuses_one_word)
    assert decode_check_sweep(SPEC_253, "single-error") == VerificationReport(
        "decode:single-error", SPEC_253, 2 * 5 + 2 + 1, False,
        ((0, 0), (1, 0, 0, 1, 1), (2,)), "rejected as uncorrectable: injected",
    )


@pytest.mark.parametrize("rows", [1, 2, 7])
@pytest.mark.parametrize("mode", ["single-error", "multi-error"])
def test_substitution_reports_do_not_depend_on_the_batch_size(monkeypatch, mode, rows):
    # As for erasures: a failure in a later batch keeps its place in the
    # case order, and a passing sweep counts every case once.
    spec = CodeSpec(2, 6, 5)
    members = oracle._coset(spec, (0, 0, 0, 0), 1 << 6)
    _enumerates(monkeypatch, members + [(0, 1, 0, 0, 0, 1)])
    whole = exhaustive_decode_check(spec, (0, 0, 0, 0), mode)
    swept = decode_check_sweep(spec, mode)
    monkeypatch.setattr(oracle, "_BATCH_ROWS", rows)
    assert exhaustive_decode_check(spec, (0, 0, 0, 0), mode) == whole
    assert not whole.passed and whole.instances > 1
    assert decode_check_sweep(spec, mode) == swept
    assert swept.passed
