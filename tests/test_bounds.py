import builtins
import math
from dataclasses import asdict
from decimal import Decimal
from fractions import Fraction

import pytest

from vtcodes import bounds
from vtcodes.bounds import (
    LinearBaseline,
    admissible_prime_lengths,
    code_size_lower_bound,
    generate_table,
    improvement_interval_defect0,
    improvement_interval_defect1,
    is_prime_power,
    prime_length_report,
    redundancy_display,
    redundancy_upper_bound,
)
from vtcodes.modarith import smallest_prime_geq


def test_redundancy_display_rounds_half_up():
    # Exact ties and near-ties, which a float log can land on either side of.
    assert bounds._hundredths(2**200, 2**7) == 4  # log = 0.035 exactly: up
    assert bounds._hundredths(2**200, 2**7 - 1) == 3
    assert bounds._hundredths(4, 2**7) == 350  # log_4(128) = 3.5 exactly
    assert bounds._hundredths(10, 10**5) == 500
    assert bounds._hundredths(10, 10**5 - 1) == 500  # 4.999995...
    assert bounds._two_places(4) == "0.04"
    assert bounds._two_places(350) == "3.50"
    assert redundancy_display(4, 22, 3) == "3.67"  # log_4(7 * 23) = 3.6654...
    # log_9(17 * 383) = 3.99996...: half up lands on 4.00
    assert redundancy_display(9, 383, 3, modulus=383) == "4.00"


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 16])
@pytest.mark.parametrize("d", [3, 4, 5])
def test_table_displays_bracket_the_exact_bound(q, d):
    # The display k/100 is the half-up rounding of log_q(cosets) exactly when
    # (2k-1)/200 <= log_q(cosets) < (2k+1)/200, i.e. when
    # q**(2k-1) <= cosets**200 < q**(2k+1).  The coset count is rebuilt from
    # the row's modulus, and the strict flag from the displayed digits.
    lengths = list(range(max(d, q + 2), max(d, q + 2) + 40))
    for row in generate_table(q, d) + generate_table(q, d, lengths=lengths):
        cosets = ((d - 1) * (q - 1) + 1) * row.modulus_used ** (d - 2)
        k = int(row.redundancy_upper.replace(".", ""))
        assert q ** (2 * k - 1) <= cosets**200 < q ** (2 * k + 1)
        assert row.redundancy_upper == redundancy_display(q, row.n, d)
        if row.linear_baseline is not None:
            assert row.strict_improvement == (
                Fraction(row.redundancy_upper) < row.linear_baseline
            )


@pytest.mark.parametrize("error", [1, -1])
def test_displays_do_not_rest_on_the_float_estimate(monkeypatch, error):
    # _hundredths starts from a float estimate of the log and corrects it
    # by integer comparisons: an estimate one hundredth off either way
    # gives the same displays.
    grid = [
        (q, n, d)
        for q in (2, 3, 4, 7, 16)
        for d in (3, 4, 5)
        for n in range(max(d, q + 2), max(d, q + 2) + 20)
    ]
    expected = [redundancy_display(q, n, d) for q, n, d in grid]
    estimates = []

    def off_by_one(x):
        estimates.append(x)
        return builtins.round(x) + error

    monkeypatch.setattr(bounds, "round", off_by_one, raising=False)
    assert [redundancy_display(q, n, d) for q, n, d in grid] == expected
    assert len(estimates) == len(grid)


def test_redundancy_upper_bound_values():
    assert math.isclose(
        redundancy_upper_bound(4, 22, 3), math.log2(7 * 23) / 2, rel_tol=1e-12
    )
    assert redundancy_display(4, 22, 3) == "3.67"
    assert redundancy_display(4, 24, 3) == "3.83"
    assert redundancy_display(4, 30, 3) == "3.88"
    assert redundancy_display(4, 86, 3) == "4.64"
    assert redundancy_display(4, 90, 3) == "4.70"
    assert redundancy_display(3, 122, 3) == "5.87"


def test_redundancy_upper_bound_with_override():
    assert redundancy_display(9, 41, 3, modulus=41) == "2.98"
    # the exact value is just below 4; half-up display lands on 4.00
    value = redundancy_upper_bound(9, 383, 3, modulus=383)
    assert math.isclose(value, math.log(17 * 383) / math.log(9), rel_tol=1e-12)
    assert value < 4
    assert redundancy_display(9, 383, 3, modulus=383) == "4.00"


def test_redundancy_upper_bound_validation():
    with pytest.raises(ValueError):
        redundancy_upper_bound(1, 5, 3)
    with pytest.raises(ValueError):
        redundancy_upper_bound(2, 5, 2)
    with pytest.raises(ValueError):
        redundancy_upper_bound(2, 2, 3)
    with pytest.raises(ValueError):
        redundancy_upper_bound(4, 22, 3, modulus=87)
    with pytest.raises(ValueError):
        redundancy_upper_bound(4, 22, 3, modulus=19)


def test_code_size_lower_bound():
    assert code_size_lower_bound(2, 5, 3) == Fraction(32, 15)
    assert code_size_lower_bound(3, 7, 5) == Fraction(243, 343)
    # consistency: bound equals q**n / q**redundancy_upper_bound
    value = code_size_lower_bound(4, 22, 3)
    assert value == Fraction(4**22, 7 * 23)


def test_is_prime_power():
    for q in (2, 3, 4, 5, 7, 8, 9, 16, 17, 25, 27, 32, 49, 121, 125, 128):
        assert is_prime_power(q)
    for q in (1, 6, 10, 12, 15, 18, 20, 24, 36, 100):
        assert not is_prime_power(q)


def test_improvement_intervals_known_answers():
    assert improvement_interval_defect0(7) == (9, 13)
    assert improvement_interval_defect0(8) == (10, 17)
    assert improvement_interval_defect0(9) == (11, 21)
    assert improvement_interval_defect1(7) == (58, 92)
    assert improvement_interval_defect1(8) == (74, 136)
    assert improvement_interval_defect1(9) == (92, 192)


def test_improvement_intervals_can_be_empty():
    lo, hi = improvement_interval_defect0(2)
    assert lo > hi
    lo, hi = improvement_interval_defect1(4)
    assert lo > hi
    with pytest.raises(ValueError):
        improvement_interval_defect0(6)


def test_improvement_intervals_guarantee_holds_throughout():
    for q, interval, threshold in (
        (7, improvement_interval_defect0(7), 3),
        (9, improvement_interval_defect0(9), 3),
        (7, improvement_interval_defect1(7), 4),
        (9, improvement_interval_defect1(9), 4),
    ):
        lo, hi = interval
        for n in range(lo, hi + 1):
            assert redundancy_upper_bound(q, n, 3) < threshold


def test_admissible_prime_lengths_known_answers():
    assert admissible_prime_lengths(13, 5) == {17, 19}
    assert admissible_prime_lengths(17, 5) == {19, 23}
    assert admissible_prime_lengths(32, 7) == {37, 41, 43}
    assert admissible_prime_lengths(4, 3) == {7}


def test_admissible_lengths_are_prime():
    lengths = admissible_prime_lengths(9, 3)
    assert min(lengths) == 11 and max(lengths) == 41
    assert lengths == {n for n in range(11, 42) if smallest_prime_geq(n) == n}
    with pytest.raises(ValueError):
        admissible_prime_lengths(6, 3)


def test_admissible_lengths_skip_hyperoval_length_for_even_q():
    # For even q a hyperoval gives a linear [q+2, q-1, 4] code, so length
    # q+2 at d = 4 is no gain over linear codes.  The redundancy bound alone
    # would admit q+2, which is even and so never a prime length.
    for q in (16, 32, 64):
        m0 = 3 * (q - 1) + 1
        assert (q + 2) ** 2 * m0 <= q**4
        lengths = admissible_prime_lengths(q, 4)
        assert q + 2 not in lengths
        assert all(n >= q + 3 for n in lengths)
    assert min(admissible_prime_lengths(32, 4)) == 37

def test_admissible_lengths_beyond_float_range():
    # q**d = 2**1100 does not fit a float; the length bound is an exact
    # integer root.  Recomputed here by a plain scan with trial division.
    q, d = 2**11, 100
    m0 = (d - 1) * (q - 1) + 1

    def prime(k):
        return k >= 2 and all(k % f for f in range(2, math.isqrt(k) + 1))

    expected = set()
    n = max(q + 2, d + 2)
    while n ** (d - 2) * m0 <= q**d:
        if prime(n):
            expected.add(n)
        n += 1
    assert expected  # the range is not empty
    assert admissible_prime_lengths(q, d) == expected


def test_admissible_lengths_meet_their_guarantee():
    for q, d in ((13, 5), (17, 5), (32, 7)):
        for n in admissible_prime_lengths(q, d):
            assert redundancy_upper_bound(q, n, d, modulus=n) < d


def test_prime_length_report_values():
    by_n = {row.n: row for row in prime_length_report(13, 5)}
    assert set(by_n) == {17, 19}
    assert by_n[17].redundancy_upper == "4.83"
    assert by_n[19].redundancy_upper == "4.96"
    assert by_n[17].published == "4.96"
    assert by_n[17].note is not None
    assert by_n[19].note is None

    by_n = {row.n: row for row in prime_length_report(17, 5)}
    assert by_n[19].redundancy_upper == "4.59"
    assert by_n[23].redundancy_upper == "4.79"

    by_n = {row.n: row for row in prime_length_report(32, 7)}
    assert by_n[37].redundancy_upper == "6.72"
    assert by_n[41].redundancy_upper == "6.87"
    assert by_n[43].redundancy_upper == "6.94"
    assert by_n[37].note is None
    assert by_n[41].note is not None
    assert by_n[43].note is not None


def test_bundled_baseline():
    baseline = LinearBaseline.bundled()
    assert baseline.get(4, 22, 3) == 4
    assert baseline.get(4, 97, 3) == 5
    assert baseline.get(3, 127, 3) == 6
    assert baseline.get(4, 50, 3) is None
    assert baseline.lengths_for(4, 3) == list(range(22, 32)) + list(range(86, 98))
    assert baseline.lengths_for(3, 3) == list(range(122, 128))


def test_baseline_parsing_and_merge():
    baseline = LinearBaseline.from_text("# comment\n\n5 10 3 4\n5 11 3 4 # tail\n")
    assert baseline.get(5, 10, 3) == 4
    assert baseline.get(5, 11, 3) == 4
    merged = LinearBaseline.bundled().merged_with(baseline)
    assert merged.get(5, 10, 3) == 4
    assert merged.get(4, 22, 3) == 4
    with pytest.raises(ValueError):
        LinearBaseline.from_text("5 10 3\n")
    with pytest.raises(ValueError):
        LinearBaseline.from_text("5 ten 3 4\n")


def test_generate_table_quaternary():
    rows = generate_table(4, 3)
    assert [r.n for r in rows] == list(range(22, 32)) + list(range(86, 98))
    by_n = {r.n: r for r in rows}
    assert by_n[22].redundancy_upper == "3.67"
    assert by_n[22].modulus_used == 23
    assert by_n[25].redundancy_upper == "3.83"
    assert by_n[31].redundancy_upper == "3.88"
    assert by_n[88].redundancy_upper == "4.64"
    assert by_n[88].modulus_used == 89
    assert by_n[97].redundancy_upper == "4.70"
    assert all(r.strict_improvement for r in rows)
    assert by_n[86].note is not None and "87" in by_n[86].note
    assert by_n[87].note is not None and "not prime" in by_n[87].note
    assert by_n[88].note is None


def test_generate_table_custom_lengths():
    rows = generate_table(4, 3, lengths=[40, 22])
    assert [r.n for r in rows] == [22, 40]
    assert rows[1].linear_baseline is None
    assert rows[1].strict_improvement is None
    record = asdict(rows[0])
    assert record["n"] == 22
    assert record["redundancy_upper"] == "3.67"
    assert record["strict_improvement"] is True


def test_generate_table_rejects_bad_q_and_d():
    # Also where no length is listed, which once gave an empty table.
    for lengths in (None, [5]):
        with pytest.raises(ValueError, match=r"^alphabet size q=1 must be >= 2$"):
            generate_table(1, 3, lengths=lengths)
        with pytest.raises(ValueError, match=r"^designed distance d=2 must be >= 3$"):
            generate_table(4, 2, lengths=lengths)


def test_strict_improvement_uses_displayed_value():
    rows = generate_table(3, 3)
    for row in rows:
        assert Decimal(row.redundancy_upper) < row.linear_baseline
        assert row.strict_improvement


def test_size_bound_can_drop_below_one():
    # shortest case: the bound goes vacuous but the floor stays honest
    value = code_size_lower_bound(2, 3, 3)
    assert value == Fraction(8, 9)
    assert math.floor(value) == 0


def test_interval_chains_hold_in_exact_integers():
    # every admitted length satisfies the inequality the interval encodes,
    # and the length one past the end fails it
    for q in (7, 8, 9):
        m = 2 * (q - 1) + 1
        lo, hi = improvement_interval_defect0(q)
        for n in range(lo, hi + 1):
            assert q**3 >= 2 * n * m
        assert q**3 < 2 * (hi + 1) * m
        lo, hi = improvement_interval_defect1(q)
        for n in range(lo, hi + 1):
            assert q**4 >= 2 * n * m
        assert q**4 < 2 * (hi + 1) * m


def test_admissible_chain_holds_in_exact_integers():
    for q, d in ((13, 5), (17, 5), (32, 7), (4, 3)):
        m = (d - 1) * (q - 1) + 1
        for n in admissible_prime_lengths(q, d):
            assert q**d > m * n ** (d - 2)


def test_default_modulus_minimizes_the_bound():
    # the bound grows with the modulus, so the smallest admissible prime wins
    for q, n, d in ((9, 41, 3), (4, 22, 3), (13, 17, 5)):
        primes = []
        candidate = max(n, q)
        while len(primes) < 4:
            candidate = smallest_prime_geq(candidate)
            primes.append(candidate)
            candidate += 1
        values = [redundancy_upper_bound(q, n, d, modulus=p) for p in primes]
        assert values[0] == redundancy_upper_bound(q, n, d)
        assert values == sorted(values)
        assert len(set(values)) == len(values)
