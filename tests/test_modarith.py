import math
import random

import pytest

from vtcodes.modarith import (
    PRIMALITY_BOUND,
    _BASES,
    _PSI,
    inv_mod,
    is_prime,
    smallest_prime_geq,
    solve_moments,
    validate_prime_modulus,
)


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(-3, 50):
        assert is_prime(n) == (n in primes)


def test_is_prime_larger():
    assert is_prime(100003)
    assert not is_prime(100001)  # 11 * 9091
    assert not is_prime(87)  # 3 * 29


def test_smallest_prime_geq():
    assert smallest_prime_geq(2) == 2
    assert smallest_prime_geq(5) == 5
    assert smallest_prime_geq(6) == 7
    assert smallest_prime_geq(90) == 97
    assert smallest_prime_geq(122) == 127
    assert smallest_prime_geq(100000) == 100003


def test_smallest_prime_geq_rejects_tiny():
    with pytest.raises(ValueError):
        smallest_prime_geq(1)


def test_validate_prime_modulus():
    assert validate_prime_modulus(7) == 7
    with pytest.raises(ValueError):
        validate_prime_modulus(87)
    with pytest.raises(ValueError):
        validate_prime_modulus(1)
    assert validate_prime_modulus((1 << 31) + 11) == (1 << 31) + 11
    with pytest.raises(ValueError, match="not supported"):
        validate_prime_modulus(PRIMALITY_BOUND)
    with pytest.raises(ValueError, match="not supported"):
        validate_prime_modulus(2**89 - 1)  # a Mersenne prime beyond the bound


def strong_probable_prime(n, base):
    odd, twos = n - 1, 0
    while odd % 2 == 0:
        odd //= 2
        twos += 1
    x = pow(base, odd, n)
    return x in (1, n - 1) or any(pow(x, 2**r, n) == n - 1 for r in range(1, twos))


# psi_k with its prime factors (OEIS A014233).
PSI_FACTORS = {
    2047: (23, 89),
    1373653: (829, 1657),
    25326001: (2251, 11251),
    3215031751: (151, 751, 28351),
    2152302898747: (6763, 10627, 29947),
    3474749660383: (1303, 16927, 157543),
    341550071728321: (10670053, 32010157),
    3825123056546413051: (149491, 747451, 34233211),
    318665857834031151167461: (399165290221, 798330580441),
    3317044064679887385961981: (1287836182261, 2575672364521),
}


def test_miller_rabin_table():
    # Each psi_k is composite, fools the first k bases, and is reported
    # composite; every factor is reported prime.
    assert PRIMALITY_BOUND == _PSI[-1]
    assert set(_PSI) == set(PSI_FACTORS)
    for k, psi in enumerate(_PSI, start=1):
        factors = PSI_FACTORS[psi]
        assert math.prod(factors) == psi
        assert all(strong_probable_prime(psi, b) for b in _BASES[:k])
        assert all(is_prime(f) for f in factors)
        if psi < PRIMALITY_BOUND:
            assert not is_prime(psi)
    with pytest.raises(ValueError, match="not decided"):
        is_prime(PRIMALITY_BOUND)


def test_is_prime_matches_trial_division():
    def by_division(n):
        return n >= 2 and all(n % f for f in range(2, math.isqrt(n) + 1))

    assert [n for n in range(-3, 5000) if is_prime(n)] == [n for n in range(-3, 5000) if by_division(n)]
    rng = random.Random(2017)
    for n in [rng.randrange(2**20, 2**34) for _ in range(300)] + [2**31 - 1, 2**31 + 11, 2**32 + 15]:
        assert is_prime(n) == by_division(n), n
    assert smallest_prime_geq(2**64) == 2**64 + 13
    assert smallest_prime_geq(2**31) == 2**31 + 11


def test_inv_mod_round_trip():
    for p in (2, 3, 5, 7, 23):
        for a in range(1, p):
            assert a * inv_mod(a, p) % p == 1


def test_inv_mod_rejects_zero():
    with pytest.raises(ZeroDivisionError):
        inv_mod(0, 7)
    with pytest.raises(ZeroDivisionError):
        inv_mod(14, 7)


def eval_poly_mod(coeffs, x, modulus):
    """A polynomial given by ascending coefficients, evaluated by Horner's
    rule mod ``modulus``: the reference the root-scan tests compare with."""
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % modulus
    return acc


def test_eval_poly_mod_ascending_order():
    # 1 + 2x + 3x^2 at x=2 is 17, which is 3 mod 7
    assert eval_poly_mod([1, 2, 3], 2, 7) == 3
    assert eval_poly_mod([5], 100, 7) == 5
    assert eval_poly_mod([0, 1], 6, 7) == 6


def test_vandermonde_known_answer():
    assert solve_moments((2, 3), (1, 2), 5) == (1, 0)
    # x0 + x1 = 3 and 2*x0 + 4*x1 = 2 (mod 7): x0 = 5, x1 = 5
    assert solve_moments((2, 4), (3, 2), 7) == (5, 5)


def test_vandermonde_single_node():
    assert solve_moments((4,), (3,), 7) == (3,)
    # only the first len(nodes) right-hand sides are read
    assert solve_moments((4,), (3, 6, 1), 7) == (3,)


def test_vandermonde_node_zero_is_fine():
    # A zero node only zeroes the higher-power rows, not the solvability.
    x0, x1 = solve_moments((0, 2), (3, 4), 5)
    assert (x0 + x1) % 5 == 3
    assert 2 * x1 % 5 == 4
    # node p is node 0: position n = p of a word
    assert solve_moments((5, 2), (3, 4), 5) == (x0, x1)


def test_vandermonde_round_trip_random():
    rng = random.Random(20240801)
    for p in (5, 7, 11, 101):
        for size in range(1, min(5, p)):
            for _ in range(20):
                nodes = tuple(rng.sample(range(p), size))
                solution = tuple(rng.randrange(p) for _ in range(size))
                rhs = tuple(
                    sum(pow(x, j, p) * v for x, v in zip(nodes, solution)) % p
                    for j in range(size)
                )
                assert solve_moments(nodes, rhs, p) == solution


def test_vandermonde_validation():
    # Colliding nodes leave the locator's derivative zero at them.
    with pytest.raises(ValueError, match="collide"):
        solve_moments((1, 8), (0, 0), 7)  # 8 is 1 mod 7
    with pytest.raises(ValueError, match="collide"):
        solve_moments((3, 3, 5), (1, 2, 3), 11)
    with pytest.raises(ValueError, match="collide"):
        solve_moments((0, 7), (0, 0), 7)  # node p is node 0
    assert solve_moments((), (), 7) == ()


def test_smallest_prime_geq_around_table_lengths():
    assert smallest_prime_geq(22) == 23
    assert smallest_prime_geq(88) == 89


def test_smallest_prime_geq_stays_below_double():
    # Bertrand's postulate, and nothing prime is skipped on the way up.
    for m in range(2, 600):
        p = smallest_prime_geq(m)
        assert m <= p < 2 * m
        assert is_prime(p)
        assert not any(is_prime(k) for k in range(m, p))


def test_vandermonde_homogeneous_solution_is_zero():
    assert solve_moments((2, 3), (0, 0), 5) == (0, 0)
    assert solve_moments((1, 4, 9, 16), (0, 0, 0, 0), 17) == (0, 0, 0, 0)


def test_vandermonde_solution_follows_node_order():
    rng = random.Random(916)
    for _ in range(40):
        p = smallest_prime_geq(rng.randrange(5, 60))
        size = rng.randrange(2, min(5, p))
        nodes = rng.sample(range(1, p), size)
        truth = [rng.randrange(p) for _ in range(size)]
        rhs = tuple(
            sum(pow(x, j, p) * v for x, v in zip(nodes, truth)) % p
            for j in range(size)
        )
        assert solve_moments(nodes, rhs, p) == tuple(truth)
        # the moment sums do not care about pair order, so a reordered
        # system must return the same values in the new order
        order = rng.sample(range(size), size)
        shuffled = tuple(nodes[i] for i in order)
        assert solve_moments(shuffled, rhs, p) == tuple(
            truth[i] for i in order
        )
