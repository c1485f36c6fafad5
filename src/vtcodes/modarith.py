"""Arithmetic over prime residue fields, on plain Python ints.

Everything here is exact at any size of modulus that ``is_prime`` can
decide: its Miller-Rabin test over the first 13 prime bases is exact
below PRIMALITY_BOUND, about 3.3e24 (Sorenson & Webster, "Strong
pseudoprimes to twelve prime bases", 2017), and it raises ValueError at or
above it.  validate_prime_modulus caps an explicit modulus at the same
bound; it guards an explicit ``CodeSpec.power_modulus``, a
``KeyEquationState`` and the moduli given to ``bounds``.  The default
modulus, the least prime >= max(n, q), meets the same test.  No cap here
stands for a machine word: the vectorised kernel in ``core`` checks its
own float64 and int64 bounds per spec and falls back to exact ints.
"""

from __future__ import annotations

# The first 13 primes, and for each k the least odd composite that passes
# the strong test to all of the first k of them (psi_k, OEIS A014233;
# psi_12 and psi_13 from Sorenson & Webster).  Below psi_k the first k
# bases decide primality, so the test stops there.
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSI = (
    2047,
    1373653,
    25326001,
    3215031751,
    2152302898747,
    3474749660383,
    341550071728321,
    341550071728321,
    3825123056546413051,
    3825123056546413051,
    3825123056546413051,
    318665857834031151167461,
    3317044064679887385961981,
)
PRIMALITY_BOUND = _PSI[-1]


def is_prime(n: int) -> bool:
    """Deterministic primality test, exact for n < PRIMALITY_BOUND.

    Trial division by the 13 bases settles every n < 43**2; above that, a
    strong probable-prime test runs base by base and stops at the first k
    with n < psi_k.  Raises ValueError at or above PRIMALITY_BOUND, where
    13 bases no longer prove anything.
    """
    if n < 2:
        return False
    for b in _BASES:
        if n % b == 0:
            return n == b
    if n < 43 * 43:
        return True
    if n >= PRIMALITY_BOUND:
        raise ValueError(f"primality of {n} >= {PRIMALITY_BOUND} is not decided")
    odd, twos = n - 1, 0
    while not odd & 1:
        odd >>= 1
        twos += 1
    for b, psi in zip(_BASES, _PSI):
        x = pow(b, odd, n)
        if x != 1 and x != n - 1:
            for _ in range(twos - 1):
                x = x * x % n
                if x == n - 1:
                    break
            else:
                return False
        if n < psi:
            return True
    return True


def smallest_prime_geq(m: int) -> int:
    """The least prime >= m, for m >= 2.

    Bertrand's postulate puts the answer below 2m, so the linear scan
    terminates quickly at the scales this package works at.
    """
    if m < 2:
        raise ValueError(f"no primes are searched below 2 (got m={m})")
    candidate = m
    while not is_prime(candidate):
        candidate += 1
    return candidate


def validate_prime_modulus(modulus: int) -> int:
    """Check that ``modulus`` is a prime below PRIMALITY_BOUND."""
    if modulus >= PRIMALITY_BOUND:
        raise ValueError(f"modulus {modulus} >= {PRIMALITY_BOUND} is not supported")
    if not is_prime(modulus):
        raise ValueError(f"modulus {modulus} is not prime")
    return modulus


def inv_mod(a: int, modulus: int) -> int:
    """Multiplicative inverse of ``a`` modulo a prime."""
    a %= modulus
    if a == 0:
        raise ZeroDivisionError(f"0 is not invertible modulo {modulus}")
    return pow(a, -1, modulus)


def solve_moments(nodes, rhs, modulus: int) -> tuple[int, ...]:
    """Solve sum_i nodes[i]**j * x[i] = rhs[j] (mod modulus), j < len(nodes).

    The transposed Vandermonde system is inverted in closed form (the
    Lagrange form Forney's erasure evaluator takes).  With
    P(z) = prod_i (z - nodes[i]) and P_i(z) = P(z) / (z - nodes[i]) =
    sum_j c_ij z**j, the sum sum_j c_ij * rhs[j] equals x[i] * P_i(nodes[i]),
    and P_i(nodes[i]) = P'(nodes[i]).  One synthetic division per node gives
    both, so the solve costs O(m**2) products and m inversions for m nodes.
    Nodes are taken mod the (prime) modulus, so node p is node 0 and needs
    no special case; nodes that collide there leave P' zero and raise
    ValueError.  Only the first len(nodes) entries of ``rhs`` are read.
    Returns residues in [0, modulus).

    The decoding core in ``errors`` finds every value through it, at the
    error locator's roots and the known nodes (the erased positions, or
    position n in the second phase at n = p) together.
    """
    p = modulus
    m = len(nodes)
    # Descending coefficients of P: P(z) = sum_t poly[t] * z**(m-t).
    poly = [1]
    for x in nodes:
        poly.append(0)
        for t in range(len(poly) - 1, 0, -1):
            poly[t] = (poly[t] - x * poly[t - 1]) % p
    solved = []
    for x in nodes:
        # c runs over the coefficients of P_i from z**(m-1) down, each
        # paired with rhs[j] for its power j; deriv is Horner's P_i(x).
        c = deriv = 1
        acc = rhs[m - 1]
        for t in range(1, m):
            c = (poly[t] + x * c) % p
            acc += c * rhs[m - 1 - t]
            deriv = (deriv * x + c) % p
        if not deriv:
            raise ValueError(f"nodes {tuple(nodes)} collide modulo {p}")
        solved.append(acc * pow(deriv, -1, p) % p)
    return tuple(solved)
