"""Arithmetic over prime residue fields, on plain Python ints.

Everything here is exact at any size of modulus.  validate_prime_modulus
caps a modulus below 2**31; it guards only an explicit
``CodeSpec.power_modulus``, a ``KeyEquationState`` and the moduli given to
``bounds``, not the default one (the least prime >= max(n, q)), which can
be far larger.  Erasure decoding (``solve_moments``) runs under no cap,
and the vectorised kernel in ``core`` checks its own float64-exactness
bound and falls back to exact ints.
"""

from __future__ import annotations

MAX_MODULUS = 1 << 31


def is_prime(n: int) -> bool:
    """Deterministic trial-division primality test."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
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
    """Check that ``modulus`` is a prime small enough for 64-bit products."""
    if modulus >= MAX_MODULUS:
        raise ValueError(f"modulus {modulus} >= 2**31 is not supported")
    if not is_prime(modulus):
        raise ValueError(f"modulus {modulus} is not prime")
    return modulus


def inv_mod(a: int, modulus: int) -> int:
    """Multiplicative inverse of ``a`` modulo a prime."""
    a %= modulus
    if a == 0:
        raise ZeroDivisionError(f"0 is not invertible modulo {modulus}")
    return pow(a, modulus - 2, modulus)


def eval_poly_mod(coeffs: list[int] | tuple[int, ...], x: int, modulus: int) -> int:
    """Evaluate a polynomial given by ascending coefficients, via Horner."""
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % modulus
    return acc


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
