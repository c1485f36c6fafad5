"""Arithmetic over prime residue fields, on plain Python ints.

validate_prime_modulus caps a modulus below 2**31, so that a product of two
reduced residues fits a 64-bit word.  It guards the moduli given here and an
explicit ``CodeSpec.power_modulus``, not the default one (the least prime
>= max(n, q)), which can be far larger; the vectorised kernel in ``core``
therefore checks its own int64 bounds and falls back to exact ints.
"""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass(frozen=True)
class VandermondeSystem:
    """The moment equations sum_i nodes[i]**j * x[i] = rhs[j] (mod modulus).

    One equation per j = 0 .. len(rhs)-1.  Nodes must be pairwise distinct
    modulo the (prime) modulus or the system is not uniquely solvable.
    """

    nodes: tuple[int, ...]
    rhs: tuple[int, ...]
    modulus: int

    def __post_init__(self) -> None:
        validate_prime_modulus(self.modulus)
        if len(self.nodes) != len(self.rhs):
            raise ValueError(
                f"{len(self.nodes)} nodes but {len(self.rhs)} right-hand sides"
            )
        if not self.nodes:
            raise ValueError("empty system")
        reduced = [k % self.modulus for k in self.nodes]
        if len(set(reduced)) != len(reduced):
            raise ValueError(f"nodes {self.nodes} collide modulo {self.modulus}")


def vandermonde_solve(system: VandermondeSystem) -> tuple[int, ...]:
    """Solve a Vandermonde moment system by Gaussian elimination.

    Systems here are tiny (at most a handful of unknowns), so cubic
    elimination is the simplest correct tool.  Returns residues in
    [0, modulus).
    """
    p = system.modulus
    m = len(system.nodes)
    rows = []
    for j in range(m):
        rows.append([pow(k, j, p) for k in system.nodes] + [system.rhs[j] % p])

    for col in range(m):
        pivot = next((r for r in range(col, m) if rows[r][col] % p != 0), None)
        if pivot is None:
            raise ValueError("singular system despite distinct nodes")
        rows[col], rows[pivot] = rows[pivot], rows[col]
        inv = inv_mod(rows[col][col], p)
        rows[col] = [v * inv % p for v in rows[col]]
        for r in range(m):
            if r != col and rows[r][col] % p != 0:
                factor = rows[r][col]
                rows[r] = [(v - factor * w) % p for v, w in zip(rows[r], rows[col])]

    return tuple(rows[i][m] for i in range(m))
