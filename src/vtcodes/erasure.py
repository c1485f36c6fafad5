"""Erasure decoding: filling in up to d-1 missing symbols of a coset member.

The kept symbols pin down every checksum of the erased part: the plain sum
exactly (it is a residue mod sum_modulus that also fits below it), the
weighted sums modulo the prime.  The first m of those moments form a
Vandermonde system in the m erased symbols, which ``solve_moments`` solves
in closed form from the erasure locator, in O(m**2) steps with no
elimination.  The solution is a coset member exactly when it lifts into
the alphabet, its plain sum equals the erased part's exact sum, and the
remaining moments m .. d-2 hold; checking that costs O(m*d), so no second
pass over the word is made.

The word is read through the working form ``core.validate_word`` makes of
it, which holds 0 at the erased positions and lists them; the recovered
symbols are written into it and ``core._as_tuple`` returns the completed
word.
"""

from __future__ import annotations

from .core import (
    CodeSpec,
    Offset,
    Word,
    _as_tuple,
    _masked_sums,
    validate_offset,
    validate_word,
)
from .modarith import solve_moments


class InconsistentWordError(Exception):
    """No coset member agrees with the non-erased symbols."""


def decode_erasures(word: Word, spec: CodeSpec, offset: Offset) -> Word:
    """Recover the unique coset member matching ``word`` off its erasures.

    Requires at most d-1 erased positions (more is a usage error, not an
    inconsistency).  Raises InconsistentWordError when no completion exists:
    a recovered symbol falls outside [0, q-1], a residual moment equation
    fails, or the completed word is not a coset member.
    """
    offset = validate_offset(offset, spec)
    symbols, erased = validate_word(word, spec, allow_erasures=True)
    m = len(erased)
    if m > spec.d - 1:
        raise ValueError(f"{m} erasures exceed the guaranteed limit d-1 = {spec.d - 1}")

    p = spec.power_modulus
    kept_plain, kept_weighted = _masked_sums(symbols, spec)

    # The plain sum of the erased symbols is at most (d-1)(q-1), one below
    # sum_modulus, so its residue determines it exactly.
    erased_plain = (offset[0] - kept_plain) % spec.sum_modulus
    rhs = [erased_plain % p] + [
        (offset[j] - kept_weighted[j - 1]) % p for j in range(1, spec.d - 1)
    ]
    if m == 0:
        if erased_plain or any(rhs):
            raise InconsistentWordError("word has no erasures and is not a coset member")
        return _as_tuple(word, symbols)

    solved = solve_moments(erased, rhs, p)

    for k, v in zip(erased, solved):
        if v >= spec.q:
            raise InconsistentWordError(
                f"recovered symbol {v} at position {k} outside [0, {spec.q - 1}]"
            )

    # The solve meets moments 0 .. m-1 mod p; the rest are checked here,
    # with powers k**j carried from one j to the next.
    powers = [pow(k, m, p) for k in erased]
    for j in range(m, spec.d - 1):
        if sum(w * v for w, v in zip(powers, solved)) % p != rhs[j]:
            raise InconsistentWordError(
                f"moment equation {j} unsatisfied by the recovered symbols"
            )
        powers = [w * k % p for w, k in zip(powers, erased)]

    # Moment 0 held only mod p.  The completed word's plain sum matches
    # offset[0] mod sum_modulus exactly when the recovered symbols add up to
    # erased_plain, as both lie in [0, sum_modulus): 0 <= sum <= m(q-1).
    if sum(solved) != erased_plain:
        raise InconsistentWordError("completed word fails the membership check")

    # validate_word's working form is the caller's own, so it is filled in
    # place.
    for k, v in zip(erased, solved):
        symbols[k - 1] = v
    return _as_tuple(word, symbols, erased)
