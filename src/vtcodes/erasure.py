"""Erasure decoding: filling in up to d-1 missing symbols of a coset member.

The kept symbols pin down every checksum of the erased part: the plain sum
exactly (it is a residue mod sum_modulus that also fits below it), the
weighted sums modulo the prime.  The erased symbols then solve a Vandermonde
moment system over the prime field, and the solution is accepted only if it
lifts into the alphabet and the completed word passes the membership check.
"""

from __future__ import annotations

import numpy as np

from .core import (
    _ERASED,
    CodeSpec,
    Offset,
    Word,
    _as_tuple,
    _masked_sums,
    is_codeword,
    validate_offset,
    validate_word,
)
from .modarith import VandermondeSystem, vandermonde_solve


class InconsistentWordError(Exception):
    """No coset member agrees with the non-erased symbols."""


def decode_erasures(word: Word, spec: CodeSpec, offset: Offset) -> Word:
    """Recover the unique coset member matching ``word`` off its erasures.

    Requires at most d-1 erased positions (more is a usage error, not an
    inconsistency).  Raises InconsistentWordError when no completion exists:
    a recovered symbol falls outside [0, q-1], a residual moment equation
    fails, or the completed word is not a coset member.
    """
    validate_offset(offset, spec)
    arr = validate_word(word, spec, allow_erasures=True)
    if arr is None:
        symbols = word.tolist() if isinstance(word, np.ndarray) else list(word)
        erased = [i for i, s in enumerate(symbols, start=1) if s is None]
    else:
        # validate_word's array is a copy of its own wherever it holds an
        # erasure, so it is filled in place.
        symbols = arr
        hits = np.flatnonzero(arr == _ERASED)
        erased = (hits + 1).tolist()
    m = len(erased)
    if m > spec.d - 1:
        raise ValueError(f"{m} erasures exceed the guaranteed limit d-1 = {spec.d - 1}")
    if m == 0:
        if is_codeword(symbols, spec, offset):
            return _as_tuple(word)
        raise InconsistentWordError("word has no erasures and is not a coset member")

    p = spec.power_modulus
    if arr is not None:
        arr[hits] = 0
    kept_plain, kept_weighted = _masked_sums(symbols, spec, arr)

    # The plain sum of the erased symbols is at most (d-1)(q-1), one below
    # sum_modulus, so its residue determines it exactly.
    erased_plain = (offset[0] - kept_plain) % spec.sum_modulus
    rhs_full = [erased_plain % p] + [
        (offset[j] - kept_weighted[j - 1]) % p for j in range(1, spec.d - 1)
    ]

    system = VandermondeSystem(
        nodes=tuple(k % p for k in erased), rhs=tuple(rhs_full[:m]), modulus=p
    )
    solved = vandermonde_solve(system)

    for k, v in zip(erased, solved):
        if v >= spec.q:
            raise InconsistentWordError(
                f"recovered symbol {v} at position {k} outside [0, {spec.q - 1}]"
            )

    for j in range(m, spec.d - 1):
        residual = sum(pow(k, j, p) * v for k, v in zip(erased, solved)) % p
        if residual != rhs_full[j]:
            raise InconsistentWordError(
                f"moment equation {j} unsatisfied by the recovered symbols"
            )

    for k, v in zip(erased, solved):
        symbols[k - 1] = v
    if not is_codeword(symbols, spec, offset):
        raise InconsistentWordError("completed word fails the membership check")
    return tuple(symbols) if arr is None else _as_tuple(word, arr, erased)
