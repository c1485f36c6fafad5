"""Erasure decoding: filling in up to d-1 missing symbols of a coset member.

The erased positions are the known nodes of the decoding core in
``errors``, with no further errors to look for.  They read 0 in the
working form ``core.validate_word`` makes, so the plain syndrome is the
erased symbols' exact sum, negated: it is at most (d-1)(q-1), one below
sum_modulus.  The first m moments give the m erased symbols in closed form
(O(m**2)).  The completion is a coset member exactly when each lies in the
alphabet, the modified moments vanish from coefficient m on (O(m*d)), and
they add up to the exact plain sum, so no second pass over the word is
made.

For one erasure mask both steps are fixed linear maps mod the prime.
``_decode_rows`` applies them to many words of one spec at once, for the
exhaustive checks in ``oracle``: it builds each map by running the core's
own ``solve_moments`` and ``_modified_moments`` on unit vectors, lifts the
plain sum with the core's ``_lift``, and makes the same three checks as
array masks.
"""

from __future__ import annotations

import numpy as np

from .core import CodeSpec, Offset, Word, _as_tuple
from .errors import _decode, _lift, _modified_moments, _syndrome_parts
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
    shift, moments, symbols, erased = _syndrome_parts(word, spec, offset, 0, True)
    m = len(erased)
    if m > spec.d - 1:
        raise ValueError(f"{m} erasures exceed the guaranteed limit d-1 = {spec.d - 1}")
    nodes = _decode(symbols, spec, offset, shift, moments, erased, 0, True)
    if type(nodes) is str:
        raise InconsistentWordError(
            nodes if m else "word has no erasures and is not a coset member"
        )
    return _as_tuple(word, symbols, nodes)


def _row_dtype(spec: CodeSpec):
    """The dtype of _decode_rows' arrays for ``spec``.

    Its largest product is a sum of at most d-1 terms, each a symbol times
    a power mod p or two residues mod p.  While (d-1)*max(q-1, p-1)*(p-1)
    stays below 2**62, that sum and the differences formed with it fit
    int64; beyond it the arrays hold Python ints (dtype object), and the
    same code runs exactly at any size.
    """
    p = spec.power_modulus
    if (spec.d - 1) * max(spec.q - 1, p - 1) * (p - 1) < 1 << 62:
        return np.int64
    return object


def _decode_rows(
    symbols: np.ndarray,
    sums: np.ndarray,
    offsets: np.ndarray,
    spec: CodeSpec,
    erased: list[int],
) -> tuple[np.ndarray, np.ndarray]:
    """decode_erasures on every row at once, under one erasure mask.

    Row r of ``symbols`` is the working form of a whole word (from
    validate_word), row r of ``sums`` its ``core._masked_sums`` (the exact
    plain sum, then the weighted sums mod p) and row r of ``offsets`` its
    validated offset, all of dtype _row_dtype(spec).  The symbols at the
    1-based ``erased`` positions are ignored: their terms are subtracted
    from the sums, m*(d-1) per row.  Returns ``(filled, accepted)``: per
    row the symbols recovered at the erased positions, and whether
    decode_erasures would accept that completion.
    """
    p, k, m = spec.power_modulus, spec.d - 1, len(erased)
    dtype = symbols.dtype
    powers = np.array([[pow(i, j, p) for j in range(k)] for i in erased], dtype=dtype)
    lost = symbols[:, [i - 1 for i in erased]] @ powers.reshape(m, k)
    shift = _lift(sums[:, 0] - lost[:, 0], offsets[:, 0], 0, spec.sum_modulus)
    moments = (sums - lost - offsets) % p
    moments[:, 0] = shift % p
    # Both steps are linear mod p, so row j of the map is their image of
    # unit vector j: the negated solve gives each erased symbol, and the
    # modified moments (columns m on) must vanish.
    maps = []
    for j in range(k):
        unit = [0] * k
        unit[j] = 1
        solved = [-v % p for v in solve_moments(erased, unit, p)]
        maps.append(solved + _modified_moments(unit, erased, p))
    out = moments @ np.array(maps, dtype=dtype) % p
    filled = out[:, :m]
    accepted = (
        (filled < spec.q).all(axis=1)
        & ~out[:, m:].any(axis=1)
        & (filled.sum(axis=1) == -shift)
    )
    return filled, accepted
