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
"""

from __future__ import annotations

from .core import CodeSpec, Offset, Word
from .errors import _decode, _syndrome_parts


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
    result = _decode(word, symbols, spec, offset, shift, moments, erased, 0, True)
    if type(result) is str:
        raise InconsistentWordError(
            result if m else "word has no erasures and is not a coset member"
        )
    return result
