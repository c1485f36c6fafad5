"""Substitution-error decoding, up to floor((d-1)/2) wrong symbols.

The moment syndromes of the error vector form a generalized Reed-Solomon
syndrome over the prime field with evaluation points 1..n, so the classic
chain applies: Berlekamp-Massey for the error-locator polynomial and an
exhaustive root scan over the positions.  Once the positions are known the
magnitudes solve the same moment system the erasure decoder solves, through
``modarith.solve_moments``.  Two wrinkles are specific to this family:

* The plain-sum syndrome lives modulo ``sum_modulus``; its centered lift is
  the exact integer sum of the error magnitudes and only its mod-prime
  shadow joins the moment sequence.  Acceptance of a candidate always
  re-checks the exact congruence, never just the shadow.

* When n equals the prime modulus, position n has locator 0 and cannot be
  seen by the locator polynomial.  A second decoding phase hypothesises an
  error there: the other positions come from the moment sequence without
  its plain-sum term, where position n leaves no trace, and position n
  joins them as one more node of the magnitude solve (node n is node 0
  mod the prime).  A magnitude is below the prime in absolute value, so
  its residue lifts to it exactly.

The word is read only through the working form ``core.validate_word``
makes of it, an int64 array or a list of Python ints that the decoder
owns: the syndromes, the magnitudes and the candidate come from it, the
candidate is patched into it (and the patch undone if rejected), and
``core._as_tuple`` turns the accepted candidate into the returned tuple.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    CodeSpec,
    Offset,
    Symbols,
    Word,
    _VECTOR_MIN_LENGTH,
    _as_tuple,
    _masked_sums,
    _position_roots,
    is_codeword,
    validate_offset,
    validate_word,
)
from .modarith import inv_mod, solve_moments, validate_prime_modulus


class UncorrectableError(Exception):
    """No coset member lies within the correction radius of the input."""


def centered_lift(residue: int, modulus: int) -> int:
    """The representative of ``residue`` in [-(modulus-1)//2, modulus//2].

    Any integer of absolute value at most (modulus-1)/2 is recovered exactly
    from its residue, which is what makes the plain-sum syndrome exact.
    """
    r = residue % modulus
    return r if r <= modulus // 2 else r - modulus


def _syndrome_parts(
    received: Word, spec: CodeSpec, offset: Offset
) -> tuple[int, list[int], Symbols]:
    """(exact integer sum of error magnitudes, weighted syndromes mod prime,
    the word's working form from validate_word).
    """
    offset = validate_offset(offset, spec)
    symbols, _ = validate_word(received, spec)
    plain, weighted = _masked_sums(symbols, spec)
    shift = centered_lift(plain - offset[0], spec.sum_modulus)
    p = spec.power_modulus
    tail = [(w - offset[j]) % p for j, w in enumerate(weighted, start=1)]
    return shift, tail, symbols


def compute_error_syndrome(
    received: Word, spec: CodeSpec, offset: Offset
) -> tuple[int, ...]:
    """Moment syndromes of the error vector, reduced modulo the prime.

    Entry 0 is the mod-prime shadow of the centered plain-sum shift; note
    that shadow can vanish while the shift itself does not, so codeword
    detection must use the exact shift (as the decoders here do).
    """
    shift, tail, _ = _syndrome_parts(received, spec, offset)
    return (shift % spec.power_modulus, *tail)


def berlekamp_massey(
    syndromes: list[int] | tuple[int, ...], modulus: int
) -> tuple[list[int], int]:
    """Minimal LFSR for the syndrome sequence over the prime field.

    Returns (connection polynomial, register length).  The polynomial is in
    ascending order with constant term 1 and trailing zeros trimmed; its
    degree equals the register length exactly when the sequence is
    consistent with that many error locations, so callers treat a mismatch
    as a decoding failure.

    Massey's algorithm ("Shift-register synthesis and BCH decoding", 1969)
    on two coefficient lists of fixed length, updated in place.  A
    discrepancy is summed in plain ints and reduced once, and the previous
    discrepancy is inverted only when the register length changes.
    """
    p = modulus
    seq = [s % p for s in syndromes]
    lam = [1] + [0] * len(seq)
    prev = lam[:]
    length = 0
    gap = 1
    prev_inv = 1
    for i, s in enumerate(seq):
        disc = s
        for j in range(1, length + 1):
            disc += lam[j] * seq[i - j]
        disc %= p
        if disc == 0:
            gap += 1
            continue
        coef = disc * prev_inv % p
        grows = 2 * length <= i
        if grows:
            stash = lam[:]
        # x**gap * prev has degree at most i + 1 - length.
        for j in range(i + 2 - length - gap):
            lam[j + gap] = (lam[j + gap] - coef * prev[j]) % p
        if grows:
            prev = stash
            prev_inv = inv_mod(disc, p)
            length = i + 1 - length
            gap = 1
        else:
            gap += 1
    while len(lam) > 1 and lam[-1] == 0:
        lam.pop()
    return lam, length


def _poly_mul_trunc(a: list[int], b: list[int], p: int, count: int) -> list[int]:
    out = [0] * count
    for i, ai in enumerate(a):
        if ai == 0 or i >= count:
            continue
        for j, bj in enumerate(b):
            if i + j >= count:
                break
            out[i + j] = (out[i + j] + ai * bj) % p
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


@dataclass(frozen=True)
class ErrorVector:
    """Sparse difference received - sent: (position, magnitude) pairs.

    Positions are 1-indexed, strictly increasing; magnitudes are nonzero
    integers in [-(q-1), q-1].
    """

    entries: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        last = 0
        for pos, mag in self.entries:
            if pos <= last:
                raise ValueError("positions must be strictly increasing")
            if mag == 0:
                raise ValueError(f"zero magnitude at position {pos}")
            last = pos


@dataclass(frozen=True)
class KeyEquationState:
    """Syndromes with the locator/evaluator pair derived from them.

    The evaluator is validated against syndromes * locator, but decoding
    reads only the locator and the syndromes: the magnitudes solve the
    moment system at the locator's roots.
    """

    syndromes: tuple[int, ...]
    locator: tuple[int, ...]
    evaluator: tuple[int, ...]
    modulus: int

    def __post_init__(self) -> None:
        validate_prime_modulus(self.modulus)
        if not self.locator or self.locator[0] % self.modulus != 1:
            raise ValueError("locator must have constant term 1")
        expected = _poly_mul_trunc(
            list(self.locator), list(self.syndromes), self.modulus, len(self.syndromes)
        )
        given = list(self.evaluator) if self.evaluator else [0]
        while len(given) > 1 and given[-1] == 0:
            given.pop()
        if [c % self.modulus for c in given] != expected:
            raise ValueError("evaluator does not match syndromes * locator")
        if len(given) > 1 and len(given) >= len(self.locator):
            raise ValueError("evaluator degree must stay below the locator degree")


def _locator_roots(lam: list[int], spec: CodeSpec) -> list[int]:
    """Positions k whose locator (k mod prime) inverts to a root of lam.

    Evaluates k**deg * lam(1/k), the reversed polynomial at k, which avoids
    one modular inversion per position.  From n = 64 on that is one
    vectorised pass over the positions through core's power tables, exact
    in float64 under a 2**53 bound; specs and locators beyond it, and every
    n < 64, run a Horner loop in plain ints over lam's own coefficients.  A
    position with locator 0 (only k = n when n equals the prime) can never
    appear here.
    """
    p = spec.power_modulus
    n = spec.n
    if n >= _VECTOR_MIN_LENGTH:
        roots = _position_roots(lam[::-1], spec)
        if roots is not None:
            return [k for k in roots if k % p != 0]
    # At k = p the loop leaves lam's nonzero leading coefficient.
    roots = []
    for k in range(1, n + 1):
        acc = 0
        for c in lam:
            acc = (acc * k + c) % p
        if acc == 0:
            roots.append(k)
    return roots


def _magnitude_entries(
    lam: list[int],
    moments: list[int],
    spec: CodeSpec,
    received: Word,
    extra: tuple[int, ...] = (),
) -> list[tuple[int, int]] | None:
    """Root scan plus moment solve; None on any inconsistency.

    The nodes are the locator's roots and the ``extra`` positions; their
    magnitudes solve the first moments mod the prime (more nodes than
    moments leave them undetermined).  Each residue is lifted to the
    unique integer that pulls the received symbol back into the alphabet.
    """
    p = spec.power_modulus
    roots = _locator_roots(lam, spec) if len(lam) > 1 else []
    nodes = roots + list(extra)
    if len(roots) != len(lam) - 1 or len(nodes) > len(moments):
        return None
    entries = []
    for k, residue in zip(nodes, solve_moments(nodes, moments, p)):
        if residue == 0:
            return None
        sent = (received[k - 1] - residue) % p
        if sent >= spec.q:
            return None
        entries.append((k, received[k - 1] - sent))
    return entries


def locate_and_evaluate(
    state: KeyEquationState, spec: CodeSpec, received: Word
) -> ErrorVector:
    """Error positions and integer magnitudes from a key-equation state.

    Magnitude residues are lifted to the unique integers that pull the
    received symbols back into the alphabet.  Raises UncorrectableError when
    the root count disagrees with the locator degree or a lift fails.
    """
    entries = _magnitude_entries(
        list(state.locator), list(state.syndromes), spec, received
    )
    if entries is None:
        raise UncorrectableError("locator roots or magnitudes are inconsistent")
    return ErrorVector(tuple(entries))


def _corrected(
    received: Word,
    symbols: Symbols,
    entries: list[tuple[int, int]],
    spec: CodeSpec,
    offset: Offset,
) -> Word | None:
    """The received word minus the error entries, if that is a coset member.

    The candidate is validate_word's working form of the received word,
    patched in place through the membership check; it becomes a tuple only
    for the return value.  A rejected patch is undone, since a later phase
    reads the received symbols from it.
    """
    changed = []
    for pos, mag in entries:
        symbols[pos - 1] -= mag
        changed.append(pos)
    if is_codeword(symbols, spec, offset):
        return _as_tuple(received, symbols, changed)
    for pos, mag in entries:
        symbols[pos - 1] += mag
    return None


def _attempt(
    received: Word,
    symbols: Symbols,
    spec: CodeSpec,
    offset: Offset,
    moments: list[int],
    max_errors: int,
    phase_two: bool,
) -> Word | None:
    """One decoding phase; phase two puts an error at position n (n = p).

    Phase two runs Berlekamp-Massey without the plain-sum moment, in which
    position n leaves no trace, and solves position n as one more node.
    """
    lam, length = berlekamp_massey(moments[phase_two:], spec.power_modulus)
    if length > max_errors or len(lam) - 1 != length:
        return None
    extra = (spec.n,) if phase_two else ()
    entries = _magnitude_entries(lam, moments, spec, symbols, extra)
    if entries is None:
        return None
    return _corrected(received, symbols, entries, spec, offset)


def decode_errors(received: Word, spec: CodeSpec, offset: Offset) -> Word:
    """Correct up to floor((d-1)/2) substitutions, or fail loudly.

    Sound under any input: every returned word is a verified coset member
    within the correction radius of the received word, and with at most
    that many substitutions the unique closest member is the sent one.
    """
    shift, tail, symbols = _syndrome_parts(received, spec, offset)
    if shift == 0 and not any(tail):
        return _as_tuple(received, symbols)
    p = spec.power_modulus
    radius = spec.correction_radius
    moments = [shift % p, *tail]
    result = _attempt(received, symbols, spec, offset, moments, radius, False)
    if result is None and spec.n == p:
        result = _attempt(received, symbols, spec, offset, moments, radius - 1, True)
    if result is None:
        raise UncorrectableError(
            f"no coset member within {radius} substitutions of the received word"
        )
    return result
