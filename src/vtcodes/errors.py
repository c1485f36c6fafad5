"""Errors-and-erasures decoding: one core for erasures, substitutions and
the final position when n equals the prime.

The moment syndromes S_j = sum_k e_k * k**j, j < d-1, of the difference
e = received - sent form a generalized Reed-Solomon syndrome over the prime
field with evaluation points 1..n.  One private core decodes from them.
It is given the positions already known to be damaged, its known nodes,
and a budget of further error positions to look for, and it is called
three ways:

* ``erasure.decode_erasures``: the erased positions are known (they read 0
  in the working form), and the budget is 0.
* ``decode_errors``: nothing is known, and the budget is floor((d-1)/2).
* When n equals the prime modulus, position n has locator 0 and cannot be
  seen by the locator polynomial.  A second phase of ``decode_errors``
  knows position n and looks for one error fewer.

The core follows Forney's modified syndromes ("On decoding BCH codes",
1965).  Multiplying the moment series by Gamma(z) = prod (1 - k*z) over the
known nodes removes their trace from every coefficient from len(known) on,
which leaves the syndrome of the unknown errors alone.  A node k = 0 mod
the prime (position n when n = p) gives the factor 1, so it only drops the
leading moment.  Berlekamp-Massey (Massey, "Shift-register synthesis and
BCH decoding", 1969) and a root scan over the positions
(``core._locator_roots``, which never reports such a node) find the
unknown errors; with budget 0 the modified moments must vanish instead.
One call to ``modarith.solve_moments`` then gives the values at the roots
and the known nodes together.  Two wrinkles are specific to this family:

* The plain-sum syndrome lives modulo ``sum_modulus``.  Its representative
  in (hi - sum_modulus, hi], where hi is q-1 times the number of error
  positions allowed (position n counted), is the exact integer sum of the
  magnitudes: an error adds at most q-1 and an erased symbol x adds -x.
  It is formed once per decode.  Only its mod-prime shadow joins the
  moment sequence, and a candidate is accepted only if its magnitudes add
  up to it exactly.
* Each value is a residue mod the prime.  It lifts to the unique integer
  that pulls the received symbol back into the alphabet, or the candidate
  is rejected.  An error's magnitude must be nonzero; an erased symbol may
  be 0.

The word is read only through the working form ``core.validate_word``
makes of it, which the decoder owns: the syndromes and the values come
from it, the candidate is patched into it (and the patch undone if
rejected), and ``core._as_tuple`` turns the accepted candidate into the
returned tuple.  Whether a decode runs vectorised or on plain ints is
decided in ``core`` alone, by one predicate on the spec
(``core._vectorised``): it picks the working form, an int64 array or a
list of Python ints, and the branch of the root scan.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    CodeSpec,
    Offset,
    Symbols,
    Word,
    _as_tuple,
    _locator_roots,
    _masked_sums,
    is_codeword,
    read_integer,
    validate_offset,
    validate_word,
)
from .modarith import inv_mod, solve_moments, validate_prime_modulus


class UncorrectableError(Exception):
    """No coset member lies within the correction radius of the input."""


def _lift(plain, offset0, hi: int, sum_modulus: int):
    """The exact plain sum of the magnitudes: the representative of
    plain - offset0 in (hi - sum_modulus, hi].

    ``plain`` and ``offset0`` are Python ints or integer arrays (one entry
    per word), whose ``%`` takes the sign of the modulus like an int's.
    """
    return hi - (hi - plain + offset0) % sum_modulus


def _syndrome_parts(
    received: Word, spec: CodeSpec, offset: Offset, hi: int, erasures: bool = False
) -> tuple[int, list[int], Symbols, list[int]]:
    """(exact plain sum of the magnitudes, moments mod prime, the word's
    working form from validate_word, its erased positions).

    The magnitudes are received - sent, an erased symbol read as 0.  Their
    plain sum is known mod sum_modulus and lifted by _lift; moment 0 is
    that sum mod the prime.
    """
    offset = validate_offset(offset, spec)
    symbols, erased = validate_word(received, spec, allow_erasures=erasures)
    plain, weighted = _masked_sums(symbols, spec)
    p = spec.power_modulus
    shift = _lift(plain, offset[0], hi, spec.sum_modulus)
    tail = [(w - offset[j]) % p for j, w in enumerate(weighted, start=1)]
    return shift, [shift % p, *tail], symbols, erased


def compute_error_syndrome(
    received: Word, spec: CodeSpec, offset: Offset
) -> tuple[int, ...]:
    """Moment syndromes of the error vector, reduced modulo the prime.

    Entry 0 is the mod-prime shadow of the centered plain-sum shift, its
    representative in [-(sum_modulus-1)//2, sum_modulus//2]; note that
    shadow can vanish while the shift itself does not, so codeword
    detection must use the exact shift (as the decoders here do).
    """
    _, moments, _, _ = _syndrome_parts(received, spec, offset, spec.sum_modulus // 2)
    return tuple(moments)


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
        if type(self.modulus) is not int:
            modulus = read_integer(self.modulus, f"modulus = {self.modulus!r}")
            object.__setattr__(self, "modulus", modulus)
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


def _lifted(
    nodes: list[int], moments: list[int], spec: CodeSpec, received, erasures: bool
) -> list[int] | str:
    """The integer magnitude at each node, or why there is none.

    The magnitudes solve the first len(nodes) moments mod the prime.  Each
    residue lifts to the unique integer that pulls the received symbol back
    into the alphabet.  An error's magnitude must be nonzero; where the
    nodes are ``erasures`` the recovered symbol may be 0.
    """
    p = spec.power_modulus
    mags = []
    for k, residue in zip(nodes, solve_moments(nodes, moments, p)):
        symbol = received[k - 1]
        sent = (symbol - residue) % p
        if sent >= spec.q:
            return f"recovered symbol {sent} at position {k} outside [0, {spec.q - 1}]"
        if not (residue or erasures):
            return f"zero magnitude at position {k}"
        mags.append(symbol - sent)
    return mags


def locate_and_evaluate(
    state: KeyEquationState, spec: CodeSpec, received: Word
) -> ErrorVector:
    """Error positions and integer magnitudes from a key-equation state.

    Magnitude residues are lifted to the unique integers that pull the
    received symbols back into the alphabet.  Raises UncorrectableError when
    the root count disagrees with the locator degree or a lift fails.
    """
    lam = list(state.locator)
    roots = _locator_roots(lam, spec) if len(lam) > 1 else []
    if len(roots) == len(lam) - 1 <= len(state.syndromes):
        mags = _lifted(roots, list(state.syndromes), spec, received, False)
        if type(mags) is list:
            return ErrorVector(tuple(zip(roots, mags)))
    raise UncorrectableError("locator roots or magnitudes are inconsistent")


def _modified_moments(moments: list[int], known: list[int], p: int) -> list[int]:
    """Gamma(z) = prod (1 - k*z) over the known nodes k times the moment
    series, from coefficient len(known) on, where no known node leaves a
    trace (Forney's modified syndromes).

    One in-place pass of (1 - k*z) per node; a node k = p gives the factor
    1, so it only drops moment 0.  None are left when every moment is spent
    on a known node.
    """
    if len(known) >= len(moments):
        return []
    modified = moments[:]
    for k in known:
        if k != p:
            for j in range(len(modified) - 1, 0, -1):
                modified[j] = (modified[j] - k * modified[j - 1]) % p
    del modified[: len(known)]
    return modified


def _decode(
    received: Word,
    symbols: Symbols,
    spec: CodeSpec,
    offset: Offset,
    shift: int,
    moments: list[int],
    known: list[int],
    budget: int,
    erasures: bool,
) -> Word | str:
    """The coset member that differs from the received word at most at the
    ``known`` nodes and ``budget`` more positions, or why there is none.

    ``shift`` and ``moments`` come from _syndrome_parts, with hi q-1 times
    the error positions allowed (0 for erasures).  With ``erasures`` the known
    nodes are erased positions; otherwise they are errors, and the
    candidate is also checked by ``is_codeword``.  The candidate is patched
    into ``symbols``, and the patch undone if it is rejected, since a later
    phase reads the received symbols from it.
    """
    p = spec.power_modulus
    modified = _modified_moments(moments, known, p) if known else moments
    nodes = known
    if budget:
        lam, length = berlekamp_massey(modified, p)
        if length > budget or len(lam) - 1 != length:
            return "no locator within the budget"
        if length:
            roots = _locator_roots(lam, spec)
            if len(roots) != length:
                return "the locator has too few roots among the positions"
            nodes = roots + known
    mags = _lifted(nodes, moments, spec, symbols, erasures)
    if type(mags) is str:
        return mags
    if not budget:
        # No unknown errors: the known nodes must explain every moment.  An
        # out-of-range value above is the reason an erasure decode reports
        # first.
        for j, residual in enumerate(modified, start=len(known)):
            if residual:
                return f"moment equation {j} unsatisfied by the recovered symbols"
    # The solve meets moment 0 only mod p; the exact plain sum decides.
    if sum(mags) != shift:
        return "completed word fails the membership check"
    for k, mag in zip(nodes, mags):
        symbols[k - 1] -= mag
    if erasures or is_codeword(symbols, spec, offset):
        return _as_tuple(received, symbols, nodes)
    for k, mag in zip(nodes, mags):
        symbols[k - 1] += mag
    return "the candidate is not a coset member"


def decode_errors(received: Word, spec: CodeSpec, offset: Offset) -> Word:
    """Correct up to floor((d-1)/2) substitutions, or fail loudly.

    Sound under any input: every returned word is a verified coset member
    within the correction radius of the received word, and with at most
    that many substitutions the unique closest member is the sent one.
    """
    radius = spec.correction_radius
    hi = (spec.q - 1) * radius
    shift, moments, symbols, _ = _syndrome_parts(received, spec, offset, hi)
    if not (shift or any(moments)):
        return _as_tuple(received, symbols)
    result = _decode(received, symbols, spec, offset, shift, moments, [], radius, False)
    if type(result) is str and spec.n == spec.power_modulus:
        # Position n has locator 0, which no locator root reaches.
        known = [spec.n]
        result = _decode(
            received, symbols, spec, offset, shift, moments, known, radius - 1, False
        )
    if type(result) is str:
        raise UncorrectableError(
            f"no coset member within {radius} substitutions of the received word"
        )
    return result
