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
  knows position n and looks for one error fewer (``_phases`` lists
  them).

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

The core works in two steps.  The candidate (``_candidate``) reads only
the moments: the modified moments, Berlekamp-Massey, the root scan and
the residues of the values.  Its acceptance reads the received symbols:
the lift into the alphabet, the nonzero magnitude, the exact plain sum,
the patch and, for errors, ``is_codeword``.  ``_error_rows`` decodes many
words under one substitution pattern with the same two steps: one
candidate per distinct row of moments, and the acceptance as array
masks.

The word is read only through the working form ``core.validate_word``
makes of it, which the decoder owns: the syndromes and the values come
from it, and the candidate is patched into it (the patch undone if
rejected).  The core returns the positions it changed, or why it found
none, and each public decoder builds its return from them at its one
exit by ``core._as_tuple``.  Whether a decode runs vectorised or on plain
ints is decided in ``core`` alone, by one predicate on the spec
(``core._vectorised``): it picks the working form, an int64 array or a
list of Python ints, and the branch of the root scan.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
    nodes: list[int], residues: tuple[int, ...], spec: CodeSpec, received, erasures: bool
) -> list[int] | str:
    """The integer magnitude at each node, or why there is none.

    Each residue mod the prime lifts to the unique integer that pulls the
    received symbol back into the alphabet.  An error's magnitude must be
    nonzero; where the nodes are ``erasures`` the recovered symbol may be 0.
    """
    p = spec.power_modulus
    mags = []
    for k, residue in zip(nodes, residues):
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
        residues = solve_moments(roots, list(state.syndromes), spec.power_modulus)
        mags = _lifted(roots, residues, spec, received, False)
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


def _phases(spec: CodeSpec) -> list[tuple[list[int], int]]:
    """(known nodes, budget) of each phase of decode_errors, in order.

    Phase one knows nothing and looks for up to the correction radius of
    errors.  When n equals the prime, position n has locator 0, which no
    locator root reaches: phase two knows it and looks for one error fewer.
    """
    radius = spec.correction_radius
    if spec.n == spec.power_modulus:
        return [([], radius), ([spec.n], radius - 1)]
    return [([], radius)]


def _candidate(
    spec: CodeSpec, moments: list[int], known: list[int], budget: int
) -> tuple[list[int], tuple[int, ...], list[int]] | str:
    """The first step of the core, which reads only the moments: the nodes
    they point to and the residue mod the prime of the value at each, with
    the modified moments that must vanish; or why there are none.

    The nodes are the ``known`` ones and, with a ``budget``, the roots of
    the Berlekamp-Massey locator of the modified moments; the residues
    solve the first len(nodes) moments.  With no budget the modified
    moments from len(known) on are left to vanish; with one, the locator
    has used them all and none are left.
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
        modified = []
    return nodes, solve_moments(nodes, moments, p), modified


def _decode(
    symbols: Symbols,
    spec: CodeSpec,
    offset: Offset,
    shift: int,
    moments: list[int],
    known: list[int],
    budget: int,
    erasures: bool,
) -> list[int] | str:
    """Patch into the received ``symbols`` the coset member that differs
    from them at most at the ``known`` nodes and ``budget`` more positions;
    return the 1-based positions it changed, or why there is none.

    The core's two steps: the candidate (_candidate), from the moments
    alone, then its acceptance, which reads the received symbols: each
    value lifts into the alphabet (_lifted), the modified moments left
    over vanish, and the magnitudes add up to the exact plain sum.
    ``shift`` and ``moments`` come from _syndrome_parts, with hi q-1 times
    the error positions allowed (0 for erasures).  With ``erasures`` the
    known nodes are erased positions; otherwise they are errors, and the
    patched word is also checked by ``is_codeword``.  A rejected patch is
    undone, since a later phase reads the received symbols from
    ``symbols``.
    """
    candidate = _candidate(spec, moments, known, budget)
    if type(candidate) is str:
        return candidate
    nodes, residues, residual = candidate
    mags = _lifted(nodes, residues, spec, symbols, erasures)
    if type(mags) is str:
        return mags
    # With no budget the known nodes must explain every moment.  An
    # out-of-range value above is the reason an erasure decode reports first.
    for j, value in enumerate(residual, start=len(known)):
        if value:
            return f"moment equation {j} unsatisfied by the recovered symbols"
    # The solve meets moment 0 only mod p; the exact plain sum decides.
    if sum(mags) != shift:
        return "completed word fails the membership check"
    for k, mag in zip(nodes, mags):
        symbols[k - 1] -= mag
    if erasures or is_codeword(symbols, spec, offset):
        return nodes
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
    nodes = []
    if shift or any(moments):
        for known, budget in _phases(spec):
            nodes = _decode(symbols, spec, offset, shift, moments, known, budget, False)
            if type(nodes) is not str:
                break
        else:
            raise UncorrectableError(
                f"no coset member within {radius} substitutions of the received word"
            )
    return _as_tuple(received, symbols, nodes)


def _error_rows(
    symbols: np.ndarray,
    sums: np.ndarray,
    offsets: np.ndarray,
    spec: CodeSpec,
    positions: list[int],
    bumps: tuple[int, ...],
) -> tuple[np.ndarray, np.ndarray]:
    """decode_errors on every row at once, under one substitution pattern.

    Row r of ``symbols``, ``sums`` and ``offsets`` is a word as
    ``erasure._decode_rows`` takes it: its working form, its
    ``core._masked_sums`` and its validated offset, of dtype
    ``erasure._row_dtype(spec)``.  The received word is that word with
    the symbol at each 1-based position of ``positions`` raised by its bump
    mod q; its sums are the word's plus the terms of the error,
    len(positions)*(d-1) per row.  Returns ``(decoded, accepted)``: per
    row the word decode_errors returns, and whether it returns one rather
    than raising.

    Each error is the bump, or the bump - q where the symbol wrapped, so
    over the members of a coset the moment rows of one pattern take at most
    2**t values.  Each phase's candidate (_candidate) is found once per
    distinct row of moments, and accepted by the checks _decode makes, as
    array masks over the rows that share it and that no earlier phase
    accepted: each recovered symbol lies in the alphabet and the
    magnitudes add up to the exact plain sum.  The membership check is not
    repeated: a candidate meets every moment mod p, so those checks already
    make the patched word a coset member.
    """
    p, q = spec.power_modulus, spec.q
    dtype = symbols.dtype
    cols = [k - 1 for k in positions]
    received = symbols.copy()
    received[:, cols] = (symbols[:, cols] + np.array(bumps, dtype=dtype)) % q
    powers = [[pow(k, j, p) for j in range(spec.d - 1)] for k in positions]
    sums = sums + (received[:, cols] - symbols[:, cols]) @ np.array(powers, dtype=dtype)
    shift = _lift(sums[:, 0], offsets[:, 0], (q - 1) * spec.correction_radius, spec.sum_modulus)
    moments = (sums - offsets) % p
    moments[:, 0] = shift % p
    # Sorted, rows with equal moments lie in one run; each run shares a
    # candidate.
    order = np.lexsort(moments.T)
    moments = moments[order]
    starts = np.flatnonzero(np.r_[True, (moments[1:] != moments[:-1]).any(axis=1)])
    decoded = received.copy()
    accepted = np.zeros(len(received), dtype=bool)
    for known, budget in _phases(spec):
        for row, run in zip(moments[starts].tolist(), np.split(order, starts[1:])):
            rows = run[~accepted[run]]
            if not len(rows):
                continue
            candidate = _candidate(spec, list(row), known, budget)
            # A zero magnitude or a modified moment left over does not depend
            # on the received symbols: it refuses every row.
            if type(candidate) is str or not all(candidate[1]) or any(candidate[2]):
                continue
            nodes, residues, _ = candidate
            at = np.ix_(rows, [k - 1 for k in nodes])
            symbol = received[at]
            sent = (symbol - np.array(residues, dtype=dtype)) % p
            ok = (sent < q).all(axis=1) & ((symbol - sent).sum(axis=1) == shift[rows])
            decoded[rows[ok][:, None], at[1]] = sent[ok]
            accepted[rows[ok]] = True
    return decoded, accepted
