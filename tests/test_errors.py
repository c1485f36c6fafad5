import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vtcodes import core
from vtcodes.core import (
    _VECTOR_MIN_LENGTH,
    CodeSpec,
    checksum,
    enumerate_codewords,
    hamming_distance,
    is_codeword,
    parse_word,
    syndrome_profile,
)
from vtcodes.errors import (
    ErrorVector,
    KeyEquationState,
    UncorrectableError,
    berlekamp_massey,
    compute_error_syndrome,
    decode_errors,
    locate_and_evaluate,
)
from vtcodes.modarith import smallest_prime_geq

from test_modarith import eval_poly_mod


def exact_profile(word, spec):
    return (
        sum(word) % spec.sum_modulus,
        *(
            sum(i**j * s for i, s in enumerate(word, start=1)) % spec.power_modulus
            for j in range(1, spec.d - 1)
        ),
    )


def _scan_decode(received, spec, offset):
    """Reference decoder for d in {3, 4}: try every single substitution.

    Works on exact integer checksums, apart from the package's syndrome
    kernel and decoder: O(n*q*d) per word.
    """
    m0, p = spec.sum_modulus, spec.power_modulus
    r0, *rest = exact_profile(received, spec)
    r0 = (r0 - offset[0]) % m0
    rest = [(v - b) % p for v, b in zip(rest, offset[1:])]
    if r0 == 0 and not any(rest):
        return tuple(received)
    for k in range(1, spec.n + 1):
        kpow = [pow(k, j, p) for j in range(1, spec.d - 1)]
        for sym in range(spec.q):
            delta = sym - received[k - 1]
            if delta == 0 or (r0 + delta) % m0:
                continue
            if all((r + kp * delta) % p == 0 for r, kp in zip(rest, kpow)):
                out = list(received)
                out[k - 1] = sym
                return tuple(out)
    raise UncorrectableError("no single substitution reaches the coset")


def _decoded_or_none(decoder, received, spec, offset):
    try:
        return decoder(received, spec, offset)
    except UncorrectableError:
        return None


def test_syndrome_known_answer():
    spec = CodeSpec(2, 5, 3)
    assert compute_error_syndrome(parse_word("1,0,1,1,1"), spec, (0, 0)) == (1, 3)
    assert compute_error_syndrome(parse_word("1,0,0,1,1"), spec, (0, 0)) == (0, 0)
    # Entry 0 is the centered plain-sum shift mod 5: 2 mod 3 lifts to -1.
    assert compute_error_syndrome(parse_word("1,1,0,0,0"), spec, (0, 0)) == (4, 3)
    assert compute_error_syndrome(parse_word("1,1,0,0,0"), spec, (1, 0)) == (1, 3)


def test_berlekamp_massey_single_error():
    lam, length = berlekamp_massey([1, 3], 5)
    assert length == 1
    assert lam == [1, 2]  # 1 - 3z mod 5


def test_berlekamp_massey_zero_sequence():
    lam, length = berlekamp_massey([0, 0, 0, 0], 7)
    assert lam == [1]
    assert length == 0


def test_berlekamp_massey_two_errors():
    # magnitudes 1 at position 2 and 2 at position 5, moments 0..3 mod 7
    syndromes = [
        (1 * pow(2, j, 7) + 2 * pow(5, j, 7)) % 7 for j in range(4)
    ]
    assert syndromes == [3, 5, 5, 6]
    lam, length = berlekamp_massey(syndromes, 7)
    assert length == 2
    # (1 - 2z)(1 - 5z) = 1 - 7z + 10z^2, so 1 + 0z + 3z^2 mod 7
    assert lam == [1, 0, 3]


def _reference_berlekamp_massey(syndromes, modulus):
    """Berlekamp-Massey as the package wrote it before the in-place
    rewrite, kept as the reference: new lists at every update, and a
    Fermat inverse of the previous discrepancy at every nonzero one."""

    def poly_sub(a, b, p):
        out = [0] * max(len(a), len(b))
        for i, v in enumerate(a):
            out[i] = v
        for i, v in enumerate(b):
            out[i] = (out[i] - v) % p
        while len(out) > 1 and out[-1] == 0:
            out.pop()
        return out

    lam = [1]
    prev = [1]
    length = 0
    gap = 1
    prev_disc = 1
    for i, s in enumerate(syndromes):
        disc = s % modulus
        for j in range(1, min(length, len(lam) - 1) + 1):
            disc = (disc + lam[j] * syndromes[i - j]) % modulus
        if disc == 0:
            gap += 1
            continue
        coef = disc * pow(prev_disc, modulus - 2, modulus) % modulus
        update = [0] * gap + [c * coef % modulus for c in prev]
        if 2 * length <= i:
            stash = lam[:]
            lam = poly_sub(lam, update, modulus)
            prev = stash
            prev_disc = disc
            length = i + 1 - length
            gap = 1
        else:
            lam = poly_sub(lam, update, modulus)
            gap += 1
    return lam, length


def _generates(poly, length, sequence, p):
    """Does the register of this length with this connection polynomial
    produce the sequence mod p?"""
    taps = list(poly) + [0] * (length + 1 - len(poly))
    return all(
        sum(c * sequence[i - j] for j, c in enumerate(taps)) % p == 0
        for i in range(length, len(sequence))
    )


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from((2, 3, 5, 7)),
    st.lists(st.one_of(st.integers(-8, 8), st.integers()), max_size=8),
)
def test_berlekamp_massey_properties(p, sequence):
    lam, length = berlekamp_massey(sequence, p)
    assert (lam, length) == _reference_berlekamp_massey(sequence, p)
    assert lam[0] == 1 and all(0 <= c < p for c in lam)
    assert len(lam) == 1 or lam[-1] != 0
    assert len(lam) - 1 <= length
    assert _generates(lam, length, sequence, p)
    if p <= 5:
        # No shorter register generates it: brute force up to length 3.
        for shorter in range(min(length, 4)):
            for taps in itertools.product(range(p), repeat=shorter):
                assert not _generates((1, *taps), shorter, sequence, p)


def _poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


@pytest.mark.parametrize(
    "spec",
    [CodeSpec(3, 7, 5), CodeSpec(3, 6, 5), CodeSpec(5, 31, 7), CodeSpec(5, 30, 7), CodeSpec(2**40, 70, 5)],
    ids=lambda spec: f"q{spec.q}-n{spec.n}-d{spec.d}-p{spec.power_modulus}",
)
def test_plain_int_root_scan_matches_a_reference(spec):
    p, n = spec.power_modulus, spec.n
    assert not core._vectorised(spec)
    rng = random.Random(n)
    for _ in range(30):
        # The locator prod (1 - k x) with positions 1 and n planted (at
        # n = p the factor for n is 1), times a random factor.
        lam = [1]
        for k in (1, n):
            lam = _poly_mul(lam, [1, -k % p], p)
        extra = [1] + [rng.randrange(p) for _ in range(rng.randint(0, spec.d - 4))]
        lam = _poly_mul(lam, extra, p)
        rev = lam[::-1]
        expected = [k for k in range(1, n + 1) if k % p and eval_poly_mod(rev, k, p) == 0]
        got = core._locator_roots(lam, spec)
        assert got == expected
        assert 1 in got
        assert (n in got) == (n < p)


@pytest.mark.parametrize("spec", [CodeSpec(7, 7, 5), CodeSpec(67, 67, 5)], ids=["plain", "vector"])
def test_position_n_is_never_a_root_at_n_equal_to_the_prime(spec):
    # At n = p position n has locator 0, which is no root's inverse.  A
    # locator padded with a zero, k**2 * lam(1/k) = k * (k + 3) for
    # lam = [1, 3, 0], vanishes at k = p as well: neither branch of the
    # scan may report it.
    p, n = spec.power_modulus, spec.n
    assert n == p and core._vectorised(spec) == (n >= 64)
    assert core._locator_roots([1, 3, 0], spec) == [p - 3]
    # Errors 2 at position 4 and 1 at position n: the locator is 1 - 4z,
    # since position n's factor is 1.  Padded to degree 2 it passes the
    # key equation but has one root among the positions, so it is refused.
    received = [0] * n
    received[3], received[n - 1] = 2, 1
    syndromes = compute_error_syndrome(received, spec, (0, 0, 0, 0))
    assert syndromes == (3, 8 % p, 32 % p, 128 % p)
    state = KeyEquationState(syndromes, (1, -4 % p, 0), (3, -4 % p), p)
    with pytest.raises(UncorrectableError):
        locate_and_evaluate(state, spec, received)


def test_error_vector_validation():
    assert ErrorVector(((2, 1), (5, -2))).entries == ((2, 1), (5, -2))
    with pytest.raises(ValueError):
        ErrorVector(((5, 1), (2, 1)))  # out of order
    with pytest.raises(ValueError):
        ErrorVector(((2, 1), (2, 1)))  # repeated position
    with pytest.raises(ValueError):
        ErrorVector(((3, 0),))  # zero magnitude


def test_key_equation_state_validation():
    KeyEquationState(
        syndromes=(3, 5, 5, 6), locator=(1, 0, 3), evaluator=(3, 5), modulus=7
    )
    with pytest.raises(ValueError):
        KeyEquationState(
            syndromes=(3, 5, 5, 6), locator=(2, 0, 3), evaluator=(3, 5), modulus=7
        )
    with pytest.raises(ValueError):
        KeyEquationState(
            syndromes=(3, 5, 5, 6), locator=(1, 0, 3), evaluator=(3, 6), modulus=7
        )
    with pytest.raises(ValueError):
        KeyEquationState(
            syndromes=(3, 5, 5, 6), locator=(1, 0, 3), evaluator=(3, 5), modulus=6
        )
    # The modulus is read by the package's integer rule and stored as a
    # Python int: a float is refused, and a numpy prime reaches the checks.
    with pytest.raises(ValueError, match=r"^modulus = 7\.0 is not an integer$"):
        KeyEquationState((3, 5, 5, 6), (1, 0, 3), (3, 5), 7.0)
    with pytest.raises(ValueError, match="evaluator does not match"):
        KeyEquationState((3, 5, 5, 6), (1, 0, 3), (3, 5), np.int64(2**61 - 1))
    for modulus in (7, 2**61 - 1):
        state = KeyEquationState((1,), (1,), (1,), np.int64(modulus))
        assert type(state.modulus) is int and state.modulus == modulus
    # Trailing zeros of the evaluator are trimmed before the comparison.
    KeyEquationState((3, 5, 5, 6), (1, 0, 3), (3, 5, 0, 0), 7)
    # (1 + z)(3 + 5z + 5z^2 + 6z^3) = 3 + z + 3z^2 + 4z^3 mod 7 matches the
    # syndromes but is of degree 3, above the locator's 1.
    with pytest.raises(ValueError, match="^evaluator degree must stay below the locator degree$"):
        KeyEquationState((3, 5, 5, 6), (1, 1), (3, 1, 3, 4), 7)


def test_locate_and_evaluate_two_errors():
    spec = CodeSpec(7, 6, 5)
    sent = (0, 0, 0, 0, 0, 0)
    offset = syndrome_profile(sent, spec)
    received = (0, 1, 0, 0, 2, 0)
    syndromes = compute_error_syndrome(received, spec, offset)
    assert syndromes == (3, 5, 5, 6)
    state = KeyEquationState(
        syndromes=syndromes, locator=(1, 0, 3), evaluator=(3, 5), modulus=7
    )
    ev = locate_and_evaluate(state, spec, received)
    assert ev.entries == ((2, 1), (5, 2))
    corrected = list(received)
    for pos, mag in ev.entries:
        corrected[pos - 1] -= mag
    assert tuple(corrected) == sent


def test_locate_and_evaluate_rejects_rootless_locator():
    spec = CodeSpec(7, 6, 5)
    received = (0, 1, 0, 0, 2, 0)
    # z^2 + 1 has no roots mod 7, so no positions can be located
    syndromes = (1, 0, 6, 0)
    state = KeyEquationState(
        syndromes=syndromes, locator=(1, 0, 1), evaluator=(1,), modulus=7
    )
    with pytest.raises(UncorrectableError):
        locate_and_evaluate(state, spec, received)


def test_locate_and_evaluate_rejects_more_roots_than_syndromes():
    # (1 - z)(1 - 2z)(1 - 3z) mod 7 locates positions 1, 2 and 3, but two
    # syndromes cannot pin three magnitudes.
    spec = CodeSpec(7, 6, 5)
    state = KeyEquationState(
        syndromes=(0, 0), locator=(1, 1, 4, 1), evaluator=(0,), modulus=7
    )
    with pytest.raises(UncorrectableError):
        locate_and_evaluate(state, spec, (1, 1, 1, 0, 0, 0))


def test_decode_single_error_known_answer():
    spec = CodeSpec(2, 5, 3)
    got = decode_errors(parse_word("1,0,1,1,1"), spec, (0, 0))
    assert got == (1, 0, 0, 1, 1)
    assert _scan_decode(parse_word("1,0,1,1,1"), spec, (0, 0)) == got


def test_uncorrectable_known_answer():
    spec = CodeSpec(2, 5, 3)
    for decoder in (_scan_decode, decode_errors):
        with pytest.raises(UncorrectableError):
            decoder(parse_word("1,1,1,1,0"), spec, (0, 0))


def test_clean_word_passes_through():
    spec = CodeSpec(2, 5, 3)
    word = (0, 1, 1, 0, 1)
    assert decode_errors(word, spec, (0, 0)) == word


def test_error_at_final_position_with_length_equal_to_modulus():
    # Position n is invisible to the locator polynomial when n equals the
    # prime, so these must go through the second decoding phase.
    spec = CodeSpec(2, 5, 3)
    sent = (1, 0, 0, 1, 1)
    received = (1, 0, 0, 1, 0)
    assert decode_errors(received, spec, (0, 0)) == sent
    assert _scan_decode(received, spec, (0, 0)) == sent


def test_two_errors_with_one_at_final_position():
    spec = CodeSpec(3, 7, 5)
    rng = random.Random(5150)
    word = tuple(rng.randrange(spec.q) for _ in range(spec.n))
    offset = syndrome_profile(word, spec)
    for other in range(spec.n - 1):
        for bump_last in (1, 2):
            for bump_other in (1, 2):
                received = list(word)
                received[-1] = (received[-1] + bump_last) % spec.q
                received[other] = (received[other] + bump_other) % spec.q
                assert decode_errors(tuple(received), spec, offset) == word


def test_single_error_exhaustive_small():
    spec = CodeSpec(3, 5, 3)
    offsets = itertools.product(range(spec.sum_modulus), range(spec.power_modulus))
    for offset in offsets:
        for word in enumerate_codewords(spec, offset):
            for k in range(spec.n):
                for bump in (1, 2):
                    received = list(word)
                    received[k] = (received[k] + bump) % spec.q
                    received = tuple(received)
                    assert decode_errors(received, spec, offset) == word
                    assert _scan_decode(received, spec, offset) == word


def test_multi_error_round_trips():
    rng = random.Random(99)
    spec = CodeSpec(5, 9, 5)
    for _ in range(150):
        word = tuple(rng.randrange(spec.q) for _ in range(spec.n))
        offset = syndrome_profile(word, spec)
        weight = rng.randint(1, spec.correction_radius)
        received = list(word)
        for k in rng.sample(range(spec.n), weight):
            received[k] = (received[k] + rng.randint(1, spec.q - 1)) % spec.q
        assert decode_errors(tuple(received), spec, offset) == word


def test_beyond_radius_never_returns_wrong_word():
    # Whatever happens past the radius, any returned word must be a coset
    # member no farther than the radius from the input.
    rng = random.Random(31337)
    spec = CodeSpec(3, 7, 5)
    word = tuple(rng.randrange(spec.q) for _ in range(spec.n))
    offset = syndrome_profile(word, spec)
    for _ in range(100):
        received = list(word)
        for k in rng.sample(range(spec.n), 3):
            received[k] = (received[k] + rng.randint(1, 2)) % spec.q
        received = tuple(received)
        try:
            got = decode_errors(received, spec, offset)
        except UncorrectableError:
            continue
        assert is_codeword(got, spec, offset)
        assert hamming_distance(got, received) <= spec.correction_radius


def test_large_block_vectorized_path():
    rng = random.Random(4096)
    spec = CodeSpec(7, 1500, 5)
    word = tuple(rng.randrange(spec.q) for _ in range(spec.n))
    offset = syndrome_profile(word, spec)
    received = list(word)
    for k in (0, spec.n - 1):
        received[k] = (received[k] + 3) % spec.q
    assert decode_errors(tuple(received), spec, offset) == word


def test_scan_and_direct_agree_on_non_codewords():
    # Differential check on arbitrary words, not only corrupted codewords.
    spec = CodeSpec(2, 5, 3)
    offset = (0, 0)
    for received in itertools.product(range(2), repeat=5):
        assert _decoded_or_none(decode_errors, received, spec, offset) == (
            _decoded_or_none(_scan_decode, received, spec, offset)
        )


def _patterns_within(n, q, radius):
    """Every error support of weight 1 .. radius with every nonzero bump, as
    (0-based position, bump) pairs."""
    for weight in range(1, radius + 1):
        for support in itertools.combinations(range(n), weight):
            for bumps in itertools.product(range(1, q), repeat=weight):
                yield tuple(zip(support, bumps))


@pytest.mark.parametrize(
    "spec, count", [(CodeSpec(3, 67, 5), 8978), (CodeSpec(3, 64, 5), 8192)]
)
def test_every_pattern_within_the_radius_on_the_vectorised_path(spec, count):
    # n = p puts position n, and so the second phase, among the patterns;
    # n < p does not.  The patterns take turns over a few sent words.
    assert spec.n >= _VECTOR_MIN_LENGTH
    rng = random.Random(spec.n)
    sent_words = [tuple(rng.randrange(spec.q) for _ in range(spec.n)) for _ in range(3)]
    offsets = [
        (
            checksum(w, 0) % spec.sum_modulus,
            *(checksum(w, j) % spec.power_modulus for j in range(1, spec.d - 1)),
        )
        for w in sent_words
    ]
    decoded = 0
    for i, pattern in enumerate(_patterns_within(spec.n, spec.q, spec.correction_radius)):
        sent, offset = sent_words[i % 3], offsets[i % 3]
        received = list(sent)
        for k, bump in pattern:
            received[k] = (received[k] + bump) % spec.q
        assert decode_errors(tuple(received), spec, offset) == sent, pattern
        decoded += 1
    assert decoded == count


# Bounds the scan's n*q candidates per word, which keeps the test under a second.
_SCAN_CELLS = 12_000


@st.composite
def radius_one_specs(draw):
    """d in {3, 4} at n = p and n < p, n from 5 to 300 (both sides of the
    vectorised switch at n = 64), q from 2 to beyond n under _SCAN_CELLS."""
    d = draw(st.sampled_from((3, 4)))
    if draw(st.booleans()):
        n = smallest_prime_geq(draw(st.integers(5, 293)))
        q = draw(st.integers(2, min(n, _SCAN_CELLS // n)))
        spec = CodeSpec(q, n, d)
        assert spec.power_modulus == n
        return spec
    n = draw(st.integers(5, 300))
    q = draw(st.integers(2, _SCAN_CELLS // n))
    modulus = smallest_prime_geq(max(n + 1, q))
    return CodeSpec(q, n, d, power_modulus=modulus)


@settings(max_examples=200, deadline=None)
@given(radius_one_specs(), st.integers(0, 2), st.booleans(), st.integers(0, 2**32))
def test_decoder_matches_the_scan_beyond_the_small_grid(spec, count, at_end, seed):
    rng = random.Random(seed)
    sent = tuple(rng.randrange(spec.q) for _ in range(spec.n))
    offset = exact_profile(sent, spec)
    received = list(sent)
    # Position n, which has locator 0 when n = p, is hit in half the draws.
    if count and at_end:
        positions = rng.sample(range(spec.n - 1), count - 1) + [spec.n - 1]
    else:
        positions = rng.sample(range(spec.n), count)
    for k in positions:
        received[k] = (received[k] + rng.randrange(1, spec.q)) % spec.q
    received = tuple(received)
    got = _decoded_or_none(decode_errors, received, spec, offset)
    assert got == _decoded_or_none(_scan_decode, received, spec, offset)
    if count <= 1:
        assert got == sent
