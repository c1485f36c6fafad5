"""Differential tests of the syndrome kernel against exact integer checksums.

From n = 64 on, a word is converted once to int64 and its weighted sums go
through small cached tables that factor i**j mod p; below that, and
wherever an int64 product could overflow (large alphabets), plain-int loops
run.  These tests
draw codes on both sides of each switch and compare every path with the
residues of ``checksum``, which sums unbounded Python ints.  They also check
that every accepted input type decodes to the same tuple, that both
decoders take alphabets too large for int64 arithmetic, and that a bad
symbol gets the same message on every path.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vtcodes import (
    CodeSpec,
    InconsistentWordError,
    checksum,
    core,
    decode_erasures,
    decode_errors,
    decode_single_error,
    is_codeword,
    syndrome_profile,
    validate_word,
)


def exact_profile(word, spec):
    return (
        checksum(word, 0) % spec.sum_modulus,
        *(checksum(word, j) % spec.power_modulus for j in range(1, spec.d - 1)),
    )


LENGTHS = (63, 64, 65, 1023, 1024)


@st.composite
def codes(draw, lengths=LENGTHS, alphabets=("binary", "byte", "bound", "large")):
    n = draw(st.sampled_from(lengths))
    kind = draw(st.sampled_from(alphabets))
    if kind == "binary":
        q = 2
    elif kind == "byte":
        q = draw(st.integers(3, 256))
    elif kind == "bound":
        # n*(p-1)*(q-1) crosses 2**63 inside this range, so some draws take
        # the int64 product and some the exact fallback.
        q = draw(st.integers(2**20, 2**28))
    else:
        q = draw(st.integers(2**31, 2**34))
    return CodeSpec(q, n, draw(st.integers(3, min(9, n))))


def random_word(rng, spec, fill):
    if fill == "top":
        return tuple([spec.q - 1] * spec.n)
    return tuple(rng.randrange(spec.q) for _ in range(spec.n))


@settings(max_examples=60, deadline=None)
@given(codes(), st.sampled_from(["random", "top"]), st.integers(0, 2**32))
def test_profile_and_membership_match_exact_checksums(spec, fill, seed):
    rng = random.Random(seed)
    word = random_word(rng, spec, fill)
    exact = exact_profile(word, spec)
    assert syndrome_profile(word, spec) == exact
    assert is_codeword(word, spec, exact)
    j = rng.randrange(spec.d - 1)
    modulus = spec.sum_modulus if j == 0 else spec.power_modulus
    shifted = list(exact)
    shifted[j] = (shifted[j] + 1) % modulus
    assert not is_codeword(word, spec, tuple(shifted))


def input_forms(word, q):
    forms = [tuple(word), list(word), np.array(word, dtype=np.int64)]
    if q <= 256:
        forms += [np.array(word, dtype=np.uint8), bytes(word)]
    return forms


def assert_same_tuple(got, expected):
    assert type(got) is tuple
    assert got == expected
    assert all(type(s) is int for s in got)


@settings(max_examples=40, deadline=None)
@given(codes(lengths=(8, 63, 64, 65, 1023), alphabets=("binary", "byte")), st.integers(0, 2**32))
def test_every_input_form_decodes_to_the_same_tuple(spec, seed):
    rng = random.Random(seed)
    sent = random_word(rng, spec, "random")
    offset = exact_profile(sent, spec)
    for word in input_forms(sent, spec.q):
        assert_same_tuple(decode_errors(word, spec, offset), sent)

    received = list(sent)
    for k in rng.sample(range(spec.n), rng.randint(1, spec.correction_radius)):
        received[k] = (received[k] + rng.randrange(1, spec.q)) % spec.q
    for word in input_forms(received, spec.q):
        assert_same_tuple(decode_errors(word, spec, offset), sent)

    masked = list(sent)
    for k in rng.sample(range(spec.n), rng.randint(1, spec.d - 1)):
        masked[k] = None
    for word in (tuple(masked), masked, np.array(masked, dtype=object)):
        assert_same_tuple(decode_erasures(word, spec, offset), sent)
    for word in input_forms(sent, spec.q):
        assert_same_tuple(decode_erasures(word, spec, offset), sent)


BAD_SYMBOLS = (-1, 5, 7, 2**64, 1.0, 2.5, np.float64(3.0), "2", None)


def expected_message(symbol, position, q):
    if symbol is None:
        return f"erased symbol at position {position} not allowed here"
    if isinstance(symbol, (int, np.integer)):
        return f"symbol {symbol} at position {position} outside [0, {q - 1}]"
    return f"symbol {symbol!r} at position {position} is not an integer"


def assert_rejected(word, spec, expected):
    offset = (0,) * (spec.d - 1)
    calls = [
        lambda: validate_word(word, spec),
        lambda: syndrome_profile(word, spec),
        lambda: is_codeword(word, spec, offset),
        lambda: decode_errors(word, spec, offset),
    ]
    if not expected.startswith("erased"):
        calls.append(lambda: decode_erasures(word, spec, offset))
    for call in calls:
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == expected


@pytest.mark.parametrize("n", [8, 63, 64, 1024])
@pytest.mark.parametrize("bad", BAD_SYMBOLS, ids=repr)
def test_bad_symbol_message_is_the_same_on_every_path(n, bad):
    spec = CodeSpec(5, n, 5)
    position = n // 2 + 1
    word = [1] * n
    word[position - 1] = bad
    word[-1] = 9  # a later bad symbol, which the message must not name
    forms = [tuple(word), list(word)]
    if isinstance(bad, int) and 0 <= bad < 256:
        forms.append(bytes(word))
    if isinstance(bad, int) and -(2**63) <= bad < 2**63:
        forms.append(np.array(word, dtype=np.int64))
    for form in forms:
        assert_rejected(form, spec, expected_message(bad, position, spec.q))


@pytest.mark.parametrize("n", [8, 64])
def test_bad_symbol_message_for_arrays(n):
    spec = CodeSpec(5, n, 5)
    floats = np.ones(n)
    assert_rejected(floats, spec, expected_message(np.float64(1.0), 1, spec.q))
    wide = np.ones(n, dtype=np.uint64)
    wide[3] = 2**64 - 1  # wraps to -1 in int64; the message names the symbol
    assert_rejected(wide, spec, expected_message(2**64 - 1, 4, spec.q))
    assert_rejected(np.ones((n, 1), dtype=np.int64), spec, expected_message(np.ones(1, dtype=np.int64), 1, spec.q))


@pytest.mark.parametrize("q", [5, 1000])
def test_erasures_found_in_every_conversion_block(q):
    # Words that may hold erasures convert in blocks of core._BLOCK symbols;
    # None is searched for only in a block that fails to convert.
    spec = CodeSpec(q, 3 * core._BLOCK + 7, 9)
    rng = random.Random(q)
    sent = tuple(rng.randrange(q) for _ in range(spec.n))
    offset = exact_profile(sent, spec)
    erased = [0, core._BLOCK - 1, core._BLOCK, 2 * core._BLOCK + 3, spec.n - 1]
    masked = list(sent)
    for k in erased:
        masked[k] = None
    arr = validate_word(tuple(masked), spec, allow_erasures=True)
    assert np.flatnonzero(arr == -1).tolist() == erased
    assert_same_tuple(decode_erasures(tuple(masked), spec, offset), sent)
    # A bad symbol after an erasure in the same block, and one in a later
    # block: the message names the first bad position.
    for bad, position in ((2.5, 8), (q, 2 * core._BLOCK + 10)):
        word = list(masked)
        word[position - 1] = bad
        word[-2] = -1
        with pytest.raises(ValueError) as info:
            decode_erasures(word, spec, offset)
        assert str(info.value) == expected_message(bad, position, q)

def test_large_alphabet_profile_is_exact():
    # The default modulus here is the least prime above 2**33, so int64
    # products of a residue and a symbol overflow; the kernel must fall back
    # to exact ints.
    spec = CodeSpec(2**33, 1024, 6)
    rng = random.Random(2024)
    word = tuple(rng.randrange(spec.q) for _ in range(spec.n))
    exact = exact_profile(word, spec)
    assert syndrome_profile(word, spec) == exact
    assert is_codeword(word, spec, exact)
    assert syndrome_profile(np.array(word, dtype=np.int64), spec) == exact
    assert is_codeword(np.array(word, dtype=np.int64), spec, exact)
    received = list(word)
    received[10] = (received[10] + 5) % spec.q
    received[700] = (received[700] + 2**32) % spec.q
    for form in (tuple(received), np.array(received, dtype=np.int64)):
        assert_same_tuple(decode_errors(form, spec, exact), word)


def test_large_alphabet_erasures_decode():
    # The same spec's modulus once made erasure decoding refuse the spec
    # ("modulus ... >= 2**31 is not supported"); the erasure solve is exact
    # at any modulus.
    spec = CodeSpec(2**33, 1024, 6)
    rng = random.Random(33)
    word = tuple(rng.randrange(spec.q) for _ in range(spec.n))
    offset = exact_profile(word, spec)
    masked = list(word)
    for k in (0, 17, 511, 900, spec.n - 1):
        masked[k] = None
    for form in (tuple(masked), masked, np.array(masked, dtype=object)):
        assert_same_tuple(decode_erasures(form, spec, offset), word)
    masked[300] = (masked[300] + 1) % spec.q
    with pytest.raises(InconsistentWordError):
        decode_erasures(tuple(masked), spec, offset)


def test_alphabet_beyond_int64_decodes_on_plain_ints(monkeypatch):
    # q = 2**64 makes the default modulus the least prime above 2**64,
    # which the package's trial division takes minutes to find; it is
    # 2**64 + 13.  Symbols and residues beyond int64 must stay Python ints
    # through every decoder step, whatever the input type.
    prime = 2**64 + 13
    assert all(pow(a, prime - 1, prime) == 1 for a in (2, 3, 5, 7, 11))
    monkeypatch.setattr(core, "smallest_prime_geq", lambda m: prime if m == 2**64 else None)
    spec = CodeSpec(2**64, 64, 3)
    assert spec.power_modulus == prime
    sent = [0] * spec.n
    sent[20] = 2**64 - 1
    offset = exact_profile(sent, spec)
    received = list(sent)
    received[9] = 5
    for form in (tuple(received), received, np.array(received, dtype=np.uint64)):
        assert syndrome_profile(form, spec) == exact_profile(received, spec)
        assert_same_tuple(decode_errors(form, spec, offset), tuple(sent))
        assert_same_tuple(decode_single_error(form, spec, offset), tuple(sent))
    masked = list(sent)
    masked[9] = None
    masked[20] = None  # the erased symbol 2**64 - 1 does not fit int64
    for form in (tuple(masked), masked, np.array(masked, dtype=object)):
        assert_same_tuple(decode_erasures(form, spec, offset), tuple(sent))
    assert_same_tuple(decode_erasures(tuple(sent), spec, offset), tuple(sent))
