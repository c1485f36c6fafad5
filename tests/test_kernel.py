"""Differential tests of the syndrome kernel against exact integer checksums.

From n = 64 on, a word is converted once to int64 and its weighted sums go
through small cached tables that factor i**j mod p, with the word-sized
products in float64, which is exact while every partial sum stays below
2**53; below n = 64, and for specs beyond that bound (large alphabets or
moduli), plain-int loops run.  These tests
draw codes on both sides of each switch and compare every path with the
residues of ``checksum``, which sums unbounded Python ints.  They also check
the error decoder's root scan against a plain-int scan next to the bound,
and both array paths against the plain-int loops across the row slabs the
products run in; at n = 65537, every error pattern and erasure mask of
weight <= 2 on the ends and the slab-run boundaries decodes back.  They
check that every accepted input type decodes to the
same tuple (an undamaged tuple on the vectorised path to itself, which the
CLI relies on), that the decoders leave an array input unchanged, that both
decoders take alphabets too large for the vectorised kernel, and that a bad
symbol gets the same message on every path.  validate_word's working form
is checked for every input type on both sides of n = 64: a new object
holding the symbols, erased positions 0 and listed apart, and Python ints
only on the plain path, so numpy scalars never reach the exact loops.  An
offset of numpy scalars is read as its Python ints, so it decodes as the
int offset does.
"""

import itertools
import math
import random
from collections import deque

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vtcodes import (
    CodeSpec,
    InconsistentWordError,
    checksum,
    core,
    decode_erasures,
    decode_errors,
    errors,
    is_codeword,
    syndrome_profile,
)
from vtcodes.core import validate_word
from vtcodes.modarith import smallest_prime_geq, solve_moments

from test_modarith import eval_poly_mod


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
        # w*(q-1)*(p-1), w = isqrt(n) + 1, crosses 2**53 inside this range,
        # so some draws take the float64 product and some the exact fallback.
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


FLOAT_EXACT = 2**53


@st.composite
def near_bound(draw):
    """A code whose kernel bound lands between 2**51 and 2**57.

    "sums": q and its default prime p near sqrt(2**53 / w), so the word
    product's w*(q-1)*(p-1) decides; "roots": a small alphabet under a large
    explicit modulus, so the root scan's bound decides, len*(p-1)**2 for a
    locator of len = radius + 1 coefficients (a full-radius error pattern).
    The bound is a worst case (a typical partial sum is about half of it),
    so the range reaches well above 2**53, where a float64 product rounds.
    """
    n = draw(st.sampled_from((64, 65, 1023, 1024)))
    d = draw(st.integers(3, 9))
    ratio = 2 ** (draw(st.integers(-2000, 4000)) / 1000)
    if draw(st.sampled_from(["sums", "roots"])) == "sums":
        width = math.isqrt(n) + 1
        return CodeSpec(math.isqrt(int(ratio * FLOAT_EXACT / width)), n, d)
    locator = (d - 1) // 2 + 1
    modulus = smallest_prime_geq(math.isqrt(int(ratio * FLOAT_EXACT / locator)))
    return CodeSpec(draw(st.integers(2, 256)), n, d, power_modulus=modulus)


@settings(max_examples=40, deadline=None)
@given(near_bound(), st.sampled_from(["random", "top"]), st.integers(0, 2**32))
# Each bound's last spec below it and first above (w = 33 at n = 1024).
@example(CodeSpec(16521053, 1024, 9), "top", 1)
@example(CodeSpec(16521054, 1024, 9), "top", 2)
@example(CodeSpec(256, 1024, 9, power_modulus=42443351), "top", 3)
@example(CodeSpec(256, 1024, 9, power_modulus=42443377), "top", 4)
# About 8 times the bound: a float64 product here does round.
@example(CodeSpec(46728614, 1024, 9), "top", 5)
def test_kernel_is_exact_on_both_sides_of_the_float_bound(spec, fill, seed):
    rng = random.Random(seed)
    sent = random_word(rng, spec, fill)
    offset = exact_profile(sent, spec)
    assert syndrome_profile(sent, spec) == offset
    assert is_codeword(sent, spec, offset)
    received = list(sent)
    for k in rng.sample(range(spec.n), spec.correction_radius):
        received[k] = (received[k] + rng.randrange(1, spec.q)) % spec.q
    assert syndrome_profile(received, spec) == exact_profile(received, spec)
    assert not is_codeword(received, spec, offset)
    assert_same_tuple(decode_errors(tuple(received), spec, offset), sent)


def poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return out


@pytest.mark.parametrize(
    "spec",
    [
        # Just below the root scan's bound for a polynomial of d-1
        # coefficients, (d-1)*(p-1)**2 < 2**53.  The float reciprocal of
        # 33554273 lies below 1/p, so a quotient v * (1/p) falls just under
        # the integer v/p at most roots: a test that truncates the quotient
        # instead of rounding it misses them.
        CodeSpec(2, 1024, 9, power_modulus=33554273),
        CodeSpec(16, 1000, 17, power_modulus=23726561),
        CodeSpec(16, 4099, 9),  # n = p
        CodeSpec(3, 67, 5),  # n = p
    ],
    ids=lambda spec: f"q{spec.q}-n{spec.n}-d{spec.d}-p{spec.power_modulus}",
)
def test_locator_roots_match_a_plain_int_scan(spec):
    p, n = spec.power_modulus, spec.n
    assert core._power_tables(spec) is not None
    planted = {1, n - 1, n} if n < p else {1, n - 1}
    rng = random.Random(n)
    for _ in range(10):
        # The reversed locator, with roots planted at positions 1, n-1 and n
        # (n = p has locator 0, which no scan reports) times a random factor.
        rev = [1]
        for k in (1, n - 1, n):
            rev = poly_mul(rev, [-k % p, 1], p)
        rev = poly_mul(rev, [rng.randrange(p) for _ in range(spec.d - 5)] + [1], p)
        assert len(rev) == spec.d - 1  # the largest degree the vector scan takes
        expected = [k for k in range(1, n + 1) if k % p and eval_poly_mod(rev, k, p) == 0]
        assert planted <= set(expected)
        assert core._locator_roots(rev[::-1], spec) == expected


@st.composite
def slab_cases(draw):
    """A spec from n = 64 to about 30 000, at n = p or n < p, and a word.

    The products run in slabs of core._slab_rows(w, columns) block rows:
    about 8192 / w rows while the columns number at most 32, and fewer
    beyond, where the cap on multiply-adds binds.  d = 33 gives the sums
    32 columns, where the two caps meet.  Above n = 8192 a product takes
    several runs of rows, most with a ragged last run; below, one.
    """
    d = draw(st.sampled_from((3, 9, 17, 33)))
    # Half the draws take several runs of rows.
    n = draw(st.one_of(st.integers(64, 8_192), st.integers(8_193, 30_000)))
    q = draw(st.integers(2, 256))
    if draw(st.booleans()):
        n = smallest_prime_geq(max(n, q))
        spec = CodeSpec(q, n, d)
    else:
        spec = CodeSpec(q, n, d, power_modulus=smallest_prime_geq(max(n + 1, q)))
    fill = draw(st.sampled_from(["random", "top"]))
    return spec, fill, draw(st.integers(0, 2**32))


def slab_boundaries(spec, columns):
    """Positions 1, n and the first and last of every run of slab rows."""
    width = math.isqrt(spec.n) + 1
    step = core._slab_rows(width, columns) * width
    edges = {1, spec.n}
    for start in range(step, spec.n + 1, step):
        edges |= {start - 1, start}
    return sorted(k for k in edges if 1 <= k <= spec.n)


@settings(max_examples=25, deadline=None)
@given(slab_cases())
# n = p = 30011: w = 174, runs of 47, 47, 47 and 32 rows.
@example((CodeSpec(7, 30011, 3), "top", 1))
# n = 8200 < p: w = 91, runs of 90 rows and 1 row.
@example((CodeSpec(256, 8200, 9), "top", 2))
# 64 columns: the cap on multiply-adds gives the sums 37 rows, not 74.
@example((CodeSpec(200, 12000, 65, power_modulus=12007), "random", 3))
def test_slab_runs_match_the_plain_int_loops(case):
    spec, fill, seed = case
    p, n = spec.power_modulus, spec.n
    assert core._vectorised(spec)
    rng = random.Random(seed)
    word = random_word(rng, spec, fill)
    arr, _ = validate_word(word, spec)
    assert core._masked_sums(arr, spec) == core._masked_sums(word, spec)

    # Roots at positions 1, n and on run boundaries, times a random factor.
    # At n = p position n is the root 0, which is no position's locator
    # inverse, so the scan does not report it.  The scan takes the locator,
    # the coefficients reversed.
    size = rng.randint(2, spec.d - 1)
    edges = slab_boundaries(spec, size)
    planted = rng.sample(edges, min(len(edges), rng.randint(1, size - 1)))
    coeffs = [1]
    for k in planted:
        coeffs = poly_mul(coeffs, [-k % p, 1], p)
    coeffs = poly_mul(coeffs, [rng.randrange(p) for _ in range(size - len(coeffs))] + [1], p)
    assert len(coeffs) == size
    expected = [k for k in range(1, n + 1) if k % p and eval_poly_mod(coeffs, k, p) == 0]
    assert {k for k in planted if k % p} <= set(expected)
    assert core._locator_roots(coeffs[::-1], spec) == expected


def test_every_small_pattern_across_the_slab_runs():
    # n = p = 65537: w = 257, and the sums (8 columns) and the root scan
    # (at most 5) both run in 9 runs of 31 block rows.  Every error pattern
    # and every erasure mask of weight <= 2 on positions 1, 2, n-1, n and
    # b-1, b, b+1 for each run boundary b round-trips.  The patterns take
    # turns over two sent words, each error a random nonzero bump; the
    # offsets come from the plain-int loop, which has no slabs.  Each
    # damaged word is patched into a copy of its sent word, and restored.
    spec = CodeSpec(256, 65537, 9)
    n = spec.n
    width = math.isqrt(n) + 1
    step = core._slab_rows(width, spec.d - 1) * width
    assert core._slab_rows(width, spec.correction_radius + 1) * width == step
    starts = range(step, n + 1, step)
    assert len(starts) == 8
    positions = sorted({1, 2, n - 1, n}.union(*({b - 1, b, b + 1} for b in starts)))
    rng = random.Random(n)
    sent_words = [tuple(rng.randbytes(n)) for _ in range(2)]
    offsets = [core._profile_of(w, spec) for w in sent_words]
    received = [bytearray(w) for w in sent_words]
    masked = [list(w) for w in sent_words]
    decoded = 0
    for weight in range(3):
        for support in itertools.combinations(positions, weight):
            i = decoded % 2
            sent, offset, word, holes = sent_words[i], offsets[i], received[i], masked[i]
            for k in support:
                word[k - 1] = (sent[k - 1] + rng.randrange(1, spec.q)) % spec.q
                holes[k - 1] = None
            assert decode_errors(word, spec, offset) == sent, support
            assert decode_erasures(holes, spec, offset) == sent, support
            for k in support:
                word[k - 1] = holes[k - 1] = sent[k - 1]
            decoded += 1
    assert decoded == 1 + 28 + 378


def test_decoders_leave_an_array_input_unchanged():
    # n = p = 67: an error at position n, which has locator 0, takes
    # phase two, which reads the received symbols from validate_word's
    # array after phase one has failed.
    spec = CodeSpec(16, 67, 5)
    rng = random.Random(67)
    sent = tuple(rng.randrange(spec.q) for _ in range(spec.n))
    offset = exact_profile(sent, spec)
    received = list(sent)
    received[spec.n - 1] = (sent[-1] + 5) % spec.q
    received[20] = (sent[20] + 9) % spec.q
    for word in (sent, received):
        form = np.array(word, dtype=np.int64)
        assert_same_tuple(decode_errors(form, spec, offset), sent)
        assert form.tolist() == list(word)
        form = np.array(word, dtype=np.int64)
        if word is sent:
            assert_same_tuple(decode_erasures(form, spec, offset), sent)
        else:
            with pytest.raises(InconsistentWordError):
                decode_erasures(form, spec, offset)
        assert form.tolist() == list(word)


def test_rejected_candidate_is_undone_before_phase_two(monkeypatch):
    # A word c2 that meets every moment of the offset mod p while its plain
    # sum is off by a multiple of p, received with one substitution.  Phase
    # one locates that substitution, the exact plain-sum check rejects c2
    # before it is patched in or reaches is_codeword, and phase two must read
    # the received symbols, not c2's.
    spec = CodeSpec(67, 67, 5)  # q = n = p
    p, n = spec.power_modulus, spec.n
    rng = random.Random(5)
    sent = [rng.randrange(spec.q) for _ in range(n)]
    offset = exact_profile(sent, spec)
    nodes = [3, 30, 31, 50]  # positions refilled to meet the moments mod p
    other = 10  # the substitution
    for bump in range(1, spec.q):
        c2 = list(sent)
        c2[n - 1] = (sent[n - 1] + bump) % spec.q
        for k in nodes:
            c2[k - 1] = 0
        plain, weighted = core._masked_sums(c2, spec)
        rhs = [(sum(sent) - plain) % p] + [(offset[j] - weighted[j - 1]) % p for j in range(1, spec.d - 1)]
        for k, v in zip(nodes, solve_moments(nodes, rhs, p)):
            c2[k - 1] = v  # every residue is a symbol here, as q = p
        if abs(sum(c2) - sum(sent)) == p:
            break
    assert exact_profile(c2, spec)[1:] == offset[1:]
    assert not is_codeword(c2, spec, offset)
    received = list(c2)
    received[other - 1] = (c2[other - 1] + 1) % spec.q

    arrays, outcomes, solved, members = [], [], [], []
    decode, solve, member = errors._decode, errors.solve_moments, errors.is_codeword

    def spy_decode(arr, *rest):
        arrays.append(arr.copy())
        outcomes.append(decode(arr, *rest))
        return outcomes[-1]

    def spy_solve(nodes, rhs, modulus):
        values = solve(nodes, rhs, modulus)
        solved.append((list(nodes), values))
        return values

    def spy_member(word, *rest):
        members.append(list(word))
        return member(word, *rest)

    monkeypatch.setattr(errors, "_decode", spy_decode)
    monkeypatch.setattr(errors, "solve_moments", spy_solve)
    monkeypatch.setattr(errors, "is_codeword", spy_member)
    form = np.array(received, dtype=np.int64)
    with pytest.raises(errors.UncorrectableError):
        decode_errors(form, spec, offset)
    # Phase one's candidate is c2, and the exact plain-sum check rejects it.
    first_nodes, first_values = solved[0]
    candidate = list(received)
    for k, residue in zip(first_nodes, first_values):
        candidate[k - 1] = (received[k - 1] - residue) % p
    assert candidate == c2
    assert outcomes[0] == "completed word fails the membership check"
    assert c2 not in members
    assert len(arrays) == 2
    assert all(arr.tolist() == received for arr in arrays)
    assert form.tolist() == received


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
    # The CLI counts no changes when an undamaged tuple comes back as
    # itself, which it does on the vectorised path; on the plain path it
    # comes back as an equal tuple of Python ints, checked above.
    if core._vectorised(spec):
        assert decode_errors(sent, spec, offset) is sent
        assert decode_erasures(sent, spec, offset) is sent

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
    _, found = validate_word(tuple(masked), spec, allow_erasures=True)
    assert found == [k + 1 for k in erased]
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
    # The default modulus here is the least prime above 2**33, so products
    # of a residue and a symbol pass 2**63, let alone 2**53; the kernel must
    # fall back to exact ints.
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


def test_alphabet_beyond_int64_decodes_on_plain_ints():
    # q = 2**64 makes the default modulus the least prime above 2**64,
    # 2**64 + 13.  Symbols and residues beyond int64 must stay Python ints
    # through every decoder step, whatever the input type.
    prime = 2**64 + 13
    assert all(pow(a, prime - 1, prime) == 1 for a in (2, 3, 5, 7, 11))
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
    masked = list(sent)
    masked[9] = None
    masked[20] = None  # the erased symbol 2**64 - 1 does not fit int64
    for form in (tuple(masked), masked, np.array(masked, dtype=object)):
        assert_same_tuple(decode_erasures(form, spec, offset), tuple(sent))
    assert_same_tuple(decode_erasures(tuple(sent), spec, offset), tuple(sent))


@pytest.mark.parametrize("dtype", [np.int64, np.uint64])
@pytest.mark.parametrize(
    "spec", [CodeSpec(2**62, 5, 3), CodeSpec(2**60, 70, 3)], ids=["n5", "n70"]
)
def test_numpy_scalar_symbols_take_the_exact_loops(spec, dtype):
    # Neither spec has power tables, so the plain-int loops take the word.
    # Symbols near q make the plain sum and term * i pass 2**63: numpy
    # scalars there would wrap.
    assert core._power_tables(spec) is None
    rng = random.Random(spec.n)
    sent = [rng.randrange(spec.q // 2, spec.q) for _ in range(spec.n)]
    offset = exact_profile(sent, spec)

    def scalars(word):
        return tuple(None if s is None else dtype(s) for s in word)

    assert syndrome_profile(scalars(sent), spec) == offset
    assert is_codeword(scalars(sent), spec, offset)
    assert_same_tuple(decode_errors(scalars(sent), spec, offset), tuple(sent))
    received = list(sent)
    received[2] = (received[2] + 12345) % spec.q
    assert_same_tuple(decode_errors(scalars(received), spec, offset), tuple(sent))
    masked = list(sent)
    masked[0] = masked[-1] = None
    assert_same_tuple(decode_erasures(scalars(masked), spec, offset), tuple(sent))


@pytest.mark.parametrize("dtype", [np.int64, np.uint64])
@pytest.mark.parametrize(
    "spec",
    [CodeSpec(2**62, 5, 3), CodeSpec(2**60, 70, 3), CodeSpec(3, 7, 5)],
    ids=["n5", "n70", "small"],
)
def test_numpy_scalar_offsets_decode_as_int_offsets(spec, dtype):
    # Offset entries near 2**63 would wrap, or raise, in numpy arithmetic
    # against the plain-int sums; validate_offset hands back Python ints.
    rng = random.Random(spec.n)
    sent = tuple(rng.randrange(spec.q // 2, spec.q) for _ in range(spec.n))
    offset = exact_profile(sent, spec)
    scalars = tuple(dtype(v) for v in offset)
    checked = core.validate_offset(scalars, spec)
    assert checked == offset and all(type(v) is int for v in checked)
    received = list(sent)
    received[1] = (received[1] - 1) % spec.q
    received = tuple(received)
    masked = (None,) + sent[1:-1] + (None,)
    for form in (offset, scalars, np.array(offset, dtype=dtype)):
        assert is_codeword(sent, spec, form)
        assert not is_codeword(received, spec, form)
        assert_same_tuple(decode_errors(received, spec, form), sent)
        assert_same_tuple(decode_erasures(masked, spec, form), sent)


def test_offset_from_the_overflow_report_decodes():
    spec = CodeSpec(2**62, 5, 3)
    top = 2**62 - 1
    sent = (top, top, 0, 0, 0)
    offset = tuple(np.uint64(v) for v in syndrome_profile(sent, spec))
    assert_same_tuple(decode_erasures((None, top, 0, 0, 0), spec, offset), sent)
    assert_same_tuple(decode_errors((top, top - 1, 0, 0, 0), spec, offset), sent)


@pytest.mark.parametrize(
    "spec, vectorised",
    [(CodeSpec(200, 63, 5), False), (CodeSpec(200, 64, 5), True), (CodeSpec(2**40, 64, 5), False)],
    ids=["n63", "n64", "no-tables"],
)
def test_validate_word_returns_an_owned_working_form(spec, vectorised):
    # One rule for every input type: int64 exactly on the vectorised path.
    rng = random.Random(spec.n)
    sent = [rng.randrange(200) for _ in range(spec.n)]
    masked = list(sent)
    for k in (0, 9, spec.n - 1):
        masked[k] = None
    forms = [tuple(sent), list(sent), bytes(sent), deque(sent)]
    forms += [np.array(sent, dtype=np.int64), np.array(sent, dtype=np.uint8)]
    cases = [(form, []) for form in forms]
    cases += [
        (form, [1, 10, spec.n])
        for form in (tuple(masked), list(masked), np.array(masked, dtype=object), deque(masked))
    ]
    assert core._vectorised(spec) == vectorised
    for form, erased in cases:
        before = list(form)
        symbols, found = validate_word(form, spec, allow_erasures=True)
        assert found == erased
        assert list(symbols) == [0 if s is None else s for s in before]
        if vectorised:
            assert isinstance(symbols, np.ndarray) and symbols.dtype == np.int64
        else:
            assert type(symbols) is list
            assert all(type(s) is int for s in symbols)
        symbols[0] = 7
        symbols[1] += 1
        assert list(form) == before
        if not erased:
            again, found = validate_word(form, spec)
            assert list(again) == before and found == []
