import itertools
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from vtcodes.core import (
    _VECTOR_MIN_LENGTH,
    DEFAULT_ENUMERATION_BUDGET,
    CodeSpec,
    _masked_sums,
    checksum,
    parse_word,
    syndrome_profile,
    validate_word,
)
from vtcodes.erasure import (
    InconsistentWordError,
    _decode_rows,
    _row_dtype,
    decode_erasures,
)
from vtcodes.modarith import smallest_prime_geq
from vtcodes.oracle import _coset


def exact_profile(word, spec):
    return (
        checksum(word, 0) % spec.sum_modulus,
        *(checksum(word, j) % spec.power_modulus for j in range(1, spec.d - 1)),
    )


def test_two_erasures_known_answer():
    spec = CodeSpec(2, 5, 3)
    got = decode_erasures(parse_word("1,?,?,1,1"), spec, (0, 0))
    assert got == (1, 0, 0, 1, 1)


def test_inconsistent_erasure_pattern_rejected():
    spec = CodeSpec(2, 5, 3)
    with pytest.raises(InconsistentWordError):
        decode_erasures(parse_word("1,?,?,0,1"), spec, (0, 0))


def test_no_erasures_is_a_membership_check():
    spec = CodeSpec(2, 5, 3)
    word = (1, 0, 0, 1, 1)
    assert decode_erasures(word, spec, (0, 0)) == word
    with pytest.raises(InconsistentWordError):
        decode_erasures((1, 1, 1, 1, 1), spec, (0, 0))


def test_too_many_erasures_is_a_usage_error():
    spec = CodeSpec(2, 5, 3)
    with pytest.raises(ValueError):
        decode_erasures((None, None, None, 1, 1), spec, (0, 0))


def test_erasure_at_final_position():
    # n equals the prime modulus here, so position n reduces to node 0.
    spec = CodeSpec(2, 5, 3)
    assert decode_erasures((1, 0, 0, None, None), spec, (0, 0)) == (1, 0, 0, 1, 1)
    assert decode_erasures((0, 1, 1, 0, None), spec, (0, 0)) == (0, 1, 1, 0, 1)


def test_every_mask_on_every_codeword_small():
    spec = CodeSpec(3, 4, 3)
    for offset in ((0, 0), (1, 2), (4, 4)):
        for word in _coset(spec, offset, DEFAULT_ENUMERATION_BUDGET):
            for m in range(1, spec.d):
                for positions in itertools.combinations(range(spec.n), m):
                    masked = list(word)
                    for i in positions:
                        masked[i] = None
                    assert decode_erasures(tuple(masked), spec, offset) == word


def test_erasure_plus_substitution_is_caught():
    # One erased position and one flipped kept position cannot complete to
    # any coset member when the distance is 3.
    spec = CodeSpec(2, 5, 3)
    for word in _coset(spec, (0, 0), DEFAULT_ENUMERATION_BUDGET):
        for erased in range(spec.n):
            for flipped in range(spec.n):
                if flipped == erased:
                    continue
                damaged = list(word)
                damaged[erased] = None
                damaged[flipped] = 1 - damaged[flipped]
                with pytest.raises(InconsistentWordError):
                    decode_erasures(tuple(damaged), spec, (0, 0))


def test_offset_validation():
    spec = CodeSpec(2, 5, 3)
    with pytest.raises(ValueError):
        decode_erasures((1, None, 0, 1, 1), spec, (0,))
    with pytest.raises(ValueError):
        decode_erasures((1, None, 0, 1, 1), spec, (3, 0))


def test_random_round_trips():
    rng = random.Random(40)
    spec = CodeSpec(5, 9, 5)
    for _ in range(40):
        word = tuple(rng.randrange(spec.q) for _ in range(spec.n))
        offset = syndrome_profile(word, spec)
        count = rng.randint(1, spec.d - 1)
        masked = list(word)
        for i in rng.sample(range(spec.n), count):
            masked[i] = None
        assert decode_erasures(tuple(masked), spec, offset) == word


def test_large_block_vectorized_path():
    rng = random.Random(91)
    spec = CodeSpec(7, 1500, 6)
    word = tuple(rng.randrange(spec.q) for _ in range(spec.n))
    offset = syndrome_profile(word, spec)
    masked = list(word)
    # hit both ends plus interior positions
    for i in (0, 700, 701, 1312, spec.n - 1):
        masked[i] = None
    assert decode_erasures(tuple(masked), spec, offset) == word


def _small_masks(n, d):
    """Every erasure mask of weight <= 2, and every mask of weight 3 .. d-1
    within both ends and the middle of the word, as 0-based positions."""
    corners = (0, 1, 2, 31, 32, 33, *range(61, n))
    for m in range(3):
        yield from itertools.combinations(range(n), m)
    for m in range(3, d):
        yield from itertools.combinations(corners, m)


@pytest.mark.parametrize(
    "spec, count", [(CodeSpec(3, 67, 5), 2994), (CodeSpec(3, 64, 5), 2291)]
)
def test_every_small_mask_on_the_vectorised_path(spec, count):
    # n = p makes position n node 0 of the moment solve; n < p does not.
    # The masks take turns over a few sent words.  At weight d-1 every
    # moment is spent on the erasures, so a changed kept symbol is caught
    # only by the range and exact plain-sum checks.
    assert spec.n >= _VECTOR_MIN_LENGTH
    rng = random.Random(spec.n)
    sent_words = [tuple(rng.randrange(spec.q) for _ in range(spec.n)) for _ in range(3)]
    offsets = [exact_profile(w, spec) for w in sent_words]
    decoded = 0
    for i, mask in enumerate(_small_masks(spec.n, spec.d)):
        sent, offset = sent_words[i % 3], offsets[i % 3]
        masked = list(sent)
        for k in mask:
            masked[k] = None
        assert decode_erasures(tuple(masked), spec, offset) == sent, mask
        decoded += 1
        if len(mask) == spec.d - 1:
            kept = rng.choice([k for k in range(spec.n) if k not in mask])
            masked[kept] = (masked[kept] + rng.randrange(1, spec.q)) % spec.q
            with pytest.raises(InconsistentWordError):
                decode_erasures(tuple(masked), spec, offset)
    assert decoded == count


def test_d_minus_one_erasures_at_large_distance():
    # d - 1 = 128 erasures at n = 4099.  With one kept symbol changed, a
    # completion would need all 128 solved residues mod 4099 to land in
    # [0, 15]; with this seed they do not.
    rng = random.Random(129)
    spec = CodeSpec(16, 4099, 129)
    word = tuple(rng.randrange(spec.q) for _ in range(spec.n))
    offset = syndrome_profile(word, spec)
    positions = rng.sample(range(spec.n), spec.d - 1)
    masked = list(word)
    for i in positions:
        masked[i] = None
    assert decode_erasures(tuple(masked), spec, offset) == word
    kept = next(i for i in range(spec.n) if masked[i] is not None)
    masked[kept] = (masked[kept] + 1) % spec.q
    with pytest.raises(InconsistentWordError):
        decode_erasures(tuple(masked), spec, offset)

def test_rejection_matches_brute_force_over_fillings():
    # Here p = 5 <= (d-1)(q-1) = 6, so the mod-p shadow of the plain sum
    # does not pin the erased symbols' exact sum: only the final membership
    # check can reject a filling that meets every residue but that one.
    # (5, 5, 3) has the same property but takes about 10 s.
    q, n, d = 4, 4, 3
    spec = CodeSpec(q, n, d)
    assert spec.power_modulus <= (d - 1) * (q - 1)

    masked_words = set()
    for word in itertools.product(range(q), repeat=n):
        for m in range(d):
            for positions in itertools.combinations(range(n), m):
                masked = list(word)
                for i in positions:
                    masked[i] = None
                masked_words.add(tuple(masked))
    offsets = list(itertools.product(range(spec.sum_modulus), range(spec.power_modulus)))
    for masked in masked_words:
        erased = [i for i, s in enumerate(masked) if s is None]
        profiles = {}
        for fill in itertools.product(range(q), repeat=len(erased)):
            completed = list(masked)
            for i, v in zip(erased, fill):
                completed[i] = v
            profiles.setdefault(exact_profile(completed, spec), []).append(tuple(completed))
        for offset in offsets:
            members = profiles.get(offset, [])
            assert len(members) <= 1  # distance d exceeds the d-1 erasures
            if members:
                assert decode_erasures(masked, spec, offset) == members[0]
            else:
                with pytest.raises(InconsistentWordError):
                    decode_erasures(masked, spec, offset)


def reference_decode(masked, spec, offset):
    """The coset member that completes ``masked``, or None; independent of
    the package's solver and syndrome kernel.

    The erased symbols add up to less than sum_modulus, so their plain sum
    is the residue (offset[0] - kept sum) mod sum_modulus.  With it, the
    first m moment equations over GF(p) determine the erased symbols
    (their Vandermonde matrix is invertible); sympy solves them.  The
    completion is a member when its symbols lie in the alphabet and its
    exact checksums match the offset.
    """
    from sympy import GF
    from sympy.polys.matrices import DomainMatrix

    p = spec.power_modulus
    erased = [i for i, s in enumerate(masked, start=1) if s is None]
    kept = [0 if s is None else s for s in masked]
    moments = [(offset[0] - checksum(kept, 0)) % spec.sum_modulus] + [
        offset[j] - checksum(kept, j) for j in range(1, len(erased))
    ]
    field = GF(p)
    m = len(erased)
    matrix = DomainMatrix(
        [[field(pow(k, j, p)) for k in erased] for j in range(m)], (m, m), field
    )
    rhs = DomainMatrix([[field(t % p)] for t in moments], (m, 1), field)
    values = [int(field.to_int(v)) % p for v in matrix.lu_solve(rhs).to_list_flat()]
    if any(v >= spec.q for v in values):
        return None
    for k, v in zip(erased, values):
        kept[k - 1] = v
    return tuple(kept) if exact_profile(kept, spec) == tuple(offset) else None


@st.composite
def erasure_specs(draw):
    """Codes with n = p, with q > n (so p > n), with q = 2, and with d up
    to 33 at n <= 300."""
    d = draw(st.integers(3, 33))
    kind = draw(st.sampled_from(["n=p", "q>n", "q=2", "n<p"]))
    if kind == "n=p":
        q = draw(st.integers(2, 250))
        n = smallest_prime_geq(draw(st.integers(max(q, d), 293)))
    elif kind == "q>n":
        n = draw(st.integers(d, 300))
        q = draw(st.integers(n + 1, n + 400))
    else:
        q = 2 if kind == "q=2" else draw(st.integers(3, 300))
        n = draw(st.integers(d, 300))
    spec = CodeSpec(q, n, d)
    if kind == "n=p":
        assert spec.power_modulus == n
    if kind == "n<p":
        assume(spec.power_modulus > n)
    return spec


@settings(max_examples=100, deadline=None)
@given(erasure_specs(), st.integers(0, 2**32))
def test_erasures_match_an_independent_gf_p_solve(spec, seed):
    rng = random.Random(seed)
    p = spec.power_modulus
    sent = tuple(rng.randrange(spec.q) for _ in range(spec.n))
    offset = exact_profile(sent, spec)
    m = rng.randint(1, spec.d - 1)
    positions = rng.sample(range(spec.n - 1), m - 1) + [spec.n - 1]  # node n mod p
    masked = list(sent)
    for i in positions:
        masked[i] = None
    masked = tuple(masked)
    assert decode_erasures(masked, spec, offset) == sent

    # Damaged variants, each compared with the reference: a kept symbol
    # changed; offset[0] moved by p (mod sum_modulus), which leaves every
    # mod-p equation as it was unless the move wraps, so that only the
    # exact plain-sum check can reject it; a random offset.
    kept = [i for i in range(spec.n) if masked[i] is not None]
    changed = list(masked)
    i = rng.choice(kept)
    changed[i] = (changed[i] + rng.randrange(1, spec.q)) % spec.q
    moved = ((offset[0] + p) % spec.sum_modulus, *offset[1:])
    drawn = (
        rng.randrange(spec.sum_modulus),
        *(rng.randrange(p) for _ in range(spec.d - 2)),
    )
    for word, target in ((tuple(changed), offset), (masked, moved), (masked, drawn)):
        expected = reference_decode(word, spec, target)
        if expected is None:
            with pytest.raises(InconsistentWordError):
                decode_erasures(word, spec, target)
        else:
            assert decode_erasures(word, spec, target) == expected


def batch_rows(words, offsets, spec):
    """The arrays erasure._decode_rows takes: each word's working form,
    its _masked_sums and its offset, in the row dtype of the spec."""
    forms, sums = [], []
    for word in words:
        symbols, _ = validate_word(word, spec)
        plain, weighted = _masked_sums(symbols, spec)
        forms.append(symbols)
        sums.append((plain, *weighted))
    dtype = _row_dtype(spec)
    return (np.array(a, dtype=dtype) for a in (forms, sums, offsets))


ROW_SPECS = [
    CodeSpec(4, 5, 3),  # q near p: only the exact plain sum decides some rows
    CodeSpec(3, 5, 4),
    CodeSpec(2, 6, 5),
    CodeSpec(3, 7, 5),  # n = p: position n is node 0
    CodeSpec(7, 11, 5),
    CodeSpec(2, 5, 3, power_modulus=2**61 - 1),  # beyond int64: Python-int rows
]


@pytest.mark.parametrize(
    "spec", ROW_SPECS, ids=lambda s: f"q{s.q}-n{s.n}-d{s.d}-p{s.power_modulus}"
)
@settings(max_examples=6, deadline=None)
@given(st.integers(0, 2**32))
def test_decode_rows_matches_decode_erasures(spec, seed):
    # Random words, each under its own profile (a codeword of its coset)
    # or a random offset, every mask of weight <= d-1: the batch must give
    # the word decode_erasures gives, or reject the row as it does.
    rng = random.Random(seed)
    words, offsets = [], []
    for i in range(8):
        word = tuple(rng.randrange(spec.q) for _ in range(spec.n))
        words.append(word)
        offsets.append(
            exact_profile(word, spec)
            if i % 2
            else (
                rng.randrange(spec.sum_modulus),
                *(rng.randrange(spec.power_modulus) for _ in range(spec.d - 2)),
            )
        )
    symbols, sums, targets = batch_rows(words, offsets, spec)
    for m in range(spec.d):
        for mask in itertools.combinations(range(1, spec.n + 1), m):
            filled, accepted = _decode_rows(symbols, sums, targets, spec, list(mask))
            for word, offset, row, ok in zip(words, offsets, filled.tolist(), accepted):
                masked = list(word)
                for k in mask:
                    masked[k - 1] = None
                try:
                    expected = decode_erasures(tuple(masked), spec, offset)
                except InconsistentWordError:
                    expected = None
                if ok:
                    for k, v in zip(mask, row):
                        masked[k - 1] = v
                assert (tuple(masked) if ok else None) == expected, (word, offset, mask)
