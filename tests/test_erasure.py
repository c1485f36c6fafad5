import itertools
import random

import pytest

from vtcodes.core import CodeSpec, checksum, enumerate_codewords, iter_offsets, parse_word, syndrome_profile
from vtcodes.erasure import InconsistentWordError, decode_erasures


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
        for word in enumerate_codewords(spec, offset):
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
    for word in enumerate_codewords(spec, (0, 0)):
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


def test_rejection_matches_brute_force_over_fillings():
    # Here p = 5 <= (d-1)(q-1) = 6, so the mod-p shadow of the plain sum
    # does not pin the erased symbols' exact sum: only the final membership
    # check can reject a filling that meets every residue but that one.
    # (5, 5, 3) has the same property but takes about 10 s.
    q, n, d = 4, 4, 3
    spec = CodeSpec(q, n, d)
    assert spec.power_modulus <= (d - 1) * (q - 1)

    def exact_profile(word):
        return (
            checksum(word, 0) % spec.sum_modulus,
            *(checksum(word, j) % spec.power_modulus for j in range(1, d - 1)),
        )

    masked_words = set()
    for word in itertools.product(range(q), repeat=n):
        for m in range(d):
            for positions in itertools.combinations(range(n), m):
                masked = list(word)
                for i in positions:
                    masked[i] = None
                masked_words.add(tuple(masked))
    offsets = list(iter_offsets(spec))
    for masked in masked_words:
        erased = [i for i, s in enumerate(masked) if s is None]
        profiles = {}
        for fill in itertools.product(range(q), repeat=len(erased)):
            completed = list(masked)
            for i, v in zip(erased, fill):
                completed[i] = v
            profiles.setdefault(exact_profile(completed), []).append(tuple(completed))
        for offset in offsets:
            members = profiles.get(offset, [])
            assert len(members) <= 1  # distance d exceeds the d-1 erasures
            if members:
                assert decode_erasures(masked, spec, offset) == members[0]
            else:
                with pytest.raises(InconsistentWordError):
                    decode_erasures(masked, spec, offset)
