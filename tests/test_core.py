import itertools
import math
import operator
import random
import re
import types
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vtcodes
from vtcodes import bounds
from vtcodes.cli import corrupt
from vtcodes.core import (
    DEFAULT_ENUMERATION_BUDGET,
    BudgetExceededError,
    CodeSpec,
    best_offset_search,
    checksum,
    enumerate_codewords,
    format_offset,
    format_word,
    hamming_distance,
    is_codeword,
    parse_offset,
    parse_word,
    read_integer,
    syndrome_profile,
    validate_offset,
    validate_word,
)
from vtcodes.erasure import InconsistentWordError, decode_erasures
from vtcodes.errors import UncorrectableError, decode_errors


def test_spec_moduli():
    spec = CodeSpec(2, 5, 3)
    assert spec.sum_modulus == 3
    assert spec.power_modulus == 5
    assert spec.checksum_count == 2
    assert spec.correction_radius == 1
    assert spec.offset_space_size == 15


def test_spec_modulus_picks_smallest_prime():
    assert CodeSpec(4, 22, 3).power_modulus == 23
    assert CodeSpec(4, 24, 3).power_modulus == 29
    assert CodeSpec(3, 122, 3).power_modulus == 127
    assert CodeSpec(9, 41, 3).power_modulus == 41
    # alphabet larger than the length drives the modulus too
    assert CodeSpec(11, 5, 3).power_modulus == 11
    assert CodeSpec(16, 5, 3).power_modulus == 17


def test_spec_modulus_override():
    spec = CodeSpec(9, 41, 3, power_modulus=383)
    assert spec.power_modulus == 383
    with pytest.raises(ValueError):
        CodeSpec(2, 5, 3, power_modulus=87)  # composite
    with pytest.raises(ValueError):
        CodeSpec(2, 5, 3, power_modulus=3)  # below max(n, q)


def test_spec_parameter_validation():
    with pytest.raises(ValueError):
        CodeSpec(1, 5, 3)
    with pytest.raises(ValueError):
        CodeSpec(2, 5, 2)
    with pytest.raises(ValueError):
        CodeSpec(2, 2, 3)


def test_correction_radius_by_distance():
    assert CodeSpec(2, 7, 4).correction_radius == 1
    assert CodeSpec(2, 7, 5).correction_radius == 2
    assert CodeSpec(16, 9, 7).correction_radius == 3


def test_parse_and_format_word():
    assert parse_word("1,0,0,1,1") == (1, 0, 0, 1, 1)
    assert parse_word("1, ?, 0") == (1, None, 0)
    assert format_word((1, None, 0)) == "1,?,0"
    assert parse_word(format_word((4, 0, None, 2))) == (4, 0, None, 2)
    with pytest.raises(ValueError):
        parse_word("1,x,0")
    with pytest.raises(ValueError):
        parse_word("1,-2,0")
    with pytest.raises(ValueError):
        parse_word("")


def _reference_parse_word(text):
    """parse_word as a per-symbol loop: strip each part, then int() it."""
    parts = [p.strip() for p in text.split(",")]
    if parts == [""]:
        raise ValueError("empty word")
    out = []
    for p in parts:
        if p == "?":
            out.append(None)
        else:
            try:
                v = int(p)
            except ValueError:
                raise ValueError(f"bad symbol {p!r} in word") from None
            if v < 0:
                raise ValueError(f"negative symbol {v} in word")
            out.append(v)
    return tuple(out)


def _parse_outcome(parse, text):
    try:
        return parse(text)
    except ValueError as exc:
        return ("ValueError", str(exc))


# Characters on both sides of the fast path's guard: what JSON and int()
# read alike, and signs, underscores, decimal points, exponents, a carriage
# return, a letter and a non-ASCII digit, which only int() (or neither) takes.
_WORD_ALPHABET = "0123456789?, \t-+_.e\rx\u0663"


@pytest.mark.parametrize("text", [
    "", " ", "05", "+5", "1_0", "1.0", "1e3", "??", "1?", ",1", "1,", "null",
    "true", pytest.param("1," + "7" * 5000, id="5000-digit symbol"),
    pytest.param("7" * 4300, id="4300-digit symbol"), "0, 00", " ? ,\t3\t", "1\r,2",
    "\u0663,1", "-0", "1 2", "?,?,?",
])
def test_parse_word_matches_the_loop_on_listed_texts(text):
    assert _parse_outcome(parse_word, text) == _parse_outcome(_reference_parse_word, text)


_WORD_TEXTS = st.one_of(
    st.text(alphabet=_WORD_ALPHABET, max_size=40),
    st.lists(
        st.one_of(
            st.integers(0, 10**20).map(str),
            st.just("?"),
            st.text(alphabet=_WORD_ALPHABET, max_size=4),
        ),
        max_size=12,
    ).map(",".join),
)


@settings(max_examples=500, deadline=None)
@given(_WORD_TEXTS)
def test_parse_word_matches_the_loop(text):
    assert _parse_outcome(parse_word, text) == _parse_outcome(_reference_parse_word, text)


def test_parse_and_format_offset():
    assert parse_offset("0,0") == (0, 0)
    assert parse_offset("2, 4") == (2, 4)
    assert format_offset((2, 4)) == "2,4"
    with pytest.raises(ValueError):
        parse_offset("1,?")
    for blank in ("", " "):
        with pytest.raises(ValueError, match="^empty offset$"):
            parse_offset(blank)


def test_validate_word():
    spec = CodeSpec(2, 5, 3)
    validate_word((1, 0, 0, 1, 1), spec)
    validate_word((1, None, 0, 1, 1), spec, allow_erasures=True)
    with pytest.raises(ValueError):
        validate_word((1, 0, 0, 1), spec)  # wrong length
    with pytest.raises(ValueError):
        validate_word((1, 0, 2, 1, 1), spec)  # symbol out of range
    with pytest.raises(ValueError):
        validate_word((1, None, 0, 1, 1), spec)  # erasure not allowed here


def test_validate_offset():
    spec = CodeSpec(2, 5, 3)
    validate_offset((2, 4), spec)
    with pytest.raises(ValueError):
        validate_offset((0,), spec)
    with pytest.raises(ValueError):
        validate_offset((3, 0), spec)  # first component lives mod 3
    with pytest.raises(ValueError):
        validate_offset((0, 5), spec)  # second lives mod 5


@pytest.mark.parametrize(
    "bad", [0.5, pytest.param(np.True_, id="np.True_"), np.float64(1.0), "1", None]
)
@pytest.mark.parametrize("at", [0, 2])
def test_offset_entries_must_be_integers(bad, at):
    spec = CodeSpec(3, 7, 5)
    offset = [0, 0, 0, 0]
    offset[at] = bad
    message = f"offset[{at}] = {bad!r} is not an integer"
    with pytest.raises(ValueError, match=re.escape(message)):
        validate_offset(offset, spec)
    for call in (is_codeword, decode_errors, decode_erasures):
        with pytest.raises(ValueError, match=re.escape(message)):
            call((0,) * 7, spec, tuple(offset))


def test_checksum_values():
    word = (1, 0, 0, 1, 1)
    assert checksum(word, 0) == 3
    assert checksum(word, 1) == 1 + 4 + 5
    assert checksum(word, 2) == 1 + 16 + 25
    with pytest.raises(ValueError):
        checksum(word, -1)
    with pytest.raises(ValueError):
        checksum((1, None, 0), 1)


def test_syndrome_profile_known_answers():
    spec = CodeSpec(2, 5, 3)
    assert syndrome_profile((1, 0, 0, 1, 1), spec) == (0, 0)
    assert syndrome_profile((1, 1, 1, 1, 1), spec) == (2, 0)
    assert syndrome_profile((0, 0, 0, 0, 0), spec) == (0, 0)


def test_syndrome_profile_matches_checksums():
    rng = random.Random(77)
    spec = CodeSpec(5, 9, 5)
    for _ in range(60):
        word = tuple(rng.randrange(spec.q) for _ in range(spec.n))
        profile = syndrome_profile(word, spec)
        assert profile[0] == checksum(word, 0) % spec.sum_modulus
        for j in range(1, spec.d - 1):
            assert profile[j] == checksum(word, j) % spec.power_modulus
        assert is_codeword(word, spec, profile)


def test_syndrome_profile_vectorized_path_agrees():
    # n above the vectorization threshold; compare against direct checksums
    rng = random.Random(673)
    spec = CodeSpec(7, 1500, 5)
    word = tuple(rng.randrange(spec.q) for _ in range(spec.n))
    profile = syndrome_profile(word, spec)
    assert profile[0] == checksum(word, 0) % spec.sum_modulus
    for j in range(1, spec.d - 1):
        assert profile[j] == checksum(word, j) % spec.power_modulus


def test_is_codeword():
    spec = CodeSpec(2, 5, 3)
    assert is_codeword((1, 0, 0, 1, 1), spec, (0, 0))
    assert is_codeword((0, 1, 1, 0, 1), spec, (0, 0))
    assert not is_codeword((1, 1, 1, 1, 1), spec, (0, 0))
    assert is_codeword((1, 1, 1, 1, 1), spec, (2, 0))


def test_enumerate_codewords_known_coset():
    spec = CodeSpec(2, 5, 3)
    words = enumerate_codewords(spec, (0, 0))
    assert words == [
        (0, 0, 0, 0, 0),
        (0, 1, 1, 0, 1),
        (1, 0, 0, 1, 1),
    ]


def test_enumeration_budget_refusal():
    spec = CodeSpec(2, 30, 3)
    with pytest.raises(BudgetExceededError):
        enumerate_codewords(spec, (0, 0), budget=1 << 20)
    with pytest.raises(BudgetExceededError):
        best_offset_search(spec, budget=1 << 20)
    assert 2**30 > 1 << 20 < DEFAULT_ENUMERATION_BUDGET


def test_cosets_partition_the_cube():
    spec = CodeSpec(2, 5, 3)
    offsets = list(itertools.product(range(spec.sum_modulus), range(spec.power_modulus)))
    assert len(offsets) == spec.offset_space_size == 15
    seen = 0
    for offset in offsets:
        seen += len(enumerate_codewords(spec, offset))
    assert seen == 2**5
    # spot-check one word lands in exactly one coset
    word = (1, 1, 0, 1, 0)
    homes = [offset for offset in offsets if is_codeword(word, spec, offset)]
    assert homes == [syndrome_profile(word, spec)]


def test_best_offset_search_known_answer():
    spec = CodeSpec(2, 5, 3)
    offset, size = best_offset_search(spec)
    assert offset == (0, 0)
    assert size == 3
    assert size >= math.ceil(2**5 / spec.offset_space_size)


def test_hamming_distance():
    assert hamming_distance((0, 1, 2), (0, 1, 2)) == 0
    assert hamming_distance((0, 1, 2), (1, 1, 0)) == 2
    with pytest.raises(ValueError):
        hamming_distance((0, 1), (0, 1, 2))


def test_checksum_is_additive_over_symbols():
    # positionwise integer sums of words add their checksums exactly
    rng = random.Random(31)
    for _ in range(25):
        n = rng.randrange(2, 12)
        x = tuple(rng.randrange(5) for _ in range(n))
        y = tuple(rng.randrange(5) for _ in range(n))
        merged = tuple(a + b for a, b in zip(x, y))
        for j in range(4):
            assert checksum(merged, j) == checksum(x, j) + checksum(y, j)


def test_search_meets_the_averaging_bound_ternary():
    spec = CodeSpec(3, 5, 3)
    _, size = best_offset_search(spec)
    assert size >= 10  # ceil(3**5 / 25)


def test_search_at_the_shortest_admissible_length():
    # n equal to d still partitions into nonempty pieces
    _, size = best_offset_search(CodeSpec(2, 3, 3))
    assert size >= 1


# The names the benchmark harness reads from the package root: its tracer's
# call sites, its layer probes and its workloads.  Without one a workload
# fails or a traced metric reads null, which tests/test_bench_output.py
# catches only after several seconds.
PERFBENCH_NAMES = (
    "CodeSpec", "InconsistentWordError", "KeyEquationState", "UncorrectableError",
    "berlekamp_massey", "best_offset_search", "compute_error_syndrome",
    "coset_partition", "decode_check_sweep", "decode_erasures", "decode_errors",
    "distance_sweep", "format_word", "is_codeword", "locate_and_evaluate",
    "parse_word", "partition_check", "syndrome_profile",
)


def test_public_surface():
    assert sorted(vtcodes.__all__) == [
        "BoundRow", "BudgetExceededError", "CodeSpec", "DEFAULT_ENUMERATION_BUDGET",
        "ERASURE_MARK", "ErrorVector", "InconsistentWordError", "KeyEquationState",
        "LengthBound", "LinearBaseline", "UncorrectableError", "VerificationReport",
        "admissible_prime_lengths", "berlekamp_massey", "best_offset_search",
        "checksum", "code_size_lower_bound", "compute_error_syndrome",
        "coset_partition", "decode_check_sweep", "decode_erasures", "decode_errors",
        "distance_sweep", "enumerate_codewords", "exhaustive_decode_check",
        "format_offset", "format_word", "generate_table",
        "improvement_interval_defect0", "improvement_interval_defect1",
        "is_codeword", "locate_and_evaluate", "parse_offset", "parse_word",
        "partition_check", "prime_length_report", "redundancy_display",
        "redundancy_upper_bound", "syndrome_profile", "validate_offset",
    ]
    public = {
        name
        for name, value in vars(vtcodes).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(vtcodes.__all__)
    assert set(PERFBENCH_NAMES) <= set(vtcodes.__all__)


# The one integer rule (core.read_integer): a value is an integer when
# operator.index takes it, and is then read as that Python int, so bools read
# as 0 and 1; np.bool_, floats, Fraction, Decimal and str are refused with a
# ValueError that names the entry.  Each kind below turns a Python int into a
# value of that kind; numpy integer kinds wrap it into their range.
def _wrapped(dtype):
    low, span = int(np.iinfo(dtype).min), 1 << np.iinfo(dtype).bits
    return lambda v: dtype((v - low) % span + low)


INTEGER_DTYPES = (np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64)
READ_KINDS = {
    "int": (lambda v: v, None),
    "bool": (lambda v: bool(v % 2), None),
    **{dtype.__name__: (_wrapped(dtype), dtype) for dtype in INTEGER_DTYPES},
}
REFUSED_KINDS = {
    "np.bool_": (lambda v: np.bool_(v % 2), np.bool_),
    "float": (float, np.float64),
    "Fraction": (Fraction, None),
    "Decimal": (Decimal, None),
    "str": (str, None),
}
KINDS = {**READ_KINDS, **REFUSED_KINDS}
RULE_SPECS = (CodeSpec(3, 7, 5), CodeSpec(5, 63, 5), CodeSpec(5, 64, 5), CodeSpec(2**40, 70, 5))


def _sequence(values, kind, as_array):
    """``values`` in ``kind``, None kept: a tuple of scalars, or an array of
    the kind's numpy dtype (object dtype where None is present)."""
    convert, dtype = KINDS[kind]
    items = [None if v is None else convert(v) for v in values]
    if not as_array:
        return tuple(items)
    return np.array(items, dtype=object if None in values else dtype)


def _outcome(call, exact):
    """The result, as its repr where ``exact`` (so a numpy scalar in place of
    a Python int shows), or the name and text of the typed failure."""
    try:
        result = call()
    except (ValueError, BudgetExceededError, UncorrectableError, InconsistentWordError) as exc:
        return type(exc).__name__, str(exc)
    return repr(result) if exact else result


def _symbol_refusal(form):
    position, symbol = next((i, s) for i, s in enumerate(form, 1) if s is not None)
    return f"symbol {symbol!r} at position {position} is not an integer"


def _check_rule(data, kind, scalar_args, sequence_args, call, exact=True):
    """Pass one argument in ``kind`` and the rest as Python ints: the outcome
    equals the all-int one where the kind is read, and is the refusal naming
    that argument where it is not.

    ``scalar_args`` maps a name to (int value, label); ``sequence_args`` maps
    a name to (values, refusal builder), where values may hold None.
    """
    name = data.draw(st.sampled_from(sorted(scalar_args) + sorted(sequence_args)))
    args = {key: value for key, (value, _) in scalar_args.items()}
    args.update((key, tuple(values)) for key, (values, _) in sequence_args.items())
    reference = dict(args)
    if name in scalar_args:
        value, label = scalar_args[name]
        args[name] = KINDS[kind][0](value)
        refusal = f"{label} = {args[name]!r} is not an integer"
        if kind in READ_KINDS:
            reference[name] = operator.index(args[name])
    else:
        values, refusal_of = sequence_args[name]
        as_array = KINDS[kind][1] is not None and data.draw(st.booleans())
        args[name] = _sequence(values, kind, as_array)
        refusal = refusal_of(args[name])
        if kind in READ_KINDS:
            reference[name] = tuple(None if s is None else operator.index(s) for s in args[name])
    got = _outcome(lambda: call(**args), exact)
    if kind in READ_KINDS:
        assert got == _outcome(lambda: call(**reference), exact)
    else:
        assert got == ("ValueError", refusal)


def _offset_refusal(form):
    return f"offset[0] = {list(form)[0]!r} is not an integer"


def _word_and_offset(data, spec):
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    word = tuple(rng.randrange(spec.q) for _ in range(spec.n))
    return rng, word, syndrome_profile(word, spec)


RULE_ENTRY_POINTS = (
    "CodeSpec", "syndrome_profile", "is_codeword", "decode_errors", "decode_erasures",
    "checksum", "enumerate_codewords", "is_prime_power", "improvement_interval_defect0",
    "corrupt",
)


@pytest.mark.parametrize("entry", RULE_ENTRY_POINTS)
@settings(max_examples=60, deadline=None)
@given(data=st.data(), kind=st.sampled_from(sorted(KINDS)), spec=st.sampled_from(RULE_SPECS))
def test_every_entry_point_reads_integers_by_one_rule(entry, data, kind, spec):
    rng, word, offset = _word_and_offset(data, spec)
    words = {"word": (word, _symbol_refusal)}
    offsets = {"offset": (offset, _offset_refusal)}
    if entry == "CodeSpec":
        fields = {name: (getattr(spec, name), name) for name in ("q", "n", "d", "power_modulus")}
        _check_rule(data, kind, fields, {}, CodeSpec)
    elif entry == "syndrome_profile":
        _check_rule(data, kind, {}, words, lambda word: syndrome_profile(word, spec))
    elif entry == "is_codeword":
        _check_rule(data, kind, {}, {**words, **offsets}, lambda word, offset: is_codeword(word, spec, offset))
    elif entry == "decode_errors":
        received = list(word)
        k = rng.randrange(spec.n)
        received[k] = (received[k] + rng.randrange(1, spec.q)) % spec.q
        _check_rule(
            data, kind, {}, {"word": (received, _symbol_refusal), **offsets},
            lambda word, offset: decode_errors(word, spec, offset), exact=False,
        )
    elif entry == "decode_erasures":
        masked = list(word)
        masked[rng.randrange(spec.n)] = None
        _check_rule(
            data, kind, {}, {"word": (masked, _symbol_refusal), **offsets},
            lambda word, offset: decode_erasures(word, spec, offset), exact=False,
        )
    elif entry == "checksum":
        order = {"j": (data.draw(st.integers(0, 4)), "checksum order")}
        _check_rule(data, kind, order, words, checksum)
    elif entry == "enumerate_codewords":
        budget = {"budget": (3**7, "budget")}  # enumerates (3, 7, 5), refuses the rest
        _check_rule(
            data, kind, budget, offsets,
            lambda offset, budget: enumerate_codewords(spec, offset, budget),
        )
    elif entry in ("is_prime_power", "improvement_interval_defect0"):
        q = {"q": (data.draw(st.sampled_from([spec.q, rng.randrange(300)])), "q")}
        _check_rule(data, kind, q, {}, getattr(bounds, entry))
    else:
        counts = {
            "q": (spec.q, "q"),
            "erasures": (rng.randrange(3), "erasures"),
            "errors": (rng.randrange(3), "errors"),
            "seed": (rng.randrange(2**64), "seed"),
        }
        _check_rule(
            data, kind, counts, words,
            lambda word, q, erasures, errors, seed: corrupt(
                word, q, erasures=erasures, errors=errors, seed=seed
            ),
        )


def test_read_integer_returns_python_ints():
    assert read_integer(True, "x") == 1 and type(read_integer(True, "x")) is int
    assert type(read_integer(np.uint64(2**64 - 1), "x")) is int
    spec = CodeSpec(np.int64(3), np.uint8(7), np.int16(5), power_modulus=np.int64(11))
    assert [type(v) for v in (spec.q, spec.n, spec.d, spec.power_modulus)] == [int] * 4
    assert syndrome_profile((1, 0, 0, 0, 0, 0, 0), spec) == (1, 1, 1, 1)
    with pytest.raises(ValueError, match=re.escape("power_modulus = 11.0 is not an integer")):
        CodeSpec(3, 7, 5, power_modulus=11.0)
    assert CodeSpec(3, 7, 5, power_modulus=np.int64(2**61 - 1)).power_modulus == 2**61 - 1
    with pytest.raises(ValueError, match=re.escape("q = 4.0 is not an integer")):
        bounds.admissible_prime_lengths(4.0, 3)
    # A bool array is refused with the position named, as a float array is.
    for n in (8, 64):
        with pytest.raises(ValueError, match=re.escape("symbol np.True_ at position 1 is not an integer")):
            syndrome_profile(np.ones(n, dtype=bool), CodeSpec(3, n, 5))
