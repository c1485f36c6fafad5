"""The code family: words over [0, q-1] sliced by position-weighted checksums.

A length-n word x (positions counted from 1) has the checksums
t_j(x) = sum_i i**j * x_i.  A code is the set of words whose plain sum t_0
hits a prescribed residue modulo ``sum_modulus`` and whose weighted sums
t_1 .. t_{d-2} hit prescribed residues modulo the prime ``power_modulus``.
Any two distinct members then disagree in at least d positions.

Text formats used by the CLI and tests: a word is comma-separated symbols
with '?' marking an erased position ("1,?,0,1,1"); an offset is the
comma-separated residue vector ("b0,b1,...").
"""

from __future__ import annotations

import itertools
import json
import math
import operator
import re
from array import array
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .modarith import smallest_prime_geq, validate_prime_modulus

DEFAULT_ENUMERATION_BUDGET = 1 << 24
ERASURE_MARK = "?"

# Below this length the plain-int loops beat the cost of building arrays.
_VECTOR_MIN_LENGTH = 64
# Symbols per block when a word that may hold erasures is converted.
_BLOCK = 1024
# OpenBLAS keeps a product of up to this many multiply-adds (m*n*k) on the
# calling thread and may split a larger one over its threads.  On a 2-vCPU
# host the split cost more than it saved (n = 1e6, d = 3: 7 ms against 2 ms
# for the syndrome product inside a decode), so word-sized products are
# issued in row slabs of at most this size.
_BLAS_SLAB = 1 << 18
# Float64 entries in one slab of block rows (64 KB).  The word-sized
# products run slab by slab through per-call buffers of this size, so a
# decode allocates no float64 array as long as the word; large temporaries
# that glibc gives back to the OS after each call cost page faults on the
# next.
_SLAB_ENTRIES = 1 << 13
# A line made of these characters only is parsed by the JSON scanner in
# one C call.  Within them JSON takes exactly the canonical non-negative
# integers and a standalone '?' (as null), on which it agrees with int().
_PLAIN_WORD = re.compile(r"[0-9?, \t]*").fullmatch

Word = tuple
Offset = tuple
# A word's working form (see validate_word).
Symbols = np.ndarray | list[int]


class BudgetExceededError(RuntimeError):
    """Raised instead of silently launching an over-budget enumeration."""


def read_integer(value: object, label: str) -> int:
    """Every integer the package takes, as a Python int: what operator.index
    accepts (bools read as 0 and 1), or ValueError naming ``label`` (a float,
    ``np.bool_``, ``Fraction``, ``Decimal``, str)."""
    if type(value) is int:
        return value
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{label} is not an integer") from None


@dataclass(frozen=True)
class CodeSpec:
    """Parameters of one code family member.

    q: alphabet size (>= 2); n: length (>= d); d: designed minimum
    distance (>= 3).  ``power_modulus`` defaults to the smallest prime
    >= max(n, q) and may be overridden by any prime satisfying that bound.
    ``sum_modulus`` is (d-1)(q-1)+1, the number of values the plain sum of
    d-1 symbols can take.
    """

    q: int
    n: int
    d: int
    power_modulus: int | None = None
    sum_modulus: int = field(init=False)

    def __post_init__(self) -> None:
        for name in ("q", "n", "d", "power_modulus"):
            v = getattr(self, name)
            if type(v) is not int and v is not None:
                object.__setattr__(self, name, read_integer(v, f"{name} = {v!r}"))
        if self.q < 2:
            raise ValueError(f"alphabet size q={self.q} must be >= 2")
        if self.d < 3:
            raise ValueError(f"designed distance d={self.d} must be >= 3")
        if self.n < self.d:
            raise ValueError(f"length n={self.n} must be >= d={self.d}")
        floor = max(self.n, self.q)
        if self.power_modulus is None:
            object.__setattr__(self, "power_modulus", smallest_prime_geq(floor))
        else:
            validate_prime_modulus(self.power_modulus)
            if self.power_modulus < floor:
                raise ValueError(
                    f"power_modulus {self.power_modulus} < max(n, q) = {floor}"
                )
        object.__setattr__(self, "sum_modulus", (self.d - 1) * (self.q - 1) + 1)

    @property
    def correction_radius(self) -> int:
        """Largest substitution count the error decoder guarantees to fix."""
        return (self.d - 1) // 2

    @property
    def checksum_count(self) -> int:
        return self.d - 1

    @property
    def offset_space_size(self) -> int:
        return self.sum_modulus * self.power_modulus ** (self.d - 2)


def parse_word(text: str) -> Word:
    """Parse "1,?,0,1,1" into a tuple with None at erased positions.

    A symbol is a base-10 integer as int() takes it, or '?'; each may be
    padded by whitespace.  Plain lines take one JSON scan; the rest (and
    any line that scan rejects) take the loop below, which gives every
    error message.
    """
    if _PLAIN_WORD(text):
        try:
            out = json.loads("[" + text.replace(ERASURE_MARK, "null") + "]")
        except ValueError:
            pass
        else:
            if out:
                return tuple(out)
    parts = [p.strip() for p in text.split(",")]
    if parts == [""]:
        raise ValueError("empty word")
    out = []
    for p in parts:
        if p == ERASURE_MARK:
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


def format_word(word: Word) -> str:
    """The text form parse_word reads: symbols joined by ',', '?' for None."""
    return ",".join([ERASURE_MARK if s is None else str(s) for s in word])


def parse_offset(text: str) -> Offset:
    parts = [p.strip() for p in text.split(",")]
    if parts == [""]:
        raise ValueError("empty offset")
    try:
        return tuple(int(p) for p in parts)
    except ValueError:
        raise ValueError(f"bad offset {text!r}") from None


def format_offset(offset: Offset) -> str:
    return ",".join(str(v) for v in offset)


def _vectorised(spec: CodeSpec) -> bool:
    """Whether ``spec`` takes the vectorised kernel: the word's int64 form,
    the factored power tables and their root scan.  The only reader of
    _VECTOR_MIN_LENGTH and the only test of whether the tables exist; n is
    tested first, so a short word pays no table lookup."""
    return spec.n >= _VECTOR_MIN_LENGTH and _power_tables(spec) is not None


def validate_word(
    word: Word, spec: CodeSpec, *, allow_erasures: bool = False
) -> tuple[Symbols, list[int]]:
    """Check the length and the symbols of a word; raise ValueError if bad.

    A word is a tuple, list, ``bytes`` or ``ndarray`` of integers in
    [0, q-1], with None at erased positions where ``allow_erasures``.
    Returns ``(symbols, erased)``: the word's working form, erased
    positions holding 0, and the erased positions, 1-based and ascending.
    ``symbols`` is always a new object that the caller owns and may write
    into; the input is never returned or viewed.  Where the spec takes the
    vectorised kernel (_vectorised) it is an int64 array, whatever the
    input type.  Otherwise it is a list of Python ints: a symbol of any
    other type, a numpy scalar for one, is read by ``read_integer``, since
    it would wrap, or raise, under the exact plain-int loops.
    """
    if len(word) != spec.n:
        raise ValueError(f"word length {len(word)} != n={spec.n}")
    q = spec.q
    if _vectorised(spec):
        converted = _as_int64(word, q, allow_erasures)
        if converted is not None:
            arr = converted[0]
            if arr.min() >= 0 and arr.max() < q:
                return converted
    else:
        # Python ints pass here; any other symbol stops the scan.
        for s in word:
            if (type(s) is int and 0 <= s < q) or (s is None and allow_erasures):
                continue
            break
        else:
            symbols = list(word)
            if not allow_erasures:
                return symbols, []
            erased = [i for i, s in enumerate(symbols, 1) if s is None]
            for i in erased:
                symbols[i - 1] = 0
            return symbols, erased
    # The full check, which names the first bad position.  On the
    # vectorised path a tuple, list, bytes or ndarray reaches it only to fail.
    symbols = list(word)
    erased = []
    for i, s in enumerate(symbols, start=1):
        if type(s) is int and 0 <= s < q:
            continue
        if s is None:
            if not allow_erasures:
                raise ValueError(f"erased symbol at position {i} not allowed here")
            erased.append(i)
            symbols[i - 1] = 0
            continue
        value = read_integer(s, f"symbol {s!r} at position {i}")
        if not 0 <= value < q:
            raise ValueError(f"symbol {s} at position {i} outside [0, {q - 1}]")
        symbols[i - 1] = value
    return symbols, erased


def _as_int64(word: Word, q: int, allow_erasures: bool) -> tuple[np.ndarray, list[int]] | None:
    """The word as a new int64 array, erased positions 0, with those
    positions, 1-based.

    None when a symbol is not an integer that fits the conversion, or is an
    erasure where none is allowed, and for an ``ndarray`` of neither integer
    nor object dtype (bool, float).  An integer ``ndarray`` is copied.

    Symbols go through a typed buffer, ``bytearray`` when q <= 256 and
    ``array("q")`` above.  Both take only integers (through __index__) and
    raise TypeError on anything else, so floats are never truncated; out of
    their range they raise ValueError or OverflowError.  Without erasures
    the whole word converts in one call.  A word that may hold erasures
    converts in blocks of ``_BLOCK`` symbols instead, and only a block that
    raises TypeError is searched for None, so a few erasures cost a few
    block scans; one call tried first would fail on every such word and
    cost a second pass.
    """
    if isinstance(word, np.ndarray):
        if word.ndim == 1 and word.dtype.kind in "iu":
            return word.astype(np.int64), []
        if word.dtype.kind != "O":
            return None
        word = word.tolist()
    elif isinstance(word, (bytes, bytearray)):
        return np.frombuffer(word, dtype=np.uint8).astype(np.int64), []
    wide = q > 256
    try:
        if allow_erasures:
            buf, erased = _convert_blocks(word, wide)
        else:
            buf, erased = array("q", word) if wide else bytearray(word), []
    except (TypeError, ValueError, OverflowError):
        return None
    return np.frombuffer(buf, dtype=np.int64 if wide else np.uint8).astype(np.int64, copy=False), erased


def _convert_blocks(word: Word, wide: bool) -> tuple[array | bytearray, list[int]]:
    """_as_int64's typed buffer for a word that may hold erasures, block by
    block, with the 1-based erased positions (written as 0)."""
    n = len(word)
    buf = array("q", bytes(8 * n)) if wide else bytearray(n)

    def put(start: int, symbols) -> None:
        buf[start : start + len(symbols)] = array("q", symbols) if wide else symbols

    erased: list[int] = []
    for start in range(0, n, _BLOCK):
        block = word[start : start + _BLOCK]
        try:
            put(start, block)
            continue
        except TypeError:
            pass
        block = list(block)
        hits: list[int] = []
        try:
            while True:
                hits.append(block.index(None, hits[-1] + 1 if hits else 0))
                block[hits[-1]] = 0
        except ValueError:
            pass
        put(start, block)
        erased.extend(start + i + 1 for i in hits)
    return buf, erased


def _as_tuple(word: Word, symbols: Symbols, changed=()) -> Word:
    """The decoded word as a tuple, from the input ``word`` and its
    working form ``symbols`` (see validate_word), into which the decoder
    has written the 1-based ``changed`` positions.

    A list of Python ints is the whole answer.  From an int64 form only the
    changed positions are read, into a copy of a sequence input, which is
    faster than converting the whole array back; an unchanged tuple is
    returned as it is, and an ``ndarray`` input is converted to Python ints.
    """
    if isinstance(symbols, list):
        return tuple(symbols)
    if isinstance(word, np.ndarray):
        return tuple(symbols.tolist())
    if not changed:
        return tuple(word)
    out = list(word)
    for k in changed:
        out[k - 1] = int(symbols[k - 1])
    return tuple(out)


def validate_offset(offset: Offset, spec: CodeSpec) -> tuple[int, ...]:
    """Check an offset against the spec; return it as a tuple of Python ints.

    Entry 0 lies in [0, sum_modulus), the others in [0, power_modulus).  Each
    is read by ``read_integer``, since a numpy scalar would wrap, or raise,
    in the exact sums the decoders form from it.
    """
    if len(offset) != spec.checksum_count:
        raise ValueError(
            f"offset length {len(offset)} != d-1 = {spec.checksum_count}"
        )
    values = tuple(offset)
    bound = spec.sum_modulus
    for j, v in enumerate(values):
        if type(v) is not int:
            v = read_integer(v, f"offset[{j}] = {v!r}")
            values = values[:j] + (v,) + values[j + 1 :]
        if not 0 <= v < bound:
            raise ValueError(f"offset[{j}] = {v} outside [0, {bound - 1}]")
        bound = spec.power_modulus
    return values


def checksum(word: Word, j: int) -> int:
    """The exact integer sum_i i**j * x_i over 1-indexed positions.

    No modular reduction is applied.  Erased positions are rejected.
    """
    j = read_integer(j, f"checksum order = {j!r}")
    if j < 0:
        raise ValueError(f"checksum order must be a nonnegative integer, got {j!r}")
    total = 0
    for i, s in enumerate(word, start=1):
        if s is None:
            raise ValueError(f"erased symbol at position {i}")
        if type(s) is not int:
            s = read_integer(s, f"symbol {s!r} at position {i}")
        total += i**j * s
    return total


@lru_cache(maxsize=8)
def _power_tables(spec: CodeSpec) -> tuple[np.ndarray, np.ndarray, tuple] | None:
    """Factors of the table i**j mod p, for i = 0 .. n and j = 0 .. d-2.

    Writing i = b*w + r with w = isqrt(n) + 1 and 0 <= r < w,
    (b*w + r)**j = sum_k binom(j, k) * (b*w)**(j-k) * r**k.  So the
    n-by-(d-1) table is never stored: ``low[r, k]`` = r**k and
    ``high[b, m]`` = (b*w)**m, both mod p, hold about 2*sqrt(n)*(d-1)
    entries, and ``binom[j, k]`` = binom(j, k) mod p joins them.

    ``low`` is float64: the word-sized product of a word with ``low``
    runs in floating-point BLAS (Dumas, Giorgi & Pernet, "Dense linear
    algebra over word-size prime fields", 2008), one slab of block rows
    at a time (_slab_rows), so no float64 copy of the whole word is made.
    Each partial sum there is an integer of at most w*(q-1)*(p-1), so the
    product is exact in any summation order, with or without fused
    multiply-adds, while that stays below 2**53; the argument holds row by
    row, so splitting the rows into slabs keeps it.  The root scan
    (_locator_roots) adds a bound of its own on the locator.
    ``high`` is int64; its products with the word's block sums have B =
    blocks terms of at most (p-1)**2 and stay below 2**63.  None when
    either bound fails; the exact plain-int loops serve those specs.
    """
    p, q, n, k = spec.power_modulus, spec.q, spec.n, spec.d - 1
    width = math.isqrt(n) + 1
    blocks = -(-(n + 1) // width)
    if width * (q - 1) * (p - 1) >= 1 << 53 or blocks * (p - 1) ** 2 >= 1 << 63:
        return None
    low = _column_powers(np.arange(width), k, p).astype(np.float64)
    high = _column_powers(np.arange(blocks) * width, k, p)
    binom = tuple(tuple(math.comb(j, i) % p for i in range(k)) for j in range(k))
    return low, high, binom


def _column_powers(base: np.ndarray, count: int, p: int) -> np.ndarray:
    """Columns base**0 .. base**(count-1) mod p, as int64."""
    out = np.empty((len(base), count), dtype=np.int64)
    col = np.ones(len(base), dtype=np.int64)
    base = base.astype(np.int64) % p
    for m in range(count):
        out[:, m] = col
        col = col * base % p
    return out


def _slab_rows(width: int, columns: int) -> int:
    """Block rows per slab of a product with ``columns`` output columns.

    A slab holds at most _SLAB_ENTRIES floats and its product at most
    _BLAS_SLAB multiply-adds, which keeps OpenBLAS on the calling thread.
    """
    return max(1, min(_SLAB_ENTRIES // width, _BLAS_SLAB // (width * columns)))


def _weighted_sums(arr: np.ndarray, spec: CodeSpec, tables) -> tuple[int, ...]:
    """sum_i i**j * arr[i-1] mod p for j = 1 .. d-2, through the factored tables.

    Position i sits at row i // w, column i % w of a blocks-by-w matrix,
    which is never built: a run of its rows at a time is copied into one
    small float64 slab and multiplied by ``low`` there.  That product is
    exact (see _power_tables); the small B-by-(d-1) one stays in int64.
    """
    low, high, binom = tables
    p, n = spec.power_modulus, spec.n
    width, columns = low.shape
    blocks = high.shape[0]
    rows = _slab_rows(width, columns)
    slab = np.empty(min(rows, blocks) * width)
    by_low = np.empty((blocks, columns))
    for top in range(0, blocks, rows):
        bottom = min(top + rows, blocks)
        start, stop = top * width, bottom * width  # positions start .. stop-1
        first, last = max(start, 1), min(stop, n + 1)
        part = slab[: stop - start]
        part[: first - start] = 0
        part[first - start : last - start] = arr[first - 1 : last - 1]
        part[last - start :] = 0
        np.matmul(part.reshape(bottom - top, width), low, out=by_low[top:bottom])
    by_low = by_low.astype(np.int64)
    by_low %= p  # [b, k]: sum_r r**k x_(b*w+r)
    moments = (high.T @ by_low % p).tolist()  # [m, k]: sum_b (b*w)**m by_low[b, k]
    return tuple(
        sum(binom[j][k] * moments[j - k][k] for k in range(j + 1)) % p
        for j in range(1, spec.d - 1)
    )


def _locator_roots(lam: list[int], spec: CodeSpec) -> list[int]:
    """The positions k = 1 .. n whose locator (k mod p) inverts to a root of
    the polynomial with ascending coefficients ``lam``, mod p.

    Evaluates k**deg * lam(1/k), the reversed polynomial at k, which avoids
    one modular inversion per position.  A position k = 0 mod p (k = n
    when n equals the prime) inverts to nothing and is never a root, on
    either branch, even where a padded ``lam`` (a trailing zero) makes the
    reversed polynomial vanish there.

    Where the spec takes the vectorised kernel (_vectorised) and ``lam``
    passes its own bound below, the scan is one pass through the factored
    power tables.  With c = lam reversed, at k = b*w + r the value is
    sum_j r**j * sum_m binom(m+j, j) * c[m+j] * (b*w)**m.  The inner sums
    are reduced mod p in int64; the outer product runs in float64 BLAS,
    where each value v is a sum of len(lam) products of residues, an
    integer of at most len(lam)*(p-1)**2, exact while that is below 2**53.
    p divides v exactly when v == p * rint(v / p), the quotient taken in
    floating point.  That quotient lies within about 2/p <= 1/32 of v/p
    (p >= n >= 64 here), so rounding recovers v/p whenever it is an
    integer; otherwise p * m equals v for no integer m, and a product above
    2**53, which may round, is above v anyway.  The values are never held
    for all n positions at once: a run of block rows at a time is written
    into one small slab, the quotient test runs in a second slab of the
    same size, and the hits of each run are collected before the next.

    The bound takes the locator's own length, which for an error locator
    is at most radius + 1, about half of d-1, and the length must not
    exceed d-1, the tables' width.  Every other spec and locator takes a
    Horner loop in plain ints over ``lam``.
    """
    p, n = spec.power_modulus, spec.n
    size = len(lam)
    if not (_vectorised(spec) and size <= spec.d - 1 and size * (p - 1) ** 2 < 1 << 53):
        roots = []
        for k in range(1, n + 1):
            acc = 0
            for c in lam:
                acc = (acc * k + c) % p
            if acc == 0 and k % p:
                roots.append(k)
        return roots
    low, high, binom = _power_tables(spec)
    coeffs = lam[::-1]
    shifted = np.zeros((size, size), dtype=np.int64)  # [m, j]
    for m in range(size):
        for j in range(size - m):
            shifted[m, j] = binom[m + j][j] * (coeffs[m + j] % p) % p
    by_block = (high[:, :size] @ shifted % p).astype(np.float64)
    powers = low[:, :size].T
    width, blocks = low.shape[0], high.shape[0]
    rows = _slab_rows(width, size)
    values = np.empty((min(rows, blocks), width))
    quotient = np.empty_like(values)
    hits: list[int] = []
    for top in range(0, blocks, rows):
        bottom = min(top + rows, blocks)
        v, qt = values[: bottom - top], quotient[: bottom - top]
        np.matmul(by_block[top:bottom], powers, out=v)
        np.multiply(v, 1.0 / p, out=qt)
        np.rint(qt, out=qt)
        qt *= p
        hits += (np.flatnonzero(v == qt) + top * width).tolist()
    return [k for k in hits if 1 <= k <= n and k % p]


def _masked_sums(symbols: Symbols | Word, spec: CodeSpec) -> tuple[int, tuple[int, ...]]:
    """(exact plain sum, weighted sums mod power_modulus) of a word's symbols.

    ``symbols`` is a working form from validate_word, erased positions
    holding 0, so this serves both full words and the kept part of a
    partially erased word.  An int64 array goes through the factored power
    tables; any other sequence must hold Python ints, which the exact
    plain-int loop takes.
    """
    if isinstance(symbols, np.ndarray):
        return int(symbols.sum()), _weighted_sums(symbols, spec, _power_tables(spec))
    p = spec.power_modulus
    plain = 0
    acc = [0] * (spec.d - 2)
    orders = range(spec.d - 2)
    for i, s in enumerate(symbols, start=1):
        if not s:
            continue
        plain += s
        term = s  # s * i**(j+1) mod p at order j
        for j in orders:
            term = term * i % p
            acc[j] += term
    return plain, tuple(a % p for a in acc)


def _profile_of(symbols: Symbols | Word, spec: CodeSpec) -> tuple[int, ...]:
    plain, weighted = _masked_sums(symbols, spec)
    return (plain % spec.sum_modulus, *weighted)


def syndrome_profile(word: Word, spec: CodeSpec) -> tuple[int, ...]:
    """Canonical residues (t_0 mod sum_modulus, t_1 .. t_{d-2} mod prime).

    The plain sum keeps its own modulus; it is reduced further only where a
    mod-prime shadow is explicitly needed (e.g. assembling moment systems).
    """
    return _profile_of(validate_word(word, spec)[0], spec)


def is_codeword(word: Word, spec: CodeSpec, offset: Offset) -> bool:
    target = validate_offset(offset, spec)
    return _profile_of(validate_word(word, spec)[0], spec) == target


def _check_budget(spec: CodeSpec, budget: int) -> None:
    budget = read_integer(budget, f"budget = {budget!r}")
    total = spec.q**spec.n
    if total > budget:
        raise BudgetExceededError(
            f"enumeration needs {total} words, budget is {budget}"
        )


def enumerate_codewords(
    spec: CodeSpec, offset: Offset, budget: int = DEFAULT_ENUMERATION_BUDGET
) -> list[Word]:
    """All members of the coset, in lexicographic order.

    Scans the full cube of q**n words and therefore refuses to start when
    that count exceeds ``budget``.
    """
    target = validate_offset(offset, spec)
    _check_budget(spec, budget)
    return [
        w
        for w in itertools.product(range(spec.q), repeat=spec.n)
        if _profile_of(w, spec) == target
    ]


def best_offset_search(
    spec: CodeSpec, budget: int = DEFAULT_ENUMERATION_BUDGET
) -> tuple[Offset, int]:
    """The offset with the largest coset, ties broken lexicographically.

    Averaging over the offset space guarantees the winner has at least
    ceil(q**n / offset_space_size) members.
    """
    _check_budget(spec, budget)
    counts: dict[tuple[int, ...], int] = {}
    for w in itertools.product(range(spec.q), repeat=spec.n):
        p = _profile_of(w, spec)
        counts[p] = counts.get(p, 0) + 1
    best_size = max(counts.values())
    best = min(p for p, c in counts.items() if c == best_size)
    return best, best_size


def hamming_distance(a: Word, b: Word) -> int:
    if len(a) != len(b):
        raise ValueError("length mismatch")
    return sum(x != y for x, y in zip(a, b))
