"""Size and redundancy bounds, and comparison tables against linear codes.

Every coset construction at parameters (q, n, d) costs at most
log_q(sum_modulus * prime**(d-2)) redundant symbols, because the cosets
partition the cube of q**n words and the largest one meets the average.
The helpers here evaluate that bound exactly, targeted length ranges where
it beats the best known linear codes, and render the comparison tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources

from .core import CodeSpec, read_integer
from .modarith import is_prime

# Comparison rows whose published redundancy was computed with a composite
# modulus; the table generator recomputes them and attaches a note instead
# of silently reproducing the published figure.
_REVISED_ROWS: dict[tuple[int, int, int], tuple[str, int]] = {
    (4, 86, 3): ("4.63", 87),
    (4, 87, 3): ("4.63", 87),
}

# Published per-q summaries that list a single redundancy value for every
# admissible prime length, although the bound depends on the length.
_PUBLISHED_SINGLE: dict[tuple[int, int], str] = {
    (13, 5): "4.96",
    (17, 5): "4.79",
    (32, 7): "6.72",
}


def _hundredths(q: int, cosets: int) -> int:
    """log_q(cosets) in hundredths, ties rounded half up, in exact integers.

    Half-up rounding gives k exactly when k - 1/2 <= 100 * log_q(cosets),
    that is q**(2k-1) <= cosets**200.  A float estimate is corrected by
    those integer comparisons, so no rounding of the log can move a digit.
    """
    target = cosets**200
    k = round(100 * math.log(cosets) / math.log(q))
    while q ** (2 * k - 1) > target:
        k -= 1
    while q ** (2 * k + 1) <= target:
        k += 1
    return k


def _two_places(hundredths: int) -> str:
    return f"{hundredths // 100}.{hundredths % 100:02d}"


def redundancy_display(q: int, n: int, d: int, modulus: int | None = None) -> str:
    """redundancy_upper_bound to two decimal places, ties rounded half up.

    Formed from the exact coset count, never from the float bound.
    """
    spec = CodeSpec(q, n, d, power_modulus=modulus)
    return _two_places(_hundredths(spec.q, spec.offset_space_size))


def redundancy_upper_bound(
    q: int, n: int, d: int, modulus: int | None = None
) -> float:
    """log_q of the coset count sum_modulus * modulus**(d-2).

    The count is formed exactly as an integer before the single final log,
    so no precision is lost to intermediate powers.
    """
    spec = CodeSpec(q, n, d, power_modulus=modulus)
    return math.log(spec.offset_space_size) / math.log(spec.q)


def code_size_lower_bound(
    q: int, n: int, d: int, modulus: int | None = None
) -> Fraction:
    """Exact rational q**n / (sum_modulus * modulus**(d-2)).

    The largest coset has at least this many members; take the floor for an
    integer guarantee.
    """
    spec = CodeSpec(q, n, d, power_modulus=modulus)
    return Fraction(spec.q**spec.n, spec.offset_space_size)


def is_prime_power(q: int) -> bool:
    q = read_integer(q, f"q = {q!r}")
    if q < 2:
        return False
    base = q
    f = 2
    while f * f <= base:
        if base % f == 0:
            while base % f == 0:
                base //= f
            return base == 1
        f += 1
    return True  # base itself is prime


def _read_prime_power(q: int) -> int:
    q = read_integer(q, f"q = {q!r}")
    if not is_prime_power(q):
        raise ValueError(f"q={q} is not a prime power")
    return q


def improvement_interval_defect0(q: int) -> tuple[int, int]:
    """Lengths where the construction needs fewer than 3 redundant symbols.

    Beyond length q+1, the longest q-ary distance-3 linear code meeting the
    Singleton bound, those codes need redundancy at least 3; the
    construction stays below that for all n in the returned closed
    interval.  Empty when the low end exceeds the high end (e.g. q=2 yields
    (4, 1)).
    """
    q = _read_prime_power(q)
    return (q + 2, q**3 // (4 * q - 2))


def improvement_interval_defect1(q: int) -> tuple[int, int]:
    """Lengths where the construction needs fewer than 4 redundant symbols.

    Beyond length q**2+q+1, the longest q-ary distance-3 linear code one
    off the Singleton bound, those codes need redundancy at least 4.  Same
    closed-interval convention as the defect-0 variant.
    """
    q = _read_prime_power(q)
    return (q * q + q + 2, q**4 // (4 * q - 2))


def _integer_root(x: int, e: int) -> int:
    """Largest r >= 0 with r**e <= x, by Newton's method on integers."""
    if x < 2:
        return x
    r = 1 << -(-x.bit_length() // e)  # 2**ceil(bits/e), at least the root
    while True:
        smaller = ((e - 1) * r + x // r ** (e - 1)) // e
        if smaller >= r:
            return r
        r = smaller


def _largest_length(q: int, d: int) -> int:
    """Largest n with n**(d-2) * sum_modulus <= q**d.

    For integers a * m0 <= L exactly when a <= L // m0, so the answer is an
    integer root, with no float on the way.
    """
    m0 = (d - 1) * (q - 1) + 1
    return _integer_root(q**d // m0, d - 2)


def admissible_prime_lengths(q: int, d: int) -> set[int]:
    """Prime lengths n where the construction provably beats linear codes.

    Requires a prime-power q and d >= 3.  A prime length n >= q+2 (and at
    least d+2) qualifies when n**(d-2) * sum_modulus <= q**d: taking the
    prime modulus equal to n keeps the coset count below q**d, while any
    linear code of the same distance must spend at least d redundant
    symbols there.  That linear side is the MDS conjecture: a linear MDS
    code has length at most q+1, or q+2 for even q, where hyperovals give
    [q+2, q-1, 4] codes.  Ball (2012) proved it for prime q; for other
    prime powers it stays a conjecture.  For even q the length q+2 is even
    and so never prime, which keeps the hyperoval length out of the range.
    """
    q = _read_prime_power(q)
    d = CodeSpec(q, d, d).d  # the shortest code for (q, d) reads and checks d
    hi = _largest_length(q, d)
    lo = max(q + 2, d + 2)
    return {n for n in range(lo, hi + 1) if is_prime(n)}


@dataclass(frozen=True)
class LengthBound:
    """One admissible length with its recomputed redundancy bound."""

    n: int
    redundancy_upper: str
    published: str | None
    note: str | None


def prime_length_report(q: int, d: int) -> list[LengthBound]:
    """Per-length bounds over admissible_prime_lengths(q, d).

    When a published summary gave one value for every length, rows that
    recompute differently carry a note saying so.
    """
    published = _PUBLISHED_SINGLE.get((q, d))
    rows = []
    for n in sorted(admissible_prime_lengths(q, d)):
        display = redundancy_display(q, n, d, modulus=n)
        note = None
        if published is not None and published != display:
            note = (
                f"published summary lists {published} for every admissible "
                f"length; the bound at n={n} recomputes to {display}"
            )
        rows.append(LengthBound(n, display, published, note))
    return rows


class LinearBaseline:
    """Reference redundancies of the best known linear codes.

    Sparse by design: only lengths someone recorded are present.  File
    format is one record per line, "q n d r" in decimal, with '#' comments
    and blank lines ignored.
    """

    def __init__(self, entries: dict[tuple[int, int, int], int]):
        self._entries = dict(entries)

    @classmethod
    def from_text(cls, text: str) -> "LinearBaseline":
        entries = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            fields = line.split()
            if len(fields) != 4:
                raise ValueError(f"baseline line {lineno}: expected 'q n d r', got {raw!r}")
            try:
                q, n, d, r = (int(f) for f in fields)
            except ValueError:
                raise ValueError(f"baseline line {lineno}: non-integer field in {raw!r}") from None
            entries[(q, n, d)] = r
        return cls(entries)

    @classmethod
    def from_file(cls, path) -> "LinearBaseline":
        with open(path, encoding="utf-8") as fh:
            return cls.from_text(fh.read())

    @classmethod
    def bundled(cls) -> "LinearBaseline":
        text = (
            resources.files("vtcodes").joinpath("data/linear_baselines.txt").read_text()
        )
        return cls.from_text(text)

    def merged_with(self, other: "LinearBaseline") -> "LinearBaseline":
        entries = dict(self._entries)
        entries.update(other._entries)
        return LinearBaseline(entries)

    def get(self, q: int, n: int, d: int) -> int | None:
        return self._entries.get((q, n, d))

    def lengths_for(self, q: int, d: int) -> list[int]:
        return sorted(n for (bq, n, bd) in self._entries if bq == q and bd == d)


@dataclass(frozen=True)
class BoundRow:
    """One table row comparing the construction against the linear baseline."""

    q: int
    n: int
    d: int
    redundancy_upper: str
    modulus_used: int
    linear_baseline: int | None
    strict_improvement: bool | None
    note: str | None = None


def generate_table(
    q: int,
    d: int,
    lengths: list[int] | None = None,
    baseline: LinearBaseline | None = None,
) -> list[BoundRow]:
    """Comparison rows, by default over the lengths the baseline knows.

    ``strict_improvement`` compares the displayed (2-decimal) bound against
    the baseline redundancy; it is None when no baseline entry exists.
    """
    # The shortest code for (q, d) rejects a bad q or d with CodeSpec's own
    # message, also when no length is listed.
    shortest = CodeSpec(q, d, d)
    q, d = shortest.q, shortest.d
    if baseline is None:
        baseline = LinearBaseline.bundled()
    if lengths is None:
        lengths = baseline.lengths_for(q, d)
    rows = []
    for spec in sorted((CodeSpec(q, n, d) for n in lengths), key=lambda s: s.n):
        n, p = spec.n, spec.power_modulus
        hundredths = _hundredths(q, spec.offset_space_size)
        reference = baseline.get(q, n, d)
        strict = hundredths < 100 * reference if reference is not None else None
        note = None
        revised = _REVISED_ROWS.get((q, n, d))
        if revised is not None:
            published, bad_modulus = revised
            factor = next(f for f in range(2, bad_modulus) if bad_modulus % f == 0)
            note = (
                f"published value {published} used modulus {bad_modulus} "
                f"(divisible by {factor}, not prime); recomputed with {p}"
            )
        rows.append(
            BoundRow(
                q=q,
                n=n,
                d=d,
                redundancy_upper=_two_places(hundredths),
                modulus_used=p,
                linear_baseline=reference,
                strict_improvement=strict,
                note=note,
            )
        )
    return rows
