"""Command line front end.

Subcommands map one-to-one onto the library: check, decode, corrupt,
bounds, tables, intervals, search, verify.  Machine-readable output is
available through --records (one JSON object per line).  Exit status is 0
on success, 1 when a decode fails or a check comes back negative, 2 for
usage errors, malformed words and refused budgets.  A word file is read
line by line: every line is reported, and the status counts the worst.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys

from .bounds import (
    LinearBaseline,
    generate_table,
    improvement_interval_defect0,
    improvement_interval_defect1,
    prime_length_report,
    redundancy_display,
)
from .core import (
    DEFAULT_ENUMERATION_BUDGET,
    ERASURE_MARK,
    BudgetExceededError,
    CodeSpec,
    Offset,
    Word,
    best_offset_search,
    format_offset,
    format_word,
    is_codeword,
    parse_offset,
    parse_word,
    read_integer,
    validate_offset,
)
from .erasure import InconsistentWordError, decode_erasures
from .errors import UncorrectableError, decode_errors
from .oracle import (
    decode_check_sweep,
    distance_sweep,
    exhaustive_decode_check,
    partition_check,
)

BUDGET_ENV_VAR = "VTCODES_ENUM_BUDGET"


class SplitMix64:
    """Deterministic 64-bit generator (splitmix64), seedable and tiny.

    Good enough for reproducible corruption patterns; not for cryptography.
    """

    _MASK = (1 << 64) - 1

    def __init__(self, seed: int):
        self._state = seed & self._MASK

    def next_word(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & self._MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & self._MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & self._MASK
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        # Plain modulo; the bias is negligible for bounds far below 2**64.
        if bound <= 0:
            raise ValueError(f"bound must be positive, got {bound}")
        return self.next_word() % bound


def corrupt(
    word: Word, q: int, *, erasures: int = 0, errors: int = 0, seed: int = 0
) -> Word:
    """Erase and substitute at deterministic pseudo-random positions.

    Picks erasures + errors distinct positions by a partial Fisher-Yates
    shuffle, erases the first group, and replaces each symbol of the
    second with a uniformly chosen different symbol.  Reproducible from
    the seed.
    """
    n = len(word)
    q = read_integer(q, f"q = {q!r}")
    erasures = read_integer(erasures, f"erasures = {erasures!r}")
    errors = read_integer(errors, f"errors = {errors!r}")
    seed = read_integer(seed, f"seed = {seed!r}")
    if q < 2:
        raise ValueError(f"alphabet size q={q} must be >= 2")
    if erasures < 0 or errors < 0:
        raise ValueError("erasure and error counts must be nonnegative")
    if erasures + errors > n:
        raise ValueError(f"cannot corrupt {erasures + errors} of {n} positions")
    out = list(word)
    for i, s in enumerate(out):
        if s is not None and type(s) is not int:
            s = out[i] = read_integer(s, f"symbol {s!r} at position {i + 1}")
        if s is None or not 0 <= s < q:
            raise ValueError(f"symbol {s!r} outside alphabet of size {q}")
    rng = SplitMix64(seed)
    indices = list(range(n))
    picked = erasures + errors
    for i in range(picked):
        j = i + rng.below(n - i)
        indices[i], indices[j] = indices[j], indices[i]
    for i in indices[:erasures]:
        out[i] = None
    for i in indices[erasures:picked]:
        out[i] = (out[i] + 1 + rng.below(q - 1)) % q
    return tuple(out)


def _spec_from(args: argparse.Namespace) -> CodeSpec:
    return CodeSpec(args.q, args.n, args.d, power_modulus=args.modulus)


def _words_from(args: argparse.Namespace):
    """Yield (label, text) for each input word, in input order.

    Inline input yields a single unlabeled word.  A file yields one word
    per line ('#' starts a comment), labeled by line number; a byte outside
    ASCII becomes a symbol that its line's parse rejects.
    """
    if args.word is not None:
        yield "", args.word
        return
    found = False
    with open(args.word_file, encoding="ascii", errors="replace") as handle:
        for lineno, line in enumerate(handle, start=1):
            text = line.split("#", 1)[0].strip()
            if text:
                found = True
                yield f"word {lineno}: ", text
    if not found:
        raise ValueError(f"no words found in {args.word_file}")


def _run_batch(args: argparse.Namespace, handle, passed: str, failed: str | None) -> int:
    """Call ``handle(label, text)`` on each input word in turn.

    ``handle`` parses the word and returns False for a negative check.  A
    word that fails to decode, or a line of a file that is malformed, is
    reported on stderr, prints nothing to stdout, and the batch goes on; a
    file batch ends with a summary on stderr, which leaves out ``failed``
    where it is None.  Exit status 2 if any line was malformed, else 1 if
    any word failed, else 0.  A malformed inline word is a usage error.
    """
    counts = {passed: 0, failed: 0, "malformed": 0}
    for label, text in _words_from(args):
        try:
            ok = handle(label, text)
        except (InconsistentWordError, UncorrectableError) as exc:
            print(f"{label}decode failed: {exc}", file=sys.stderr)
            ok = False
        except ValueError as exc:
            if args.word_file is None:
                raise
            print(f"{label}error: {exc}", file=sys.stderr)
            counts["malformed"] += 1
            continue
        counts[passed if ok else failed] += 1
    if args.word_file is not None:
        summary = ", ".join(f"{count} {name}" for name, count in counts.items() if name)
        print(f"summary: {summary}", file=sys.stderr)
    if counts["malformed"]:
        return 2
    return 1 if counts[failed] else 0


def _budget_from(args: argparse.Namespace) -> int:
    if getattr(args, "budget", None) is not None:
        return args.budget
    env = os.environ.get(BUDGET_ENV_VAR)
    if env is not None:
        return _integer_text(env, f"{BUDGET_ENV_VAR} = {env!r}")
    return DEFAULT_ENUMERATION_BUDGET


def _integer_text(text: str, label: str) -> int:
    """int(text), or read_integer's refusal of the str, under ``label``."""
    try:
        return int(text)
    except ValueError:
        return read_integer(text, label)


def _emit(args: argparse.Namespace, record: dict, text: str) -> None:
    if args.records:
        print(json.dumps(record))
    else:
        print(text)


def _offset_from(args: argparse.Namespace, spec: CodeSpec) -> Offset:
    return validate_offset(parse_offset(args.offset), spec)


def _cmd_check(args: argparse.Namespace) -> int:
    spec = _spec_from(args)
    offset = _offset_from(args, spec)

    def check(label: str, text: str) -> bool:
        member = is_codeword(parse_word(text), spec, offset)
        verdict = "codeword" if member else "not a codeword"
        _emit(args, {"codeword": member}, f"{label}{verdict}")
        return member

    return _run_batch(args, check, "in the coset", "outside")


def _cmd_decode(args: argparse.Namespace) -> int:
    spec = _spec_from(args)
    offset = _offset_from(args, spec)

    def decode(label: str, text: str) -> bool:
        word = parse_word(text)
        # On a line parse_word accepts, each '?' is one erased symbol, and
        # decode_erasures fills every erased position and no other.
        changed = text.count(ERASURE_MARK)
        if changed:
            decoded = decode_erasures(word, spec, offset)
        else:
            decoded = decode_errors(word, spec, offset)
            if decoded is not word:
                changed = sum(1 for before, after in zip(word, decoded) if before != after)
        status = "unchanged" if changed == 0 else f"corrected {changed} position(s)"
        print(f"{label}{status}", file=sys.stderr)
        out = format_word(decoded)
        if args.records:
            # The bytes json.dumps gives for {"decoded": list(decoded),
            # "changed": changed}: a decoded word holds only ints.
            out = '{"decoded": [' + out.replace(",", ", ") + '], "changed": ' + str(changed) + "}"
        print(out)
        return True

    return _run_batch(args, decode, "decoded", "failed")


def _cmd_corrupt(args: argparse.Namespace) -> int:
    # Each further word from a file advances the seed by one, a malformed
    # one too, so the damage patterns differ line to line but stay
    # reproducible.
    seeds = itertools.count(args.seed)

    def damage(label: str, text: str) -> bool:
        seed = next(seeds)
        out = corrupt(
            parse_word(text), args.q, erasures=args.erasures, errors=args.errors, seed=seed
        )
        record = {"corrupted": [ERASURE_MARK if s is None else s for s in out]}
        _emit(args, record, format_word(out))
        return True

    return _run_batch(args, damage, "corrupted", None)


def _cmd_bounds(args: argparse.Namespace) -> int:
    display = redundancy_display(args.q, args.n, args.d, modulus=args.modulus)
    _emit(args, {"q": args.q, "n": args.n, "d": args.d, "redundancy_upper": display}, display)
    return 0


def _load_baseline(args: argparse.Namespace) -> LinearBaseline:
    baseline = LinearBaseline.bundled()
    if args.baseline is not None:
        baseline = baseline.merged_with(LinearBaseline.from_file(args.baseline))
    return baseline


def _cmd_tables(args: argparse.Namespace) -> int:
    lengths = None
    if args.lengths is not None:
        lengths = [_integer_text(f, f"--lengths entry {f!r}") for f in args.lengths.split(",")]
    rows = generate_table(args.q, args.d, lengths=lengths, baseline=_load_baseline(args))
    if args.records:
        for row in rows:
            print(json.dumps(row.to_record()))
        return 0
    print(f"q={args.q} d={args.d}")
    print(f"{'n':>5} {'modulus':>8} {'bound':>6} {'linear':>7} {'improves':>9}")
    for row in rows:
        linear = "-" if row.linear_baseline is None else str(row.linear_baseline)
        improves = "-" if row.strict_improvement is None else (
            "yes" if row.strict_improvement else "no"
        )
        line = (
            f"{row.n:>5} {row.modulus_used:>8} {row.redundancy_upper:>6}"
            f" {linear:>7} {improves:>9}"
        )
        if row.note:
            line += f"  # {row.note}"
        print(line)
    return 0


def _cmd_intervals(args: argparse.Namespace) -> int:
    if args.d is not None:
        rows = prime_length_report(args.q, args.d)
        if args.records:
            for row in rows:
                print(json.dumps(row.to_record()))
            return 0
        for row in rows:
            line = f"n={row.n} bound={row.redundancy_upper}"
            if row.published is not None:
                line += f" published={row.published}"
            if row.note:
                line += f"  # {row.note}"
            print(line)
        return 0
    d0 = improvement_interval_defect0(args.q)
    d1 = improvement_interval_defect1(args.q)
    if args.records:
        print(json.dumps({"below_3": list(d0), "below_4": list(d1)}))
        return 0
    for label, (lo, hi) in (("redundancy < 3", d0), ("redundancy < 4", d1)):
        span = f"n in [{lo}, {hi}]" if lo <= hi else "empty"
        print(f"{label}: {span}")
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    spec = _spec_from(args)
    offset, size = best_offset_search(spec, budget=_budget_from(args))
    _emit(
        args,
        {"offset": list(offset), "size": size},
        f"offset {format_offset(offset)} size {size}",
    )
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.offset is not None and args.property in ("partition", "distance"):
        raise ValueError(f"--offset applies to the decode checks, not to {args.property}")
    spec = _spec_from(args)
    budget = _budget_from(args)
    if args.property == "partition":
        report = partition_check(spec, budget)
    elif args.property == "distance":
        report = distance_sweep(spec, budget)
    elif args.offset is not None:
        report = exhaustive_decode_check(
            spec, parse_offset(args.offset), args.property, budget
        )
    else:
        report = decode_check_sweep(spec, args.property, budget)
    verdict = "PASS" if report.passed else "FAIL"
    tail = report.detail if report.passed else f"counterexample: {report.counterexample}"
    if args.records:
        print(
            json.dumps(
                {
                    "property": report.property_name,
                    "passed": report.passed,
                    "instances": report.instances,
                    "detail": report.detail,
                    "counterexample": repr(report.counterexample),
                }
            )
        )
    else:
        print(f"{verdict} {report.property_name} instances={report.instances} {tail}")
    return 0 if report.passed else 1


def _add_word_arguments(sub: argparse.ArgumentParser, hint: str = "") -> None:
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--word", help="word, comma separated" + hint)
    group.add_argument(
        "--word-file", help="file with one word per line ('#' starts a comment)"
    )


def _add_spec_arguments(sub: argparse.ArgumentParser, with_n: bool = True) -> None:
    sub.add_argument("--q", type=int, required=True, help="alphabet size")
    if with_n:
        sub.add_argument("--n", type=int, required=True, help="block length")
    sub.add_argument("--d", type=int, required=True, help="designed distance")
    sub.add_argument(
        "--modulus",
        type=int,
        default=None,
        help="prime modulus override (default: smallest prime >= max(n, q))",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vtcodes",
        description="Nonlinear block codes from position-weighted checksum congruences.",
    )
    parser.add_argument(
        "--records", action="store_true", help="emit JSON records instead of text"
    )
    commands = parser.add_subparsers(dest="command", required=True)

    sub = commands.add_parser("check", help="test coset membership")
    _add_spec_arguments(sub)
    sub.add_argument("--offset", required=True, help="offset, comma separated")
    _add_word_arguments(sub)
    sub.set_defaults(handler=_cmd_check)

    sub = commands.add_parser("decode", help="repair erasures or substitutions")
    _add_spec_arguments(sub)
    sub.add_argument("--offset", required=True)
    _add_word_arguments(sub, hint=", '?' for erased positions")
    sub.set_defaults(handler=_cmd_decode)

    sub = commands.add_parser("corrupt", help="deterministically damage a word")
    sub.add_argument("--q", type=int, required=True)
    _add_word_arguments(sub)
    sub.add_argument("--erasures", type=int, default=0)
    sub.add_argument("--errors", type=int, default=0)
    sub.add_argument("--seed", type=int, default=0)
    sub.set_defaults(handler=_cmd_corrupt)

    sub = commands.add_parser("bounds", help="redundancy upper bound")
    _add_spec_arguments(sub)
    sub.set_defaults(handler=_cmd_bounds)

    sub = commands.add_parser("tables", help="comparison table against linear codes")
    sub.add_argument("--q", type=int, required=True)
    sub.add_argument("--d", type=int, required=True)
    sub.add_argument("--lengths", default=None, help="comma separated lengths")
    sub.add_argument("--baseline", default=None, help="extra baseline file (q n d r)")
    sub.set_defaults(handler=_cmd_tables)

    sub = commands.add_parser("intervals", help="length ranges beating linear codes")
    sub.add_argument("--q", type=int, required=True)
    sub.add_argument(
        "--d",
        type=int,
        default=None,
        help="report admissible prime lengths for this distance instead",
    )
    sub.set_defaults(handler=_cmd_intervals)

    sub = commands.add_parser("search", help="find the largest coset")
    _add_spec_arguments(sub)
    sub.add_argument("--budget", type=int, default=None)
    sub.set_defaults(handler=_cmd_search)

    sub = commands.add_parser("verify", help="exhaustive brute-force checks")
    _add_spec_arguments(sub)
    sub.add_argument(
        "--property",
        required=True,
        choices=["partition", "distance", "erasure", "single-error", "multi-error"],
    )
    sub.add_argument("--offset", default=None, help="restrict decode checks to one coset")
    sub.add_argument("--budget", type=int, default=None)
    sub.set_defaults(handler=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except BudgetExceededError as exc:
        print(f"refused: {exc} (raise {BUDGET_ENV_VAR} or --budget)", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())
