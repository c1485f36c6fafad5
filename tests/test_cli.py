import json
import random
from dataclasses import asdict

import pytest

from vtcodes.bounds import generate_table, prime_length_report
from vtcodes.cli import BUDGET_ENV_VAR, SplitMix64, corrupt, main
from vtcodes.core import CodeSpec, format_offset, format_word, parse_word, syndrome_profile
from vtcodes.erasure import InconsistentWordError, decode_erasures
from vtcodes.errors import UncorrectableError, decode_errors


def test_splitmix64_reference_sequence():
    rng = SplitMix64(0)
    assert rng.next_word() == 0xE220A8397B1DCDAF
    assert rng.next_word() == 0x6E789E6AA1B965F4
    assert rng.next_word() == 0x06C45D188009454F


def test_splitmix64_below():
    rng = SplitMix64(1234567)
    assert [rng.below(10) for _ in range(8)] == [7, 3, 3, 1, 1, 4, 7, 7]
    assert SplitMix64(5).below(1) == 0
    with pytest.raises(ValueError):
        SplitMix64(5).below(0)


def test_corrupt_golden():
    assert corrupt((0, 1, 2, 3, 4), 5, erasures=1, errors=2, seed=42) == (
        0, 1, 0, None, 0,
    )
    assert corrupt((0,) * 7, 2, erasures=2, errors=1, seed=7) == (
        0, None, None, 1, 0, 0, 0,
    )


def test_corrupt_properties():
    word = tuple(range(10))
    out = corrupt(word, 11, erasures=3, errors=4, seed=500)
    assert out == corrupt(word, 11, erasures=3, errors=4, seed=500)
    assert sum(s is None for s in out) == 3
    changed = [i for i, s in enumerate(out) if s is not None and s != word[i]]
    assert len(changed) == 4
    assert all(0 <= out[i] < 11 for i in changed)


def test_corrupt_validation():
    with pytest.raises(ValueError):
        corrupt((0, 1), 2, erasures=2, errors=1)
    with pytest.raises(ValueError):
        corrupt((0, 5), 2)
    with pytest.raises(ValueError):
        corrupt((0, 1), 2, errors=-1)



def test_cli_corrupt_rejects_alphabet_below_two(capsys):
    rc = main(["corrupt", "--q", "1", "--word", "0,0,0", "--errors", "1"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "q=1" in err
    assert "bound" not in err

def test_cli_check(capsys):
    rc = main(["check", "--q", "2", "--n", "5", "--d", "3",
               "--offset", "0,0", "--word", "1,0,0,1,1"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "codeword"
    rc = main(["check", "--q", "2", "--n", "5", "--d", "3",
               "--offset", "0,0", "--word", "1,1,1,1,1"])
    assert rc == 1
    assert capsys.readouterr().out.strip() == "not a codeword"


def test_cli_decode_erasures(capsys):
    rc = main(["decode", "--q", "2", "--n", "5", "--d", "3",
               "--offset", "0,0", "--word", "1,?,?,1,1"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "1,0,0,1,1"


def test_cli_decode_errors(capsys):
    rc = main(["decode", "--q", "2", "--n", "5", "--d", "3",
               "--offset", "0,0", "--word", "1,0,1,1,1"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "1,0,0,1,1"
    with pytest.raises(SystemExit) as caught:
        main(["decode", "--q", "2", "--n", "5", "--d", "3",
              "--offset", "0,0", "--word", "1,0,1,1,1", "--single"])
    assert caught.value.code == 2
    assert "usage:" in capsys.readouterr().err


def test_cli_decode_failure(capsys):
    rc = main(["decode", "--q", "2", "--n", "5", "--d", "3",
               "--offset", "0,0", "--word", "1,1,1,1,0"])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "decode failed" in captured.err


def test_cli_decode_inconsistent_erasures(capsys):
    rc = main(["decode", "--q", "2", "--n", "5", "--d", "3",
               "--offset", "0,0", "--word", "1,?,?,0,1"])
    assert rc == 1
    assert "decode failed" in capsys.readouterr().err


def test_cli_corrupt_then_decode(capsys):
    spec = CodeSpec(5, 9, 5)
    word = (3, 1, 4, 1, 0, 2, 0, 2, 4)
    offset = syndrome_profile(word, spec)
    rc = main(["corrupt", "--q", "5", "--word", ",".join(map(str, word)),
               "--erasures", "2", "--seed", "11"])
    assert rc == 0
    masked = parse_word(capsys.readouterr().out.strip())
    assert decode_erasures(masked, spec, offset) == word
    rc = main(["corrupt", "--q", "5", "--word", ",".join(map(str, word)),
               "--errors", "2", "--seed", "13"])
    assert rc == 0
    damaged = parse_word(capsys.readouterr().out.strip())
    assert decode_errors(damaged, spec, offset) == word


def test_cli_bounds_exact_output(capsys):
    rc = main(["bounds", "--q", "4", "--n", "22", "--d", "3"])
    assert rc == 0
    assert capsys.readouterr().out == "3.67\n"


def test_cli_bounds_records(capsys):
    rc = main(["--records", "bounds", "--q", "9", "--n", "41", "--d", "3",
               "--modulus", "41"])
    assert rc == 0
    record = json.loads(capsys.readouterr().out)
    assert record["redundancy_upper"] == "2.98"


def test_cli_tables_matches_library(capsys):
    rc = main(["--records", "tables", "--q", "4", "--d", "3"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    got = [json.loads(line) for line in lines]
    expected = [asdict(row) for row in generate_table(4, 3)]
    assert got == expected


def test_cli_tables_text(capsys):
    rc = main(["tables", "--q", "3", "--d", "3"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "q=3 d=3" in out
    assert out.count("5.87") == 6


def test_cli_tables_custom_lengths(capsys):
    rc = main(["--records", "tables", "--q", "4", "--d", "3",
               "--lengths", "22,40"])
    assert rc == 0
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [r["n"] for r in rows] == [22, 40]
    assert rows[1]["linear_baseline"] is None


def test_cli_intervals(capsys):
    rc = main(["intervals", "--q", "7"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "[9, 13]" in out
    assert "[58, 92]" in out


def test_cli_intervals_empty(capsys):
    rc = main(["intervals", "--q", "2"])
    assert rc == 0
    assert "empty" in capsys.readouterr().out


def test_cli_interval_report_matches_library(capsys):
    rc = main(["--records", "intervals", "--q", "17", "--d", "5"])
    assert rc == 0
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert rows == [asdict(row) for row in prime_length_report(17, 5)]


@pytest.mark.parametrize(
    "q, expected",
    [
        ("16", "n=19 bound=4.67\nn=23 bound=4.88\n"),
        (
            "13",
            "n=17 bound=4.83 published=4.96  # published summary lists 4.96 for every"
            " admissible length; the bound at n=17 recomputes to 4.83\n"
            "n=19 bound=4.96 published=4.96\n",
        ),
    ],
)
def test_cli_interval_report_text(capsys, q, expected):
    assert main(["intervals", "--q", q, "--d", "5"]) == 0
    assert capsys.readouterr().out == expected


def test_cli_intervals_records_without_d(capsys):
    assert main(["--records", "intervals", "--q", "7"]) == 0
    assert capsys.readouterr().out == '{"below_3": [9, 13], "below_4": [58, 92]}\n'


def test_cli_tables_text_with_a_baseline_file_and_a_note(tmp_path, capsys):
    # The file's entry for n = 30 replaces the bundled one (4); n = 86 keeps
    # its note on the published figure.
    path = tmp_path / "baseline.txt"
    path.write_text("4 30 3 2\n")
    rc = main(["tables", "--q", "4", "--d", "3", "--lengths", "22,30,86", "--baseline", str(path)])
    assert rc == 0
    assert capsys.readouterr().out == (
        "q=4 d=3\n"
        "    n  modulus  bound  linear  improves\n"
        "   22       23   3.67       4       yes\n"
        "   30       31   3.88       2        no\n"
        "   86       89   4.64       5       yes  # published value 4.63 used modulus 87"
        " (divisible by 3, not prime); recomputed with 89\n"
    )


def test_cli_search(capsys):
    rc = main(["search", "--q", "2", "--n", "5", "--d", "3"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "offset 0,0 size 3"


def test_cli_verify(capsys):
    rc = main(["verify", "--q", "2", "--n", "5", "--d", "3",
               "--property", "partition"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("PASS partition")
    assert "instances=32" in out

    rc = main(["verify", "--q", "2", "--n", "5", "--d", "3",
               "--property", "erasure", "--offset", "0,0"])
    assert rc == 0
    assert "instances=45" in capsys.readouterr().out

    # Without --offset the check sweeps every coset.
    rc = main(["verify", "--q", "2", "--n", "5", "--d", "3", "--property", "erasure"])
    assert rc == 0
    assert capsys.readouterr().out == (
        "PASS decode:erasure instances=480 15 cosets, 32 codewords, 480 corruptions\n"
    )


@pytest.mark.parametrize("prop", ["partition", "distance"])
def test_cli_verify_refuses_an_offset_it_cannot_use(capsys, prop):
    rc = main(["verify", "--q", "2", "--n", "5", "--d", "3",
               "--property", prop, "--offset", "0,0"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --offset applies to the decode checks, not to {prop}\n"


def test_cli_verify_records(capsys):
    rc = main(["--records", "verify", "--q", "2", "--n", "5", "--d", "3",
               "--property", "distance"])
    assert rc == 0
    record = json.loads(capsys.readouterr().out)
    assert record["passed"] is True
    assert record["property"] == "min-distance"


def test_cli_budget_refusal(capsys):
    rc = main(["verify", "--q", "2", "--n", "40", "--d", "3",
               "--property", "partition", "--budget", "1000"])
    assert rc == 2
    assert "refused" in capsys.readouterr().err


def test_cli_budget_env_var(capsys, monkeypatch):
    monkeypatch.setenv(BUDGET_ENV_VAR, "10")
    rc = main(["search", "--q", "2", "--n", "5", "--d", "3"])
    assert rc == 2
    capsys.readouterr()
    rc = main(["search", "--q", "2", "--n", "5", "--d", "3", "--budget", "100"])
    assert rc == 0


def test_cli_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["decode", "--q", "2", "--n", "5", "--d", "3"])  # missing word
    assert exc.value.code == 2


def test_cli_value_error_becomes_usage_error(capsys):
    rc = main(["decode", "--q", "2", "--n", "5", "--d", "3",
               "--offset", "0,0", "--word", "1,0,1"])  # wrong length
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_cli_decode_reports_what_changed(capsys):
    main(["decode", "--q", "2", "--n", "5", "--d", "3",
          "--offset", "0,0", "--word", "1,0,1,1,1"])
    assert "corrected 1 position(s)" in capsys.readouterr().err
    main(["decode", "--q", "2", "--n", "5", "--d", "3",
          "--offset", "0,0", "--word", "1,0,0,1,1"])
    assert "unchanged" in capsys.readouterr().err
    main(["--records", "decode", "--q", "2", "--n", "5", "--d", "3",
          "--offset", "0,0", "--word", "1,?,?,1,1"])
    record = json.loads(capsys.readouterr().out)
    assert record == {"decoded": [1, 0, 0, 1, 1], "changed": 2}


def test_cli_decode_word_file(tmp_path, capsys):
    path = tmp_path / "words.txt"
    path.write_text("1,?,?,1,1\n# full comment\n\n1,0,0,1,1  # already clean\n")
    rc = main(["decode", "--q", "2", "--n", "5", "--d", "3",
               "--offset", "0,0", "--word-file", str(path)])
    assert rc == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines() == ["1,0,0,1,1", "1,0,0,1,1"]
    assert "word 1: corrected 2 position(s)" in captured.err
    assert "word 4: unchanged" in captured.err


def test_cli_decode_word_file_goes_on_after_a_failure(tmp_path, capsys):
    path = tmp_path / "words.txt"
    path.write_text("1,0,0,1,1\n1,1,1,1,0\n0,1,1,0,1\n")
    rc = main(["decode", "--q", "2", "--n", "5", "--d", "3",
               "--offset", "0,0", "--word-file", str(path)])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out.splitlines() == ["1,0,0,1,1", "0,1,1,0,1"]
    assert "word 2: decode failed" in captured.err
    assert "word 3: unchanged" in captured.err
    assert captured.err.splitlines()[-1] == "summary: 2 decoded, 1 failed, 0 malformed"


@pytest.mark.parametrize("records", [False, True], ids=["text", "records"])
def test_cli_word_file_reports_every_line(tmp_path, capsys, records):
    # Good, malformed, undecodable: every line is reported in order, and a
    # line that fails prints nothing to stdout.
    path = tmp_path / "words.txt"
    path.write_text("1,0,1,1,1\n1,0,9,1,1\n1,1,1,1,0\n")
    prefix = ["--records"] if records else []
    spec = ["--q", "2", "--n", "5", "--d", "3", "--offset", "0,0"]
    rc = main(prefix + ["decode", *spec, "--word-file", str(path)])
    assert rc == 2
    captured = capsys.readouterr()
    out = captured.out.splitlines()
    if records:
        assert [json.loads(line) for line in out] == [
            {"decoded": [1, 0, 0, 1, 1], "changed": 1}
        ]
    else:
        assert out == ["1,0,0,1,1"]
    assert captured.err.splitlines() == [
        "word 1: corrected 1 position(s)",
        "word 2: error: symbol 9 at position 3 outside [0, 1]",
        "word 3: decode failed: no coset member within 1 substitutions"
        " of the received word",
        "summary: 1 decoded, 1 failed, 1 malformed",
    ]

    rc = main(prefix + ["check", *spec, "--word-file", str(path)])
    assert rc == 2
    captured = capsys.readouterr()
    out = captured.out.splitlines()
    if records:
        assert [json.loads(line) for line in out] == [{"codeword": False}] * 2
    else:
        assert out == ["word 1: not a codeword", "word 3: not a codeword"]
    assert captured.err.splitlines() == [
        "word 2: error: symbol 9 at position 3 outside [0, 1]",
        "summary: 0 in the coset, 2 outside, 1 malformed",
    ]


def test_cli_check_word_file_flags_any_outsider(tmp_path, capsys):
    path = tmp_path / "words.txt"
    path.write_text("1,0,0,1,1\n1,1,1,1,1\n")
    rc = main(["check", "--q", "2", "--n", "5", "--d", "3",
               "--offset", "0,0", "--word-file", str(path)])
    assert rc == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["word 1: codeword", "word 2: not a codeword"]


def test_cli_corrupt_word_file_advances_seed(capsys, tmp_path):
    word = (3, 1, 4, 1, 0, 2, 0, 2, 4)
    text = ",".join(map(str, word))
    path = tmp_path / "words.txt"
    path.write_text(f"{text}\n{text}\n")
    rc = main(["corrupt", "--q", "5", "--word-file", str(path),
               "--errors", "2", "--seed", "99"])
    assert rc == 0
    first, second = capsys.readouterr().out.splitlines()
    assert parse_word(first) == corrupt(word, 5, errors=2, seed=99)
    assert parse_word(second) == corrupt(word, 5, errors=2, seed=100)


def test_cli_corrupt_word_file_reports_every_line(capsys, tmp_path):
    path = tmp_path / "words.txt"
    path.write_text("3,1,4,1,0\n3,x,4,1,0\n")
    rc = main(["corrupt", "--q", "5", "--word-file", str(path), "--errors", "1", "--seed", "7"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [format_word(corrupt((3, 1, 4, 1, 0), 5, errors=1, seed=7))]
    assert captured.err.splitlines() == [
        "word 2: error: bad symbol 'x' in word",
        "summary: 1 corrupted, 1 malformed",
    ]


def test_cli_takes_a_modulus_beyond_31_bits(capsys):
    # The default modulus of CodeSpec(2**31 + 11, 5, 3) is 2**31 + 11, a
    # prime; naming it explicitly gives the same code.
    spec = CodeSpec(2**31 + 11, 5, 3)
    assert spec.power_modulus == 2147483659
    word = (2**31, 7, 0, 1, 2**31 + 10)
    offset = format_offset(syndrome_profile(word, spec))
    rc = main(["check", "--q", str(2**31 + 11), "--n", "5", "--d", "3", "--modulus", "2147483659",
               "--offset", offset, "--word", format_word(word)])
    assert rc == 0
    assert capsys.readouterr().out == "codeword\n"


def test_cli_word_sources_are_exclusive(tmp_path, capsys):
    path = tmp_path / "words.txt"
    path.write_text("1,0,0,1,1\n")
    with pytest.raises(SystemExit) as caught:
        main(["check", "--q", "2", "--n", "5", "--d", "3", "--offset", "0,0",
              "--word", "1,0,0,1,1", "--word-file", str(path)])
    assert caught.value.code == 2
    capsys.readouterr()


def test_cli_word_file_problems_are_usage_errors(tmp_path, capsys):
    rc = main(["decode", "--q", "2", "--n", "5", "--d", "3",
               "--offset", "0,0", "--word-file", str(tmp_path / "absent.txt")])
    assert rc == 2
    assert "error" in capsys.readouterr().err
    empty = tmp_path / "empty.txt"
    empty.write_text("# nothing here\n")
    rc = main(["decode", "--q", "2", "--n", "5", "--d", "3",
               "--offset", "0,0", "--word-file", str(empty)])
    assert rc == 2
    assert "no words" in capsys.readouterr().err
    binary = tmp_path / "binary.txt"
    binary.write_bytes(b"1,0,0,1,1\n1,\xff,0,1,1\n")
    rc = main(["check", "--q", "2", "--n", "5", "--d", "3",
               "--offset", "0,0", "--word-file", str(binary)])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out.splitlines() == ["word 1: codeword"]
    assert "word 2: error: bad symbol" in captured.err


def _golden_word_file(spec, seed):
    """Seeded file lines for CodeSpec(256, 1000, 9), each paired with the word
    it holds, the parse error of a malformed line, or None for a comment or a
    blank; plus the offset of the sent word."""
    rng = random.Random(seed)
    sent = tuple(rng.randrange(spec.q) for _ in range(spec.n))

    def damaged(errors, erasures):
        out = list(sent)
        positions = rng.sample(range(spec.n), errors + erasures)
        for k in positions[:errors]:
            out[k] = (out[k] + rng.randrange(1, spec.q)) % spec.q
        for k in positions[errors:]:
            out[k] = None
        return tuple(out)

    words = [sent, sent]
    words += [damaged(t, 0) for t in (1, 2, 3, 4)]
    words += [damaged(0, e) for e in (1, 2, 5, 8)]
    lines = [("# golden word file", None), ("", None)]
    lines += [(format_word(word), word) for word in words]
    lines[3] = (lines[3][0] + "  # clean, with a comment", sent)
    malformed = list(map(str, sent))
    malformed[5] = "0x1"
    lines.append((",".join(malformed), "bad symbol '0x1' in word"))
    leading = damaged(1, 0)
    padded = list(map(str, leading))
    padded[7] = "00" + padded[7]
    lines.append((",".join(padded), leading))
    beyond = damaged(5, 0)
    lines.append((format_word(beyond), beyond))
    return lines, syndrome_profile(sent, spec)


def test_cli_decode_word_file_golden(tmp_path, capsys):
    # Every kind of line the decoder meets, in both output modes, against
    # what the library returns for each word.
    spec = CodeSpec(256, 1000, 9)
    lines, offset = _golden_word_file(spec, seed=1809)
    path = tmp_path / "words.txt"
    path.write_text("".join(text + "\n" for text, _ in lines))
    text_out, record_out, err = [], [], []
    counts = {"decoded": 0, "failed": 0, "malformed": 0}
    for lineno, (text, word) in enumerate(lines, start=1):
        label = f"word {lineno}: "
        if word is None:
            continue
        if isinstance(word, str):
            err.append(f"{label}error: {word}")
            counts["malformed"] += 1
            continue
        try:
            if None in word:
                decoded = decode_erasures(word, spec, offset)
            else:
                decoded = decode_errors(word, spec, offset)
        except (InconsistentWordError, UncorrectableError) as exc:
            err.append(f"{label}decode failed: {exc}")
            counts["failed"] += 1
            continue
        changed = sum(a != b for a, b in zip(word, decoded))
        err.append(f"{label}unchanged" if changed == 0 else f"{label}corrected {changed} position(s)")
        text_out.append(format_word(decoded))
        record_out.append(json.dumps({"decoded": list(decoded), "changed": changed}))
        counts["decoded"] += 1
    err.append("summary: " + ", ".join(f"{v} {k}" for k, v in counts.items()))
    assert counts == {"decoded": 11, "failed": 1, "malformed": 1}

    argv = ["decode", "--q", "256", "--n", "1000", "--d", "9",
            "--offset", format_offset(offset), "--word-file", str(path)]
    for prefix, expected_out in (([], text_out), (["--records"], record_out)):
        assert main(prefix + argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "".join(line + "\n" for line in expected_out)
        assert captured.err.splitlines() == err


def _record_lines(spec, seed):
    """Seeded word-file lines for spec, each with the word parse_word gives
    for it: clean, every error count up to the radius, every erasure count
    up to d-1, and two lines that take parse_word's loop path, one with a
    '?' padded by spaces and a tab."""
    rng = random.Random(seed)
    sent = tuple(rng.randrange(spec.q) for _ in range(spec.n))

    def damaged(errors, erasures):
        out = list(sent)
        positions = rng.sample(range(spec.n), errors + erasures)
        for k in positions[:errors]:
            out[k] = (out[k] + rng.randrange(1, spec.q)) % spec.q
        for k in positions[errors:]:
            out[k] = None
        return tuple(out)

    words = [sent]
    words += [damaged(t, 0) for t in range(1, spec.correction_radius + 1)]
    words += [damaged(0, e) for e in range(1, spec.d)]
    lines = [(format_word(word), word) for word in words]
    for errors, erasures in ((1, 0), (0, 2)):
        word = damaged(errors, erasures)
        parts = [" ?\t" if s is None else str(s) for s in word]
        k = next(i for i, s in enumerate(word) if s is not None)
        parts[k] = "+" + parts[k]
        lines.append((",".join(parts), word))
    return lines, syndrome_profile(sent, spec)


@pytest.mark.parametrize(
    "spec",
    [CodeSpec(5, 9, 5), CodeSpec(2**16, 40, 7), CodeSpec(2**16, 300, 7), CodeSpec(2**61, 12, 5)],
    ids=["plain", "q=2^16-plain", "q=2^16-vector", "q=2^61-plain"],
)
def test_cli_decode_record_is_what_json_dumps_writes(tmp_path, capsys, spec):
    # The record of each line, byte for byte, with `changed` counted over
    # every position of the received and the decoded word.
    lines, offset = _record_lines(spec, seed=spec.n)
    assert all(parse_word(text) == word for text, word in lines)
    path = tmp_path / "words.txt"
    path.write_text("".join(text + "\n" for text, _ in lines))
    text_out, record_out = [], []
    for _, word in lines:
        if None in word:
            decoded = decode_erasures(word, spec, offset)
        else:
            decoded = decode_errors(word, spec, offset)
        changed = sum(a != b for a, b in zip(word, decoded))
        text_out.append(format_word(decoded))
        record_out.append(json.dumps({"decoded": list(decoded), "changed": changed}))
    argv = ["decode", "--q", str(spec.q), "--n", str(spec.n), "--d", str(spec.d),
            "--offset", format_offset(offset), "--word-file", str(path)]
    for prefix, expected_out in (([], text_out), (["--records"], record_out)):
        assert main(prefix + argv) == 0
        assert capsys.readouterr().out == "".join(line + "\n" for line in expected_out)


@pytest.mark.parametrize("records", [False, True], ids=["text", "records"])
@pytest.mark.parametrize(
    "q, d, message",
    [("1", "3", "alphabet size q=1 must be >= 2"),
     ("4", "2", "designed distance d=2 must be >= 3")],
)
def test_cli_tables_rejects_bad_q_or_d(capsys, records, q, d, message):
    prefix = ["--records"] if records else []
    assert main(prefix + ["tables", "--q", q, "--d", d]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv, env, message",
    [(["search", "--q", "2", "--n", "5", "--d", "3"], "abc",
      f"{BUDGET_ENV_VAR} = 'abc' is not an integer"),
     (["tables", "--q", "4", "--d", "3", "--lengths", "22,abc"], None,
      "--lengths entry 'abc' is not an integer")],
    ids=["budget-env", "lengths"],
)
def test_cli_integer_text_names_its_source(capsys, monkeypatch, argv, env, message):
    if env is not None:
        monkeypatch.setenv(BUDGET_ENV_VAR, env)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
