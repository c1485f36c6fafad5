"""Mutation check: does the test suite catch known faults in the package?

    python3 tools/mutants.py

Each mutant names one source edit, a text that must occur exactly once in
a file under src/vtcodes and what replaces it.  For each mutant the script
copies src/, tests/, perfbench/, BENCHMARK.json and pyproject.toml into a
temporary directory, applies the edit there, and runs pytest on the copy
with -x.  A mutant is "killed" when pytest reports a failure and
"survived" when the whole suite passes; the checkout itself is never
written.  An edit whose text is not found exactly once is reported as
"stale" (the source moved on and the mutant needs updating), and a run
that ends in anything but pass or fail, or takes longer than TIMEOUT_S, as
"error".  The script prints one line per mutant and exits 1 if any mutant
survived or could not be run.  It is not part of the test suite: each
mutant costs up to a full Tier-1 run.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "perfbench", "BENCHMARK.json", "pyproject.toml")
TIMEOUT_S = 900  # a mutant that makes the suite hang counts as "error"


@dataclass(frozen=True)
class Mutant:
    key: str
    name: str
    path: str
    old: str
    new: str


MUTANTS = (
    Mutant(
        "a",
        "phase two without node n",
        "src/vtcodes/errors.py",
        "        known = [spec.n]\n",
        "        known = []\n",
    ),
    Mutant(
        "b",
        "a node at 0 drops no leading moment",
        "src/vtcodes/errors.py",
        "    del modified[: len(known)]\n",
        "    del modified[: sum(k != p for k in known)]\n",
    ),
    Mutant(
        "c",
        "no exact plain-sum check",
        "src/vtcodes/errors.py",
        "    if sum(mags) != shift:\n"
        '        return "completed word fails the membership check"\n',
        "",
    ),
    Mutant(
        "d",
        "slab tail not zeroed in _weighted_sums",
        "src/vtcodes/core.py",
        "        part[last - start :] = 0\n",
        "",
    ),
    Mutant(
        "e",
        "a run's last hit dropped in _locator_roots",
        "src/vtcodes/core.py",
        "hits += (np.flatnonzero(v == qt) + top * width).tolist()",
        "hits += (np.flatnonzero(v == qt) + top * width).tolist()[:-1]",
    ),
    Mutant(
        "f",
        "parse_word's fast path without its guard",
        "src/vtcodes/core.py",
        "    if _PLAIN_WORD(text):\n",
        "    if True:\n",
    ),
    Mutant(
        "g",
        "the decode record built without the ', ' separators",
        "src/vtcodes/cli.py",
        'out.replace(",", ", ")',
        "out",
    ),
    Mutant(
        "h",
        "Berlekamp-Massey keeps the old previous register on a length change",
        "src/vtcodes/errors.py",
        "            prev = stash\n",
        "",
    ),
    Mutant(
        "i",
        "the plain-int root scan stops at position n - 1",
        "src/vtcodes/core.py",
        "        for k in range(1, n + 1):\n            acc = 0\n",
        "        for k in range(1, n):\n            acc = 0\n",
    ),
    Mutant(
        "j",
        "read_integer returns a non-int integer as given",
        "src/vtcodes/core.py",
        "        return operator.index(value)\n",
        "        operator.index(value)\n        return value\n",
    ),
    Mutant(
        "k",
        "the lift window's top end one symbol short",
        "src/vtcodes/errors.py",
        "    return hi - (hi - plain + offset0) % sum_modulus\n",
        "    return hi - 1 - (hi - 1 - plain + offset0) % sum_modulus\n",
    ),
    Mutant(
        "l",
        "the batched erasure decode without its exact plain-sum check",
        "src/vtcodes/erasure.py",
        "        & (filled.sum(axis=1) == -shift)\n",
        "",
    ),
    Mutant(
        "m",
        "the first failing erasure case picked mask-first",
        "src/vtcodes/oracle.py",
        "case = int(failed.argmax()) * len(masks) + j\n",
        "case = j * len(batch) + int(failed.argmax())\n",
    ),
    Mutant(
        "n",
        "the substitution check restarts its case count per coset",
        "src/vtcodes/oracle.py",
        "    instances = 0\n    for offset, codewords in groups:\n",
        "    for offset, codewords in groups:\n        instances = 0\n",
    ),
    Mutant(
        "o",
        "the plain-int root scan reports position n at n = p",
        "src/vtcodes/core.py",
        "            if acc == 0 and k % p:\n",
        "            if acc == 0:\n",
    ),
)


def run_mutant(mutant: Mutant) -> tuple[str, str]:
    """(outcome, detail) for one mutant, run in a fresh temporary copy."""
    with tempfile.TemporaryDirectory(prefix="vtcodes-mutant-") as tmp:
        copy = Path(tmp)
        for part in COPIED:
            source = ROOT / part
            if source.is_dir():
                shutil.copytree(
                    source, copy / part, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info")
                )
            else:
                shutil.copy2(source, copy / part)
        target = copy / mutant.path
        text = target.read_text()
        found = text.count(mutant.old)
        if found != 1:
            return "stale", f"edit text found {found} times in {mutant.path}"
        target.write_text(text.replace(mutant.old, mutant.new))
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "tests"],
                cwd=copy,
                env={**os.environ, "PYTHONPATH": str(copy / "src")},
                capture_output=True,
                text=True,
                timeout=TIMEOUT_S,
                check=False,
            )
        except subprocess.TimeoutExpired:
            return "error", f"no result within {TIMEOUT_S} s"
    if proc.returncode == 0:
        return "survived", "every test passed"
    if proc.returncode == 1:
        failed = re.search(r"^FAILED (\S+)", proc.stdout, re.MULTILINE)
        return "killed", f"by {failed.group(1)}" if failed else "a test failed"
    return "error", f"pytest exited {proc.returncode}: {proc.stdout.strip()[-300:]}"


def main() -> int:
    clean = True
    for mutant in MUTANTS:
        outcome, detail = run_mutant(mutant)
        clean &= outcome == "killed"
        print(f"({mutant.key}) {mutant.name}: {outcome} ({detail})", flush=True)
    return 0 if clean else 1


if __name__ == "__main__":
    sys.exit(main())
