"""Per-layer metrics of the traced run, and the probes that feed them.

Layers are the package's modules.  Most figures come from the spans of the
workload's own operations.  Where a workload does not reach a function
(the CLI from the library workloads, the oracle from the decode workloads,
or functions no decoder calls), a small probe calls it directly under the
tracer, so every workload reports every metric.  A function that no longer
exists gives a null value and a note.
"""

from __future__ import annotations

import random

import numpy as np

import vtcodes
from tracer import DECODERS, Spans, Tracer
from workloads import (
    CliBatch,
    GateError,
    Group,
    OracleSweep,
    apply_damage,
    make_damage,
    profile,
    typed_failures,
)

# (name, unit, better); BENCHMARK.json lists the same metrics.
PER_LAYER = (
    ("core.validate_word.calls_per_decode", "count", "lower"),
    ("core.is_codeword.calls_per_decode", "count", "lower"),
    ("core.validate_word.us", "us", "lower"),
    ("core.is_codeword.us", "us", "lower"),
    ("core.syndrome_profile.us", "us", "lower"),
    ("core.syndrome_profile.Melem_per_s", "Melem/s", "higher"),
    ("core.best_offset_search.s", "s", "lower"),
    ("oracle.coset_partition.s", "s", "lower"),
    ("errors.decode_errors.us", "us", "lower"),
    ("errors.self_us", "us", "lower"),
    ("errors.locate_and_evaluate.us", "us", "lower"),
    ("errors.berlekamp_massey.us", "us", "lower"),
    ("errors.berlekamp_massey.calls_per_decode", "count", "lower"),
    ("errors.failed_ratio", "ratio", "lower"),
    ("erasure.decode_erasures.us", "us", "lower"),
    ("erasure.failed_ratio", "ratio", "lower"),
    ("modarith.vandermonde.share", "ratio", "lower"),
    ("oracle.erasure.cases_per_s", "1/s", "higher"),
    ("oracle.single-error.cases_per_s", "1/s", "higher"),
    ("oracle.multi-error.cases_per_s", "1/s", "higher"),
    ("oracle.decoder_share", "ratio", "lower"),
    ("cli.parse_word.us", "us", "lower"),
    ("cli.format_word.us", "us", "lower"),
    ("cli.self_share", "ratio", "lower"),
    ("defect.mixed.failed_ratio", "ratio", "lower"),
    ("defect.cli_abort.unprocessed_ratio", "ratio", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)

# Small fixed oracle jobs for the workloads that do not sweep.
MINI_ORACLE = (
    ("decode_check_sweep", (2, 6, 3), "erasure", 1344),
    ("decode_check_sweep", (2, 6, 3), "single-error", 384),
    ("decode_check_sweep", (2, 7, 5), "multi-error", 3584),
)
FIXED_SPEC = (3, 8, 3)
PROBE_REPEATS = 3

# Probe operation ids are negative; the workload's own operations count up from 0.
PROBE_OPS = {
    "syndrome_profile": -2,
    "locate_and_evaluate": -3,
    "best_offset_search": -4,
    "coset_partition": -5,
    "mini_cli": -6,
    "mini_oracle": -7,
}


class Probes:
    """Direct calls that fill the metrics a workload's own loop leaves empty."""

    def __init__(self, name: str, workload, seed: int, workdir) -> None:
        self.name = name
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.values: dict[str, float | None] = {}
        self.notes: list[str] = []
        self.oracle_rates: dict[str, list[float]] = {}

    def untraced(self) -> None:
        """Expected-failure probes and oracle rates, with no wrappers installed."""
        self._defects()
        if self.name != "oracle_sweep":
            mini = OracleSweep(self.seed, MINI_ORACLE)
            mini.run_group(0, Group())
            self.oracle_rates = mini.mode_seconds

    def traced(self, tracer: Tracer) -> None:
        spec, words = self.workload.probe_words()
        fixed = vtcodes.CodeSpec(*FIXED_SPEC)
        for _ in range(PROBE_REPEATS):
            self._call(tracer, "syndrome_profile", lambda f: [f(w, spec) for w in words])
            self._call(tracer, "best_offset_search", lambda f: f(fixed))
            self._call(tracer, "coset_partition", lambda f: f(fixed))
        self._locate(tracer, spec, words[0])
        if self.name != "cli_batch":
            tracer.current_op = PROBE_OPS["mini_cli"]
            cli = CliBatch(self.seed, self.workdir)
            cli.decode_file(*cli.write_file(0, kind="errors")[1:])
        if self.name != "oracle_sweep":
            tracer.current_op = PROBE_OPS["mini_oracle"]
            OracleSweep(self.seed, MINI_ORACLE).run_group(0, Group())

    def _call(self, tracer: Tracer, attr: str, body) -> None:
        fn = getattr(vtcodes, attr, None)
        if fn is None:
            self.notes.append(f"vtcodes.{attr} not found; its probe metric is null")
            return
        tracer.current_op = PROBE_OPS[attr]
        body(fn)

    def _locate(self, tracer: Tracer, spec, word) -> None:
        """Root scan plus magnitudes, driven through the public key-equation API."""
        names = ("compute_error_syndrome", "berlekamp_massey", "KeyEquationState", "locate_and_evaluate")
        api = [getattr(vtcodes, n, None) for n in names]
        if None in api:
            self.notes.append("key-equation API not found; errors.locate_and_evaluate.us is null")
            return
        syndrome_of, bm, state_cls, locate = api
        rng = random.Random(self.seed)
        radius = spec.correction_radius
        p = spec.power_modulus
        offset = profile(word, spec.q, spec.d)
        tracer.current_op = PROBE_OPS["locate_and_evaluate"]
        for _ in range(PROBE_REPEATS):
            # Position n has locator 0 when n equals the prime; keep errors off it.
            damage = make_damage(rng, word[:-1], spec.q, radius, 0)
            received = apply_damage(word, damage)
            syndromes = list(syndrome_of(received, spec, offset))
            lam, _ = bm(syndromes, p)
            omega = [0] * len(syndromes)
            for i, a in enumerate(lam):
                for j in range(len(syndromes) - i):
                    omega[i + j] = (omega[i + j] + a * syndromes[j]) % p
            while len(omega) > 1 and omega[-1] == 0:
                omega.pop()
            state = state_cls(tuple(syndromes), tuple(lam), tuple(omega), p)
            vector = locate(state, spec, received)
            if restore(received, vector.entries) != word:
                raise GateError("locate_and_evaluate probe: error vector does not restore the word")

    def _defects(self) -> None:
        """Damage in range for a joint decoder that the package rejects today."""
        cli = CliBatch(self.seed, self.workdir)
        rng = random.Random(self.seed)
        failures = 0
        typed = typed_failures()
        _, base, offset = cli.write_file(1, kind="clean")
        for _ in range(5):
            word = apply_damage(base, make_damage(rng, base, cli.SPEC[0], 3, 2))
            try:
                out = vtcodes.decode_erasures(word, cli.spec, offset)
            except typed:
                failures += 1
                continue
            if out != base:
                raise GateError("mixed probe: decoder returned a word other than the sent one")
        self.values["defect.mixed.failed_ratio"] = failures / 5
        _, base, offset = cli.write_file(2, kind="errors", mixed_at=rng.randrange(cli.LINES))
        _, decoded = cli.decode_file(base, offset)
        self.values["defect.cli_abort.unprocessed_ratio"] = (cli.LINES - decoded) / cli.LINES


def restore(received, entries) -> tuple:
    """Subtract (1-indexed position, magnitude) error entries from a word."""
    out = list(received)
    for pos, mag in entries:
        out[pos - 1] -= mag
    return tuple(out)


def _mean(values: np.ndarray) -> float | None:
    return float(values.mean()) if len(values) else None


def _ratio(num: float, den: float) -> float | None:
    return float(num / den) if den else None


def layer_metrics(
    spans: Spans, damaged_ops: np.ndarray, probes: Probes, workload_rates: dict, overhead: float
) -> dict[str, float | None]:
    """Every per-layer metric; null where its function is gone or never ran."""
    own = spans.op >= 0
    dur, self_time, raised = spans.dur, spans.self_time, spans.raised
    decoders = spans.of(*DECODERS)
    dec_anc = spans.ancestor_in(decoders)
    has_dec = dec_anc >= 0
    safe = np.maximum(dec_anc, 0)
    damaged = decoders & own & np.isin(spans.op, damaged_ops)
    under_damaged = has_dec & damaged[safe]
    de = spans.of("errors.decode_errors")
    er = spans.of("erasure.decode_erasures")
    validate = spans.of("core.validate_word")
    member = spans.of("core.is_codeword")
    bm = spans.of("errors.berlekamp_massey")
    vandermonde = spans.of("modarith.VandermondeSystem", "modarith.vandermonde_solve")
    under_de = has_dec & de[safe]
    under_er = has_dec & er[safe]

    def probe(label: str, key: str) -> np.ndarray:
        return dur[spans.of(label) & (spans.op == PROBE_OPS[key])]

    v: dict[str, float | None] = {}
    v["core.validate_word.calls_per_decode"] = _ratio((validate & under_damaged).sum(), damaged.sum())
    v["core.is_codeword.calls_per_decode"] = _ratio((member & under_damaged).sum(), damaged.sum())
    v["core.validate_word.us"] = _mean(dur[validate & own] * 1e6)
    v["core.is_codeword.us"] = _mean(dur[member & own] * 1e6)
    sp = _mean(probe("core.syndrome_profile", "syndrome_profile"))
    spec, _ = probes.workload.probe_words()
    v["core.syndrome_profile.us"] = None if sp is None else sp * 1e6
    v["core.syndrome_profile.Melem_per_s"] = None if sp is None else spec.n * (spec.d - 1) / sp / 1e6
    v["core.best_offset_search.s"] = _mean(probe("core.best_offset_search", "best_offset_search"))
    v["oracle.coset_partition.s"] = _mean(probe("oracle.coset_partition", "coset_partition"))
    v["errors.decode_errors.us"] = _mean(dur[de & own] * 1e6)
    v["errors.self_us"] = _mean(self_time[de & own] * 1e6)
    loc = _mean(probe("errors.locate_and_evaluate", "locate_and_evaluate"))
    v["errors.locate_and_evaluate.us"] = None if loc is None else loc * 1e6
    v["errors.berlekamp_massey.us"] = _mean(dur[bm & own] * 1e6)
    v["errors.berlekamp_massey.calls_per_decode"] = _ratio(
        (bm & under_de & under_damaged).sum(), (de & damaged).sum()
    )
    v["errors.failed_ratio"] = _ratio((raised & de & own).sum(), (de & own).sum())
    v["erasure.decode_erasures.us"] = _mean(dur[er & own] * 1e6)
    v["erasure.failed_ratio"] = _ratio((raised & er & own).sum(), (er & own).sum())
    v["modarith.vandermonde.share"] = _ratio(
        dur[vandermonde & under_er & own].sum(), dur[er & own].sum()
    )
    rates = workload_rates if probes.name == "oracle_sweep" else probes.oracle_rates
    for mode in ("erasure", "single-error", "multi-error"):
        seconds, cases = rates.get(mode, (0.0, 0))
        v[f"oracle.{mode}.cases_per_s"] = _ratio(cases, seconds)
    sweeps = spans.of("oracle.decode_check_sweep")
    under_sweep = (spans.ancestor_in(sweeps) >= 0) & decoders
    v["oracle.decoder_share"] = _ratio(dur[under_sweep].sum(), dur[sweeps].sum())
    v["cli.parse_word.us"] = _mean(dur[spans.of("cli.parse_word")] * 1e6)
    v["cli.format_word.us"] = _mean(dur[spans.of("cli.format_word")] * 1e6)
    mains = spans.of("cli.main")
    under_main = (spans.ancestor_in(mains) >= 0) & decoders
    share = _ratio(dur[under_main].sum(), dur[mains].sum())
    v["cli.self_share"] = None if share is None else 1.0 - share
    v.update(probes.values)
    v["trace.overhead_ratio"] = overhead
    return v
