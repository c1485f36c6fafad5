"""Span tracing by timing wrappers swapped in at module attributes.

Each traced function is replaced, at every module attribute through which
callers reach it, by a wrapper that records one span: label, start, end,
parent span and operation id.  Spans live in flat arrays in memory and are
written out once at the end.  Nothing inside the package is edited; the
wrappers only sit at the boundaries between its modules.

Targets are resolved by name at run time, so a function that a later
refactor deletes yields a note and a null metric instead of a crash.
"""

from __future__ import annotations

import importlib
import time
from array import array
from pathlib import Path

import numpy as np

# label -> (attribute name, modules whose attribute is swapped).  The modules
# are the call sites: a package-internal caller looks the name up in its own
# module, and the benchmark calls entry points through the package root.
TARGETS = {
    "core.validate_word": ("validate_word", ("vtcodes.core", "vtcodes.errors", "vtcodes.erasure", "vtcodes.cli")),
    "core.is_codeword": ("is_codeword", ("vtcodes.core", "vtcodes.errors", "vtcodes.erasure", "vtcodes.oracle", "vtcodes.cli", "vtcodes")),
    "core.syndrome_profile": ("syndrome_profile", ("vtcodes.core", "vtcodes.oracle", "vtcodes")),
    "core.best_offset_search": ("best_offset_search", ("vtcodes.core", "vtcodes.cli", "vtcodes")),
    "errors.decode_errors": ("decode_errors", ("vtcodes.errors", "vtcodes.oracle", "vtcodes.cli", "vtcodes")),
    "errors.decode_single_error": ("decode_single_error", ("vtcodes.errors", "vtcodes.oracle", "vtcodes.cli", "vtcodes")),
    "errors.berlekamp_massey": ("berlekamp_massey", ("vtcodes.errors", "vtcodes")),
    "errors.locate_and_evaluate": ("locate_and_evaluate", ("vtcodes.errors", "vtcodes")),
    "erasure.decode_erasures": ("decode_erasures", ("vtcodes.erasure", "vtcodes.oracle", "vtcodes.cli", "vtcodes")),
    "modarith.VandermondeSystem": ("VandermondeSystem", ("vtcodes.erasure", "vtcodes")),
    "modarith.vandermonde_solve": ("vandermonde_solve", ("vtcodes.erasure", "vtcodes.modarith", "vtcodes")),
    "oracle.coset_partition": ("coset_partition", ("vtcodes.oracle", "vtcodes")),
    "oracle.decode_check_sweep": ("decode_check_sweep", ("vtcodes.oracle", "vtcodes.cli", "vtcodes")),
    "oracle.partition_check": ("partition_check", ("vtcodes.oracle", "vtcodes.cli", "vtcodes")),
    "oracle.distance_sweep": ("distance_sweep", ("vtcodes.oracle", "vtcodes.cli", "vtcodes")),
    "cli.parse_word": ("parse_word", ("vtcodes.cli", "vtcodes.core", "vtcodes")),
    "cli.format_word": ("format_word", ("vtcodes.cli", "vtcodes.core", "vtcodes")),
    "cli.main": ("main", ("vtcodes.cli",)),
}

DECODERS = ("errors.decode_errors", "erasure.decode_erasures", "errors.decode_single_error")


class Tracer:
    """Installs the wrappers, records spans, and restores the originals."""

    def __init__(self) -> None:
        self.labels: list[str] = []
        self.label_ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("i")
        self.op = array("i")
        self.raised = array("b")
        self.start = array("d")
        self.end = array("d")
        self.current_op = -1
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _label_id(self, label: str) -> int:
        if label not in self.label_ids:
            self.label_ids[label] = len(self.labels)
            self.labels.append(label)
        return self.label_ids[label]

    def _wrap(self, label_id: int, fn):
        name, parent, op, raised = self.name, self.parent, self.op, self.raised
        start, end, stack = self.start, self.end, self._stack
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            idx = len(start)
            name.append(label_id)
            parent.append(stack[-1] if stack else -1)
            op.append(tracer.current_op)
            raised.append(0)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            except Exception:
                raised[idx] = 1
                raise
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        for label, (attr, modules) in TARGETS.items():
            label_id = self._label_id(label)
            wrapped: dict[int, object] = {}
            for modname in modules:
                try:
                    module = importlib.import_module(modname)
                except ImportError:
                    continue
                original = getattr(module, attr, None)
                if original is None:
                    continue
                if id(original) not in wrapped:
                    wrapped[id(original)] = self._wrap(label_id, original)
                setattr(module, attr, wrapped[id(original)])
                self._undo.append((module, attr, original))
            if not wrapped:
                self.missing.append(label)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)
        self._undo.clear()

    def spans(self) -> "Spans":
        return Spans(self)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            labels=np.array(self.labels),
            name=np.frombuffer(self.name, dtype=np.uint16),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
            raised=np.frombuffer(self.raised, dtype=np.int8),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


class Spans:
    """Array view of the recorded spans with the queries the metrics need."""

    def __init__(self, tracer: Tracer) -> None:
        self.label_ids = tracer.label_ids
        self.name = np.frombuffer(tracer.name, dtype=np.uint16)
        self.parent = np.frombuffer(tracer.parent, dtype=np.int32)
        self.op = np.frombuffer(tracer.op, dtype=np.int32)
        self.raised = np.frombuffer(tracer.raised, dtype=np.int8).astype(bool)
        self.dur = np.frombuffer(tracer.end) - np.frombuffer(tracer.start)
        has_parent = self.parent >= 0
        child = np.bincount(
            self.parent[has_parent], weights=self.dur[has_parent], minlength=len(self.dur)
        )
        # Children run strictly inside their parent on one thread, so the sum
        # of direct children is exactly the covered part of the interval.
        self.self_time = self.dur - child

    def of(self, *labels: str) -> np.ndarray:
        ids = [self.label_ids[label] for label in labels if label in self.label_ids]
        return np.isin(self.name, ids)

    def ancestor_in(self, mask: np.ndarray) -> np.ndarray:
        """Index of the nearest span (itself included) matching mask, else -1."""
        anc = np.where(mask, np.arange(len(mask), dtype=np.int32), np.int32(-1))
        has_parent = self.parent >= 0
        while True:
            lookup = np.where(has_parent, anc[np.maximum(self.parent, 0)], -1)
            updated = np.where(anc >= 0, anc, lookup)
            if np.array_equal(updated, anc):
                return anc
            anc = updated
