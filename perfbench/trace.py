"""In-memory span recorder and the layer boundaries it wraps.

Spans are recorded only in a traced run, around calls into each layer's
public API that happen O(layers) or O(queries) times — never per child
configuration; per-child work is read from the step table's and the
arena's own counters instead.  The wrappers are installed on the
classes for the duration of the run and removed afterwards, so the
program's source is untouched.  Spans stay in memory until the run
ends, then go to one JSON-lines file.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from dataclasses import asdict, dataclass, field

from repro.isomorphism import algebra
from repro.knowledge.evaluator import KnowledgeEvaluator
from repro.knowledge.formula import (
    And,
    Atom,
    CommonKnowledge,
    Knows,
    Not,
    Or,
    Sure,
)
from repro.universe.arena import ArenaStore
from repro.universe.checkpoint import CheckpointSession
from repro.universe.explorer import PartitionTable, Universe
from repro.universe.fileops import FileOps
from repro.universe.sharded import ShardedExplorer

PROPERTY_CHECKERS = {
    "1-equivalence": "check_equivalence",
    "2-substitution": "check_substitution",
    "3-idempotence": "check_idempotence",
    "4-reflexivity": "check_reflexivity",
    "5-inversion": "check_inversion",
    "6-concatenation": "check_concatenation",
    "7-union": "check_union",
    "8-containment": "check_containment",
    "9-extensionality": "check_extensionality",
    "10-absorption": "check_absorption",
}
"""§3 property name (as ``check_all_properties`` reports it) -> checker."""

FORMULA_KINDS = (
    (Atom, "atom"),
    ((Knows, Sure), "knows"),
    (CommonKnowledge, "ck"),
    ((Not, And, Or), "boolean"),
)


def formula_kind(formula) -> str:
    for types, kind in FORMULA_KINDS:
        if isinstance(formula, types):
            return kind
    return "other"


@dataclass(slots=True)
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str
    thread: int
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Collects spans in memory; ``enabled`` switches recording per call.

    Each thread keeps its own stack of open spans, so a span's parent is
    the innermost span open on the same thread (the checkpoint writer's
    file operations are roots tagged with the writer's thread id).
    """

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[Span] = []
        self.enabled = False
        self._local = threading.local()
        # count.__next__ and list.append are single atomic steps under the
        # interpreter lock, so threads can share them without a lock.
        self._ids = itertools.count()

    def begin(self, name: str, **attrs) -> Span:
        try:
            stack = self._local.stack
        except AttributeError:
            stack = self._local.stack = []
        span = Span(
            next(self._ids),
            name,
            time.perf_counter(),
            0.0,
            stack[-1].span_id if stack else None,
            self.run_id,
            threading.get_ident(),
            attrs,
        )
        stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._local.stack.pop()
        self.spans.append(span)

    def write(self, path) -> None:
        with open(path, "w") as handle:
            for span in sorted(self.spans, key=lambda entry: entry.start):
                handle.write(json.dumps(asdict(span), default=str) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the durations of its direct children.

    Children run on the parent's thread inside its interval and one at a
    time, so subtracting their durations removes exactly the time they
    cover."""
    own = {span.span_id: span.duration for span in spans}
    for span in spans:
        if span.parent is not None and span.parent in own:
            own[span.parent] -= span.duration
    return own


class Instrumentation:
    """Installs span-recording wrappers on the layer boundaries."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self.arenas: list[ArenaStore] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, owner, attribute: str, name: str, annotate=None) -> None:
        original = owner.__dict__[attribute]
        recorder = self.recorder

        def traced(*args, **kwargs):
            if not recorder.enabled:
                return original(*args, **kwargs)
            attrs = annotate(*args, **kwargs) if annotate is not None else {}
            span = recorder.begin(name, **attrs)
            try:
                return original(*args, **kwargs)
            finally:
                recorder.end(span)

        traced.__wrapped__ = original
        self._undo.append((owner, attribute, original))
        setattr(owner, attribute, traced)

    def install(self) -> None:
        arenas = self.arenas

        def formula_attrs(evaluator, formula):
            return {"kind": formula_kind(formula), "formula": hash(formula)}

        def arena_attrs(store, *args):
            if not any(store is known for known in arenas):
                arenas.append(store)
            return {}

        def write_attrs(fileops, handle, data):
            return {"bytes": len(data)}

        self._wrap(CheckpointSession, "try_resume", "checkpoint.resume")
        self._wrap(CheckpointSession, "commit_layer", "checkpoint.commit")
        self._wrap(CheckpointSession, "flush", "checkpoint.flush")
        self._wrap(FileOps, "write", "fileops.write", write_attrs)
        self._wrap(FileOps, "fsync", "fileops.fsync")
        self._wrap(FileOps, "replace", "fileops.replace")
        self._wrap(ArenaStore, "retire", "arena.retire", arena_attrs)
        self._wrap(ArenaStore, "spill_cold", "arena.spill", arena_attrs)
        self._wrap(ShardedExplorer, "explore_into", "sharded.explore_into")
        self._wrap(Universe, "partition_table", "iso.partition_table")
        self._wrap(PartitionTable, "__init__", "iso.table_build")
        self._wrap(Universe, "refinement_product", "iso.refinement")
        self._wrap(
            PartitionTable, "contained_classes_mask", "iso.contained_classes"
        )
        self._wrap(
            KnowledgeEvaluator, "extension_mask", "knowledge.extension", formula_attrs
        )
        for checker in PROPERTY_CHECKERS.values():
            self._wrap(algebra, checker, f"iso.check.{checker}")

    def uninstall(self) -> None:
        while self._undo:
            owner, attribute, original = self._undo.pop()
            setattr(owner, attribute, original)


def write_spans(recorder: SpanRecorder, directory) -> str:
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"spans-{recorder.run_id}.jsonl")
    recorder.write(path)
    return path
