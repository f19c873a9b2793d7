"""The benchmark's workloads: inputs from a seed, set-up, timed operations.

Every workload is a closed loop with one client: the next operation
starts when the previous one has returned.  An operation is one
``Universe(...)`` exploration on the two explore workloads and one
formula on ``query-knowledge``, whose set-up explores with a checkpoint
and reopens it.  Answer checks run after each operation's clock has
stopped.
"""

from __future__ import annotations

import itertools
import os
import random
import resource
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.isomorphism.algebra import check_all_properties
from repro.knowledge.evaluator import KnowledgeEvaluator
from repro.knowledge.formula import (
    And,
    CommonKnowledge,
    Knows,
    Not,
    Or,
    Sure,
)
from repro.protocols.broadcast import (
    BroadcastProtocol,
    fact_known_atom,
    star_topology,
)
from repro.universe import Universe
from repro.universe.options import CheckpointPolicy, ExplorationOptions, Sharding

from perfbench import oracle


@dataclass
class Op:
    """One timed operation: its latency, the work it did and its check."""

    latency_s: float
    work: int
    work_s: float
    failed: bool
    traced: bool = False
    warmup: bool = False
    attrs: dict = field(default_factory=dict)


@contextmanager
def span(recorder, name: str):
    """A span around the block when the operation is traced."""
    if recorder is None:
        yield
        return
    opened = recorder.begin(name)
    try:
        yield
    finally:
        recorder.end(opened)


def seeded_names(rng: random.Random, count: int) -> list[str]:
    names: set[str] = set()
    while len(names) < count:
        names.add(f"p{rng.randrange(16**6):06x}")
    return sorted(names)


def rss_mb(field_name: str = "VmRSS") -> float:
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith(field_name + ":"):
                return int(line.split()[1]) / 1024
    raise RuntimeError(f"{field_name} missing from /proc/self/status")


def cpu_seconds(who) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def star_protocol(names: list[str]) -> BroadcastProtocol:
    hub, *receivers = names
    return BroadcastProtocol(star_topology(hub, receivers), hub)


def universe_shape(universe) -> dict:
    """Layer and edge counts of a finished exploration.

    BFS layer ``i`` holds the configurations with ``i`` events, so the
    last configuration's length gives the layer count.  The CSR successor
    array is the only edge counter a universe keeps."""
    last = universe.configuration_of_id(len(universe) - 1)
    return {
        "configurations": len(universe),
        "layers": len(last) + 1,
        "edges": len(universe._succ_ids),
    }


def step_table_counters(protocol) -> dict:
    table = protocol.step_table
    return {
        "steptable_build_s": table.build_seconds,
        "steptable_compiled": table.compiled_entries,
        "steptable_shape_hits": table.shape_hits,
    }


class Workload:
    """Base: subclasses define ``op``, and ``setup`` when there is more to
    prepare than imports.  ``op`` gets a recorder only when traced."""

    name = ""
    store = "objects"
    one_off_ops = 0
    # Operations run, and checked, before the timed ones: the first
    # exploration of a run pays for cold caches and lazy imports.
    warmup_ops = 1
    # Free each dropped universe before the next operation starts.
    collect_between_ops = True

    def __init__(self, seed: int, work_dir: str) -> None:
        self.seed = seed
        self.rng = random.Random(seed)
        self.work_dir = work_dir
        self.instrumentation = None

    def setup(self, recorder=None):
        """Every exploration builds a fresh protocol, so its step table
        starts cold: beyond the imports there is nothing to prepare."""
        return None

    def before_loop(self, state, recorder) -> list[str]:
        """One-off measured work before the loop; returns problems."""
        return []

    def op(self, state, index: int, recorder) -> Op:
        raise NotImplementedError

    def after_loop(self, state, ops: list[Op]) -> list[str]:
        """Answer checks that need the whole run; returns problems and
        marks the operations they fail."""
        return []

    def context(self) -> dict:
        return {}

    def _arena_stats(self) -> dict:
        if self.instrumentation is None or not self.instrumentation.arenas:
            return {}
        stats = self.instrumentation.arenas[-1].stats()
        self.instrumentation.arenas.clear()
        return {
            "arena_raw_bytes": stats["raw_bytes"],
            "arena_compressed_bytes": stats["compressed_bytes"],
            "arena_bytes_per_config": (
                stats["compressed_bytes"] + stats["tail_bytes"]
            )
            / max(stats["configurations"], 1),
        }


class ExploreStar(Workload):
    """Star broadcast, arena store, no checkpoint: per-child kernel work."""

    store = "arena"

    def __init__(self, seed, work_dir, *, receivers: int, workers: int):
        super().__init__(seed, work_dir)
        self.receivers = receivers
        self.workers = workers
        self.names = seeded_names(self.rng, receivers + 1)
        self.expected = oracle.star_configurations(receivers)
        self.options = ExplorationOptions(
            store="arena", sharding=Sharding(workers=workers)
        )

    def op(self, state, index, recorder):
        protocol = star_protocol(self.names)
        self_cpu = cpu_seconds(resource.RUSAGE_SELF)
        child_cpu = cpu_seconds(resource.RUSAGE_CHILDREN)
        with span(recorder, "universe.explore"):
            start = time.perf_counter()
            universe = Universe(protocol, options=self.options)
            wall = time.perf_counter() - start
        attrs = {
            "coordinator_cpu_s": cpu_seconds(resource.RUSAGE_SELF) - self_cpu,
            "worker_cpu_s": cpu_seconds(resource.RUSAGE_CHILDREN) - child_cpu,
            "explore_wall_s": wall,
            "worker_rss_mb": sum(universe.worker_peak_rss_mb.values()),
            "recovery_events": len(universe.recovery_log),
            "rss_after_explore_mb": rss_mb(),
        }
        problems = oracle.explore_failures(universe, self.expected)
        if recorder is not None:
            attrs.update(universe_shape(universe))
            attrs.update(step_table_counters(protocol))
            attrs.update(self._arena_stats())
        attrs["problems"] = problems
        return Op(wall, len(universe), wall, bool(problems), attrs=attrs)

    def context(self):
        return {
            "protocol": f"star broadcast, {self.receivers} receivers",
            "store": self.store,
            "workers": self.workers,
            "configurations": self.expected,
        }


def formula_stream(rng: random.Random, atoms: list, processes: list, depth: int):
    """Distinct formulas over ``atoms``: ``K``/``Sure``/``C``/``¬``/``∧``/``∨``
    nested up to ``depth`` operators, each modality over a random
    non-empty process subset.  The outermost operator is always a
    modality, so every query runs at least one class-containment pass
    over a body it has not seen before."""

    def subset():
        return frozenset(rng.sample(processes, rng.randint(1, len(processes))))

    def build(level, kinds="KKSCNAO"):
        if level == 0 or (kinds == "KKSCNAO" and rng.random() < 0.3):
            return rng.choice(atoms)
        kind = rng.choice(kinds)
        if kind == "K":
            return Knows(subset(), build(level - 1))
        if kind == "S":
            return Sure(subset(), build(level - 1))
        if kind == "C":
            return CommonKnowledge(subset(), build(level - 1))
        if kind == "N":
            return Not(build(level - 1))
        if kind == "A":
            return And(build(level - 1), build(level - 1))
        return Or(build(level - 1), build(level - 1))

    seen = set()
    while True:
        formula = build(depth, kinds="KSC")
        if formula not in seen:
            seen.add(formula)
            yield formula


class QueryKnowledge(Workload):
    """Star broadcast universe, one evaluator, a seeded formula stream."""

    one_off_ops = 1  # the property sweep
    warmup_ops = 0
    collect_between_ops = False
    formula_depth = 3
    checked_queries = 12
    property_sweep_s = resume_s = None

    def __init__(self, seed, work_dir, *, receivers: int, max_sets: int):
        super().__init__(seed, work_dir)
        self.receivers = receivers
        self.max_sets = max_sets
        self.names = seeded_names(self.rng, receivers + 1)
        self.expected = oracle.star_configurations(receivers)

    def setup(self, recorder=None):
        """Explore with a checkpoint saved every layer, then reopen the
        checkpoint and answer from the reopened universe, as a query
        service started from a saved exploration would."""
        directory = tempfile.mkdtemp(prefix="setup-", dir=self.work_dir)
        options = ExplorationOptions(
            checkpoint=CheckpointPolicy(
                path=os.path.join(directory, "star.ckpt"), every=1
            )
        )
        with span(recorder, "universe.explore"):
            explored = Universe(star_protocol(self.names), options=options)
        protocol = star_protocol(self.names)
        with span(recorder, "universe.reopen"):
            start = time.perf_counter()
            universe = Universe(protocol, options=options)
            self.resume_s = time.perf_counter() - start
        atoms = {fact_known_atom(protocol, name): name for name in self.names}
        return {
            "checkpoint_dir": directory,
            "explored": explored,
            "universe": universe,
            "evaluator": KnowledgeEvaluator(universe),
            "atoms": atoms,
            "stream": formula_stream(
                random.Random(self.seed),
                list(atoms),
                self.names,
                self.formula_depth,
            ),
        }

    def before_loop(self, state, recorder):
        """The property sweep, which builds the partition tables and
        refinement products it needs.  Then, untimed: check the explored
        and the reopened universe, and build the table of every other
        process subset, so the loop measures answering from a built
        index rather than indexing."""
        universe = state["universe"]
        with span(recorder, "sweep"):
            start = time.perf_counter()
            verdicts = check_all_properties(universe, max_sets=self.max_sets)
            self.property_sweep_s = time.perf_counter() - start
        if recorder is not None:
            recorder.enabled = False
        problems = [
            f"§3 property {name} does not hold"
            for name, verdict in verdicts.items()
            if verdict is not True
        ]
        explored = state.pop("explored")
        problems += oracle.explore_failures(explored, self.expected)
        problems += [
            f"reopened: {problem}"
            for problem in oracle.explore_failures(universe, self.expected)
        ]
        if oracle.universe_digest(explored) != oracle.universe_digest(universe):
            problems.append("reopened universe differs from the explored one")
        directory = state["checkpoint_dir"]
        state["checkpoint_file_bytes"] = sum(
            os.path.getsize(os.path.join(directory, name))
            for name in os.listdir(directory)
        )
        for size in range(1, len(self.names) + 1):
            for subset in itertools.combinations(self.names, size):
                universe.partition_table(subset)
        state["rss_after_explore_mb"] = rss_mb()
        return problems

    def op(self, state, index, recorder):
        formula = next(state["stream"])
        start = time.perf_counter()
        mask = state["evaluator"].extension_mask(formula)
        latency = time.perf_counter() - start
        failed = mask < 0 or mask >> len(state["universe"]) != 0
        return Op(latency, 1, latency, failed, attrs={"formula": formula})

    def after_loop(self, state, ops):
        """Re-derive the whole extension of a seeded sample of the
        answered formulas from the definitions.  Operations that raised
        are failures already and have no formula to check."""
        state["rss_after_queries_mb"] = rss_mb()
        universe = state["universe"]
        evaluator = state["evaluator"]
        naive = oracle.NaiveKnowledge(universe, state["atoms"])
        answered = [op for op in ops if "formula" in op.attrs]
        rng = random.Random(self.seed + 1)
        picked = rng.sample(answered, min(self.checked_queries, len(answered)))
        problems = []
        for op in picked:
            formula = op.attrs["formula"]
            mismatches = oracle.verdict_failures(
                evaluator, naive, formula, range(len(universe))
            )
            if mismatches:
                op.failed = True
                problems.append(f"{mismatches} wrong verdicts for {formula}")
        return problems

    def context(self):
        return {
            "protocol": f"star broadcast, {self.receivers} receivers",
            "store": self.store,
            "workers": 1,
            "configurations": self.expected,
            "formula_depth": self.formula_depth,
            "property_sweep_max_sets": self.max_sets,
            "property_sweep_s": self.property_sweep_s,
            "resume_s": self.resume_s,
            "checkpoint_every_layers": 1,
            "checked_queries": self.checked_queries,
        }


FULL_SIZES = {
    "explore-star": (ExploreStar, {"receivers": 6, "workers": 1}),
    "explore-star-sharded": (ExploreStar, {"receivers": 6, "workers": 2}),
    "query-knowledge": (QueryKnowledge, {"receivers": 5, "max_sets": 8}),
}

TINY_SIZES = {
    "explore-star": (ExploreStar, {"receivers": 3, "workers": 1}),
    "explore-star-sharded": (ExploreStar, {"receivers": 3, "workers": 2}),
    "query-knowledge": (QueryKnowledge, {"receivers": 3, "max_sets": 4}),
}


def make(name: str, seed: int, work_dir: str, tiny: bool = False) -> Workload:
    cls, sizes = (TINY_SIZES if tiny else FULL_SIZES)[name]
    workload = cls(seed, work_dir, **sizes)
    workload.name = name
    return workload
