"""The exploration kernel against the naive reference explorer.

Every universe the system builds — in-process kernel, sharded engine,
truncated, ``max_events``-bounded, resumed from a checkpoint at any BFS
layer — must equal what a plain ``enabled_events`` BFS finds
(:mod:`naive_explorer`): same configuration at every dense id, same
successor rows, same completeness, and every configuration's
``config_id`` round trip through the content-hash table.

The second half checks the analysis index: partition tables built from
the per-process local-state columns equal tables keyed directly on the
local histories, for every process subset.
"""

from __future__ import annotations

import itertools
import sys

import pytest

from repro.core.configuration import EMPTY_CONFIGURATION, _entry_hash
from repro.protocols.broadcast import (
    BroadcastProtocol,
    star_topology,
    tree_topology,
)
from repro.protocols.commit import TwoPhaseCommitProtocol
from repro.protocols.dijkstra_scholten import DijkstraScholtenProtocol
from repro.protocols.failure_monitor import (
    AsyncFailureMonitorProtocol,
    SyncFailureMonitorProtocol,
)
from repro.protocols.leader_election import ChangRobertsProtocol
from repro.protocols.mutex import TokenRingMutexProtocol
from repro.protocols.pingpong import PingPongProtocol
from repro.protocols.polling_detector import PollingDetectorProtocol
from repro.protocols.snapshot import SnapshotTokenRingProtocol
from repro.protocols.termination import (
    DiffusingComputationProtocol,
    generate_workload,
)
from repro.protocols.toggle import ToggleProtocol
from repro.protocols.token_bus import TokenBusProtocol
from repro.simulation.network import FifoProtocol
from repro.universe.arena import ArenaStore
from repro.universe.builder import figure_3_1_universe
from repro.universe.explorer import PartitionTable, Universe
from repro.universe.faults import FaultPlan
from repro.universe.frontier import Frontier
from repro.universe.sharded import SupervisionPolicy, _expand_shard

from naive_explorer import assert_matches_oracle, naive_explore


def star(receivers: tuple[str, ...]) -> BroadcastProtocol:
    return BroadcastProtocol(star_topology("hub", receivers), "hub")


def small_workload(seed: int):
    return generate_workload(
        ("a", "b"), seed=seed, activations_per_process=1, max_fanout=1
    )


BUNDLED = [
    ("star_n4", lambda: star(("x", "y", "z"))),
    (
        "tree_d1",
        lambda: BroadcastProtocol(tree_topology(("t0", "t1", "t2")), "t0"),
    ),
    ("commit", lambda: TwoPhaseCommitProtocol(("p1", "p2"))),
    (
        "diffusing",
        lambda: DiffusingComputationProtocol(
            generate_workload(("a", "b"), seed=1)
        ),
    ),
    (
        "dijkstra_scholten",
        lambda: DijkstraScholtenProtocol(small_workload(seed=1)),
    ),
    (
        "polling_detector",
        lambda: PollingDetectorProtocol(small_workload(seed=0), max_waves=1),
    ),
    # Selective receives (a can_receive override).
    ("async_monitor", lambda: AsyncFailureMonitorProtocol(heartbeats=2)),
    # The declarative enabling filter.
    ("sync_monitor", lambda: SyncFailureMonitorProtocol(rounds=1)),
    ("election", lambda: ChangRobertsProtocol(("n0", "n1", "n2"))),
    ("mutex", lambda: TokenRingMutexProtocol(max_hops=3)),
    ("pingpong", lambda: PingPongProtocol(rounds=2)),
    ("snapshot", lambda: SnapshotTokenRingProtocol(max_hops=2)),
    # Custom system-level enabling (an enabled_events override).
    (
        "snapshot_fifo",
        lambda: FifoProtocol(SnapshotTokenRingProtocol(("p", "q"), max_hops=2)),
    ),
    ("toggle", lambda: ToggleProtocol(max_flips=2)),
    ("token_bus", lambda: TokenBusProtocol(max_hops=3)),
]

IDS = [label for label, _ in BUNDLED]
FACTORIES = [factory for _, factory in BUNDLED]


def layer_ends(rows) -> list[int]:
    """Exclusive end id of every BFS layer, from the oracle's rows."""
    ends = [1]
    start = 0
    while True:
        end = max(
            (child + 1 for rows_of in rows[start : ends[-1]] for child in rows_of),
            default=ends[-1],
        )
        if end <= ends[-1]:
            return ends
        start = ends[-1]
        ends.append(end)


class TestKernelAgainstOracle:
    @pytest.mark.parametrize("factory", FACTORIES, ids=IDS)
    def test_kernel(self, factory):
        assert_matches_oracle(Universe(factory()), naive_explore(factory()))

    @pytest.mark.parametrize("factory", FACTORIES, ids=IDS)
    def test_two_workers(self, factory):
        assert_matches_oracle(
            Universe(factory(), workers=2), naive_explore(factory())
        )

    @pytest.mark.parametrize("factory", FACTORIES, ids=IDS)
    def test_resume_from_every_layer(self, factory, tmp_path):
        """Interrupt at every BFS layer boundary (the cap lands on the
        first discovery of the next layer, so the checkpoint holds the
        boundary) and resume; every resumed universe equals the oracle."""
        oracle = naive_explore(factory())
        ends = layer_ends(oracle[1])
        for layer, cap in enumerate(ends[1:], start=1):
            path = tmp_path / f"layer{layer}.ckpt"
            Universe(
                factory(),
                max_configurations=cap,
                on_limit="truncate",
                checkpoint=path,
            )
            resumed = Universe(factory(), checkpoint=path)
            assert_matches_oracle(resumed, oracle)

    @pytest.mark.parametrize("cap", [1, 7, 40, 150])
    def test_truncated(self, cap):
        universe = Universe(
            star(("w", "x", "y")), max_configurations=cap, on_limit="truncate"
        )
        oracle = naive_explore(star(("w", "x", "y")), max_configurations=cap)
        assert_matches_oracle(universe, oracle)

    def test_truncated_two_workers(self):
        universe = Universe(
            star(("w", "x", "y")),
            max_configurations=60,
            on_limit="truncate",
            workers=2,
        )
        oracle = naive_explore(star(("w", "x", "y")), max_configurations=60)
        assert_matches_oracle(universe, oracle)

    @pytest.mark.parametrize("max_events", [0, 2, 4])
    @pytest.mark.parametrize("workers", [None, 2])
    def test_max_events_bounded(self, max_events, workers):
        universe = Universe(
            star(("x", "y", "z")), max_events=max_events, workers=workers
        )
        oracle = naive_explore(star(("x", "y", "z")), max_events=max_events)
        assert not oracle[2]
        assert_matches_oracle(universe, oracle)


FORCED_MODULUS = 101


@pytest.fixture
def colliding_hashes(monkeypatch):
    """Shrink the content-hash modulus to 101 in every module that binds
    it, so hash buckets hold several configurations: the row-comparison
    dedup, list buckets and cross-layer collisions all run."""
    real = sys.modules["repro.core.configuration"]._HASH_MODULUS
    bound = [
        module
        for name, module in list(sys.modules.items())
        if name.startswith("repro.")
        and getattr(module, "_HASH_MODULUS", None) == real
    ]
    assert len(bound) >= 2  # the configuration module and the frontier
    for module in bound:
        monkeypatch.setattr(module, "_HASH_MODULUS", FORCED_MODULUS)


def assert_buckets_formed(universe) -> None:
    assert any(type(ids) is list for ids in universe._ids_by_hash.values())


class TestForcedCollisions:
    """Every engine against the oracle when content hashes collide."""

    def star5(self):
        return star(("w", "x", "y", "z"))

    def test_kernel(self, colliding_hashes):
        universe = Universe(self.star5())
        assert_buckets_formed(universe)
        assert_matches_oracle(universe, naive_explore(self.star5()))

    def test_two_workers(self, colliding_hashes):
        universe = Universe(self.star5(), workers=2)
        assert_buckets_formed(universe)
        assert_matches_oracle(universe, naive_explore(self.star5()))

    def test_fold(self, colliding_hashes):
        """A worker killed with no respawn budget: the coordinator
        expands its shard for the rest of the run."""
        universe = Universe(
            self.star5(),
            workers=2,
            fault_plan=FaultPlan.kill(1, 2),
            supervision=SupervisionPolicy(
                heartbeat_timeout=5.0, poll_interval=0.02, max_respawns=0
            ),
        )
        assert [event.rung for event in universe.recovery_log] == ["fold"]
        assert_buckets_formed(universe)
        assert_matches_oracle(universe, naive_explore(self.star5()))

    def test_resume_from_every_layer(self, colliding_hashes, tmp_path):
        """Truncate at every layer boundary and resume, alternating the
        resuming engine."""
        oracle = naive_explore(self.star5())
        ends = layer_ends(oracle[1])
        for layer, cap in enumerate(ends[1:], start=1):
            path = tmp_path / f"layer{layer}.ckpt"
            Universe(
                self.star5(),
                max_configurations=cap,
                on_limit="truncate",
                checkpoint=path,
            )
            resumed = Universe(
                self.star5(), checkpoint=path, workers=2 if layer % 2 else None
            )
            assert_buckets_formed(resumed)
            assert_matches_oracle(resumed, oracle)


# ---------------------------------------------------------------------
# Frontier state ids
# ---------------------------------------------------------------------
def kernel_layers(protocol):
    """The kernel's loop driven by hand on a fresh arena: yields
    ``(frontier, start, end)`` before each BFS layer's parents expand."""
    store = ArenaStore()
    store.append(EMPTY_CONFIGURATION)
    table = {hash(EMPTY_CONFIGURATION): 0}
    frontier = Frontier(protocol, None, store)
    start = 0
    while start < frontier.count:
        end = frontier.count
        yield frontier, start, end
        for parent_id in range(start, end):
            entry = frontier.window.pop(parent_id)
            frontier.expand(parent_id, entry, table, [], None, store)
        start = end


class TestFrontierStateIds:
    @pytest.mark.parametrize("factory", FACTORIES, ids=IDS)
    def test_state_ids_are_canonical(self, factory):
        """Every window row names the arena's configuration — histories
        and message sets — through the state and channel tables; no two
        states of a process share a history; each state's entry hash is
        the rolling hash of its history."""
        arena = Universe(factory())._configurations
        for frontier, start, end in kernel_layers(factory()):
            for config_id in range(start, end):
                ours = frontier.transient(frontier.window[config_id])
                expected = arena[config_id]
                assert ours == expected
                assert ours._histories == expected._histories
                assert ours.received_messages == expected.received_messages
                assert ours.in_flight_messages == expected.in_flight_messages
        assert end == len(arena)
        for position, process in enumerate(frontier.ordered):
            histories = frontier.histories[position]
            assert len(set(histories)) == len(histories)
            for state, history in enumerate(histories):
                assert frontier.entry_hashes[position][state] == _entry_hash(
                    process, history
                )

    @pytest.mark.parametrize("shards", [2, 3])
    def test_ids_never_leak_into_batches(self, shards):
        """A frontier built by ``expand`` and one built by ``replay`` of
        the same records (a respawned worker's, expanding its shards in
        reverse) number their states differently, yet yield identical
        batches for every shard of every layer of star n=5."""
        numbering_differs = False
        for built, start, end in kernel_layers(star(("w", "x", "y", "z"))):
            replayed = Frontier(star(("w", "x", "y", "z")))
            replayed.replay(built.arena.records(1, end))
            batches = {
                shard: _expand_shard(replayed, start, end, shard, shards)
                for shard in reversed(range(shards))
            }
            for shard in range(shards):
                assert _expand_shard(built, start, end, shard, shards) == (
                    batches[shard]
                )
            numbering_differs |= replayed.histories != built.histories
        assert numbering_differs


# ---------------------------------------------------------------------
# Local-state columns
# ---------------------------------------------------------------------
def history_keyed_table(universe, processes) -> PartitionTable:
    """``[P]`` keyed directly on the local histories of ``P``."""
    ordered = sorted(processes)
    return PartitionTable.from_keys(
        tuple(configuration.history(process) for process in ordered)
        for configuration in universe
    )


def assert_columns_match_histories(universe) -> None:
    processes = sorted(universe.processes)
    for size in range(len(processes) + 1):
        for subset in itertools.combinations(processes, size):
            table = universe.partition_table(subset)
            expected = history_keyed_table(universe, subset)
            assert table.num_classes == expected.num_classes, subset
            assert table.class_of == expected.class_of, subset
            assert [list(ids) for ids in table.members] == [
                list(ids) for ids in expected.members
            ], subset


class TestLocalStateColumns:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda: star(("w", "x", "y", "z")),
            lambda: TokenBusProtocol(max_hops=4),
            lambda: AsyncFailureMonitorProtocol(heartbeats=2),
        ],
        ids=["star_n5", "token_bus_h4", "async_monitor"],
    )
    def test_every_subset_matches_history_keys(self, factory):
        assert_columns_match_histories(Universe(factory()))

    def test_figure_3_1_matches_history_keys(self):
        assert_columns_match_histories(figure_3_1_universe())

    def test_columns_label_first_occurrence(self):
        """Each column is already canonical: state 0 is the empty
        history, and new states appear in increasing order."""
        universe = Universe(star(("x", "y", "z")))
        for process in universe.processes:
            column = universe._local_states()[process]
            assert column[0] == 0
            seen = -1
            for state in column:
                assert state <= seen + 1
                seen = max(seen, state)

    def test_exploration_alone_builds_no_columns(self):
        universe = Universe(star(("x", "y", "z")))
        assert universe._local_state_columns is None
        universe.partition_table("hub")
        assert universe._local_state_columns is not None
