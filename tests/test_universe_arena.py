"""The arena store against the naive oracle: randomized access, packed tiers.

The arena is the universe's only configuration store, so it must serve
exactly the configurations a plain ``enabled_events`` BFS finds
(:mod:`naive_explorer`) — under randomized indexing, slicing, masks and
projections, and across every packed tier.  The tiers (sealed zlib
chunks, disk spill, bounded cache with chain-walk materialisation) are
exercised directly by shrinking the chunk size so small test universes
cross every tier.  Ids, successor rows and completeness on every
protocol, engine and resume point are ``tests/test_universe_oracle.py``.
"""

from __future__ import annotations

import pickle
import random

import pytest

from repro.core.configuration import EMPTY_CONFIGURATION
from repro.protocols.broadcast import BroadcastProtocol, star_topology
from repro.universe import arena as arena_module
from repro.universe.arena import ArenaStore, compress_batch, decompress_batch
from repro.universe.builder import packed_store_of
from repro.universe.explorer import Universe
from repro.universe.frontier import Frontier

from naive_explorer import assert_matches_oracle, naive_explore


def star(receivers: tuple[str, ...]) -> BroadcastProtocol:
    return BroadcastProtocol(star_topology("hub", receivers), "hub")


@pytest.fixture(scope="module")
def star_pair():
    """One medium universe (star n=5, 634 configurations) and the
    oracle's configuration list for it."""
    configurations, _, _ = naive_explore(star(("w", "x", "y", "z")))
    return configurations, Universe(star(("w", "x", "y", "z")))


class TestRandomizedAccess:
    def test_random_indexing_matches(self, star_pair):
        reference, arena = star_pair
        store = arena._configurations
        rng = random.Random(7)
        for index in rng.sample(range(len(reference)), 200):
            ours = store[index]
            assert ours == reference[index]
            assert ours._histories == reference[index]._histories
        # Negative indices and slices follow list semantics.
        assert store[-1] == reference[-1]
        assert store[10:20] == reference[10:20]
        with pytest.raises(IndexError):
            store[len(reference)]

    def test_random_projections_match(self, star_pair):
        reference, arena = star_pair
        store = arena._configurations
        rng = random.Random(11)
        processes = sorted(arena.processes)
        for index in rng.sample(range(len(reference)), 64):
            process = rng.choice(processes)
            assert store[index].history(process) == reference[index].history(
                process
            )

    def test_random_masks_match(self, star_pair):
        reference, arena = star_pair
        rng = random.Random(13)
        for _ in range(32):
            mask = rng.getrandbits(len(reference))
            assert list(arena.configurations_in_mask(mask)) == [
                reference[index]
                for index in range(len(reference))
                if mask >> index & 1
            ]

    def test_partition_tables_match(self, star_pair):
        reference, arena = star_pair
        for process in sorted(arena.processes):
            table = arena.partition_table(frozenset({process}))
            for ids in table.members:
                histories = {reference[index].history(process) for index in ids}
                assert len(histories) == 1

    def test_config_id_round_trip(self, star_pair):
        reference, arena = star_pair
        rng = random.Random(17)
        for index in rng.sample(range(len(reference)), 64):
            assert arena.config_id(arena._configurations[index]) == index
            assert arena.config_id(reference[index]) == index


class TestPickleAndSeeding:
    def test_store_pickle_round_trip(self, star_pair):
        _, arena = star_pair
        store = arena._configurations
        loaded = pickle.loads(pickle.dumps(store))
        assert isinstance(loaded, ArenaStore)
        assert loaded == store
        assert list(loaded) == list(store)

    def test_packed_store_of_round_trip(self, star_pair):
        reference = star_pair[0][:100]
        store = packed_store_of(reference)
        assert len(store) == len(reference)
        assert store == reference
        assert pickle.loads(pickle.dumps(store)) == reference

    def test_batch_codec_round_trip(self):
        payload = {"layer": 3, "records": [(0, "a"), (1, "b")], "n": 634}
        assert decompress_batch(compress_batch(payload)) == payload


@pytest.fixture
def small_chunks(monkeypatch):
    """Shrink the arena chunk to 64 entries so small universes seal,
    compress, and spill — every tier crossed in milliseconds."""
    bits = 6
    size = 1 << bits
    monkeypatch.setattr(arena_module, "_CHUNK_BITS", bits)
    monkeypatch.setattr(arena_module, "_CHUNK_SIZE", size)
    monkeypatch.setattr(arena_module, "_CHUNK_MASK", size - 1)
    monkeypatch.setattr(arena_module, "_PARENT_BYTES", 8 * size)
    monkeypatch.setattr(arena_module, "_EVENT_BYTES", 4 * size)
    monkeypatch.setattr(arena_module, "_RAW_CHUNK_BYTES", 20 * size)


class TestPackedTiers:
    def test_sealed_chunks_stay_equivalent(self, small_chunks):
        oracle = naive_explore(star(("w", "x", "y", "z")))
        arena = Universe(star(("w", "x", "y", "z")))
        store = arena._configurations
        stats = store.stats()
        assert stats["sealed_chunks"] > 0
        assert 0 < stats["compressed_bytes"] < stats["raw_bytes"]
        store.spill_cold()  # drop the caches: cold reads only
        assert_matches_oracle(arena, oracle)
        # Random access through the cold tier chain-walks and caches.
        store.spill_cold()
        reference = oracle[0]
        rng = random.Random(19)
        for index in rng.sample(range(len(reference)), 100):
            assert store[index] == reference[index]
        assert store.chain_walks > 0

    def test_spill_tier_round_trip(self, small_chunks, tmp_path):
        oracle = naive_explore(star(("w", "x", "y", "z")))
        arena = Universe(star(("w", "x", "y", "z")), spill_dir=tmp_path)
        store = arena._configurations
        stats = store.stats()
        assert stats["spilled_chunks"] > 0
        assert stats["spilled_bytes"] > 0
        spill_files = list(tmp_path.glob("arena-*.spill"))
        assert len(spill_files) == 1
        assert_matches_oracle(arena, oracle)
        # spill_cold drops the caches; reads fault back in via mmap.
        store.spill_cold()
        reference = oracle[0]
        rng = random.Random(23)
        for index in rng.sample(range(len(reference)), 50):
            assert store[index] == reference[index]
        # close() releases and removes the spill file (idempotent).
        store.close()
        store.close()
        assert not list(tmp_path.glob("arena-*.spill"))

    def test_tiny_lru_replay_matches(self, small_chunks):
        """A pathologically small LRU forces long chain-walks up the
        parent column; replay of the packed discovery records must still
        reproduce the oracle's configurations exactly."""
        arena = Universe(star(("w", "x", "y", "z")))
        records = arena._configurations.records(1, len(arena))
        tiny = ArenaStore(lru_size=4, chunk_cache_size=2)
        tiny.append(EMPTY_CONFIGURATION)
        ids_by_hash = {hash(EMPTY_CONFIGURATION): 0}
        Frontier(arena.protocol, None, tiny).replay(
            records, store=tiny, table=ids_by_hash
        )
        assert ids_by_hash == arena._ids_by_hash
        tiny.retire(len(tiny))  # seal every full chunk: cold reads only
        reference = naive_explore(star(("w", "x", "y", "z")))[0]
        assert len(tiny) == len(reference)
        rng = random.Random(29)
        for index in rng.sample(range(len(reference)), 60):
            ours = tiny[index]
            assert ours == reference[index]
            assert ours._histories == reference[index]._histories
        assert len(tiny._lru) <= 4
        assert tiny.chain_walks > 0

    def test_records_skip_roots(self, small_chunks):
        arena = Universe(star(("x", "y")))
        store = arena._configurations
        records = store.records(0, len(store))
        assert len(records) == len(store) - 1  # the root has no record
        assert all(parent >= 0 for parent, _ in records)
