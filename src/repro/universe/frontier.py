"""The exploration frontier: one packed row window and the one BFS step.

The paper builds a universe from one operation — extend one process's
history by one enabled event.  :class:`Frontier` is that operation over
*packed window rows*, and every exploration path runs it: the in-process
kernel (:meth:`repro.universe.explorer.Universe._explore_packed`), each
sharded worker, the sharded coordinator's merge and fold
(:mod:`repro.universe.sharded`), and checkpoint replay
(:mod:`repro.universe.checkpoint`).  A window entry is the 4-tuple

    ``id -> (row, content_hash, received, in_flight)``

where ``row`` is a fixed-width tuple of per-process histories in
``ordered_processes`` order (``()`` for absent processes) and the two
message frozensets are interned per generation, so siblings with equal
channel contents share one set object.  No ``Configuration`` object is
built on the fast path; :meth:`Frontier.transient` materialises one only
for the protocol hooks that need it (custom enabling, enabling filters,
``max_events`` probes).

Child content hashes roll in O(1) from the parent's
(:mod:`repro.core.configuration`): the per-entry rolling hash of a
history is memoised by the history tuple's ``id``.  The memo rotates one
generation per BFS layer (:meth:`Frontier.rotate`), and every history
tuple a row can hold had its memo entry written when it was created, so
a tuple that reuses a freed address overwrites the stale entry before
anything can look it up.  (The sharded coordinator admits rows with the
hashes its workers computed, writing no memo entries, so it forgets the
memo before it expands a folded shard: :meth:`Frontier.forget_hashes`.)

Dedup is against a content-hash table ``hash -> id | [ids]``: the
universe's own table in the kernel and the merge, a layer-local one in
a shard worker.  A hash hit is confirmed by comparing rows elementwise —
shared history tuples make those identity hits — so a hash collision
opens a list bucket instead of merging two configurations.  Same-depth
duplicates always live in the window; the rare cross-layer collision
reads the older row back from the arena.
"""

from __future__ import annotations

from math import inf

from repro.core.configuration import (
    _HASH_MODULUS,
    _ROLL_MULTIPLIER,
    _entry_hash,
    EMPTY_CONFIGURATION,
    Configuration,
)
from repro.core.events import ReceiveEvent, SendEvent


class Frontier:
    """The packed row window of one exploration, and its BFS step.

    ``arena`` is the store cross-layer hash collisions read older rows
    from; a shard worker, whose dedup table is layer-local, has none.
    A new frontier holds the empty configuration at id 0.
    """

    def __init__(self, protocol, max_events=None, arena=None) -> None:
        self.protocol = protocol
        self.max_events = max_events
        self.arena = arena
        ordered = protocol.ordered_processes
        self.ordered = ordered
        self.index_of = {process: i for i, process in enumerate(ordered)}
        self.seed_of = {process: hash(process) % _HASH_MODULUS for process in ordered}
        table = protocol.step_table
        # What expand reads per parent, bound once: protocol properties
        # are too slow to consult on every call.
        self._expand_constants = (
            protocol.has_custom_enabling,
            protocol.is_selective,
            protocol.has_enabling_filter,
            table._by_history,
            table.steps,
            {process: table.steps(process, ()) for process in ordered},
            self.index_of,
            self.seed_of,
        )
        empty: frozenset = frozenset()
        self.window: dict[int, tuple] = {
            0: (((),) * len(ordered), hash(EMPTY_CONFIGURATION), empty, empty)
        }
        self.count = 1
        self.floor = 0
        # Set when a max_events-capped parent still had enabled events.
        self.incomplete = False
        self.entry_hash_of: dict[int, int] = {}
        self.entry_prev_get = {}.get
        self.interned: dict[frozenset, frozenset] = {}

    # ------------------------------------------------------------------
    # Window bookkeeping
    # ------------------------------------------------------------------
    def rotate(self) -> None:
        """Start a new memo generation (at every BFS layer boundary): the
        previous generation stays readable, older ones are dropped, and
        the frozenset intern table starts empty."""
        self.entry_prev_get = self.entry_hash_of.get
        self.entry_hash_of = {}
        self.interned = {}

    def retire(self, floor: int) -> None:
        """Drop the window entries below ``floor`` — parents whose
        children are all built."""
        window = self.window
        for index in range(self.floor, floor):
            window.pop(index, None)
        self.floor = max(self.floor, floor)

    def transient(self, entry: tuple) -> Configuration:
        """A throwaway ``Configuration`` for the slow-path hooks."""
        row, content_hash, received, in_flight = entry
        items = {
            process: history
            for process, history in zip(self.ordered, row)
            if history
        }
        configuration = Configuration._from_trusted(items, content_hash, None)
        cache = configuration.__dict__
        cache["received_messages"] = received
        cache["in_flight_messages"] = in_flight
        return configuration

    def row(self, config_id: int) -> tuple:
        """The row of ``config_id``: from the window, or rebuilt from the
        arena for a cross-layer hash collision."""
        entry = self.window.get(config_id)
        if entry is not None:
            return entry[0]
        histories = self.arena[config_id]._histories.get
        return tuple(histories(process, ()) for process in self.ordered)

    # ------------------------------------------------------------------
    # One child at a time: replay and the sharded merge
    # ------------------------------------------------------------------
    def find(self, table: dict, child_hash: int, child_row: tuple) -> int | None:
        """The id ``table`` already holds for the configuration with
        ``child_row``, by row comparison; ``None`` if it is new."""
        existing = table.get(child_hash)
        if existing is None:
            return None
        for candidate_id in (existing,) if type(existing) is int else existing:
            if self.row(candidate_id) == child_row:
                return candidate_id
        return None

    def admit(
        self,
        parent_id: int,
        entry: tuple,
        event,
        child_row: tuple,
        child_hash: int,
        table: dict | None = None,
        store=None,
    ) -> int:
        """Give the child of window ``entry`` by ``event`` (row
        ``child_row``, hash ``child_hash``) the next id: its window entry,
        with message sets derived from the parent's, and — when given — a
        ``table`` bucket and its arena record in ``store``."""
        received, in_flight = entry[2], entry[3]
        intern = self.interned.setdefault
        # Configuration._propagate_caches over the interned frozensets,
        # kept exactly equal to the lazy definitions (including the
        # degenerate re-send of an already-received message).
        if isinstance(event, SendEvent):
            message = event.message
            child_received = received
            if message in received:
                child_in_flight = in_flight
            else:
                new_set = in_flight | {message}
                child_in_flight = intern(new_set, new_set)
        elif isinstance(event, ReceiveEvent):
            message = event.message
            new_set = received | {message}
            child_received = intern(new_set, new_set)
            new_set = in_flight - {message}
            child_in_flight = intern(new_set, new_set)
        else:
            child_received = received
            child_in_flight = in_flight
        child_id = self.count
        self.count = child_id + 1
        self.window[child_id] = (
            child_row,
            child_hash,
            child_received,
            child_in_flight,
        )
        if table is not None:
            existing = table.get(child_hash)
            if existing is None:
                table[child_hash] = child_id
            elif type(existing) is int:
                table[child_hash] = [existing, child_id]
            else:
                existing.append(child_id)
        if store is not None:
            store.append_child(parent_id, event, child_hash)
        return child_id

    def forget_hashes(self) -> None:
        """Drop both memo generations.  The sharded coordinator admits
        rows with hashes its workers computed and writes no memo entries,
        so before it expands a folded shard here a stale entry could
        alias a new history tuple's address."""
        self.entry_hash_of = {}
        self.entry_prev_get = {}.get

    def replay(
        self,
        records,
        store=None,
        table: dict | None = None,
        progress=None,
        progress_every: int = 0,
    ) -> None:
        """Admit a discovery stream ``[(parent id, event), ...]`` — its
        records are first discoveries in id order, so each is new.

        Parent ids never decrease along a stream, so the window drops
        entries as the replay moves past them and a whole-universe replay
        peaks at one layer of rows.  A parent created by this call means
        the stream crossed a BFS layer, so the memos rotate there too.
        With a ``table`` and ``store`` (checkpoint resume) every record
        also lands in the content-hash table and the arena columns.
        ``progress`` is called every ``progress_every`` records.
        """
        self.rotate()
        window = self.window
        admit = self.admit
        index_of = self.index_of
        seed_of = self.seed_of
        modulus = _HASH_MODULUS
        multiplier = _ROLL_MULTIPLIER
        floor = self.floor
        boundary = self.count
        since_progress = 0
        for parent_id, event in records:
            if parent_id >= boundary:
                boundary = self.count
                self.rotate()
            while floor < parent_id:
                window.pop(floor, None)
                floor += 1
            entry = window[parent_id]
            row, parent_hash = entry[0], entry[1]
            process = event.process
            position = index_of[process]
            try:
                event_hash = event._hash_cache
            except AttributeError:
                event_hash = hash(event)
            old_history = row[position]
            if not old_history:
                new_history = (event,)
                new_entry = (seed_of[process] * multiplier + event_hash) % modulus
                child_hash = (parent_hash + new_entry) % modulus
            else:
                key = id(old_history)
                old_entry = self.entry_hash_of.get(key)
                if old_entry is None:
                    old_entry = self.entry_prev_get(key)
                    if old_entry is None:
                        old_entry = _entry_hash(process, old_history)
                    self.entry_hash_of[key] = old_entry
                new_history = old_history + (event,)
                new_entry = (old_entry * multiplier + event_hash) % modulus
                child_hash = (parent_hash - old_entry + new_entry) % modulus
            self.entry_hash_of[id(new_history)] = new_entry
            admit(
                parent_id,
                entry,
                event,
                row[:position] + (new_history,) + row[position + 1 :],
                child_hash,
                table,
                store,
            )
            if progress is not None:
                since_progress += 1
                if since_progress >= progress_every:
                    since_progress = 0
                    progress()
        self.floor = floor

    # ------------------------------------------------------------------
    # One parent at a time: the kernel, the workers and the fold
    # ------------------------------------------------------------------
    def expand(
        self,
        parent_id: int,
        entry: tuple,
        table: dict,
        successors,
        records: list | None = None,
        store=None,
        limit=inf,
    ) -> bool:
        """Expand one parent: append its successor ids to ``successors``.

        Enumerates the enabled events (compiled local steps plus the
        memoised receive set, or the protocol's hooks on a transient
        configuration), rolls each child's hash, resolves it against
        ``table`` by row comparison, and admits each new child under the
        next id — into the window, the table, ``store`` (the arena) and
        ``records`` (``(parent id, event)``) when given.  Without a
        ``store`` the new children are a shard's candidates, admitted
        only to be compared against: their entries carry no message
        sets (the merged stream's replay builds the real ones).  A
        parent at the ``max_events`` bound gets no successors and sets
        :attr:`incomplete` if it had enabled events.  Returns ``False``
        when a new child would pass ``limit`` configurations; the
        parent's successors found so far stay appended.

        Every per-child step stays inline: this loop is the exploration's
        hot path.
        """
        row, parent_hash, received, in_flight = entry
        max_events = self.max_events
        if max_events is not None and sum(map(len, row)) >= max_events:
            if self.protocol.compiled_enabled_events(self.transient(entry)):
                self.incomplete = True
            return True
        (
            custom_enabling,
            selective,
            enabling_filter,
            by_history,
            steps_for,
            initial_steps,
            index_of,
            seed_of,
        ) = self._expand_constants
        if custom_enabling:
            # The protocol restricts system-level enabling beyond local
            # steps + willing receives; its override is authoritative.
            enabled = list(self.protocol.enabled_events(self.transient(entry)))
        else:
            enabled = []
            for position, process in enumerate(self.ordered):
                history = row[position]
                if not history:
                    enabled += initial_steps[process]
                else:
                    steps = by_history[process].get(history)
                    enabled += (
                        steps if steps is not None else steps_for(process, history)
                    )
            if in_flight:
                if not selective:
                    enabled += self.protocol.receive_events_for(in_flight)
                else:
                    items = {
                        process: history
                        for process, history in zip(self.ordered, row)
                        if history
                    }
                    enabled += self.protocol.selective_receive_events(
                        items.get, in_flight
                    )
            if enabling_filter:
                enabled = self.protocol.filter_enabled_events(
                    self.transient(entry), enabled
                )
        window = self.window
        window_get = window.get
        table_get = table.get
        entry_hash_of = self.entry_hash_of
        entry_memo_get = entry_hash_of.get
        entry_prev_get = self.entry_prev_get
        intern = self.interned.setdefault
        modulus = _HASH_MODULUS
        multiplier = _ROLL_MULTIPLIER
        count = self.count
        for event in enabled:
            process = event.process
            position = index_of[process]
            try:
                event_hash = event._hash_cache
            except AttributeError:
                event_hash = hash(event)
            old_history = row[position]
            if not old_history:
                new_history = (event,)
                new_entry = (seed_of[process] * multiplier + event_hash) % modulus
                child_hash = (parent_hash + new_entry) % modulus
            else:
                key = id(old_history)
                old_entry = entry_memo_get(key)
                if old_entry is None:
                    old_entry = entry_prev_get(key)
                    if old_entry is None:
                        old_entry = _entry_hash(process, old_history)
                    entry_hash_of[key] = old_entry
                new_history = old_history + (event,)
                new_entry = (old_entry * multiplier + event_hash) % modulus
                child_hash = (parent_hash - old_entry + new_entry) % modulus
            child_row = row[:position] + (new_history,) + row[position + 1 :]
            existing = table_get(child_hash)
            if existing is not None:
                # A same-layer duplicate sits in the window; list buckets
                # and older rows take the general lookup.
                candidate = window_get(existing) if type(existing) is int else None
                if candidate is not None and candidate[0] == child_row:
                    successors.append(existing)
                    continue
                found = self.find(table, child_hash, child_row)
                if found is not None:
                    successors.append(found)
                    continue
            # First discovery.
            if count >= limit:
                self.count = count
                return False
            if existing is None:
                table[child_hash] = count
            elif type(existing) is int:
                table[child_hash] = [existing, count]
            else:
                existing.append(count)
            entry_hash_of[id(new_history)] = new_entry
            successors.append(count)
            if records is not None:
                records.append((parent_id, event))
            if store is None:
                window[count] = (child_row, child_hash, None, None)
                count += 1
                continue
            if isinstance(event, SendEvent):
                message = event.message
                child_received = received
                if message in received:
                    child_in_flight = in_flight
                else:
                    new_set = in_flight | {message}
                    child_in_flight = intern(new_set, new_set)
            elif isinstance(event, ReceiveEvent):
                message = event.message
                new_set = received | {message}
                child_received = intern(new_set, new_set)
                new_set = in_flight - {message}
                child_in_flight = intern(new_set, new_set)
            else:
                child_received = received
                child_in_flight = in_flight
            window[count] = (child_row, child_hash, child_received, child_in_flight)
            store.append_child(parent_id, event, child_hash)
            count += 1
        self.count = count
        return True


__all__ = ["Frontier"]
