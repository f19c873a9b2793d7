"""The exploration frontier: one packed row window and the one BFS step.

The paper builds a universe from one operation — extend one process's
history by one enabled event.  :class:`Frontier` is that operation over
*packed window rows*, and every exploration path runs it: the in-process
kernel (:meth:`repro.universe.explorer.Universe._explore_packed`), each
sharded worker, the sharded coordinator's merge and fold
(:mod:`repro.universe.sharded`), and checkpoint replay
(:mod:`repro.universe.checkpoint`).  A window entry is the 3-tuple

    ``id -> (row, content_hash, channel)``

where ``row`` is a fixed-width tuple of per-process **local-state ids**
in ``ordered_processes`` order and ``channel`` is a **channel-state id**
naming the configuration's ``(received, in_flight)`` message sets.  No
``Configuration`` object is built on the fast path;
:meth:`Frontier.transient` materialises one only for the protocol hooks
that need it (custom enabling, enabling filters, selective receives,
``max_events`` probes), reading the histories from the state tables.

**Local states.**  In the paper a process's local state is its history,
and ``x [p] y`` holds iff ``p``'s states agree.  Each process has a trie
of states: ``(state, event) -> state``, with state 0 the empty history,
so equal histories have equal ids.  A state holds its history, its
rolling entry hash (computed once, when the state is created), its
transitions keyed by event index, and — after its first expansion — its
compiled local moves from one ``step_table.steps`` call.  A *move* is
``(event, event index, position, child state, hash delta)``: the child's
content hash is ``(parent_hash + delta) % M``, and its row is the
parent's with one state id replaced.

**Channel states.**  A channel-state id memoises its successor per event
index and its receive list.  Channel ids live one generation per BFS
layer: the window holds two layers of rows (parents and their new
children), so entering a new layer drops the generation before the
parents'.  Children are always interned in the current generation,
never the parents', so a channel's successor memo serves one layer.

**Layers.**  Every configuration in BFS layer ``L`` has exactly ``L``
events, and ids of a layer are contiguous.  The frontier notices a
parent id past the current layer's end — in :meth:`expand`,
:meth:`admit` and :meth:`replay` alike — and steps :attr:`depth` and
the channel generation there; the ``max_events`` bound reads the depth.

State, channel and event ids are frontier-local: never pickled, shipped
in a batch or checkpointed.  Batches carry ``(event, hash)`` and
checkpoint records ``(parent id, event)``, so two frontiers that number
their states differently still produce identical batches.

Dedup is against a content-hash table ``hash -> id | [ids]``: the
universe's own table in the kernel and the merge, a layer-local one in
a shard worker.  A hash hit is confirmed by comparing rows of ints, so a
hash collision opens a list bucket instead of merging two
configurations.  Same-depth duplicates always live in the window; the
rare cross-layer collision maps the arena's older configuration back to
state ids by a trie walk.
"""

from __future__ import annotations

from math import inf

from repro.core.configuration import (
    _HASH_MODULUS,
    _ROLL_MULTIPLIER,
    EMPTY_CONFIGURATION,
    Configuration,
)
from repro.core.events import ReceiveEvent, SendEvent


class Frontier:
    """The packed row window of one exploration, and its BFS step.

    ``arena`` is the store cross-layer hash collisions read older rows
    from, and the ``store`` argument of :meth:`expand`, :meth:`admit`
    and :meth:`replay` when given; a shard worker, whose dedup table is
    layer-local, has none.  A new frontier holds the empty configuration
    at id 0.
    """

    def __init__(self, protocol, max_events=None, arena=None) -> None:
        self.protocol = protocol
        self.max_events = max_events
        self.arena = arena
        ordered = protocol.ordered_processes
        self.ordered = ordered
        self.index_of = {process: i for i, process in enumerate(ordered)}
        # Per process, indexed by local-state id.
        self.histories: list[list[tuple]] = [[()] for _ in ordered]
        self.entry_hashes: list[list[int]] = [
            [hash(process) % _HASH_MODULUS] for process in ordered
        ]
        self.transitions: list[list[dict]] = [[{}] for _ in ordered]
        self.local_moves: list[list[tuple | None]] = [[None] for _ in ordered]
        # Frontier-local event indexes, and each one's arena column index
        # (-1 until the arena first stores it).
        self.event_ids: dict = {}
        self.arena_event_ids: list[int] = []
        # Channel id -> [received, in_flight, receive list, successors].
        empty: frozenset = frozenset()
        self.channels: dict[int, list] = {0: [empty, empty, None, {}]}
        self.channel_count = 1
        self.channel_ids: dict[tuple, int] = {}
        self._channel_floor = 0
        self._generation_start = 0
        self.window: dict[int, tuple] = {
            0: ((0,) * len(ordered), hash(EMPTY_CONFIGURATION), 0)
        }
        self.count = 1
        self.floor = 0
        # No layer entered yet: parent 0 opens layer 0.
        self.depth = -1
        self.layer_end = 0
        # Set when a max_events-capped parent still had enabled events.
        self.incomplete = False
        # What expand reads per parent, bound once: protocol properties
        # are too slow to consult on every call.
        self._expand_constants = (
            protocol.has_custom_enabling,
            protocol.is_selective,
            protocol.has_enabling_filter,
            self.local_moves,
            self.transitions,
        )

    # ------------------------------------------------------------------
    # State, event and channel tables
    # ------------------------------------------------------------------
    def _enter_layer(self) -> None:
        """The next parent opens a new BFS layer, whose ids end at the
        current count: step the depth and the channel generation."""
        self.depth += 1
        self.layer_end = self.count
        channels = self.channels
        for channel_id in range(self._channel_floor, self._generation_start):
            del channels[channel_id]
        self._channel_floor = self._generation_start
        self._generation_start = self.channel_count
        self.channel_ids = {}

    def _event_id(self, event) -> int:
        event_id = self.event_ids.get(event)
        if event_id is None:
            event_id = len(self.arena_event_ids)
            self.event_ids[event] = event_id
            self.arena_event_ids.append(-1)
        return event_id

    def move(self, position: int, state: int, event) -> tuple:
        """The move of the process at ``position`` from local state
        ``state`` by ``event``, creating the child state on first use."""
        event_id = self._event_id(event)
        found = self.transitions[position][state].get(event_id)
        if found is not None:
            return found
        histories = self.histories[position]
        entries = self.entry_hashes[position]
        parent_entry = entries[state]
        child_entry = (parent_entry * _ROLL_MULTIPLIER + hash(event)) % _HASH_MODULUS
        child = len(histories)
        histories.append(histories[state] + (event,))
        entries.append(child_entry)
        self.transitions[position].append({})
        self.local_moves[position].append(None)
        # An empty history contributes nothing to the content hash.
        delta = (child_entry - (parent_entry if state else 0)) % _HASH_MODULUS
        found = (event, event_id, position, child, delta)
        self.transitions[position][state][event_id] = found
        return found

    def child(self, row: tuple, event) -> tuple[tuple, tuple]:
        """The move of ``event`` from ``row``, and the child's row."""
        position = self.index_of[event.process]
        step = self.move(position, row[position], event)
        return step, row[:position] + (step[3],) + row[position + 1 :]

    def _compile(self, position: int, state: int) -> tuple:
        """The local moves of one state, from one step-table lookup."""
        steps = self.protocol.step_table.steps(
            self.ordered[position], self.histories[position][state]
        )
        compiled = tuple(self.move(position, state, event) for event in steps)
        self.local_moves[position][state] = compiled
        return compiled

    def _moves_of(self, row: tuple, events) -> list:
        """The moves of ``events`` from ``row`` — the slow-path hooks
        name events, not moves."""
        index_of = self.index_of
        moves = []
        for event in events:
            position = index_of[event.process]
            moves.append(self.move(position, row[position], event))
        return moves

    def _receives(self, channel: list) -> tuple:
        """The receive list of a channel: ``(event, event index,
        position)`` per receive its in-flight set offers."""
        index_of = self.index_of
        receives = tuple(
            (event, self._event_id(event), index_of[event.process])
            for event in self.protocol.receive_events_for(channel[1])
        )
        channel[2] = receives
        return receives

    def _channel_child(self, channel: list, event, event_id: int) -> int:
        """The channel state after ``event``, interned in the current
        generation and memoised on ``channel``.

        ``Configuration._propagate_caches`` over the message sets, kept
        exactly equal to the lazy definitions (including the degenerate
        re-send of an already-received message)."""
        received, in_flight = channel[0], channel[1]
        if isinstance(event, SendEvent):
            message = event.message
            if message not in received:
                in_flight = in_flight | {message}
        elif isinstance(event, ReceiveEvent):
            message = event.message
            received = received | {message}
            in_flight = in_flight - {message}
        key = (received, in_flight)
        child = self.channel_ids.get(key)
        if child is None:
            child = self.channel_count
            self.channel_count = child + 1
            self.channel_ids[key] = child
            self.channels[child] = [received, in_flight, None, {}]
        channel[3][event_id] = child
        return child

    def _arena_event(self, event, event_id: int) -> int:
        """The arena column index of frontier event ``event_id``."""
        arena_id = self.arena.intern_event(event)
        self.arena_event_ids[event_id] = arena_id
        return arena_id

    def stats(self) -> dict:
        """Local states per process and channel states created."""
        return {
            "local_states": {
                process: len(self.histories[position])
                for position, process in enumerate(self.ordered)
            },
            "channel_states": self.channel_count,
        }

    # ------------------------------------------------------------------
    # Window bookkeeping
    # ------------------------------------------------------------------
    def retire(self, floor: int) -> None:
        """Drop the window entries below ``floor`` — parents whose
        children are all built."""
        window = self.window
        for index in range(self.floor, floor):
            window.pop(index, None)
        self.floor = max(self.floor, floor)

    def _history_map(self, row: tuple) -> dict:
        """``process -> history`` of ``row``'s non-empty histories."""
        histories = self.histories
        return {
            process: histories[position][state]
            for position, (process, state) in enumerate(zip(self.ordered, row))
            if state
        }

    def transient(self, entry: tuple) -> Configuration:
        """A throwaway ``Configuration`` for the slow-path hooks."""
        row, content_hash, channel_id = entry
        configuration = Configuration._from_trusted(
            self._history_map(row), content_hash, None
        )
        channel = self.channels[channel_id]
        cache = configuration.__dict__
        cache["received_messages"] = channel[0]
        cache["in_flight_messages"] = channel[1]
        return configuration

    def row(self, config_id: int) -> tuple:
        """The row of ``config_id``: from the window, or mapped from the
        arena's configuration by a trie walk for a cross-layer hash
        collision."""
        entry = self.window.get(config_id)
        if entry is not None:
            return entry[0]
        histories = self.arena[config_id]._histories.get
        row = []
        for position, process in enumerate(self.ordered):
            state = 0
            for event in histories(process, ()):
                state = self.move(position, state, event)[3]
            row.append(state)
        return tuple(row)

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
        step: tuple,
        child_row: tuple,
        child_hash: int,
        table: dict | None = None,
        store=None,
    ) -> int:
        """Give the child of window ``entry`` by the move ``step`` (row
        ``child_row``, hash ``child_hash``) the next id: its window entry,
        with the channel state derived from the parent's, and — when
        given — a ``table`` bucket and its arena record in ``store``."""
        if parent_id >= self.layer_end:
            self._enter_layer()
        event, event_id = step[0], step[1]
        channel = self.channels[entry[2]]
        child_channel = channel[3].get(event_id)
        if child_channel is None:
            child_channel = self._channel_child(channel, event, event_id)
        child_id = self.count
        self.count = child_id + 1
        self.window[child_id] = (child_row, child_hash, child_channel)
        if table is not None:
            existing = table.get(child_hash)
            if existing is None:
                table[child_hash] = child_id
            elif type(existing) is int:
                table[child_hash] = [existing, child_id]
            else:
                existing.append(child_id)
        if store is not None:
            arena_id = self.arena_event_ids[event_id]
            if arena_id < 0:
                arena_id = self._arena_event(event, event_id)
            store.append_child(parent_id, arena_id, child_hash)
        return child_id

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
        peaks at one layer of rows.  With a ``table`` and ``store``
        (checkpoint resume) every record also lands in the content-hash
        table and the arena columns.  ``progress`` is called every
        ``progress_every`` records.
        """
        window = self.window
        admit = self.admit
        child = self.child
        floor = self.floor
        since_progress = 0
        for parent_id, event in records:
            while floor < parent_id:
                window.pop(floor, None)
                floor += 1
            entry = window[parent_id]
            step, child_row = child(entry[0], event)
            admit(
                parent_id,
                entry,
                step,
                child_row,
                (entry[1] + step[4]) % _HASH_MODULUS,
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

        Enumerates the enabled moves (each state's compiled local moves
        plus the channel's receive list, or the protocol's hooks on a
        transient configuration), rolls each child's hash, resolves it
        against ``table`` by row comparison, and admits each new child
        under the next id — into the window, the table, ``store`` (the
        arena) and ``records`` (``(parent id, event)``) when given.
        Without a ``store`` the new children are a shard's candidates,
        admitted only to be compared against: their entries carry no
        channel state (the merged stream's replay builds the real ones).
        A parent at the ``max_events`` bound gets no successors and sets
        :attr:`incomplete` if it had enabled events.  Returns ``False``
        when a new child would pass ``limit`` configurations; the
        parent's successors found so far stay appended.

        Every per-child step stays inline: this loop is the exploration's
        hot path.
        """
        if parent_id >= self.layer_end:
            self._enter_layer()
        max_events = self.max_events
        if max_events is not None and self.depth >= max_events:
            if self.protocol.compiled_enabled_events(self.transient(entry)):
                self.incomplete = True
            return True
        row, parent_hash, channel_id = entry
        channel = self.channels[channel_id]
        (
            custom_enabling,
            selective,
            enabling_filter,
            local_moves,
            transitions,
        ) = self._expand_constants
        if custom_enabling:
            # The protocol restricts system-level enabling beyond local
            # steps + willing receives; its override is authoritative.
            moves = self._moves_of(
                row, self.protocol.enabled_events(self.transient(entry))
            )
        else:
            moves = []
            for position, state in enumerate(row):
                compiled = local_moves[position][state]
                if compiled is None:
                    compiled = self._compile(position, state)
                moves += compiled
            if channel[1]:
                if not selective:
                    receives = channel[2]
                    if receives is None:
                        receives = self._receives(channel)
                    for event, event_id, position in receives:
                        state = row[position]
                        found = transitions[position][state].get(event_id)
                        if found is None:
                            found = self.move(position, state, event)
                        moves.append(found)
                else:
                    moves += self._moves_of(
                        row,
                        self.protocol.selective_receive_events(
                            self._history_map(row).get, channel[1]
                        ),
                    )
            if enabling_filter:
                moves = self._moves_of(
                    row,
                    self.protocol.filter_enabled_events(
                        self.transient(entry), [found[0] for found in moves]
                    ),
                )
        window = self.window
        window_get = window.get
        table_get = table.get
        successor_get = channel[3].get
        arena_event_ids = self.arena_event_ids
        modulus = _HASH_MODULUS
        count = self.count
        for event, event_id, position, child_state, delta in moves:
            child_hash = (parent_hash + delta) % modulus
            child_row = row[:position] + (child_state,) + row[position + 1 :]
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
            successors.append(count)
            if records is not None:
                records.append((parent_id, event))
            if store is None:
                window[count] = (child_row, child_hash, None)
                count += 1
                continue
            child_channel = successor_get(event_id)
            if child_channel is None:
                child_channel = self._channel_child(channel, event, event_id)
            window[count] = (child_row, child_hash, child_channel)
            arena_id = arena_event_ids[event_id]
            if arena_id < 0:
                arena_id = self._arena_event(event, event_id)
            store.append_child(parent_id, arena_id, child_hash)
            count += 1
        self.count = count
        return True


__all__ = ["Frontier"]
