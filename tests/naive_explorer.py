"""The naive reference explorer: an independent oracle for the kernel.

Plain breadth-first search over ``Protocol.enabled_events``.  A
configuration is a frozen history map (sorted ``(process, history)``
pairs); a child appends one event to one history; dedup is a dict keyed
on the frozen map.  There are no rolling content hashes, step tables,
interned rows or packed columns — nothing the exploration kernel uses —
so agreement with the kernel is evidence rather than a tautology.

The id and edge order follow the kernel's contract: ids in discovery
order (parents expanded in id order, enabled events in the protocol's
order), and each parent's successor row in enabled-event order.  Bounds
follow the kernel's rules too: a parent with ``max_events`` events is
not expanded (and makes the universe incomplete if it has enabled
events); the first new configuration past ``max_configurations`` stops
the search there, keeping the partial row of the parent being expanded.
"""

from __future__ import annotations

from math import inf

from repro.core.configuration import Configuration


def naive_explore(protocol, max_events=None, max_configurations=None):
    """``(configurations, rows, complete)`` of ``protocol``'s universe.

    ``rows[i]`` is the successor id list of configuration ``i``;
    ``max_configurations`` truncates (the kernel's ``on_limit="truncate"``).
    """
    limit = inf if max_configurations is None else max_configurations
    configurations = [Configuration({})]
    ids = {(): 0}
    rows: list[list[int]] = []
    complete = True
    truncated = False
    while len(rows) < len(configurations) and not truncated:
        parent = configurations[len(rows)]
        row: list[int] = []
        rows.append(row)
        enabled = protocol.enabled_events(parent)
        if max_events is not None and len(parent) >= max_events:
            complete = complete and not enabled
            continue
        for event in enabled:
            histories = dict(parent.histories)
            histories[event.process] = histories.get(event.process, ()) + (
                event,
            )
            key = tuple(sorted(histories.items()))
            child_id = ids.get(key)
            if child_id is None:
                if len(configurations) >= limit:
                    truncated = True
                    complete = False
                    break
                child_id = len(configurations)
                ids[key] = child_id
                configurations.append(Configuration(histories))
            row.append(child_id)
    rows.extend([] for _ in range(len(configurations) - len(rows)))
    return configurations, rows, complete


def assert_matches_oracle(universe, oracle) -> None:
    """The kernel's universe against a :func:`naive_explore` result:
    ids, successor rows, completeness, and every configuration's
    ``config_id`` round trip through the content-hash table."""
    configurations, rows, complete = oracle
    assert len(universe) == len(configurations)
    assert universe.is_complete == complete
    offsets = universe._succ_offsets
    successors = universe._succ_ids
    assert len(offsets) == len(configurations) + 1
    for config_id, expected in enumerate(configurations):
        ours = universe.configuration_of_id(config_id)
        assert ours == expected, f"configuration {config_id} differs"
        assert ours.histories == expected.histories
        row = successors[offsets[config_id] : offsets[config_id + 1]]
        assert list(row) == rows[config_id], f"row {config_id} differs"
        assert universe.config_id(expected) == config_id
