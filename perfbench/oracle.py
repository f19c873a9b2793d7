"""Independent answer check for the benchmark's outputs.

Nothing here reuses the program's answers to check the program: the
configuration counts come from hand-written constants and closed forms,
and knowledge verdicts are re-derived from the paper's definitions over
configuration projections, with plain sets and dicts — no
``PartitionTable``, no bitmasks, no ``KnowledgeEvaluator``.
"""

from __future__ import annotations

import hashlib
from math import perm

from repro.knowledge.formula import (
    And,
    Atom,
    CommonKnowledge,
    Knows,
    Not,
    Or,
    Sure,
)

STAR_CONFIGURATIONS = {6: 75_974, 7: 1_063_624}
"""Star broadcast configuration counts by receiver count (n = receivers + 1
processes): star n=7 and n=8 in the ROADMAP's terms."""


def star_configurations(receivers: int) -> int:
    """Configurations of a star broadcast with ``receivers`` leaves.

    The hub's history is empty or ``learn`` followed by sends to ``j``
    distinct leaves in some order (``receivers! / (receivers - j)!``
    orders); each of those ``j`` leaves has or has not received.  Leaves
    never forward, so that is the whole state space.
    """
    expected = 1 + sum(perm(receivers, j) * 2**j for j in range(receivers + 1))
    known = STAR_CONFIGURATIONS.get(receivers)
    if known is not None and known != expected:
        raise AssertionError(f"closed form {expected} != constant {known}")
    return expected


def universe_digest(universe) -> str:
    """Digest of every configuration's content hash and successor ids, in
    id order: two universes with equal digests assign the same ids to the
    same configurations and have the same successor lists."""
    digest = hashlib.blake2b(digest_size=16)
    config_id = universe.config_id
    for index in range(len(universe)):
        configuration = universe.configuration_of_id(index)
        successors = [config_id(child) for child in universe.successors(configuration)]
        digest.update(repr((index, hash(configuration), successors)).encode())
    return digest.hexdigest()


def explore_failures(universe, expected_count: int) -> list[str]:
    """What is wrong with one finished exploration (empty when right)."""
    problems = []
    if len(universe) != expected_count:
        problems.append(f"{len(universe)} configurations, expected {expected_count}")
    if not universe.is_complete:
        problems.append("universe is not complete")
    if len(universe.recovery_log):
        problems.append(f"recovery log is not empty: {list(universe.recovery_log)}")
    return problems


def knows_fact(history) -> bool:
    """The broadcast fact is known after a ``learn`` step or a ``fact``
    receive — read straight off the events."""
    for event in history:
        if event.is_receive:
            if event.message.tag == "fact":
                return True
        elif event.is_internal and event.tag == "learn":
            return True
    return False


class NaiveKnowledge:
    """Knowledge verdicts straight from the paper's definitions.

    ``K_P φ`` holds at ``x`` iff ``φ`` holds at every configuration with
    the same ``P``-projection as ``x``; ``C_P φ`` is the greatest
    fixpoint of ``φ ∧ K_p C`` over ``p ∈ P``.  ``atom_owner`` maps each
    broadcast atom to its process; an atom is decided by
    :func:`knows_fact` on that process's history, not by the atom's own
    function.
    """

    def __init__(self, universe, atom_owner: dict[Atom, str]) -> None:
        self._configurations = [
            universe.configuration_of_id(index) for index in range(len(universe))
        ]
        self._atom_owner = atom_owner
        self._classes: dict[frozenset, dict[tuple, list[int]]] = {}
        self._verdicts: dict[tuple, bool] = {}
        self._class_verdicts: dict[tuple, bool] = {}
        self._fixpoints: dict[CommonKnowledge, set[int]] = {}

    def _projection(self, processes: frozenset, index: int) -> tuple:
        configuration = self._configurations[index]
        return tuple(configuration.history(p) for p in sorted(processes))

    def _class_index(self, processes: frozenset) -> dict[tuple, list[int]]:
        classes = self._classes.get(processes)
        if classes is None:
            classes = {}
            for index in range(len(self._configurations)):
                key = self._projection(processes, index)
                classes.setdefault(key, []).append(index)
            self._classes[processes] = classes
        return classes

    def holds(self, formula, index: int) -> bool:
        key = (formula, index)
        verdict = self._verdicts.get(key)
        if verdict is None:
            verdict = self._decide(formula, index)
            self._verdicts[key] = verdict
        return verdict

    def _knows(self, processes: frozenset, operand, index: int) -> bool:
        projection = self._projection(processes, index)
        key = (processes, operand, projection)
        verdict = self._class_verdicts.get(key)
        if verdict is None:
            members = self._class_index(processes)[projection]
            verdict = all(self.holds(operand, member) for member in members)
            self._class_verdicts[key] = verdict
        return verdict

    def _common(self, formula: CommonKnowledge) -> set[int]:
        kept = self._fixpoints.get(formula)
        if kept is None:
            kept = {
                index
                for index in range(len(self._configurations))
                if self.holds(formula.operand, index)
            }
            changed = True
            while changed:
                changed = False
                for process in sorted(formula.processes):
                    for members in self._class_index(frozenset({process})).values():
                        if any(m in kept for m in members) and not all(
                            m in kept for m in members
                        ):
                            kept.difference_update(members)
                            changed = True
            self._fixpoints[formula] = kept
        return kept

    def _decide(self, formula, index: int) -> bool:
        if isinstance(formula, Atom):
            owner = self._atom_owner[formula]
            return knows_fact(self._configurations[index].history(owner))
        if isinstance(formula, Not):
            return not self.holds(formula.operand, index)
        if isinstance(formula, And):
            return self.holds(formula.left, index) and self.holds(formula.right, index)
        if isinstance(formula, Or):
            return self.holds(formula.left, index) or self.holds(formula.right, index)
        if isinstance(formula, Knows):
            return self._knows(formula.processes, formula.operand, index)
        if isinstance(formula, Sure):
            return self._knows(
                formula.processes, formula.operand, index
            ) or self._knows(formula.processes, Not(formula.operand), index)
        if isinstance(formula, CommonKnowledge):
            return index in self._common(formula)
        raise TypeError(f"the naive check has no rule for {formula!r}")


def verdict_failures(evaluator, naive: NaiveKnowledge, formula, config_ids) -> int:
    """How many of ``config_ids`` get a different verdict for ``formula``
    from ``evaluator`` than from the naive definitions."""
    mask = evaluator.extension_mask(formula)
    return sum(
        bool(mask >> index & 1) != naive.holds(formula, index) for index in config_ids
    )
