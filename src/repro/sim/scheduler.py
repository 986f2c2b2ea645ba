"""Schedulers: policies choosing among simultaneously enabled actions.

When several locally controlled actions are enabled at the same instant,
the models leave the interleaving unspecified. A :class:`Scheduler`
resolves it. Both provided schedulers are deterministic given their
construction arguments, so whole simulations are reproducible.
"""

from __future__ import annotations

import random
from typing import List, Sequence, Tuple

from repro.automata.actions import Action
from repro.errors import ScheduleError
from repro.obs.metrics import CONTENTION_BUCKETS, NULL_COUNTER, NULL_HISTOGRAM


Candidate = Tuple[object, Action]  # (entity, action[, interned sort key])


def _sort_key(candidate: Candidate) -> Tuple[str, str]:
    """The (entity name, action repr) ordering key of one candidate.

    The engine's candidate cache carries the key pre-computed as a third
    tuple element (interned once per enabled-set derivation, not per
    pick); bare ``(entity, action)`` pairs — the documented external
    interface, used throughout the tests — still work and pay the
    ``repr`` on the spot.
    """
    if len(candidate) > 2:
        return candidate[2]
    entity, action = candidate
    return (entity.name, repr(action))


class Scheduler:
    """Chooses the next action among simultaneously enabled candidates."""

    # null instruments until the engine attaches a registry; class-level
    # defaults keep subclass __init__ methods free of observability setup
    _picks = NULL_COUNTER
    _contention = NULL_HISTOGRAM

    def instrument(self, metrics) -> None:
        """Bind pick-count and contention instruments (engine hook)."""
        self._picks = metrics.counter("repro.scheduler.picks")
        self._contention = metrics.histogram(
            "repro.scheduler.contention", CONTENTION_BUCKETS
        )

    def observe(self, candidates: Sequence[Candidate]) -> None:
        """Publish one pick over the given candidate set."""
        self._picks.inc()
        self._contention.observe(float(len(candidates)))

    def pick(self, candidates: Sequence[Candidate], now: float) -> Candidate:
        """Choose which enabled ``(entity, action)`` fires next."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{type(self).__name__}>"


class DeterministicScheduler(Scheduler):
    """Always picks the least candidate in (entity name, action) order.

    Stable and fully reproducible; biases toward lexicographically early
    entities, which is fine for safety checking (any schedule is legal).
    """

    def pick(self, candidates: Sequence[Candidate], now: float) -> Candidate:
        if not candidates:
            raise ScheduleError("no candidates to pick from")
        self.observe(candidates)
        return min(candidates, key=_sort_key)


class RandomScheduler(Scheduler):
    """Uniform seeded choice among the candidates.

    Sorts first so the choice depends only on the seed and the candidate
    set, not on the engine's iteration order.
    """

    def __init__(self, seed: int = 0):
        self._rng = random.Random(seed)

    def pick(self, candidates: Sequence[Candidate], now: float) -> Candidate:
        if not candidates:
            raise ScheduleError("no candidates to pick from")
        self.observe(candidates)
        ordered: List[Candidate] = sorted(candidates, key=_sort_key)
        return ordered[self._rng.randrange(len(ordered))]


class RoundRobinScheduler(Scheduler):
    """Rotates priority across entities to avoid starving any of them."""

    def __init__(self):
        self._last_entity_name = None

    def pick(self, candidates: Sequence[Candidate], now: float) -> Candidate:
        if not candidates:
            raise ScheduleError("no candidates to pick from")
        self.observe(candidates)
        ordered = sorted(candidates, key=_sort_key)
        if self._last_entity_name is not None:
            for cand in ordered:
                if cand[0].name > self._last_entity_name:
                    self._last_entity_name = cand[0].name
                    return cand
        choice = ordered[0]
        self._last_entity_name = choice[0].name
        return choice
