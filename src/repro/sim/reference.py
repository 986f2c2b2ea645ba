"""The full-scan reference interpreter.

The models' operational semantics written down with nothing cached:
every round asks every entity for its enabled set, every output is
offered to every other entity (the composition rule of Definition 2.2),
every time advance asks every entity for its deadline and sends every
entity ``advance``. ``Simulator(..., incremental=False)`` runs a system
under this loop; the conformance tests and ``repro chaos --conformance``
compare its trace with the event-driven loop's
(:mod:`repro.sim.engine`), which must be byte-identical for entities
honoring the scheduling contract declared on
:class:`~repro.components.base.Entity`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, Optional, Sequence, Tuple

from repro.automata.actions import Action
from repro.components.base import Entity
from repro.constants import TOLERANCE as _TOLERANCE
from repro.errors import ScheduleError, SimulationLimitError, TimelockError
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.sim.recorder import Recorder

if TYPE_CHECKING:  # engine imports this module
    from repro.sim.engine import Simulator


def _deliver(
    entities: Sequence[Entity],
    states: Dict[str, Any],
    action: Action,
    now: float,
    sender: Optional[Entity] = None,
) -> None:
    """Apply ``action`` as an input to every entity accepting it."""
    for entity in entities:
        if entity is not sender and entity.accepts(action):
            entity.apply_input(states[entity.name], action, now)


def run_reference(
    sim: Simulator,
    horizon: float,
    states: Dict[str, Any],
    injections: Sequence[Tuple[Action, float]],
    recorder: Recorder,
    metrics: MetricsRegistry,
    sink: Tracer,
    stop_when: Optional[Callable[[Recorder, float], bool]],
) -> Tuple[float, int]:
    """Run ``sim``'s entities from time 0 to ``horizon``, scanning everything.

    ``states`` maps entity names to their (mutated in place) states and
    ``injections`` is sorted by time. Every fired action and injection
    goes to ``sink``, which records into ``recorder`` (the argument
    ``stop_when`` reads). Returns ``(now, steps)``.
    """
    entities = sim.entities
    hidden = sim.hidden
    c_steps = metrics.counter("repro.engine.steps")
    c_actions = metrics.counter("repro.engine.actions")
    c_advances = metrics.counter("repro.engine.time_advances")
    c_injections = metrics.counter("repro.engine.injections")
    c_visible = metrics.counter("repro.engine.visible_events")
    c_hidden = metrics.counter("repro.engine.hidden_events")
    now = 0.0
    steps = 0
    inject_idx = 0

    while True:
        injected = False
        while (
            inject_idx < len(injections)
            and injections[inject_idx][1] <= now + _TOLERANCE
        ):
            action, _ = injections[inject_idx]
            inject_idx += 1
            c_injections.inc()
            _deliver(entities, states, action, now)
            sink.injection(now, action)
            c_visible.inc()
            injected = True
        if injected and stop_when is not None and stop_when(recorder, now):
            break

        candidates = [
            (entity, action, (entity.name, repr(action)))
            for entity in entities
            for action in entity.enabled(states[entity.name], now)
        ]
        if candidates:
            if steps >= sim.max_steps:
                raise SimulationLimitError(
                    f"exceeded {sim.max_steps} steps at now={now:g}"
                )
            entity, action = sim.scheduler.pick(candidates, now)[:2]
            signature = entity.signature
            if sim.strict and not (
                signature.is_output(action) or signature.is_internal(action)
            ):
                raise ScheduleError(
                    f"{entity.name} offered {action}, which is not a "
                    f"locally controlled action of its signature"
                )
            state = states[entity.name]
            clock = entity.clock_value(state, now)
            entity.fire(state, action, now)
            is_output = signature.is_output(action)
            visible = is_output and (hidden is None or action not in hidden)
            sink.action(now, entity.name, action, clock, visible)
            (c_visible if visible else c_hidden).inc()
            if is_output:
                _deliver(entities, states, action, now, sender=entity)
            steps += 1
            c_steps.inc()
            c_actions.inc()
            if stop_when is not None and stop_when(recorder, now):
                break
            continue

        # Nothing enabled: time passes to the earliest of the horizon, the
        # next injection and every entity's deadline.
        target = horizon
        if inject_idx < len(injections):
            target = min(target, injections[inject_idx][1])
        blocker = None
        for entity in entities:
            deadline = entity.deadline(states[entity.name], now)
            if deadline < target:
                target = deadline
                blocker = entity
        blocker_name = blocker.name if blocker else None
        if target <= now + _TOLERANCE:
            if now >= horizon - _TOLERANCE:
                break
            sink.timelock(now, blocker_name)
            raise TimelockError(
                f"timelock at now={now:g}: entity {blocker_name or '?'} "
                f"blocks time passage but nothing is enabled"
            )
        for entity in entities:
            entity.advance(states[entity.name], now, target)
        sink.advance(now, target, blocker_name)
        now = target
        c_advances.inc()

    return now, steps
