"""Lowering a :class:`~repro.chaos.plan.FaultPlan` onto a built system.

:func:`apply_plan` takes any :class:`~repro.core.pipeline.SystemSpec`
and returns a new spec with the plan's faults injected through the
existing fault mechanisms — it composes, it does not reimplement:

- ``crash``/``recover`` wrap the node entity in a
  :class:`~repro.faults.recovery.RecoverableEntity` (stable-storage
  snapshot/restore; a ``crash`` with no ``recover`` is crash-stop);
- ``clock_fault`` wraps the node's clock driver in a
  :class:`~repro.sim.clock_drivers.FaultyClockDriver` (nodes without a
  clock driver — timed-model nodes — cannot host a clock fault);
- ``partition``/``heal`` and ``drop_burst`` compile to drop windows and
  replace the affected channels with
  :class:`~repro.faults.lossy_channel.LossyChannelEntity` over a
  :class:`~repro.faults.partition.TimelineFaultModel` (stacking on top
  of a channel's existing fault model, if any).

Entity order is preserved — the composition order is part of the
deterministic scheduling contract, so a chaos run stays trace-identical
between the incremental and full-scan engine cores.

The input spec is never mutated: wrapped node entities are shared (they
hold no run state), driver-bearing entities are shallow-copied before
their driver is replaced, and channels are rebuilt. Builders should
still construct a fresh spec per run when drivers are stateful.
"""

from __future__ import annotations

import copy
from typing import Dict, Optional

from repro.chaos.plan import CompiledPlan, FaultPlan
from repro.components.base import Entity
from repro.core.pipeline import SystemSpec
from repro.errors import SpecificationError
from repro.faults.lossy_channel import LossyChannelEntity
from repro.faults.partition import TimelineFaultModel
from repro.faults.recovery import RecoverableEntity
from repro.network.channel import ChannelEntity
from repro.sim.clock_drivers import FaultyClockDriver


def _with_faulty_driver(entity: Entity, windows) -> Entity:
    driver = getattr(entity, "driver", None)
    if driver is None:
        raise SpecificationError(
            f"clock_fault on {entity.name!r}, which has no clock driver "
            "(timed-model nodes keep perfect time by definition)"
        )
    wrapped = copy.copy(entity)
    wrapped.driver = FaultyClockDriver(driver, windows)
    return wrapped


def _with_drop_windows(channel: ChannelEntity, windows) -> Entity:
    relevant = tuple(
        w for w in windows if w.severs((channel.src, channel.dst), w.start)
    )
    if not relevant:
        return channel
    base = getattr(channel, "fault_model", None)
    prefix = channel.send_name[: -len("SENDMSG")]
    return LossyChannelEntity(
        channel.src,
        channel.dst,
        channel.d1,
        channel.d2,
        delay_model=channel.delay_model,
        fault_model=TimelineFaultModel(relevant, base=base),
        prefix=prefix,
    )


def apply_plan(
    spec: SystemSpec,
    plan: FaultPlan,
    compiled: Optional[CompiledPlan] = None,
) -> SystemSpec:
    """A new spec with the plan's faults injected (see module docs)."""
    compiled = compiled or plan.compile()
    known_nodes = set(spec.node_entities)
    for node in sorted(set(compiled.recovery) | set(compiled.clock_windows)):
        if known_nodes and node not in known_nodes:
            raise SpecificationError(
                f"plan {plan.name!r} targets node {node}, but the system "
                f"only has nodes {sorted(known_nodes)}"
            )
    entity_to_node: Dict[int, int] = {
        id(entity): node for node, entity in spec.node_entities.items()
    }
    node_entities: Dict[int, Entity] = dict(spec.node_entities)
    entities = []
    for entity in spec.entities:
        replacement = entity
        node = entity_to_node.get(id(entity))
        if node is not None:
            windows = compiled.clock_windows.get(node)
            if windows:
                replacement = _with_faulty_driver(replacement, windows)
            schedule = compiled.recovery.get(node)
            if schedule is not None and schedule.windows:
                replacement = RecoverableEntity(replacement, schedule)
            node_entities[node] = replacement
        elif compiled.drop_windows and isinstance(entity, ChannelEntity):
            replacement = _with_drop_windows(entity, compiled.drop_windows)
        entities.append(replacement)
    return SystemSpec(
        entities=entities,
        hidden=spec.hidden,
        label=f"{spec.label}+{plan.name}",
        node_entities=node_entities,
    )
