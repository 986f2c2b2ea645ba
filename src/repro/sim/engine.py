"""The discrete-event simulator.

The engine realizes the operational semantics shared by all three system
models:

1. While any entity has an enabled locally controlled action, the
   scheduler picks one and it fires *now* (actions take zero time, S2).
   If the action is an output, it is synchronously applied as an input
   to every entity that accepts it (the composition rule of
   Definition 2.2).
2. When no action is enabled, time advances to the minimum of all
   entities' deadlines (the operational reading of the ``nu``
   preconditions) capped by the horizon; entities update their
   time-dependent state (clocks, timers) in ``advance`` — or, when
   they only wake at a static deadline, from the ``now`` they are next
   handed (lazy node clocks, :mod:`repro.core.clock_transform`).
3. A deadline equal to the current time with no enabled action is a
   *timelock* — a modeling bug — and raises immediately rather than
   spinning.

Every fired action is recorded with its real time and the owner's local
clock, so the run yields both ``t-trace`` (real-time stamps) and the
``gamma`` sequences of Definition 4.2 (clock stamps).

This module holds the one loop production runs use: it tracks a *dirty
set* of entities whose enabled set may have changed (seeded by fire,
routing, injection and time-advance targets), consults a precomputed
action-routing table instead of probing every entity per output, and
keeps per-entity deadlines in a lazily-invalidated min-heap (see
docs/performance.md). ``Simulator(..., incremental=False)`` runs the same
system under the full-scan reference interpreter of
:mod:`repro.sim.reference` instead, chosen once per run; setup and
run-level publishing in :meth:`Simulator.run` are shared by both.

The two produce identical traces for entities honoring the scheduling
contract declared on :class:`~repro.components.base.Entity`
(``pure_enabled`` / ``static_deadline`` / ``wakes_at_deadline``);
the conformance tests check this across the seeded corpus.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from heapq import heappop, heappush
from itertools import chain
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.automata.actions import (
    ANY,
    Action,
    ActionPattern,
    ActionSet,
    EmptyActionSet,
    FiniteActionSet,
    PatternActionSet,
    UnionActionSet,
)
from repro.automata.executions import TimedSequence
from repro.automata.signature import _DifferenceActionSet, _IntersectionActionSet
from repro.components.base import Entity
from repro.errors import ScheduleError, SimulationLimitError, TimelockError
from repro.obs.metrics import MetricsRegistry, stats_from_metrics
from repro.obs.trace import NULL_TRACER, TeeTracer, Tracer
from repro.sim.recorder import Recorder
from repro.sim.reference import run_reference
from repro.sim.scheduler import DeterministicScheduler, Scheduler

from repro.constants import TOLERANCE as _TOLERANCE

INFINITY = float("inf")


@dataclass
class SimulationResult:
    """Everything observable about one finished run."""

    horizon: float
    now: float
    steps: int
    recorder: Recorder
    final_states: Dict[str, Any]
    stats: Dict[str, int] = field(default_factory=dict)
    metrics: Optional[Dict[str, Any]] = None
    """Deterministic metrics snapshot of the run (see :mod:`repro.obs`)."""

    @property
    def trace(self) -> TimedSequence:
        """``t-trace``: visible actions with real-time stamps."""
        return self.recorder.timed_trace()

    @property
    def schedule(self) -> TimedSequence:
        """All recorded actions with real-time stamps."""
        return self.recorder.timed_schedule()

    def clock_trace(self, resort: bool = True) -> TimedSequence:
        """Clock-stamped visible trace (``gamma`` of Definition 4.2)."""
        return self.recorder.clock_stamped_trace(resort=resort)

    def completed(self) -> bool:
        """Whether the run covered the whole horizon (admissibility)."""
        return self.now >= self.horizon - _TOLERANCE

    def summary(self) -> Dict[str, Any]:
        """A picklable, JSON-ready digest of the run.

        The worker-safe entrypoint for multi-process campaigns: recorder
        events and final entity states hold arbitrary (possibly
        unpicklable) objects, so worker processes ship this plain-dict
        digest — horizon/now/steps, event counts, the canonical stats,
        and the deterministic metrics snapshot — back to the parent
        instead of the full :class:`SimulationResult`.

        ``events`` counts every recorded action including any a
        ring-mode recorder has since overwritten; ``events_retained``
        and ``events_dropped`` break the total down.
        """
        return {
            "horizon": self.horizon,
            "now": self.now,
            "steps": self.steps,
            "events": len(self.recorder) + self.recorder.dropped,
            "events_retained": len(self.recorder),
            "events_dropped": self.recorder.dropped,
            "completed": self.completed(),
            "stats": dict(self.stats),
            "metrics": self.metrics,
        }

    def __repr__(self) -> str:
        return (
            f"<SimulationResult: {self.steps} steps, "
            f"{len(self.recorder)} events, now={self.now:g}/{self.horizon:g}>"
        )


class _Wildcard:
    """Routing-key marker: matches any first parameter."""

    def __repr__(self) -> str:
        return "_ANY_FIRST"


_ANY_FIRST = _Wildcard()
_NO_PARAMS = _Wildcard()  # distinct marker for zero-parameter actions


def _first_param_key(name: str, params: Tuple) -> Tuple[str, Any]:
    return (name, params[0] if params else _NO_PARAMS)


def _input_action_keys(action_set: ActionSet) -> Optional[Set[Tuple[str, Any]]]:
    """Over-approximate an input set as ``(name, first param)`` keys.

    The first parameter of the network-interface actions is the owning
    node (``RECVMSG_i``) or edge source, so keying on it sends each
    routed action straight to its few true recipients instead of every
    entity sharing the action name. ``_ANY_FIRST`` marks patterns that
    accept any first parameter, or fix it to an unhashable value that
    cannot key the routing index. Returns ``None`` when the set cannot be
    decomposed (predicate sets, unknown subclasses) — the owning entity
    is then probed for every routed action, exactly like the full scan.
    The keys may over-approximate the truly accepted actions (e.g. for
    difference sets); routing asks ``accepts`` of the prefiltered
    entities (once per routed key, see :class:`_Route`), so
    over-approximation is safe and under-approximation is the only thing
    that would be a bug.
    """
    if isinstance(action_set, EmptyActionSet):
        return set()
    if isinstance(action_set, FiniteActionSet):
        return {_first_param_key(a.name, a.params) for a in action_set.actions}
    if isinstance(action_set, PatternActionSet):
        keys: Set[Tuple[str, Any]] = set()
        for p in action_set.patterns:
            first = p.prefix[0] if p.prefix else ANY
            try:
                keys.add((p.name, _ANY_FIRST if first is ANY else first))
            except TypeError:
                keys.add((p.name, _ANY_FIRST))
        return keys
    if isinstance(action_set, UnionActionSet):
        keys = set()
        for member in action_set.members:
            sub = _input_action_keys(member)
            if sub is None:
                return None
            keys |= sub
        return keys
    if isinstance(action_set, _DifferenceActionSet):
        return _input_action_keys(action_set._left)
    if isinstance(action_set, _IntersectionActionSet):
        left = _input_action_keys(action_set._left)
        if left is not None:
            return left
        return _input_action_keys(action_set._right)
    return None


def _key_depth(action_set: ActionSet) -> Optional[int]:
    """The ``d`` for which membership is a function of ``(name, params[:d])``.

    A pattern looks at the name and at most ``len(prefix)`` leading
    parameters (an action shorter than the prefix fails it, and its
    ``params[:d]`` is then all of its parameters), so ``d`` is the longest
    prefix in the set. ``None`` when no such ``d`` is known: finite and
    predicate sets and unknown subclasses keep a direct membership test.
    """
    kind = type(action_set)
    if kind is EmptyActionSet:
        return 0
    if kind is PatternActionSet:
        patterns = action_set.patterns
        if any(type(p) is not ActionPattern for p in patterns):
            return None
        return max((len(p.prefix) for p in patterns), default=0)
    if kind is UnionActionSet:
        members: Sequence[ActionSet] = action_set.members
    elif kind is _DifferenceActionSet or kind is _IntersectionActionSet:
        members = (action_set._left, action_set._right)
    else:
        return None
    depth = 0
    for member in members:
        sub = _key_depth(member)
        if sub is None:
            return None
        depth = max(depth, sub)
    return depth


class _EntityInfo:
    """Per-entity data precomputed once per :class:`Simulator`.

    The key depths and the fired-action memo are not: the engine sets
    them the first time the entity is routed to or fires (see
    :meth:`Simulator._route_targets` and :meth:`Simulator._classify`).
    """

    __slots__ = (
        "entity",
        "index",
        "name",
        "pure_enabled",
        "static_deadline",
        "wakes_at_deadline",
        "probe_always",
        "input_keys",
        "advances",
        # set lazily:
        "input_depth",  # _key_depth of the inputs (None with probe_always)
        "routed_exactly",  # input_depth is not None: routing needs no accepts()
        "fired_depth",  # key depth deciding (is_output, visible)
        "fired",  # key -> (is_output, visible); None when undecided
    )

    def __init__(self, entity: Entity, index: int):
        self.entity = entity
        self.index = index
        self.name = entity.name
        self.pure_enabled = bool(getattr(entity, "pure_enabled", True))
        self.static_deadline = bool(getattr(entity, "static_deadline", False))
        self.wakes_at_deadline = self.static_deadline and bool(
            getattr(entity, "wakes_at_deadline", False)
        )
        # Entities overriding accepts() may take inputs beyond their
        # declared signature; keep probing them for every action.
        self.probe_always = type(entity).accepts is not Entity.accepts
        self.input_keys = (
            None if self.probe_always
            else _input_action_keys(entity.signature.inputs)
        )
        # An entity that only wakes at a static deadline is not looked at
        # between its events, so it must bring its time-dependent state
        # up to the ``now`` it is handed rather than rely on the sweep.
        self.advances = (
            type(entity).advance is not Entity.advance
            and not self.wakes_at_deadline
        )

    def routing_depth(self) -> Optional[int]:
        """:attr:`input_depth`, computed on first use."""
        try:
            return self.input_depth
        except AttributeError:
            depth = None if self.probe_always else _key_depth(
                self.entity.signature.inputs
            )
            self.input_depth = depth
            self.routed_exactly = depth is not None
            return depth


class _RouteIndex:
    """Inverted index over the declared input keys: who may accept what.

    The composition rule makes the recipients of an action a function
    of the signatures alone, so this is built once per
    :class:`Simulator`, in O(sum of ``len(input_keys)``).
    """

    __slots__ = ("by_name", "probe_always")

    def __init__(self, infos: Sequence[_EntityInfo]):
        #: ``name -> first param -> indices`` of the entities declaring
        #: that key; ``_ANY_FIRST`` is a first param like any other here
        self.by_name: Dict[str, Dict[Any, List[int]]] = {}
        #: indices of the entities whose inputs are not decomposed
        self.probe_always: List[int] = []
        by_name = self.by_name
        for info in infos:
            index = info.index
            if info.input_keys is None:
                self.probe_always.append(index)
                continue
            for name, param in info.input_keys:
                by_name.setdefault(name, {}).setdefault(param, []).append(index)

    def consumers(self, name: str, param: Any) -> List[int]:
        """Indices, ascending, of the entities that may accept the key.

        ``param`` is a concrete first parameter (or ``_NO_PARAMS``), or
        ``_ANY_FIRST`` for "any action of this name": the key of an
        output pattern that leaves its first parameter open, and of an
        action whose first parameter is unhashable. Raises ``TypeError``
        for an unhashable concrete ``param``.
        """
        by_param = self.by_name.get(name, {})
        if param is _ANY_FIRST:
            named = chain.from_iterable(by_param.values())
        else:
            named = chain(by_param.get(param, ()), by_param.get(_ANY_FIRST, ()))
        return sorted({*named, *self.probe_always})


class _Route:
    """The route table's entry for one ``(name, first param)`` key.

    ``candidates`` over-approximates the recipients (from the
    :class:`_RouteIndex`). ``depth`` is the longest input key depth among
    them, so whether each candidate whose inputs have a depth accepts an
    action is a function of ``params[:depth]``; ``exact`` memoises, per
    such prefix, the candidates that accept it plus every candidate
    without a depth, which must still be asked.
    """

    __slots__ = ("candidates", "depth", "exact")

    def __init__(self, candidates: Tuple[_EntityInfo, ...]):
        self.candidates = candidates
        depths = [info.routing_depth() for info in candidates]
        self.depth = max((d for d in depths if d is not None), default=0)
        self.exact: Dict[Tuple, Tuple[_EntityInfo, ...]] = {}

    def resolve(self, action: Action) -> Tuple[_EntityInfo, ...]:
        return tuple(
            info for info in self.candidates
            if not info.routed_exactly or info.entity.accepts(action)
        )


class Simulator:
    """Composes entities and runs them to a horizon.

    Parameters
    ----------
    entities:
        the top-level automata (nodes, channels, clients, tick sources).
        Entity names must be unique — they key the state map.
    scheduler:
        policy among simultaneously enabled actions (default
        deterministic).
    hidden:
        actions matching this set are recorded as invisible; they appear
        in the timed schedule but not the timed trace. System builders
        hide the node/channel interface actions per Sections 3.3 and 4.1.
    max_steps:
        safety valve against runaway action loops.
    incremental:
        run the event-driven core (dirty-set scheduling, routing table,
        deadline heap). ``False`` selects the full-scan reference
        interpreter (:mod:`repro.sim.reference`), which re-derives
        everything per event; both yield identical traces for entities
        honoring the declared scheduling contract.
    """

    def __init__(
        self,
        entities: Sequence[Entity],
        scheduler: Optional[Scheduler] = None,
        hidden: Optional[ActionSet] = None,
        max_steps: int = 1_000_000,
        strict: bool = False,
        incremental: bool = True,
    ):
        names = [e.name for e in entities]
        if len(set(names)) != len(names):
            duplicates = sorted({n for n in names if names.count(n) > 1})
            raise ScheduleError(f"duplicate entity names: {duplicates}")
        self.entities = list(entities)
        self.scheduler = scheduler or DeterministicScheduler()
        self.hidden = hidden
        self.max_steps = max_steps
        self.strict = strict
        self.incremental = incremental
        self._infos = [_EntityInfo(e, i) for i, e in enumerate(self.entities)]
        self._route_index = _RouteIndex(self._infos)
        # (action name, first param) -> its _Route, filled per key from
        # the index on first use; see _route_targets.
        self._route_table: Dict[Tuple[str, Any], _Route] = {}
        # Which per-round and per-advance sweeps of the incremental loop
        # each entity is part of, by the scheduling contract it declares.
        infos = self._infos
        self._impure_idx = [i.index for i in infos if not i.pure_enabled]
        self._dynamic_idx = [i.index for i in infos if not i.static_deadline]
        self._advancing_idx = [i.index for i in infos if i.advances]
        self._nonwake_idx = [i.index for i in infos if not i.wakes_at_deadline]
        self._nonwake_static_idx = [
            i.index
            for i in infos
            if i.static_deadline and not i.wakes_at_deadline
        ]

    # -- internals ---------------------------------------------------------

    def _route_targets(self, action: Action) -> Tuple[_EntityInfo, ...]:
        """The entities an output or injected ``action`` is delivered to,
        in composition order.

        Those with ``routed_exactly`` accept it; the others (no key
        depth) must still be asked with ``accepts``. Memoised per
        ``(name, params[:depth])``, so the signatures are walked once
        per routed key rather than once per step.
        """
        params = action.params
        try:
            route = self._route_table[
                action.name, params[0] if params else _NO_PARAMS
            ]
            return route.exact[params[: route.depth]]
        except (KeyError, TypeError):
            pass
        name = action.name
        try:
            key = _first_param_key(name, params)
            route = self._route_table.get(key)
        except TypeError:
            # Unhashable first parameter: every entity whose keys
            # mention the name at all.
            key = (name, _ANY_FIRST)
            route = self._route_table.get(key)
        if route is None:
            infos = self._infos
            route = self._route_table[key] = _Route(
                tuple(infos[i] for i in self._route_index.consumers(*key))
            )
        targets = route.resolve(action)
        try:
            route.exact[params[: route.depth]] = targets
        except TypeError:
            pass  # an unhashable parameter inside the key: not memoised
        return targets

    def _classify(self, owner: _EntityInfo, action: Action) -> Tuple[bool, bool]:
        """``(is_output, visible)`` of an action ``owner`` fired.

        Memoised in ``owner.fired`` per ``(name, params[:fired_depth])``,
        the depth deciding both the owner's outputs and ``hidden``; the
        incremental loop reads the memo itself and calls this on a miss.
        """
        try:
            fired, depth = owner.fired, owner.fired_depth
        except AttributeError:  # the owner's first fire
            depth = _key_depth(owner.entity.signature.outputs)
            if depth is not None and self.hidden is not None:
                hidden_depth = _key_depth(self.hidden)
                depth = None if hidden_depth is None else max(depth, hidden_depth)
            fired = {} if depth is not None else None
            owner.fired, owner.fired_depth = fired, depth
        is_output = owner.entity.signature.is_output(action)
        hidden = self.hidden
        visible = is_output and (hidden is None or action not in hidden)
        if fired is not None:
            try:
                fired[action.name, action.params[:depth]] = (is_output, visible)
            except TypeError:
                pass  # an unhashable parameter inside the key
        return is_output, visible

    # -- main loop -------------------------------------------------------------

    def run(
        self,
        horizon: float,
        recorder: Optional[Recorder] = None,
        initial_inputs: Sequence[Tuple[Action, float]] = (),
        stop_when: Optional[Callable[[Recorder, float], bool]] = None,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
    ) -> SimulationResult:
        """Run the composed system until ``now`` reaches ``horizon``.

        ``initial_inputs`` optionally injects environment actions at
        given times — a convenience for driving open systems without
        writing a client entity. (Most workloads use client entities.)

        ``stop_when(recorder, now)``, checked after every fired action
        and after every injection round, ends the run early when it
        returns true — e.g. "stop once every node announced a leader".
        An early-stopped run reports ``completed() == False``.

        ``metrics`` is a :class:`~repro.obs.metrics.MetricsRegistry`
        (one is created when omitted; pass
        :data:`~repro.obs.metrics.NULL_METRICS` to disable collection
        entirely). ``tracer`` emits structured span/event records. The
        loop drives one sink: the ``recorder`` alone, or the recorder
        teed with ``tracer`` when one is attached.
        """
        if recorder is None:  # `or` would discard an empty (falsy) Recorder
            recorder = Recorder()
        if metrics is None:
            metrics = MetricsRegistry()
        if tracer is None or tracer is NULL_TRACER:
            sink: Tracer = recorder
        else:
            sink = TeeTracer(recorder, tracer)
        for entity in self.entities:
            entity.instrument(metrics)
        self.scheduler.instrument(metrics)
        states = {e.name: e.initial_state() for e in self.entities}
        injections = sorted(initial_inputs, key=lambda pair: pair[1])
        loop = _run_incremental if self.incremental else run_reference
        # events/sec instrumentation; the wall figures are published as
        # volatile metrics, excluded from the deterministic export (see below)
        wall_start = time.perf_counter()
        sink.run_start(horizon)
        sink.meta({"entities": [e.name for e in self.entities]})
        now, steps = loop(
            self, horizon, states, injections, recorder, metrics, sink, stop_when
        )
        wall = time.perf_counter() - wall_start
        sink.run_end(now, steps)

        # Run-level publishing. Wall-clock figures are volatile (kept out
        # of the deterministic export); everything else is a pure
        # function of the seeded run.
        metrics.gauge("repro.engine.now").set(now)
        metrics.gauge("repro.engine.horizon").set(horizon)
        # ``events`` counts every recorded action — a ring-mode recorder's
        # overwritten entries included (they used to be silently excluded).
        events_total = float(len(recorder) + recorder.dropped)
        metrics.gauge("repro.recorder.events").set(events_total)
        metrics.gauge("repro.recorder.events_total").set(events_total)
        metrics.gauge("repro.recorder.events_retained").set(float(len(recorder)))
        metrics.gauge("repro.recorder.dropped").set(float(recorder.dropped))
        metrics.gauge("repro.engine.wall_seconds", volatile=True).set(wall)
        if wall > 0:
            metrics.gauge("repro.engine.steps_per_sec", volatile=True).set(
                steps / wall
            )
            metrics.gauge("repro.engine.sim_time_ratio", volatile=True).set(
                now / wall
            )

        return SimulationResult(
            horizon=horizon,
            now=now,
            steps=steps,
            recorder=recorder,
            final_states=states,
            stats=stats_from_metrics(metrics),
            metrics=metrics.snapshot(),
        )


def _run_incremental(
    sim: Simulator,
    horizon: float,
    states: Dict[str, Any],
    injections: Sequence[Tuple[Action, float]],
    recorder: Recorder,
    metrics: MetricsRegistry,
    sink: Tracer,
    stop_when: Optional[Callable[[Recorder, float], bool]],
) -> Tuple[float, int]:
    """The event-driven loop, from time 0 to ``horizon``.

    Same contract as :func:`repro.sim.reference.run_reference`:
    ``states`` maps entity names to their (mutated in place) states,
    ``injections`` is sorted by time, every fired action and injection
    goes to ``sink`` (which records into ``recorder``), the result is
    ``(now, steps)``.
    """
    now = 0.0
    steps = 0
    inject_idx = 0
    n_injections = len(injections)

    # Hot-loop bindings: one attribute lookup per run, not per event.
    c_steps = metrics.counter("repro.engine.steps")
    c_actions = metrics.counter("repro.engine.actions")
    c_advances = metrics.counter("repro.engine.time_advances")
    c_injections = metrics.counter("repro.engine.injections")
    c_visible = metrics.counter("repro.engine.visible_events")
    c_hidden = metrics.counter("repro.engine.hidden_events")
    sink_action = sink.action
    sink_advance = sink.advance
    pick = sim.scheduler.pick
    strict = sim.strict
    max_steps = sim.max_steps
    route_targets = sim._route_targets
    classify = sim._classify

    infos = sim._infos
    info_by_name = {info.name: info for info in infos}
    state_by_idx = list(states.values())  # composition order, as ``infos``
    entity_by_idx = sim.entities

    # Enabled-set cache: per-entity candidate lists, assembled into the
    # scheduler's candidate sequence from the non-empty entries.
    # Candidates carry an interned (entity name, action repr) sort key so
    # schedulers never recompute repr() per pick.
    active: Dict[int, List[Tuple[Entity, Action, Tuple[str, str]]]] = {}
    # Entities whose enabled set must be re-derived before the next pick.
    # Impure entities are re-marked every round so their enabled() call
    # sequence matches the full scan's.
    dirty: Set[int] = set(range(len(infos)))
    impure_idx = sim._impure_idx

    # Min-deadline cache. Static-deadline entities live in a
    # lazily-invalidated heap of (deadline, index, generation); dynamic
    # ones are re-evaluated at every advance query.
    dynamic_idx = sim._dynamic_idx
    dl_gen: List[int] = [0] * len(infos)
    dl_heap: List[Tuple[float, int, int]] = []
    dl_dirty: Set[int] = {i.index for i in infos if i.static_deadline}
    advancing_idx = sim._advancing_idx
    nonwake_idx = sim._nonwake_idx
    nonwake_static_idx = sim._nonwake_static_idx

    def refresh(idx: int) -> None:
        entity = entity_by_idx[idx]
        name = infos[idx].name
        enabled = entity.enabled(state_by_idx[idx], now)
        if enabled:
            active[idx] = [
                (entity, action, (name, repr(action))) for action in enabled
            ]
        else:
            active.pop(idx, None)

    def mark_dirty(info: _EntityInfo) -> None:
        dirty.add(info.index)
        if info.static_deadline:
            dl_dirty.add(info.index)

    while True:
        # Deliver any injections scheduled at (or before) this time.
        if inject_idx < n_injections and injections[inject_idx][1] <= now + _TOLERANCE:
            while (
                inject_idx < n_injections
                and injections[inject_idx][1] <= now + _TOLERANCE
            ):
                action, _ = injections[inject_idx]
                inject_idx += 1
                c_injections.inc()
                for info in route_targets(action):
                    if info.routed_exactly or info.entity.accepts(action):
                        info.entity.apply_input(
                            state_by_idx[info.index], action, now
                        )
                        mark_dirty(info)
                sink.injection(now, action)
                c_visible.inc()
            if stop_when is not None and stop_when(recorder, now):
                break

        # Re-derive enabled sets for entities whose state (or time) may
        # have changed, then gather the candidate actions.
        dirty.update(impure_idx)
        if dirty:
            for idx in sorted(dirty):
                refresh(idx)
            dirty.clear()

        if active:
            if len(active) == 1:
                (candidates,) = active.values()
            else:
                candidates = [cand for lst in active.values() for cand in lst]
            if steps >= max_steps:
                raise SimulationLimitError(
                    f"exceeded {max_steps} steps at now={now:g}"
                )
            picked = pick(candidates, now)
            entity, action = picked[0], picked[1]
            if strict and not (
                entity.signature.is_output(action)
                or entity.signature.is_internal(action)
            ):
                raise ScheduleError(
                    f"{entity.name} offered {action}, which is not a "
                    f"locally controlled action of its signature"
                )
            owner = info_by_name[entity.name]
            state = state_by_idx[owner.index]
            clock = entity.clock_value(state, now)
            entity.fire(state, action, now)
            try:
                is_output, visible = owner.fired[
                    action.name, action.params[: owner.fired_depth]
                ]
            # first fire (slots unset), new key, or no memo / unhashable key
            except (AttributeError, KeyError, TypeError):
                is_output, visible = classify(owner, action)
            sink_action(now, entity.name, action, clock, visible)
            (c_visible if visible else c_hidden).inc()
            if is_output:
                for info in route_targets(action):
                    target_entity = info.entity
                    if target_entity is entity:
                        continue
                    if info.routed_exactly or target_entity.accepts(action):
                        target_entity.apply_input(
                            state_by_idx[info.index], action, now
                        )
                        mark_dirty(info)
            steps += 1
            c_steps.inc()
            c_actions.inc()
            mark_dirty(owner)
            if stop_when is not None and stop_when(recorder, now):
                break
            continue

        # No action enabled: advance time. The target starts at the
        # horizon capped by the next injection and is pulled down by the
        # minimum entity deadline; reaching the horizon with nothing
        # enabled ends the run.
        target = horizon
        if inject_idx < n_injections:
            inj_time = injections[inject_idx][1]
            if inj_time < target:
                target = inj_time
        blocker = None
        if dl_dirty:
            for idx in sorted(dl_dirty):
                value = entity_by_idx[idx].deadline(state_by_idx[idx], now)
                dl_gen[idx] += 1
                heappush(dl_heap, (value, idx, dl_gen[idx]))
            dl_dirty.clear()
        while dl_heap and dl_heap[0][2] != dl_gen[dl_heap[0][1]]:
            heappop(dl_heap)
        best_val = INFINITY
        best_idx = -1
        if dl_heap:
            best_val, best_idx = dl_heap[0][0], dl_heap[0][1]
        for idx in dynamic_idx:
            value = entity_by_idx[idx].deadline(state_by_idx[idx], now)
            if value < best_val or (value == best_val and idx < best_idx):
                best_val = value
                best_idx = idx
        if best_val < target:
            target = best_val
            blocker = entity_by_idx[best_idx]
        if target <= now + _TOLERANCE:
            if now >= horizon - _TOLERANCE:
                break
            sink.timelock(now, blocker.name if blocker else None)
            raise TimelockError(
                f"timelock at now={now:g}: entity "
                f"{blocker.name if blocker else '?'} blocks time passage "
                f"but nothing is enabled"
            )
        for idx in advancing_idx:
            entity_by_idx[idx].advance(state_by_idx[idx], now, target)
        sink_advance(now, target, blocker.name if blocker else None)
        now = target
        c_advances.inc()
        # Time moved: re-derive every entity that has not promised its
        # enabled set only changes at its deadline, plus the promised
        # ones whose deadline just arrived.
        dirty.update(nonwake_idx)
        dl_dirty.update(nonwake_static_idx)
        while dl_heap and dl_heap[0][0] <= now + _TOLERANCE:
            value, idx, gen = heappop(dl_heap)
            if gen == dl_gen[idx]:
                dirty.add(idx)
                dl_dirty.add(idx)

    return now, steps
