"""Clock drivers: adversaries for the ``C_eps`` envelope.

In the clock-automaton model, time passage is ``nu(Δt, Δc)`` — the
environment chooses how the local clock advances relative to real time,
subject to:

- the clock predicate ``C_eps``: ``|now - clock| <= eps`` after the step;
- monotonicity (C3);
- each component's clock deadline (the ``nu`` precondition of Figure 2
  forbids the clock from passing a pending message's stamp, which forces
  urgent deliveries).

A :class:`ClockDriver` encapsulates that choice. Theorems 4.7/5.1
quantify over *all* trajectories, so tests and benchmarks run the same
system under many drivers, including the adversarial extremes
(:class:`FastClockDriver`, :class:`SlowClockDriver`) that realize the
worst cases of the ``2*eps`` terms in the delay bounds.

Note on C3: the axiom requires the clock to *strictly* increase whenever
time passes. Drivers clamp to the envelope boundary, which can hold the
clock constant over an interval; this is the uniform limit of strictly
increasing trajectories and is indistinguishable at the level of timed
traces, so the executable layer permits it (the theory layer's axiom
checker still enforces strictness).
"""

from __future__ import annotations

import math
import random
from typing import Callable, Optional

from repro.constants import TOLERANCE as _TOLERANCE
from repro.errors import ClockEnvelopeError

INFINITY = float("inf")


class ClockDriver:
    """Chooses a node's clock trajectory within the ``C_eps`` envelope.

    Subclasses override :meth:`desired` (a memoryless target trajectory)
    or :meth:`step` (for stateful trajectories). The base class clamps
    every proposal into the feasible window::

        max(clock, new_now - eps, 0) <= clock' <= min(cap, new_now + eps)

    where ``cap`` is the node's clock deadline.
    """

    #: a granularity-free trajectory reaches the same clock value at a
    #: given real time no matter how the interval is chopped into
    #: ``step`` calls, so skipping the intermediate steps changes
    #: nothing. False for trajectories with per-step randomness
    #: (RandomWalk) or phase logic sensitive to evaluation points
    #: (Sawtooth, FaultyClock). Clock nodes read it to decide whether
    #: the engine must step them at every time advance or may leave
    #: them until their next event (:mod:`repro.core.clock_transform`).
    granularity_free = False

    def __init__(self, eps: float):
        if eps < 0:
            raise ValueError("eps must be non-negative")
        self.eps = eps

    # -- trajectory ------------------------------------------------------

    def desired(self, now: float, clock: float, new_now: float) -> float:
        """Unclamped target clock value at real time ``new_now``."""
        raise NotImplementedError

    def step(self, now: float, clock: float, new_now: float, cap: float) -> float:
        """The clock value after real time advances to ``new_now``."""
        lo = max(clock, new_now - self.eps, 0.0)
        hi = min(cap, new_now + self.eps)
        if lo > hi + _TOLERANCE:
            raise ClockEnvelopeError(
                f"no feasible clock value: window [{lo:g}, {hi:g}] is empty "
                f"(now {now:g} -> {new_now:g}, clock {clock:g}, cap {cap:g}, "
                f"eps {self.eps:g})"
            )
        proposal = self.desired(now, clock, new_now)
        return min(max(proposal, lo), hi)

    # -- deadline mapping -------------------------------------------------

    def max_now(self, now: float, clock: float, cap: float) -> float:
        """Latest real time reachable without the clock passing ``cap``.

        If the cap is already binding (``cap <= clock``), time cannot
        pass at all — some clock-urgent action must fire first.
        """
        if cap == INFINITY:
            return INFINITY
        if cap <= clock + _TOLERANCE:
            return now
        return cap + self.eps

    def solve_cap(self, now: float, clock: float, cap: float) -> float:
        """Real time at which the *desired* trajectory reaches ``cap``.

        Subclass hook for :meth:`target_now`; the default is the latest
        legal instant (riding the deadline, a legal adversary choice).
        """
        return cap + self.eps

    def target_now(self, now: float, clock: float, cap: float) -> float:
        """The real time the node should stop at so its clock hits ``cap``.

        Stopping earlier than :meth:`max_now` is always a legal ``nu``
        choice; drivers use it so clock-urgent actions fire when the
        driver's own trajectory reaches the cap (a perfect clock fires
        at ``now == cap``, not ``cap + eps``). The result is clamped
        into ``(now, cap + eps]`` — falling back to the latest legal
        instant when the solved time is degenerate — so the engine
        always makes progress.
        """
        if cap == INFINITY:
            return INFINITY
        if cap <= clock + _TOLERANCE:
            return now
        target = self.solve_cap(now, clock, cap)
        latest = cap + self.eps
        earliest = max(cap - self.eps, 0.0)
        target = min(max(target, earliest), latest)
        if target <= now + _TOLERANCE:
            target = latest
        return target

    def __repr__(self) -> str:
        return f"<{type(self).__name__} eps={self.eps:g}>"


class PerfectClockDriver(ClockDriver):
    """``clock == now``: the degenerate, perfectly synchronized clock."""

    granularity_free = True  # desired() depends on new_now only

    def desired(self, now: float, clock: float, new_now: float) -> float:
        return new_now

    def solve_cap(self, now: float, clock: float, cap: float) -> float:
        return cap


class SkewedClockDriver(ClockDriver):
    """A constant offset ``beta`` from real time, ``|beta| <= eps``."""

    granularity_free = True  # desired() depends on new_now only

    def __init__(self, eps: float, beta: float):
        super().__init__(eps)
        if abs(beta) > eps:
            raise ValueError(f"|beta|={abs(beta):g} exceeds eps={eps:g}")
        self.beta = beta

    def desired(self, now: float, clock: float, new_now: float) -> float:
        return new_now + self.beta

    def solve_cap(self, now: float, clock: float, cap: float) -> float:
        return cap - self.beta


class FastClockDriver(SkewedClockDriver):
    """The adversarial fast extreme: ``clock == now + eps``."""

    def __init__(self, eps: float):
        super().__init__(eps, eps)


class SlowClockDriver(SkewedClockDriver):
    """The adversarial slow extreme: ``clock == max(now - eps, 0)``."""

    def __init__(self, eps: float):
        super().__init__(eps, -eps)


class DriftingClockDriver(ClockDriver):
    """A clock running at a constant rate ``rho`` (1.0 = real time).

    The integrated drift is clamped to the envelope, so a fast clock
    (``rho > 1``) eventually rides the ``now + eps`` boundary and a slow
    one (``rho < 1``) the ``now - eps`` boundary — exactly the behavior
    of a hardware oscillator between synchronizations.
    """

    # NOT granularity-free: clock + rho*(b-a) + rho*(c-b) equals
    # clock + rho*(c-a) in exact arithmetic but not in floats, and a
    # lazily stepped node must reproduce the stepped trace bit for bit.
    # Memoryless trajectories (perfect, skewed) survive interval
    # splitting exactly; integrating ones do not.

    def __init__(self, eps: float, rho: float):
        super().__init__(eps)
        if rho <= 0:
            raise ValueError("drift rate must be positive")
        self.rho = rho

    def desired(self, now: float, clock: float, new_now: float) -> float:
        return clock + self.rho * (new_now - now)

    def solve_cap(self, now: float, clock: float, cap: float) -> float:
        return now + (cap - clock) / self.rho


class SawtoothClockDriver(ClockDriver):
    """Drift at rate ``rho``, resynchronize toward real time every ``period``.

    Models a clock disciplined by a synchronization service (e.g. NTP
    [12]): between syncs it drifts; at each sync boundary it slews
    rapidly back toward ``now`` (never backwards — monotonicity).
    """

    def __init__(self, eps: float, rho: float, period: float, slew: float = 4.0):
        super().__init__(eps)
        if period <= 0:
            raise ValueError("period must be positive")
        self.rho = rho
        self.period = period
        self.slew = slew

    def desired(self, now: float, clock: float, new_now: float) -> float:
        phase = math.fmod(new_now, self.period)
        drifting = clock + self.rho * (new_now - now)
        if phase < self.period * 0.25 and drifting < new_now:
            # Early in the period: slew back toward real time.
            return min(new_now, clock + self.slew * (new_now - now))
        return drifting

    def solve_cap(self, now: float, clock: float, cap: float) -> float:
        return now + (cap - clock) / self.rho


class RandomWalkClockDriver(ClockDriver):
    """A seeded random rate in ``[lo_rate, hi_rate]`` per step."""

    def __init__(
        self,
        eps: float,
        seed: int = 0,
        lo_rate: float = 0.5,
        hi_rate: float = 1.5,
    ):
        super().__init__(eps)
        self._rng = random.Random(seed)
        self.lo_rate = lo_rate
        self.hi_rate = hi_rate

    def desired(self, now: float, clock: float, new_now: float) -> float:
        rate = self._rng.uniform(self.lo_rate, self.hi_rate)
        return clock + rate * (new_now - now)

    def solve_cap(self, now: float, clock: float, cap: float) -> float:
        # Nominal rate 1.0; target_now re-solves if the sampled rate
        # undershoots, so convergence to the cap is still guaranteed.
        return now + (cap - clock)


class ClockFaultWindow:
    """A real-time window ``[start, end)`` where ``C_eps`` is violated.

    ``excess > 0`` lets the clock run *ahead* of ``now + eps`` by up to
    ``excess``; ``excess < 0`` lets it *lag* below ``now - eps`` by up to
    ``|excess|``. A chaos plan's ``clock_fault`` event compiles to one of
    these.
    """

    def __init__(self, start: float, end: float, excess: float):
        if start < 0 or end <= start:
            raise ValueError(f"invalid clock fault window [{start:g}, {end:g})")
        if excess == 0:
            raise ValueError("clock fault excess must be non-zero")
        self.start = start
        self.end = end
        self.excess = excess

    def active(self, now: float) -> bool:
        """Whether ``now`` falls inside the half-open fault window."""
        return self.start - _TOLERANCE <= now < self.end - _TOLERANCE

    def __repr__(self) -> str:
        return (
            f"<ClockFaultWindow [{self.start:g},{self.end:g}) "
            f"excess={self.excess:+g}>"
        )


class FaultyClockDriver(ClockDriver):
    """Wraps a driver and breaks the ``C_eps`` envelope in scripted windows.

    Inside an active :class:`ClockFaultWindow` the feasible envelope is
    widened on the faulty side by ``|excess|`` and the wrapped driver's
    proposal is pushed to the widened boundary — the clock genuinely
    leaves ``[now - eps, now + eps]``, which is what the chaos layer's
    clock-predicate monitor exists to catch.

    Re-entry after the window closes is handled without ever violating
    monotonicity: a clock that ran *fast* holds constant (``hi`` is
    floored at the current clock value) until real time catches up; a
    clock that ran *slow* jumps back up into the envelope on the first
    post-window step (a legal ``nu`` choice — only the fault windows
    themselves are illegal). If the snapped-back envelope lands above a
    clock deadline the lagging clock never reached, the jump stops *at*
    the cap — the overdue action becomes urgent and fires before time
    passes again, exactly the late-firing semantics of crash recovery
    (see :meth:`repro.core.clock_transform.ClockNodeEntity.on_recover`).
    """

    def __init__(self, inner: ClockDriver, windows):
        super().__init__(inner.eps)
        self.inner = inner
        self.windows = tuple(windows)

    def _excess_at(self, now: float) -> float:
        for window in self.windows:
            if window.active(now):
                return window.excess
        return 0.0

    def desired(self, now: float, clock: float, new_now: float) -> float:
        excess = self._excess_at(new_now)
        base = self.inner.desired(now, clock, new_now)
        if excess > 0:
            return max(base, new_now + self.eps + excess)
        if excess < 0:
            return min(base, new_now - self.eps + excess)
        return base

    def step(self, now: float, clock: float, new_now: float, cap: float) -> float:
        excess = self._excess_at(new_now)
        pos = max(excess, 0.0)
        neg = max(-excess, 0.0)
        # Widened envelope; ``hi`` floored at ``clock`` so a fast clock
        # left stranded above ``new_now + eps`` after its window closes
        # holds constant instead of raising ClockEnvelopeError.
        lo = max(clock, new_now - self.eps - neg, 0.0)
        hi = min(cap, max(new_now + self.eps + pos, clock))
        if lo > hi + _TOLERANCE:
            # The widened window can only be empty when the cap binds:
            # ``hi`` is floored at ``clock``, so ``lo > hi`` means a
            # window just closed with the re-tightened lower envelope
            # above a pending clock deadline the slow clock never hit.
            # Stop at the cap; the deadline fires late, then the clock
            # resumes its jump into the envelope.
            if hi >= clock - _TOLERANCE:
                return hi
            raise ClockEnvelopeError(
                f"no feasible clock value: window [{lo:g}, {hi:g}] is empty "
                f"(now {now:g} -> {new_now:g}, clock {clock:g}, cap {cap:g}, "
                f"eps {self.eps:g}, fault excess {excess:+g})"
            )
        proposal = self.desired(now, clock, new_now)
        return min(max(proposal, lo), hi)

    def solve_cap(self, now: float, clock: float, cap: float) -> float:
        return self.inner.solve_cap(now, clock, cap)

    def target_now(self, now: float, clock: float, cap: float) -> float:
        """Deadline mapping aware of the widened trajectories.

        A positive-excess window can push the clock to its cap *early*
        (as soon as ``new_now + eps + excess`` reaches the cap, but not
        before the window opens); a negative-excess window can hold it
        below the cap *past* ``cap + eps`` (until the widened lower
        envelope — or the window's end — forces it over). Without this
        correction the engine would wake the node at the un-faulted
        instant and either miss the early firing or spin on a deadline
        already in the past.
        """
        if cap == INFINITY:
            return INFINITY
        if cap <= clock + _TOLERANCE:
            return now
        target = self.inner.target_now(now, clock, cap)
        for window in self.windows:
            if window.excess > 0:
                t = max(window.start, cap - self.eps - window.excess)
                if t < window.end - _TOLERANCE and now + _TOLERANCE < t < target:
                    target = t
            elif window.active(target):
                forced = min(cap + self.eps - window.excess, window.end)
                target = max(target, forced)
        return target

    def __repr__(self) -> str:
        return (
            f"<FaultyClockDriver over {self.inner!r} "
            f"{len(self.windows)} window(s)>"
        )


DriverFactory = Callable[[int], ClockDriver]
"""A factory producing a fresh driver for node ``i`` (drivers may be
stateful, so each node of each run needs its own instance)."""


def driver_factory(
    kind: str, eps: float, seed: int = 0, **kwargs
) -> DriverFactory:
    """Build a per-node driver factory by name.

    ``kind`` is one of ``perfect``, ``fast``, ``slow``, ``skewed``,
    ``drift``, ``sawtooth``, ``random``, ``mixed``. ``mixed`` assigns
    alternating fast/slow/random drivers by node index — a convenient
    worst case where communicating nodes disagree by the full ``2*eps``.
    """

    def make(node: int) -> ClockDriver:
        if kind == "perfect":
            return PerfectClockDriver(eps)
        if kind == "fast":
            return FastClockDriver(eps)
        if kind == "slow":
            return SlowClockDriver(eps)
        if kind == "skewed":
            return SkewedClockDriver(eps, kwargs.get("beta", eps / 2.0))
        if kind == "drift":
            return DriftingClockDriver(eps, kwargs.get("rho", 1.0005))
        if kind == "sawtooth":
            return SawtoothClockDriver(
                eps,
                kwargs.get("rho", 1.001),
                kwargs.get("period", 10.0),
            )
        if kind == "random":
            return RandomWalkClockDriver(eps, seed + node * 7919)
        if kind == "mixed":
            cycle = node % 3
            if cycle == 0:
                return FastClockDriver(eps)
            if cycle == 1:
                return SlowClockDriver(eps)
            return RandomWalkClockDriver(eps, seed + node * 7919)
        raise ValueError(f"unknown clock driver kind: {kind!r}")

    return make
