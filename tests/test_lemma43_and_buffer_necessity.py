"""Lemma 4.3's rate transfer, and why the Figure 2 buffers exist.

Lemma 4.3: if the timed automaton emits at most ``k`` outputs per window
of length ``k*l``, so does its clock transformation *in clock time*.
Measured here by comparing ``smallest_k`` of the timed trace against the
clock-stamped trace of the transformed run.

Buffer necessity: without receive buffering, a message from a
fast-clocked sender to a slow-clocked receiver is received at a clock
time *before* it was sent (negative clock-time delay) whenever
``2*eps > d1`` — the impossible-in-the-timed-model situation the
buffers exist to exclude. The transformed system never exhibits it; the
same algorithm run natively on the clocks (no buffers) does.
"""

import pytest

from helpers import pinger_process_factory, pinger_topology
from repro.automata.actions import ActionPattern, PatternActionSet
from repro.core.clock_transform import PassThroughMachine
from repro.core.pipeline import (
    Clock,
    Design,
    build_clock_system,
    build_timed_system,
    lower,
    simulation1_delay_bounds,
)
from repro.core.rate import check_output_rate, smallest_k
from repro.sim.clock_drivers import FastClockDriver, SlowClockDriver
from repro.sim.delay import MinimalDelay, UniformDelay

OUTPUTS = PatternActionSet(
    [ActionPattern("PING"), ActionPattern("GOTPONG"), ActionPattern("SENDMSG")]
)


class TestLemma43RateTransfer:
    def test_clock_stamped_rate_no_worse_than_timed(self):
        eps, d1, d2, ell = 0.2, 0.3, 1.0, 0.25
        d1p, d2p = simulation1_delay_bounds(d1, d2, eps)
        timed = build_timed_system(
            pinger_topology(), pinger_process_factory(6, 2.0), d1p, d2p,
            UniformDelay(seed=2),
        ).run(25.0)
        k_timed = smallest_k(timed.schedule, ell, OUTPUTS)
        assert k_timed is not None

        clock = build_clock_system(
            pinger_topology(), pinger_process_factory(6, 2.0), eps, d1, d2,
            drivers=lambda i: FastClockDriver(eps) if i == 0 else SlowClockDriver(eps),
            delay_model=UniformDelay(seed=2),
        ).run(25.0)
        stamped = clock.recorder.clock_stamped_trace(visible_only=False)
        restricted = stamped.restrict(OUTPUTS)
        # Lemma 4.3: the (k_timed, ell) restriction transfers
        assert check_output_rate(restricted, k_timed, ell)

    def test_rate_checker_rejects_burstier_schedule(self):
        """Sanity: the transfer statement is not vacuous — a burstier
        window bound fails on the same trace."""
        eps, d1, d2 = 0.2, 0.3, 1.0
        clock = build_clock_system(
            pinger_topology(), pinger_process_factory(6, 2.0), eps, d1, d2,
            drivers=lambda i: FastClockDriver(eps) if i == 0 else SlowClockDriver(eps),
            delay_model=UniformDelay(seed=2),
        ).run(25.0)
        stamped = clock.recorder.clock_stamped_trace(visible_only=False)
        restricted = stamped.restrict(OUTPUTS)
        # a ping burst is PING + SENDMSG back-to-back: k=1 cannot hold
        # for any window that spans both
        assert not check_output_rate(restricted, 1, 1.0)


def one_hop_clock_delays(result):
    """Echo-send clock minus pinger-send clock, per ping index.

    The echo replies urgently on receipt, so its send clock equals the
    receive clock of the ping at node 1.
    """
    ping_send = {}
    delays = []
    for record in result.recorder.events:
        if record.action.name == "SENDMSG" and record.clock is not None:
            payload = record.action.params[2]
            if payload[0] == "ping":
                ping_send[payload[1]] = record.clock
            elif payload[0] == "pong":
                delays.append(record.clock - ping_send[payload[1]])
    return delays


class TestBufferNecessity:
    EPS, D1, D2 = 0.4, 0.1, 0.8  # 2*eps >> d1: the buffering regime

    def drivers(self, i):
        # fast sender, slow receiver: the worst pair
        return FastClockDriver(self.EPS) if i == 0 else SlowClockDriver(self.EPS)

    def test_without_buffers_clock_delays_go_negative(self):
        spec = lower(
            Design(
                pinger_topology(), pinger_process_factory(6, 2.0),
                self.D1, self.D2,
            ),
            Clock(self.EPS, self.drivers, machine=PassThroughMachine),
            MinimalDelay(),
        )
        delays = one_hop_clock_delays(spec.run(20.0))
        assert delays, "expected completed round trips"
        assert min(delays) < -1e-9, (
            "without buffering, the Lamport violation should appear"
        )

    def test_with_buffers_clock_delays_stay_in_design_range(self):
        spec = build_clock_system(
            pinger_topology(), pinger_process_factory(6, 2.0),
            self.EPS, self.D1, self.D2,
            drivers=self.drivers, delay_model=MinimalDelay(),
        )
        result = spec.run(20.0)
        lo, hi = simulation1_delay_bounds(self.D1, self.D2, self.EPS)
        sends = {}
        checked = 0
        for record in result.recorder.events:
            if record.action.name == "ESENDMSG":
                message, stamp = record.action.params[2]
                sends[message] = stamp
            elif record.action.name == "RECVMSG" and record.clock is not None:
                delay = record.clock - sends[record.action.params[2]]
                assert lo - 1e-9 <= delay <= hi + 1e-9
                checked += 1
        assert checked >= 10
