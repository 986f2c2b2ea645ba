"""The full realistic stack: timed design -> clock model -> MMT model.

This example composes everything the paper builds, end to end:

1. The Figure 3 register algorithm, written against perfect real time.
2. Simulation 1 (Theorem 4.7): the clock transformation with send and
   receive buffers.
3. Simulation 2 (Theorems 5.1/5.2): the MMT transformation — nodes have
   *no* direct access to time at all; they learn the clock through
   ``TICK`` inputs and take steps at most ``l`` apart.
4. A *simulated clock synchronization service* (the paper cites NTP
   [12]): each node's clock source is a drifting hardware oscillator
   disciplined by periodic Cristian-style exchanges with a time server;
   the achieved envelope is the ``eps`` the transformation needs.

The run demonstrates Theorem 5.2: the composed system still implements a
linearizable register.

Run::

    python examples/realistic_stack.py
"""

from repro import (
    MMT,
    RegisterWorkload,
    UniformDelay,
    UniformStepPolicy,
    lower,
    register_design,
    run_register_experiment,
    simulation2_shift_bound,
    with_clients,
)
from repro.clocks.sync import SynchronizedClockSource, achievable_epsilon


def main():
    # --- the clock subsystem: NTP-like sync over a LAN ----------------
    rho = 1.0015           # hardware oscillators drift ~1500 ppm
    sync_period = 5.0      # resynchronize every 5 time units
    sync_d1, sync_d2 = 0.005, 0.04  # the sync network's delay bounds
    horizon = 150.0

    eps = achievable_epsilon(rho, sync_period, sync_d1, sync_d2)
    print(f"clock sync service achieves eps = {eps:.4f} "
          f"(drift {abs(rho - 1) * 1e6:.0f} ppm, period {sync_period})")

    def sources(i: int):
        # every node disciplines its own oscillator (fast/slow alternating)
        node_rho = rho if i % 2 == 0 else 2.0 - rho
        return SynchronizedClockSource(
            node_rho, sync_period, sync_d1, sync_d2, horizon, seed=100 + i
        )

    # --- the application network and algorithm parameters --------------
    n, d1, d2, c = 3, 0.2, 1.0, 0.3
    step_bound = 0.05      # processors take a step at least every 0.05

    workload = RegisterWorkload(
        operations=8, read_fraction=0.5, think_min=0.4, think_max=1.8, seed=21
    )

    mmt = MMT(
        eps, step_bound, sources,
        step_policy=lambda i: UniformStepPolicy(seed=i),
    )
    design = register_design(mmt, n, d1, d2, c, eps)
    spec = with_clients(lower(design, mmt, UniformDelay(seed=21)), workload)

    run = run_register_experiment(spec, horizon, max_steps=3_000_000)

    k = 4  # outputs per burst: n update sends + one response
    shift = simulation2_shift_bound(k, step_bound, eps)
    print(f"\nMMT register system ({n} nodes, l = {step_bound}):")
    print(f"  completed ops    : {len(run.operations)}")
    print(f"  max read latency : {run.max_read_latency():.3f}"
          f"  (clock-model bound {2 * eps + 0.01 + c:.3f}"
          f" + shift <= {shift:.3f})")
    print(f"  max write latency: {run.max_write_latency():.3f}"
          f"  (clock-model bound {d2 + 2 * eps - c:.3f}"
          f" + shift <= {shift:.3f})")
    print(f"  linearizable     : {run.linearizable()}")
    print(f"  engine events    : {len(run.result.recorder)}")

    assert run.linearizable()
    print("\nno process ever read real time; no process even read a clock "
          "register — ticks, steps, and messages were all it had.")


if __name__ == "__main__":
    main()
