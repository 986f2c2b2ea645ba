"""Reproducing the Section 6.3 comparison at the command line.

Transformed algorithm S (ours) vs a time-sliced register designed
natively for inaccurate clocks ([10]-style baseline). Paper's claim in
the u-model (``u = 2*eps``):

====================  =============  ==============
latency               ours           [10]-style
====================  =============  ==============
read                  ``c + u``      ``4u``
write                 ``d2 - c + u`` ``d2 + 3u``
combined              ``d2 + 2u``    ``d2 + 7u``
====================  =============  ==============

Run::

    python examples/register_comparison.py [eps]
"""

import sys

from repro import (
    Clock,
    PassThroughMachine,
    RegisterWorkload,
    UniformDelay,
    clock_register_system,
    driver_factory,
    lower,
    register_design,
    run_register_experiment,
    with_clients,
)


def measure(build, label, seed=11):
    spec = build(RegisterWorkload(operations=8, read_fraction=0.5, seed=seed))
    run = run_register_experiment(spec, horizon=120.0)
    assert run.linearizable(), f"{label} produced a non-linearizable history!"
    return run


def main():
    eps = float(sys.argv[1]) if len(sys.argv) > 1 else 0.1
    u = 2 * eps
    n, d1, d2 = 3, 0.2, 1.0
    c = u  # a balanced choice; sweep it to trade reads vs writes

    ours = measure(
        lambda wl: clock_register_system(
            n=n, d1=d1, d2=d2, c=c, eps=eps, workload=wl,
            drivers=driver_factory("mixed", eps, seed=11),
            delay_model=UniformDelay(seed=11),
        ),
        "transformed S",
    )
    # the slotted register is designed for clocks: it runs as is,
    # through the pass-through machine, with no buffers
    native = Clock(
        eps, driver_factory("mixed", eps, seed=11), machine=PassThroughMachine
    )
    base = measure(
        lambda wl: with_clients(
            lower(
                register_design(native, n, d1, d2, c, eps, "slotted"),
                native, UniformDelay(seed=11),
            ),
            wl,
        ),
        "slotted baseline",
    )

    header = f"{'':24s}{'read':>10s}{'write':>10s}{'combined':>10s}"
    print(f"u = 2*eps = {u:.2f}, d2 = {d2}, c = {c:.2f}\n")
    print(header)
    for label, run in (("transformed S (ours)", ours),
                       ("[10]-style baseline", base)):
        combined = run.max_read_latency() + run.max_write_latency()
        print(f"{label:24s}{run.max_read_latency():10.3f}"
              f"{run.max_write_latency():10.3f}{combined:10.3f}")
    print(f"{'paper: ours':24s}{c + u:10.3f}{d2 - c + u:10.3f}{d2 + 2 * u:10.3f}")
    print(f"{'paper: [10]':24s}{4 * u:10.3f}{d2 + 3 * u:10.3f}{d2 + 7 * u:10.3f}")

    ours_combined = ours.max_read_latency() + ours.max_write_latency()
    base_combined = base.max_read_latency() + base.max_write_latency()
    print(f"\ncombined-latency gap: {base_combined - ours_combined:.3f} "
          f"(paper predicts about 5u = {5 * u:.3f})")
    assert ours_combined < base_combined


if __name__ == "__main__":
    main()
