"""Trace tooling: archive a run, reload it, re-check it, and draw it.

Simulations are fully deterministic, so traces are artifacts worth
keeping: this example runs a clock-model register experiment with its
event stream archived the way ``--trace-out`` does (a
:class:`~repro.obs.trace.JsonlTracer` file), reloads the file into a
:class:`~repro.sim.recorder.Recorder` with ``Recorder.from_trace``,
re-verifies linearizability on the *reloaded* trace, summarizes
per-kind latencies from the operations extracted out of it (no clients
involved), and renders ASCII timelines of both the real-time trace and
its clock-stamped ``gamma`` counterpart so the ``=_eps`` perturbation
of Theorem 4.7 is visible to the naked eye.

Run::

    python examples/trace_tooling.py [output.jsonl]

Without an output path the archive goes to a temporary file that is
removed afterwards.
"""

import os
import sys
import tempfile

from repro import (
    RegisterWorkload,
    UniformDelay,
    clock_register_system,
    driver_factory,
    extract_operations,
    is_linearizable,
    run_register_experiment,
)
from repro.analysis.stats import summarize
from repro.analysis.timeline import render_timeline
from repro.obs.trace import JsonlTracer, read_trace
from repro.registers.system import INITIAL_VALUE
from repro.sim.recorder import Recorder


def main():
    if len(sys.argv) > 1:
        archive(sys.argv[1])
        return
    with tempfile.TemporaryDirectory() as scratch:
        archive(os.path.join(scratch, "trace.jsonl"))


def archive(path):
    eps = 0.15
    spec = clock_register_system(
        n=3, d1=0.2, d2=1.0, c=0.3, eps=eps,
        workload=RegisterWorkload(operations=4, read_fraction=0.5, seed=12),
        drivers=driver_factory("mixed", eps, seed=12),
        delay_model=UniformDelay(seed=12),
    )
    tracer = JsonlTracer(path)
    try:
        run = run_register_experiment(spec, 60.0, tracer=tracer)
    finally:
        tracer.close()
    print(f"archived {len(run.result.recorder)} events to {path}")

    reloaded = Recorder.from_trace(read_trace(path))
    trace = reloaded.timed_trace()
    assert reloaded.events == run.result.recorder.events
    print(f"reloaded: {len(reloaded)} events; "
          f"linearizable = {is_linearizable(trace, INITIAL_VALUE)}")

    operations = extract_operations(trace)
    for kind, label in (("R", "read"), ("W", "write")):
        summary = summarize(op.latency for op in operations if op.kind == kind)
        print(f"{label:>6s}: n={summary.count} mean={summary.mean:.3f} "
              f"max={summary.maximum:.3f}")

    print("\nreal-time trace:")
    print(render_timeline(trace, width=70))
    print("\nclock-stamped trace (gamma of Definition 4.2 — each event "
          f"moved by at most eps = {eps}):")
    print(render_timeline(reloaded.clock_stamped_trace(), width=70))


if __name__ == "__main__":
    main()
