"""Parallel parameter-sweep campaigns over the simulator.

The paper's results — Theorem 4.7's simulation guarantee, Theorem 5.1's
shift bound, the Lemma 6.1/6.2 register latency bounds — are statements
about how behavior varies with ``eps``, ``[d1, d2]``, and ``n``. This
package runs that variation systematically: a :class:`Grid` spec
expands cartesian products over those parameters (plus workload, fault
model, and deterministic seed batches) into grid points; a
:class:`CampaignRunner` distributes the points across a process pool with
per-task timeouts and bounded retry of crashed or hung workers (falling
back to serial execution where processes are unavailable); a
:class:`Checkpoint` makes interrupted campaigns resumable; and an
:class:`Aggregator` merges the per-run metrics snapshots into
campaign-level summaries — percentile latencies, violation counts,
skew-vs-eps curves — exported as JSONL and CSV.

The whole pipeline is deterministic: the same grid and seeds produce a
byte-identical aggregate whether run with 1 worker or N, straight
through or across an interruption and resume.

Entry points: ``python -m repro sweep`` (see ``docs/campaign.md``), or
programmatically::

    from repro.campaign import Aggregator, CampaignRunner, Checkpoint, Grid

    grid = Grid({"eps": [0.05, 0.1, 0.2]}, seeds=4)
    runner = CampaignRunner(workers=4)
    outcomes = runner.run(grid.points())
    payload = Aggregator(grid.grid_id()).build(outcomes)
"""

from repro.campaign.aggregate import (
    AGGREGATE_FORMAT,
    AGGREGATE_VERSION,
    Aggregator,
    CSV_COLUMNS,
)
from repro.campaign.checkpoint import (
    CHECKPOINT_FORMAT,
    CHECKPOINT_VERSION,
    Checkpoint,
)
from repro.campaign.grid import AXES, DEFAULTS, Grid, RUN_DEFAULTS, point_key
from repro.campaign.runner import (
    CampaignRunner,
    DEFAULT_TASK,
    Outcome,
    resolve_task,
)
from repro.campaign.worker import run_point

__all__ = [
    "AGGREGATE_FORMAT",
    "AGGREGATE_VERSION",
    "AXES",
    "Aggregator",
    "CHECKPOINT_FORMAT",
    "CHECKPOINT_VERSION",
    "CSV_COLUMNS",
    "CampaignRunner",
    "Checkpoint",
    "DEFAULTS",
    "DEFAULT_TASK",
    "Grid",
    "Outcome",
    "RUN_DEFAULTS",
    "point_key",
    "resolve_task",
    "run_point",
]
