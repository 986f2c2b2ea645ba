"""The committed experiment tables are what the code produces, today.

``benchmarks/results/`` is written only by ``benchmarks/run_all.py``
through :func:`repro.experiments.write_result`; each experiment is run
again here, must reproduce (every boolean shape ``True``), and the same
writer must give back the committed files byte for byte — a change that
moves a table fails until the table is regenerated and the prose that
quotes it is looked at.
"""

import os

import pytest

from repro.clocks.protocol import build_sync_protocol_system, software_clock_errors
from repro.experiments import ALL_EXPERIMENTS, run_experiment, write_result
from repro.sim.delay import UniformDelay

RESULTS_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "benchmarks", "results",
)


@pytest.mark.parametrize("exp_id", list(ALL_EXPERIMENTS))
def test_experiment_reproduces_and_matches_the_committed_files(exp_id, tmp_path):
    result = run_experiment(exp_id)
    assert "wall_seconds" not in result
    failed = [k for k, v in result["shapes"].items() if v is False]
    assert not failed and result["ok"]
    write_result(result, str(tmp_path))
    for name in (f"{exp_id}.json", f"{exp_id}.txt"):
        committed = os.path.join(RESULTS_DIR, name)
        with open(committed, "rb") as handle:
            assert (tmp_path / name).read_bytes() == handle.read(), (
                f"{committed} is stale: run `python benchmarks/run_all.py`"
            )


def test_results_directory_holds_exactly_the_registry():
    assert set(os.listdir(RESULTS_DIR)) == {
        exp_id + ext for exp_id in ALL_EXPERIMENTS for ext in (".json", ".txt")
    }


def test_sync_protocol_reports_one_error_series_per_client():
    """The one assertion of the deleted benchmark wrappers that no shape
    or other tier-1 test implied (EXT4 itself runs a single client)."""
    spec = build_sync_protocol_system(
        2, 0.01, 0.08, 5.0, [1.003, 0.998], delay_model=UniformDelay(seed=5)
    )
    assert sorted(software_clock_errors(spec.run(80.0))) == [1, 2]
