"""One design, every lowering: the combinations the per-model builders
used to refuse, and the one refusal that stays.

Each runs through a public entry point: ``register_system``, the
campaign worker's ``run_point`` and the CLI.
"""

import pytest

from repro.automata.actions import ActionPattern, PatternActionSet
from repro.campaign import Grid
from repro.campaign.worker import run_point
from repro.cli import build_parser, main
from repro.core.pipeline import simulation2_shift_bound
from repro.core.rate import smallest_k
from repro.errors import SpecificationError
from repro.objects import CounterSpec
from repro.registers.algorithm_s import theorem_bounds
from repro.registers.system import (
    MODELS,
    register_system,
    run_register_experiment,
)
from repro.registers.workload import RegisterWorkload

N, D1, D2, C, EPS, DELTA = 3, 0.2, 1.0, 0.3, 0.1, 0.01
STEP_BOUND = 0.05


def _system(model, seed, **kwargs):
    workload = RegisterWorkload(operations=6, read_fraction=0.5, seed=seed)
    return register_system(
        model, N, D1, D2, C, EPS, workload, "mixed", STEP_BOUND, DELTA,
        **kwargs,
    )


class TestObjectUnderMMT:
    """Theorem 5.2 applies to the object process as to the register."""

    @pytest.mark.parametrize("seed", [0, 1])
    def test_counter_is_linearizable_within_the_composed_bound(self, seed):
        spec = CounterSpec()
        workload = RegisterWorkload(
            operations=10, read_fraction=0.5, seed=seed,
            think_min=0.3, think_max=1.5,
        )
        system = register_system(
            "mmt", N, D1, D2, C, EPS, workload, "mixed", STEP_BOUND, DELTA,
            spec=spec,
        )
        run = run_register_experiment(
            system, 80.0, max_steps=3_000_000, spec=spec
        )
        assert len(run.operations) >= 20
        assert run.linearizable()
        # k: each node's largest burst of outputs per l, measured
        k = max(
            smallest_k(run.result.schedule, STEP_BOUND, PatternActionSet([
                ActionPattern(name, (i,))
                for name in ("ESENDMSG", "REPLY", "DONE")
            ]))
            for i in range(N)
        )
        shift = simulation2_shift_bound(k, STEP_BOUND, EPS)
        # the real-time bounds already carry the 2*eps clock stretch
        bounds = theorem_bounds("clock", EPS, C, DELTA, D2)
        assert run.max_read_latency() <= bounds["read_real"] + shift + 1e-9
        assert run.max_write_latency() <= bounds["write_real"] + shift + 1e-9


class TestLossyChannelsUnderEveryModel:
    @pytest.mark.parametrize("model", ["timed", "baseline", "mmt"])
    def test_register_over_arq_is_linearizable(self, model):
        run = run_register_experiment(
            _system(model, seed=1, p_drop=0.2), 60.0, max_steps=3_000_000
        )
        dropped = sum(
            state.dropped for name, state in run.result.final_states.items()
            if name.startswith("lossychan")
        )
        assert dropped > 0
        assert run.operations and run.linearizable()

    @pytest.mark.parametrize("model", MODELS)
    def test_a_lossy_campaign_point_runs(self, model):
        (point,) = Grid({"model": [model], "fault": ["lossy"]}).points()
        result = run_point(point)["result"]
        assert result["operations"] > 0
        assert result["violations"] == 0


class TestFaultPlans:
    def test_a_plan_runs_on_the_baseline(self):
        (point,) = Grid(
            {"model": ["baseline"], "fault": ["plan"], "plan_seed": [2]}
        ).points()
        result = run_point(point)["result"]
        assert result["operations"] > 0
        assert isinstance(result["linearizable"], bool)

    @pytest.mark.parametrize("model", ["timed", "mmt"])
    def test_a_clock_window_needs_a_clock_driver(self, model):
        # plan seed 2 draws a clock fault; timed nodes keep perfect
        # time, and MMT nodes read tick sources, not drivers
        (point,) = Grid(
            {"model": [model], "fault": ["plan"], "plan_seed": [2]}
        ).points()
        with pytest.raises(SpecificationError, match="has no clock driver"):
            run_point(point)


class TestModelVocabulary:
    @pytest.mark.parametrize("command", ["register", "trace", "object"])
    def test_cli_model_choices_are_the_table(self, command):
        parser = build_parser()
        for name in MODELS:
            assert parser.parse_args([command, "--model", name]).model == name
        with pytest.raises(SystemExit):
            parser.parse_args([command, "--model", "quantum"])

    def test_unknown_model_lists_the_known_names(self):
        with pytest.raises(SpecificationError) as info:
            _system("quantum", seed=0)
        assert str(info.value) == (
            "unknown model 'quantum'; known: " + ", ".join(MODELS)
        )

    def test_object_on_the_baseline_is_a_different_design(self, capsys):
        assert main(["object", "--model", "baseline", "--ops", "2"]) == 2
        err = capsys.readouterr().err
        assert "the slotted register is a different design" in err

    def test_object_under_mmt_from_the_cli(self, capsys):
        code = main(["object", "--model", "mmt", "--ops", "3",
                     "--horizon", "40", "--step-bound", "0.1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "object=counter model=mmt" in out
