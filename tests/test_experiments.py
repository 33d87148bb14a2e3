"""Smoke and invariant tests for the experiment harness (reduced settings).

The full grids are exercised by the benchmark suite; here every experiment
module is run with tiny horizons to validate row structure and the headline
invariants that the rest of the repository depends on.
"""

import pytest

from repro.dnn.zoo import build_model
from repro.experiments import cli
from repro.experiments.engine import run_experiment
from repro.experiments.runner import run_daris_scenario
from repro.experiments.scenarios import (
    best_config_for,
    horizon_ms,
    main_grid,
    mps_configs,
    oversubscription_options,
    str_configs,
    worst_dmr_config,
)
from repro.rt.taskset import table2_taskset
from repro.scheduler.config import DarisConfig, Policy


def test_oversubscription_options_respect_bounds():
    assert oversubscription_options(1) == [1.0]
    options = oversubscription_options(6)
    assert options[0] == 1.0 and options[-1] == 6.0
    assert all(1.0 <= value <= 6.0 for value in options)
    assert len(oversubscription_options(6, quick=True)) <= 2


def test_main_grid_covers_all_policies():
    grid = main_grid(quick=True)
    policies = {config.policy for config in grid}
    assert policies == {Policy.STR, Policy.MPS, Policy.MPS_STR}
    assert all(2 <= config.max_parallel_jobs <= 10 for config in grid)
    assert len(main_grid(quick=False)) > len(grid)


def test_best_and_worst_configs_match_paper():
    assert best_config_for("resnet18").label() == "MPS 6x1 OS6"
    assert best_config_for("inceptionv3").label() == "MPS 8x1 OS8"
    assert worst_dmr_config().label() == "MPS+STR 3x3 OS1"
    assert horizon_ms(quick=True) < horizon_ms(quick=False)


def test_str_and_mps_config_lists_have_expected_shapes():
    assert all(config.policy is Policy.STR for config in str_configs())
    assert all(config.policy is Policy.MPS for config in mps_configs(quick=True))


def test_runner_produces_scenario_result(resnet18):
    taskset = table2_taskset("resnet18", model=resnet18, scale=0.3)
    result = run_daris_scenario(
        taskset, DarisConfig.mps_config(3, 3.0), horizon_ms=800.0, seed=2, with_trace=True
    )
    assert result.total_jps > 0
    assert result.trace is not None and result.trace.stage_records
    assert result.label == "MPS 3x1 OS3"
    assert 0.0 <= result.lp_dmr <= 1.0 and 0.0 <= result.hp_dmr <= 1.0


def test_table2_experiment_rows_match_paper():
    rows = run_experiment("table2").rows
    assert len(rows) == 3
    for row in rows:
        assert row["num_high"] == row["paper_high"]
        assert row["num_low"] == row["paper_low"]


def test_fig2_virtual_deadline_rows_are_consistent():
    rows = run_experiment("fig2").rows
    models = {row["model"] for row in rows}
    assert models == {"resnet18", "resnet50", "unet", "inceptionv3"}
    for model in models:
        fractions = [row["deadline_fraction"] for row in rows if row["model"] == model]
        assert sum(fractions) == pytest.approx(1.0, abs=0.02)


def test_fig2_main_renders_a_table(capsys):
    assert cli.main(["run", "fig2", "--quick", "--no-cache"]) == cli.EXIT_OK
    table = capsys.readouterr().out.split("== fig2")[1]
    assert "deadline_fraction" in table and "resnet18" in table


def test_paper_highlights_present_for_every_main_figure():
    from repro.experiments.fig4_6_main import PAPER_HIGHLIGHTS

    assert set(PAPER_HIGHLIGHTS) == {"resnet18", "unet", "inceptionv3"}
    for name, values in PAPER_HIGHLIGHTS.items():
        model = build_model(name)
        assert values["lower_baseline"] == model.profile.single_stream_jps
