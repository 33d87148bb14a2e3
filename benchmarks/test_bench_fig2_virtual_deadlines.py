"""Benchmark: regenerate Figure 2 (staging and virtual deadline assignment)."""

from conftest import emit, run_once

from repro.experiments.engine import run_experiment


def test_bench_fig2_virtual_deadlines(benchmark):
    rows = run_once(benchmark, run_experiment, "fig2").rows
    emit("Figure 2: virtual deadlines per stage", rows)

    # Virtual deadline shares of each model sum to the task's relative deadline.
    per_model = {}
    for row in rows:
        per_model.setdefault(row["model"], 0.0)
        per_model[row["model"]] += row["deadline_fraction"]
    for model, total in per_model.items():
        assert abs(total - 1.0) < 0.02, model
