"""Benchmark: regenerate Table II (task-set composition and demanded load)."""

from conftest import emit, run_once

from repro.experiments.engine import run_experiment


def test_bench_table2_tasksets(benchmark):
    rows = run_once(benchmark, run_experiment, "table2").rows
    emit("Table II: task sets", rows)

    by_name = {row["task_set"]: row for row in rows}
    assert by_name["resnet18"]["num_high"] == 17 and by_name["resnet18"]["num_low"] == 34
    assert by_name["unet"]["num_high"] == 5 and by_name["unet"]["num_low"] == 10
    assert by_name["inceptionv3"]["num_high"] == 9 and by_name["inceptionv3"]["num_low"] == 18
    # Every set demands roughly 150 % of its upper baseline (the paper's overload).
    for row in rows:
        assert 1.2 <= row["load_vs_upper_baseline"] <= 1.7
