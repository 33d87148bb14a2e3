"""Benchmark: regenerate Figure 4 (ResNet18 task set: throughput and LP DMR)."""

from conftest import emit, run_once

from repro.experiments import fig4_6_main
from repro.experiments.engine import run_experiment


def test_bench_fig4_resnet18(benchmark):
    rows = run_once(
        benchmark, run_experiment, "fig4_6", params={"model_name": "resnet18"}
    ).rows
    emit("Figure 4: ResNet18 scheduling results", rows)

    best = fig4_6_main.best_row(rows)
    upper_baseline = fig4_6_main.PAPER_HIGHLIGHTS["resnet18"]["upper_baseline"]
    # DARIS beats the pure-batching upper baseline without batching, and the
    # best configuration uses the MPS policy (paper Section VI-1).
    assert best["total_jps"] > upper_baseline
    assert best["policy"] == "MPS"
    # (Essentially) no HP deadline misses anywhere in the sweep.
    assert all(row["hp_dmr"] <= 0.01 for row in rows)
