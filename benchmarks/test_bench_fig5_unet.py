"""Benchmark: regenerate Figure 5 (UNet task set: throughput and LP DMR)."""

from conftest import emit, run_once

from repro.experiments import fig4_6_main
from repro.experiments.engine import run_experiment


def test_bench_fig5_unet(benchmark):
    rows = run_once(
        benchmark, run_experiment, "fig4_6", params={"model_name": "unet"}
    ).rows
    emit("Figure 5: UNet scheduling results", rows)

    best = fig4_6_main.best_row(rows)
    upper_baseline = fig4_6_main.PAPER_HIGHLIGHTS["unet"]["upper_baseline"]
    assert best["total_jps"] > upper_baseline * 0.98
    assert best["policy"] == "MPS"
    # UNet is the least sensitive network: LP DMR stays low across the sweep.
    assert all(row["lp_dmr"] < 0.10 for row in rows)
