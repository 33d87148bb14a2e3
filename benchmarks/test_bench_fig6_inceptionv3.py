"""Benchmark: regenerate Figure 6 (InceptionV3 task set: throughput and LP DMR)."""

from conftest import emit, run_once

from repro.experiments import fig4_6_main
from repro.experiments.engine import run_experiment


def test_bench_fig6_inceptionv3(benchmark):
    rows = run_once(
        benchmark, run_experiment, "fig4_6", params={"model_name": "inceptionv3"}
    ).rows
    emit("Figure 6: InceptionV3 scheduling results", rows)

    best = fig4_6_main.best_row(rows)
    upper_baseline = fig4_6_main.PAPER_HIGHLIGHTS["inceptionv3"]["upper_baseline"]
    # InceptionV3 stays below its batching baseline without batching (paper: ~87 %).
    assert best["total_jps"] < upper_baseline
    assert best["total_jps"] > 0.75 * upper_baseline
    # It keeps benefitting from concurrency: 8 contexts beat 2 contexts under MPS.
    mps = [row for row in rows if row["policy"] == "MPS" and row["oversubscription"] > 1.0]
    small = max(r["total_jps"] for r in mps if r["parallel_dnns"] == 2)
    large = max(r["total_jps"] for r in mps if r["parallel_dnns"] == 8)
    assert large > small
