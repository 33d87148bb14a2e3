"""Benchmark: regenerate Figure 9 (execution time versus MRET prediction)."""

from conftest import emit, run_once

from repro.experiments.engine import run_experiment


def test_bench_fig9_mret(benchmark):
    rows = run_once(benchmark, run_experiment, "fig9").rows
    emit("Figure 9: execution time vs MRET", rows)

    by_config = {row["config"]: row for row in rows}
    good = by_config["6x1 OS6 (best throughput)"]
    volatile = by_config["3x3 OS1 (worst DMR)"]
    # MRET tracks execution tightly in the best-throughput configuration; in
    # the volatile 3x3 OS1 configuration execution times are larger and the
    # prediction error grows (paper Figure 9).
    assert good["jobs_traced"] > 50
    assert volatile["mean_exec_ms"] > good["mean_exec_ms"]
    assert volatile["mean_abs_error_ms"] > good["mean_abs_error_ms"]
