"""Benchmark: regenerate Figure 7 (mixed task set, STR vs MPS)."""

from conftest import emit, run_once

from repro.experiments.engine import run_experiment


def test_bench_fig7_mixed(benchmark):
    rows = run_once(benchmark, run_experiment, "fig7").rows
    emit("Figure 7: mixed task set", rows)

    best_mps = max((r for r in rows if r["policy"] == "MPS"), key=lambda r: r["total_jps"])
    best_str = max((r for r in rows if r["policy"] == "STR"), key=lambda r: r["total_jps"])
    # MPS achieves the highest throughput; STR keeps LP misses (near) zero.
    assert best_mps["total_jps"] >= best_str["total_jps"]
    str_rows = [r for r in rows if r["policy"] == "STR"]
    assert max(r["lp_dmr"] for r in str_rows) < 0.05
    # HP misses stay negligible for every reasonably sized configuration
    # (tiny Np=2 configurations are allowed a small residual rate).
    assert all(r["hp_dmr"] < 0.05 for r in rows)
    assert best_mps["hp_dmr"] < 0.01
