"""Benchmark: regenerate Figure 8 (DARIS module contributions)."""

from conftest import emit, run_once

from repro.experiments.engine import run_experiment


def test_bench_fig8_ablations(benchmark):
    rows = run_once(benchmark, run_experiment, "fig8").rows
    emit("Figure 8: module ablations", rows)

    by_variant = {row["variant"]: row for row in rows}
    daris = by_variant["DARIS"]
    # Full DARIS keeps HP deadline misses at zero.
    assert daris["hp_dmr"] == 0.0
    # Removing staging costs throughput (the paper reports a 33 % drop).
    assert by_variant["No Staging"]["normalized_jps"] < 1.0
    # No ablation improves on DARIS by more than noise.
    for name, row in by_variant.items():
        assert row["normalized_jps"] <= 1.1, name
