"""Benchmark: regenerate Figure 11 (overloading and HP-to-LP ratios)."""

from conftest import emit, run_once

from repro.experiments.engine import run_experiment


def test_bench_fig11_overload(benchmark):
    rows = run_once(benchmark, run_experiment, "fig11").rows
    emit("Figure 11: overload and task ratios", rows)

    # Under full load there are no deadline misses for either priority.
    full_load = [row for row in rows if row["scenario"] == "full load"]
    assert all(row["hp_dmr"] == 0.0 and row["lp_dmr"] < 0.02 for row in full_load)

    # Overload+HPA keeps HP misses (near) zero even when HP demand is high,
    # at the cost of dropping some HP jobs.
    hpa = [row for row in rows if row["scenario"] == "overload+HPA"]
    assert all(row["hp_dmr"] <= 0.02 for row in hpa)

    # Plain overload with a high HP share produces more HP misses than HPA.
    overload_high_hp = [
        row for row in rows if row["scenario"] == "overload" and row["hp_fraction"] >= 0.5
    ]
    hpa_high_hp = [row for row in hpa if row["hp_fraction"] >= 0.5]
    if overload_high_hp and hpa_high_hp:
        assert max(r["hp_dmr"] for r in overload_high_hp) >= max(r["hp_dmr"] for r in hpa_high_hp)
