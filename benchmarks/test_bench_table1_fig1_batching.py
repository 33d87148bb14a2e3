"""Benchmark: regenerate Table I and Figure 1 (batching throughput per DNN)."""

from conftest import emit, run_once

from repro.experiments.engine import run_experiment


def test_bench_table1_fig1_batching(benchmark):
    rows = run_once(benchmark, run_experiment, "fig1_table1").rows
    emit("Table I / Figure 1: batching performance", rows)

    gains = {row["model"]: row for row in rows if row["batch_size"] == "gain"}
    # Qualitative shape from the paper: InceptionV3 benefits the most from
    # batching, UNet the least.
    assert gains["inceptionv3"]["normalized"] > gains["resnet18"]["normalized"]
    assert gains["unet"]["normalized"] < 1.3
    assert gains["inceptionv3"]["normalized"] > 2.0
