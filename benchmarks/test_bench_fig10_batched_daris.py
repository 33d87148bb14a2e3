"""Benchmark: regenerate Figure 10 (DARIS combined with input batching)."""

from conftest import emit, run_once

from repro.experiments.engine import run_experiment


def _run_all():
    rows = []
    for model_name in ("resnet18", "unet", "inceptionv3"):
        rows.extend(run_experiment("fig10", params={"model_name": model_name}).rows)
    return rows


def test_bench_fig10_batched_daris(benchmark):
    rows = run_once(benchmark, _run_all)
    emit("Figure 10: DARIS + batching", rows)

    def best_gain(model):
        return max(row["gain"] for row in rows if row["model"] == model)

    # InceptionV3 gains the most from batching on top of DARIS, UNet the least
    # (paper: >= 55 % versus <= 18 %).
    assert best_gain("inceptionv3") > best_gain("unet")
    assert best_gain("inceptionv3") > 1.2
    # Batched DARIS approaches the upper baseline even at low concurrency
    # (the paper exceeds it; the simulator gets within ~15 %).
    inception_rows = [row for row in rows if row["model"] == "inceptionv3"]
    assert any(
        row["batched_jps"] >= 0.85 * row["upper_baseline_jps"] for row in inception_rows
    )
