"""Benchmark: regenerate the Section VI-B state-of-the-art comparison (ResNet50)."""

from conftest import emit, run_once

from repro.experiments.engine import run_experiment


def test_bench_sota_resnet50(benchmark):
    rows = run_once(benchmark, run_experiment, "sota").rows
    emit("Section VI-B: ResNet50 comparison", rows)

    by_system = {row["system"]: row for row in rows}
    batching = by_system["pure batching (upper baseline)"]["measured_jps"]
    daris = by_system["DARIS (MPS 6x1 OS6)"]["measured_jps"]
    no_os = by_system["DARIS without oversubscription (OS1)"]["measured_jps"]
    clockwork = by_system["Clockwork-like (one DNN at a time)"]["measured_jps"]

    # Shape from the paper: DARIS beats batching; removing oversubscription
    # hurts badly; the one-at-a-time predictable server is far below all of them.
    assert daris > batching
    assert no_os < daris
    assert clockwork < batching
