#!/usr/bin/env python3
"""Batching study: is batching necessary, and does it compose with DARIS?

Reproduces the questions of paper Sections II-C and VI-H on the simulated GPU:

1. how much does pure batching help each network (Figure 1 / Table I), and
2. what does batching add on top of DARIS co-location (Figure 10)?
"""

from repro import DarisConfig, build_model, run_daris_scenario, table2_taskset
from repro.analysis import format_table
from repro.experiments import run_experiment


def main() -> None:
    # Part 1: pure batching curves (Figure 1 / Table I): the single-tenant and
    # saturated batching baselines, run as backend requests by the engine.
    print("pure batching (upper baseline):")
    print(format_table(run_experiment("fig1_table1").rows))

    # Part 2: DARIS with and without batching (Figure 10).
    rows = []
    for name in ("resnet18", "unet", "inceptionv3"):
        model = build_model(name)
        batch = model.profile.preferred_batch_size
        config = DarisConfig.mps_config(6, 6.0)
        unbatched = run_daris_scenario(
            table2_taskset(name, model=model), config, horizon_ms=2500.0, seed=5
        )
        batched = run_daris_scenario(
            table2_taskset(name, model=model, batch_size=batch), config, horizon_ms=2500.0, seed=5
        )
        rows.append(
            {
                "model": name,
                "batch": batch,
                "daris_jps": round(unbatched.total_jps, 1),
                "daris_batched_jps": round(batched.total_jps * batch, 1),
                "gain": round(batched.total_jps * batch / unbatched.total_jps, 2),
                "upper_baseline": model.profile.batched_max_jps,
            }
        )
    print("\nDARIS with batching (batch sizes 4/2/8 as in the paper):")
    print(format_table(rows))
    print(
        "\npaper expectation: batching on top of DARIS needs fewer parallel tasks to"
        " beat the upper baseline; InceptionV3 gains the most (>= 55%), UNet the least (<= 18%)."
    )


if __name__ == "__main__":
    main()
