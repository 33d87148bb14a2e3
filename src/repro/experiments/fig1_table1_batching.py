"""Figure 1 / Table I: batching throughput of each DNN.

For every benchmark network the single-stream throughput (Table I ``min``),
the saturated batched throughput across batch sizes (Figure 1) and the
resulting batching gain (Table I ``gain``) are measured on the simulated GPU
as saturated requests to the lower / upper baseline backends: one ``single``
request per model and one ``batching_server`` request per batch size
above 1.

The baseline servers are deterministic (no scheduling noise), so the
experiment registers as non-replicable: the ``--seeds`` axis does not apply.
"""

from __future__ import annotations

from typing import Dict, List

from repro.backends.configs import BatchingConfig, SingleConfig
from repro.dnn.zoo import available_models, build_model
from repro.experiments.parallel import ScenarioRequest
from repro.experiments.registry import (
    BuildContext,
    ExperimentPlan,
    ExperimentSpec,
    RowContext,
    register,
)
from repro.rt.taskset import make_taskset
from repro.sim.workload import SATURATED_WORKLOAD

PAPER_TABLE1 = {
    "resnet18": {"min_jps": 627.0, "max_jps": 1025.0, "gain": 1.63},
    "resnet50": {"min_jps": 250.0, "max_jps": 433.0, "gain": 1.73},
    "unet": {"min_jps": 241.0, "max_jps": 260.0, "gain": 1.08},
    "inceptionv3": {"min_jps": 142.0, "max_jps": 446.0, "gain": 3.13},
}

BATCH_SIZES = [1, 2, 4, 8, 16, 32]


def _build(ctx: BuildContext) -> ExperimentPlan:
    horizon = 1000.0 if ctx.quick else 3000.0
    batch_sizes = [1, 4, 16] if ctx.quick else BATCH_SIZES
    models = available_models()
    requests: List[ScenarioRequest] = []
    for name in models:
        # One task of the model; a saturated request ignores its rate.
        taskset = make_taskset(
            [build_model(name)], num_high=0, num_low=1, task_jps=1.0, name=f"table1/{name}"
        )
        for batch in batch_sizes:
            requests.append(
                ScenarioRequest(
                    taskset,
                    SingleConfig() if batch == 1 else BatchingConfig(batch_size=batch),
                    horizon,
                    seed=ctx.seed,
                    scheduler="single" if batch == 1 else "batching_server",
                    workload=SATURATED_WORKLOAD,
                )
            )

    def make_rows(row_ctx: RowContext) -> List[Dict[str, object]]:
        results = iter(row_ctx.results)
        rows: List[Dict[str, object]] = []
        for name in models:
            jps_by_batch = {batch: next(results).total_jps for batch in batch_sizes}
            single_jps = jps_by_batch[1]
            for batch, jps in jps_by_batch.items():
                rows.append(
                    {
                        "model": name,
                        "batch_size": batch,
                        "measured_jps": round(jps, 1),
                        "normalized": round(jps / single_jps, 2) if single_jps else 0.0,
                    }
                )
            best_jps = max(jps_by_batch.values())
            paper = PAPER_TABLE1[name]
            rows.append(
                {
                    "model": name,
                    "batch_size": "gain",
                    "measured_jps": round(best_jps, 1),
                    "normalized": round(best_jps / single_jps, 2) if single_jps else 0.0,
                    "paper_min": paper["min_jps"],
                    "paper_max": paper["max_jps"],
                    "paper_gain": paper["gain"],
                }
            )
        return rows

    return ExperimentPlan(requests=requests, make_rows=make_rows)


SPEC = register(
    ExperimentSpec(
        name="fig1_table1",
        title="Figure 1 / Table I: batching throughput curves and gains",
        build=_build,
        highlights=PAPER_TABLE1,
        replicable=False,
    )
)
