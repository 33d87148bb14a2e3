"""Figure 10: DARIS combined with input batching.

Batch sizes 4 / 2 / 8 are used for ResNet18 / UNet / InceptionV3 respectively.
For each network the experiment reports absolute throughput (Figure 10a-c),
the gain relative to the equivalent un-batched configuration (Figure 10d-f)
and the LP deadline miss rate (Figure 10g-i) across MPS configurations.
"""

from __future__ import annotations

from typing import Dict, List

from repro.dnn.zoo import build_model
from repro.experiments.parallel import ScenarioRequest
from repro.experiments.registry import (
    BuildContext,
    ExperimentPlan,
    ExperimentSpec,
    RowContext,
    register,
)
from repro.experiments.scenarios import horizon_ms, mps_configs
from repro.rt.taskset import table2_taskset

PAPER_GAIN_HINTS = {"resnet18": "moderate", "unet": "<= 18 %", "inceptionv3": ">= 55 %"}


def _build(ctx: BuildContext) -> ExperimentPlan:
    model_name = str(ctx.param("model_name", "resnet18"))
    model = build_model(model_name)
    batch_size = model.profile.preferred_batch_size
    horizon = horizon_ms(ctx.quick)
    unbatched = table2_taskset(model_name, model=model, batch_size=1)
    batched = table2_taskset(model_name, model=model, batch_size=batch_size)

    configs = mps_configs(ctx.quick)
    if ctx.quick:
        configs = configs[:4]
    # Two requests per configuration: the un-batched baseline then the
    # batched variant, interleaved so each row's pair is adjacent.
    requests: List[ScenarioRequest] = []
    for config in configs:
        requests.append(ScenarioRequest(unbatched, config, horizon, seed=ctx.seed))
        requests.append(ScenarioRequest(batched, config, horizon, seed=ctx.seed))

    def make_rows(row_ctx: RowContext) -> List[Dict[str, object]]:
        rows: List[Dict[str, object]] = []
        for index, config in enumerate(configs):
            base = row_ctx.results[2 * index]
            with_batching = row_ctx.results[2 * index + 1]
            base_jobs = base.total_jps
            batched_jobs = with_batching.total_jps * batch_size  # jobs, not batches
            rows.append(
                {
                    "model": model_name,
                    "batch_size": batch_size,
                    "config": f"{config.num_contexts}x{config.streams_per_context}",
                    "oversubscription": config.oversubscription,
                    "unbatched_jps": round(base_jobs, 1),
                    "batched_jps": round(batched_jobs, 1),
                    "gain": round(batched_jobs / base_jobs, 2) if base_jobs else 0.0,
                    "lp_dmr_batched": round(with_batching.lp_dmr, 4),
                    "upper_baseline_jps": model.profile.batched_max_jps,
                }
            )
        return rows

    return ExperimentPlan(requests=requests, make_rows=make_rows)


SPEC = register(
    ExperimentSpec(
        name="fig10",
        title="Figure 10: DARIS + input batching across MPS configurations",
        build=_build,
        highlights=PAPER_GAIN_HINTS,
        defaults={"model_name": "resnet18"},
    )
)
