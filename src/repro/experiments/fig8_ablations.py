"""Figure 8: contribution of the DARIS modules.

DARIS is compared against four degraded variants of itself (No Staging, No
Last, No Prior, No Fixed) on the ResNet18 task set under the best-throughput
configuration.  The paper reports response-time ranges per priority
(Figure 8a) and throughput normalized to full DARIS (Figure 8b).
"""

from __future__ import annotations

from typing import Dict, List

from repro.experiments.parallel import ScenarioRequest
from repro.experiments.registry import (
    BuildContext,
    ExperimentPlan,
    ExperimentSpec,
    RowContext,
    register,
)
from repro.experiments.scenarios import best_config_for, horizon_ms
from repro.rt.taskset import table2_taskset
from repro.scheduler.ablations import ABLATIONS


def _build(ctx: BuildContext) -> ExperimentPlan:
    model_name = str(ctx.param("model_name", "resnet18"))
    taskset = table2_taskset(model_name)
    base_config = best_config_for(model_name)
    horizon = horizon_ms(ctx.quick)
    variants = [(name, make_config(base_config)) for name, make_config in ABLATIONS.items()]
    requests = [
        ScenarioRequest(taskset, config, horizon, seed=ctx.seed, label=name)
        for name, config in variants
    ]

    def make_rows(row_ctx: RowContext) -> List[Dict[str, object]]:
        rows: List[Dict[str, object]] = []
        baseline_jps = None
        for (name, config), result in zip(variants, row_ctx.results):
            if name == "DARIS":
                baseline_jps = result.total_jps
            hp_stats = result.metrics.high.response_time_stats()
            lp_stats = result.metrics.low.response_time_stats()
            rows.append(
                {
                    "variant": name,
                    "total_jps": round(result.total_jps, 1),
                    "normalized_jps": 0.0,
                    "hp_dmr": round(result.hp_dmr, 4),
                    "lp_dmr": round(result.lp_dmr, 4),
                    "hp_resp_mean_ms": round(hp_stats["mean"], 2),
                    "hp_resp_max_ms": round(hp_stats["max"], 2),
                    "lp_resp_mean_ms": round(lp_stats["mean"], 2),
                    "lp_resp_max_ms": round(lp_stats["max"], 2),
                }
            )
        reference = baseline_jps or 1.0
        for row in rows:
            row["normalized_jps"] = round(row["total_jps"] / reference, 3)
        return rows

    return ExperimentPlan(requests=requests, make_rows=make_rows)


SPEC = register(
    ExperimentSpec(
        name="fig8",
        title="Figure 8: DARIS module ablations (No Staging / Last / Prior / Fixed)",
        build=_build,
        defaults={"model_name": "resnet18"},
    )
)
