"""Figure 7: mixed task set containing all three DNN types.

The paper evaluates the STR and MPS policies on a mixed workload; as with the
homogeneous sets, MPS should provide the best throughput and STR the most
reliable deadline behaviour.
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
from repro.experiments.scenarios import horizon_ms, mps_configs, str_configs
from repro.rt.taskset import mixed_taskset


def _build(ctx: BuildContext) -> ExperimentPlan:
    taskset = mixed_taskset()
    horizon = horizon_ms(ctx.quick)
    configs = str_configs(ctx.quick) + mps_configs(ctx.quick)
    requests = [ScenarioRequest(taskset, config, horizon, seed=ctx.seed) for config in configs]

    def make_rows(row_ctx: RowContext) -> List[Dict[str, object]]:
        rows: List[Dict[str, object]] = []
        for config, result in zip(configs, row_ctx.results):
            rows.append(
                {
                    "task_set": "mixed",
                    "policy": config.policy.value,
                    "config": f"{config.num_contexts}x{config.streams_per_context}",
                    "oversubscription": config.oversubscription,
                    "total_jps": round(result.total_jps, 1),
                    "hp_dmr": round(result.hp_dmr, 4),
                    "lp_dmr": round(result.lp_dmr, 4),
                }
            )
        return rows

    return ExperimentPlan(requests=requests, make_rows=make_rows)


SPEC = register(
    ExperimentSpec(
        name="fig7",
        title="Figure 7: mixed task set (STR and MPS policies)",
        build=_build,
    )
)
