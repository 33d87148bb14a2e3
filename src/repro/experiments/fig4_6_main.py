"""Figures 4-6: the main scheduling results.

For one Table II task set (ResNet18 -> Figure 4, UNet -> Figure 5,
InceptionV3 -> Figure 6) the full configuration grid of Section V is swept:
policies STR / MPS / MPS+STR, 2-10 parallel DNNs and oversubscription levels
``OS in {1, 1.5, 2, Nc}``.  Each row reports total throughput (Figure Xa) and
the LP deadline miss rate (Figure Xb), next to the lower (single DNN) and
upper (pure batching) baselines from Table I.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.dnn.zoo import build_model
from repro.experiments.parallel import ScenarioRequest
from repro.experiments.registry import (
    BuildContext,
    ExperimentPlan,
    ExperimentSpec,
    RowContext,
    register,
)
from repro.experiments.scenarios import horizon_ms, main_grid
from repro.rt.taskset import table2_taskset

PAPER_HIGHLIGHTS = {
    "resnet18": {"best_jps": 1158.0, "upper_baseline": 1025.0, "lower_baseline": 627.0},
    "unet": {"best_jps": 281.0, "upper_baseline": 260.0, "lower_baseline": 241.0},
    "inceptionv3": {"best_jps": 388.0, "upper_baseline": 446.0, "lower_baseline": 142.0},
}


def _build(ctx: BuildContext) -> ExperimentPlan:
    model_name = str(ctx.param("model_name", "resnet18"))
    model = build_model(model_name)
    taskset = table2_taskset(model_name, model=model)
    horizon = horizon_ms(ctx.quick)
    configs = main_grid(ctx.quick)
    requests = [ScenarioRequest(taskset, config, horizon, seed=ctx.seed) for config in configs]

    def make_rows(row_ctx: RowContext) -> List[Dict[str, object]]:
        rows: List[Dict[str, object]] = []
        for config, result in zip(configs, row_ctx.results):
            rows.append(
                {
                    "task_set": model_name,
                    "policy": config.policy.value,
                    "config": f"{config.num_contexts}x{config.streams_per_context}",
                    "oversubscription": config.oversubscription,
                    "parallel_dnns": config.max_parallel_jobs,
                    "total_jps": round(result.total_jps, 1),
                    "hp_dmr": round(result.hp_dmr, 4),
                    "lp_dmr": round(result.lp_dmr, 4),
                    "lp_rejection": round(result.metrics.low.rejection_rate, 3),
                }
            )
        return rows

    return ExperimentPlan(requests=requests, make_rows=make_rows)


SPEC = register(
    ExperimentSpec(
        name="fig4_6",
        title="Figures 4-6: main scheduling results (policy x configuration grid)",
        build=_build,
        highlights=PAPER_HIGHLIGHTS,
        defaults={"model_name": "resnet18"},
    )
)


def best_row(rows: List[Dict[str, object]], policy: Optional[str] = None) -> Dict[str, object]:
    """Row with the highest throughput (optionally restricted to one policy)."""
    candidates = [row for row in rows if policy is None or row["policy"] == policy]
    if not candidates:
        raise ValueError("no rows to select from")
    return max(candidates, key=lambda row: row["total_jps"])
