"""Figure 9: measured execution time versus the MRET prediction.

The paper plots ResNet18's actual execution time against its MRET under the
best-throughput configuration (6x1 OS6, where MRET tracks execution well) and
under the most volatile one (3x3 OS1, where execution frequently exceeds the
prediction).  This experiment reproduces the two traces and summarises how
often MRET under-predicts in each.

The scenario requests carry ``with_trace=True``.  The stage and job records
of a traced result are plain values, so they are cached with its metrics
and a warm run re-simulates nothing.
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
from repro.experiments.scenarios import best_config_for, horizon_ms, worst_dmr_config
from repro.numeric import left_sum
from repro.rt.taskset import table2_taskset
from repro.rt.trace import underprediction_rate


def _build(ctx: BuildContext) -> ExperimentPlan:
    window_size = int(ctx.param("window_size", 5))
    taskset = table2_taskset("resnet18")
    horizon = horizon_ms(ctx.quick)
    configs = {
        "6x1 OS6 (best throughput)": best_config_for("resnet18").with_overrides(
            window_size=window_size
        ),
        "3x3 OS1 (worst DMR)": worst_dmr_config().with_overrides(window_size=window_size),
    }
    requests = [
        ScenarioRequest(taskset, config, horizon, seed=ctx.seed, with_trace=True, label=label)
        for label, config in configs.items()
    ]

    def make_rows(row_ctx: RowContext) -> List[Dict[str, object]]:
        rows: List[Dict[str, object]] = []
        for label, result in zip(configs, row_ctx.results):
            series = result.trace.execution_vs_mret(taskset.tasks[0].name)
            executions = [measured for _, measured, _ in series]
            predictions = [predicted for _, _, predicted in series]
            errors = [abs(measured - predicted) for _, measured, predicted in series]
            rows.append(
                {
                    "config": label,
                    "jobs_traced": len(series),
                    "mean_exec_ms": round(left_sum(executions) / len(executions), 3)
                    if executions
                    else 0.0,
                    "max_exec_ms": round(max(executions), 3) if executions else 0.0,
                    "mean_mret_ms": round(left_sum(predictions) / len(predictions), 3)
                    if predictions
                    else 0.0,
                    "mean_abs_error_ms": round(left_sum(errors) / len(errors), 3)
                    if errors
                    else 0.0,
                    "underprediction_rate": round(underprediction_rate(series), 3),
                    "lp_dmr": round(result.lp_dmr, 4),
                    "total_jps": round(result.total_jps, 1),
                }
            )
        return rows

    return ExperimentPlan(requests=requests, make_rows=make_rows)


SPEC = register(
    ExperimentSpec(
        name="fig9",
        # "uncached" no longer holds; the title stays byte-identical because
        # `list --json` prints it, and scripts may match on that listing.
        title="Figure 9: execution time vs MRET prediction (traced, uncached)",
        build=_build,
        defaults={"window_size": 5},
    )
)
