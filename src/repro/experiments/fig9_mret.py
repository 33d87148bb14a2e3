"""Figure 9: measured execution time versus the MRET prediction.

The paper plots ResNet18's actual execution time against its MRET under the
best-throughput configuration (6x1 OS6, where MRET tracks execution well) and
under the most volatile one (3x3 OS1, where execution frequently exceeds the
prediction).  This experiment reproduces the two traces and summarises how
often MRET under-predicts in each.

The scenario requests carry ``with_trace=True``; traced results hold live
simulator objects and therefore bypass the result cache entirely (they are
re-simulated on every run — see ``repro/experiments/cache.py``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Union

from repro.analysis.tables import format_table
from repro.experiments.cache import ResultCache
from repro.experiments.engine import run_experiment
from repro.experiments.parallel import ScenarioRequest
from repro.experiments.registry import (
    BuildContext,
    ExperimentPlan,
    ExperimentSpec,
    RowContext,
    register,
)
from repro.experiments.runner import run_daris_scenario
from repro.experiments.scenarios import best_config_for, horizon_ms, worst_dmr_config
from repro.numeric import left_sum
from repro.rt.taskset import table2_taskset


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
            trace = result.trace
            task_name = taskset.tasks[0].name
            series = trace.execution_vs_mret(task_name)
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
                    "underprediction_rate": round(trace.underprediction_rate(task_name), 3),
                    "lp_dmr": round(result.lp_dmr, 4),
                    "total_jps": round(result.total_jps, 1),
                }
            )
        return rows

    return ExperimentPlan(requests=requests, make_rows=make_rows)


SPEC = register(
    ExperimentSpec(
        name="fig9",
        title="Figure 9: execution time vs MRET prediction (traced, uncached)",
        build=_build,
        defaults={"window_size": 5},
    )
)


def run(
    quick: bool = True,
    seed: int = 1,
    window_size: int = 5,
    seeds: int = 1,
    processes: Optional[int] = 1,
    cache: Union[ResultCache, str, None] = None,
) -> List[Dict[str, object]]:
    """One row per configuration with MRET tracking statistics."""
    report = run_experiment(
        SPEC,
        quick=quick,
        seeds=seeds,
        base_seed=seed,
        processes=processes,
        cache=cache,
        params={"window_size": window_size},
    )
    return report.rows


def trace_series(quick: bool = True, seed: int = 1) -> Dict[str, List[tuple]]:
    """The raw (time, execution, MRET) series for both configurations."""
    taskset = table2_taskset("resnet18")
    horizon = horizon_ms(quick)
    series: Dict[str, List[tuple]] = {}
    for label, config in (
        ("6x1 OS6", best_config_for("resnet18")),
        ("3x3 OS1", worst_dmr_config()),
    ):
        result = run_daris_scenario(
            taskset, config, horizon, seed=seed, with_trace=True, label=label
        )
        series[label] = result.trace.execution_vs_mret(taskset.tasks[0].name)
    return series


def main(quick: bool = True) -> str:
    """Run and render the Figure 9 reproduction."""
    table = format_table(run(quick))
    print(table)
    return table


if __name__ == "__main__":  # pragma: no cover
    main(quick=False)
