"""Table II: the evaluated task sets and their demanded load.

Purely declarative (no simulation), so the experiment registers as
non-replicable: the ``--seeds`` axis does not apply.
"""

from __future__ import annotations

from typing import Dict, List

from repro.dnn.zoo import build_model
from repro.experiments.registry import (
    BuildContext,
    ExperimentPlan,
    ExperimentSpec,
    RowContext,
    register,
)
from repro.rt.taskset import TABLE2, demanded_load_factor, table2_taskset


def _make_rows(row_ctx: RowContext) -> List[Dict[str, object]]:
    del row_ctx  # the table is cheap to build either way
    rows: List[Dict[str, object]] = []
    for name, paper_row in TABLE2.items():
        model = build_model(name)
        taskset = table2_taskset(name, model=model)
        rows.append(
            {
                "task_set": name,
                "num_high": taskset.num_high,
                "num_low": taskset.num_low,
                "task_jps": paper_row.task_jps,
                "total_demand_jps": round(taskset.total_demand_jps, 1),
                "load_vs_upper_baseline": round(
                    demanded_load_factor(taskset, model.profile.batched_max_jps), 2
                ),
                "paper_high": paper_row.num_high,
                "paper_low": paper_row.num_low,
            }
        )
    return rows


def _build(ctx: BuildContext) -> ExperimentPlan:
    del ctx  # declarative; no scenario requests
    return ExperimentPlan(requests=[], make_rows=_make_rows)


SPEC = register(
    ExperimentSpec(
        name="table2",
        title="Table II: task-set composition and demanded load",
        build=_build,
        replicable=False,
    )
)
