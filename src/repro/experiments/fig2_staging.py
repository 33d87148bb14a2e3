"""Figure 2: task staging and MRET-proportional virtual deadlines.

The figure in the paper is illustrative; this experiment reproduces its
content quantitatively: for each network it reports the per-stage MRET shares
and the resulting virtual relative deadlines for a job of the Table II period.

The computation is closed-form (no simulation), so the experiment registers
as non-replicable: the ``--seeds`` axis does not apply.
"""

from __future__ import annotations

from typing import Dict, List

from repro.dnn.zoo import available_models, build_model
from repro.experiments.registry import (
    BuildContext,
    ExperimentPlan,
    ExperimentSpec,
    RowContext,
    register,
)
from repro.rt.deadlines import virtual_deadline_shares
from repro.rt.taskset import TABLE2


def _make_rows(row_ctx: RowContext) -> List[Dict[str, object]]:
    del row_ctx  # one deterministic row set regardless of seed / quick
    rows: List[Dict[str, object]] = []
    for name in available_models():
        model = build_model(name)
        period = 1000.0 / TABLE2[name].task_jps if name in TABLE2 else 1000.0 / 30.0
        mrets = [stage.isolated_duration_ms(model.gpu.num_sms) for stage in model.stages]
        shares = virtual_deadline_shares(mrets, period)
        for stage, mret, share in zip(model.stages, mrets, shares):
            rows.append(
                {
                    "model": name,
                    "stage": stage.index,
                    "mret_ms": round(mret, 3),
                    "virtual_deadline_ms": round(share, 2),
                    "deadline_fraction": round(share / period, 3),
                }
            )
    return rows


def _build(ctx: BuildContext) -> ExperimentPlan:
    del ctx  # closed-form; no scenario requests
    return ExperimentPlan(requests=[], make_rows=_make_rows)


SPEC = register(
    ExperimentSpec(
        name="fig2",
        title="Figure 2: staging and MRET-proportional virtual deadlines",
        build=_build,
        replicable=False,
    )
)
