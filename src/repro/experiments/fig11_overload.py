"""Figure 11: overloading and HP-to-LP task ratios.

ResNet18 and UNet task sets are generated at full load and at 150 % overload
with different fractions of the load assigned to HP tasks.  Three variants are
compared, matching the paper:

* **Full load** — demand equals the upper baseline; no deadline misses are
  expected.
* **Overload** — 150 % demand; HP tasks bypass the admission test, so once HP
  demand alone exceeds capacity their miss rate rises sharply.
* **Overload+HPA** — the admission test is also applied to HP tasks, trading
  dropped HP jobs for (near) zero HP deadline misses.
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
from repro.experiments.scenarios import best_config_for, horizon_ms
from repro.rt.taskset import ratio_taskset


def _build(ctx: BuildContext) -> ExperimentPlan:
    horizon = horizon_ms(ctx.quick)
    models = ["resnet18"] if ctx.quick else ["resnet18", "unet"]
    hp_fractions = [1.0 / 3.0, 2.0 / 3.0] if ctx.quick else [1.0 / 3.0, 0.5, 2.0 / 3.0, 1.0]
    scenarios = [
        ("full load", 1.0, False),
        ("overload", 1.5, False),
        ("overload+HPA", 1.5, True),
    ]
    cells: List[Dict[str, object]] = []
    requests: List[ScenarioRequest] = []
    for model_name in models:
        model = build_model(model_name)
        config = best_config_for(model_name)
        for hp_fraction in hp_fractions:
            for label, load_factor, hpa in scenarios:
                taskset = ratio_taskset(
                    model_name, hp_fraction=hp_fraction, load_factor=load_factor, model=model
                )
                requests.append(
                    ScenarioRequest(
                        taskset, config.with_overrides(hp_admission=hpa), horizon, seed=ctx.seed
                    )
                )
                cells.append(
                    {
                        "model": model_name,
                        "hp_fraction": round(hp_fraction, 2),
                        "scenario": label,
                        "upper": model.profile.batched_max_jps,
                    }
                )

    def make_rows(row_ctx: RowContext) -> List[Dict[str, object]]:
        rows: List[Dict[str, object]] = []
        for cell, result in zip(cells, row_ctx.results):
            upper = cell["upper"]
            rows.append(
                {
                    "model": cell["model"],
                    "hp_fraction": cell["hp_fraction"],
                    "scenario": cell["scenario"],
                    "total_jps": round(result.total_jps, 1),
                    "normalized_jps": round(result.total_jps / upper, 3),
                    "hp_dmr": round(result.hp_dmr, 4),
                    "lp_dmr": round(result.lp_dmr, 4),
                    "hp_rejection": round(result.metrics.high.rejection_rate, 3),
                    "lp_rejection": round(result.metrics.low.rejection_rate, 3),
                }
            )
        return rows

    return ExperimentPlan(requests=requests, make_rows=make_rows)


SPEC = register(
    ExperimentSpec(
        name="fig11",
        title="Figure 11: overload and HP:LP ratio study",
        build=_build,
    )
)
