"""DARIS offline phase (paper Section IV-A).

Before the online scheduler starts, two things happen:

1. **Timing initialization** — with no measurement history, MRET cannot be
   used; the Average Full-Load Execution Time (AFET) seeds every stage's
   estimator (Equation 10).
2. **Initial context assignment** — Algorithm 1 distributes HP tasks, then LP
   tasks, always to the context with the smallest total utilization, which
   balances ``U^t_k(0)`` across contexts.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.gpu.calibration import DEFAULT_CALIBRATION, GpuCalibration
from repro.gpu.mps import sm_quota
from repro.gpu.platform import PlatformConfig
from repro.gpu.spec import GpuSpec, RTX_2080_TI
from repro.numeric import left_sum
from repro.rt.afet import estimate_afet_analytic, profile_afet
from repro.rt.task import Priority, Task
from repro.scheduler.config import DarisConfig


def initialize_timing(
    tasks: Sequence[Task],
    config: DarisConfig,
    gpu: GpuSpec = RTX_2080_TI,
    calibration: GpuCalibration = DEFAULT_CALIBRATION,
    seed: int = 0,
) -> None:
    """Seed every task's MRET estimators with AFET values (Equation 10)."""
    quota = sm_quota(gpu.num_sms, config.num_contexts, config.oversubscription)
    concurrent = config.max_parallel_jobs

    if config.afet_mode == "profile":
        platform_config = PlatformConfig(
            num_contexts=config.num_contexts,
            streams_per_context=config.streams_per_context,
            oversubscription=config.oversubscription,
        )
        models = [task.spec.model for task in tasks]
        cache: Dict[str, List[float]] = {}
        for task in tasks:
            key = f"{task.spec.model.name}/b{task.spec.batch_size}/{len(task.stages)}"
            if key not in cache:
                cache[key] = profile_afet(
                    task.spec.model,
                    background=models,
                    platform_config=platform_config,
                    gpu=gpu,
                    calibration=calibration,
                    seed=seed,
                )
            afets = cache[key]
            task.timing.set_afet(_match_stage_count(afets, task))
        return

    cache: Dict[str, List[float]] = {}
    for task in tasks:
        key = f"{task.spec.model.name}/b{task.spec.batch_size}/{len(task.stages)}"
        if key not in cache:
            per_model = estimate_afet_analytic(
                task.spec.model,
                sm_quota=quota,
                concurrent_jobs=concurrent,
                calibration=calibration,
                num_sms=gpu.num_sms,
            )
            cache[key] = per_model
        task.timing.set_afet(_match_stage_count(cache[key], task))


def _match_stage_count(afets: List[float], task: Task) -> List[float]:
    """Adapt model-level AFETs to the task's stage list (handles merged stages)."""
    if len(afets) == task.num_stages:
        return afets
    if task.num_stages == 1:
        return [left_sum(afets)]
    # Fallback: spread the total uniformly; only reachable with custom stagings.
    total = left_sum(afets)
    return [total / task.num_stages] * task.num_stages


def populate_contexts(tasks: Sequence[Task], num_contexts: int) -> Dict[int, float]:
    """Algorithm 1: assign each task to the context with minimum total utilization.

    HP tasks are placed first (they keep this context for the whole run), LP
    tasks afterwards; both passes always pick the least-utilized context,
    which balances the per-context utilization of Equation 6.

    Returns the resulting total utilization per context.
    """
    if num_contexts < 1:
        raise ValueError("num_contexts must be >= 1")
    pool: Dict[int, float] = {index: 0.0 for index in range(num_contexts)}

    def assign(task: Task) -> None:
        context_index = min(pool, key=lambda idx: (pool[idx], idx))
        task.context_index = context_index
        pool[context_index] += task.utilization()

    for task in tasks:
        if task.priority is Priority.HIGH:
            assign(task)
    for task in tasks:
        if task.priority is Priority.LOW:
            assign(task)
    return pool
