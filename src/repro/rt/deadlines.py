"""Virtual deadline assignment (paper Equation 8 and Figure 2).

Each stage of a job receives a share of the task's relative deadline
proportional to its MRET; the absolute virtual deadline of stage ``j`` is the
release time plus the cumulative share of stages ``1..j``.  Longer stages thus
receive a larger slice of the deadline, and the last stage's virtual deadline
coincides with the job's actual deadline.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.numeric import left_sum
from repro.rt.task import Job


def virtual_deadline_shares(mret_per_stage: Sequence[float], relative_deadline: float) -> List[float]:
    """Relative virtual deadlines ``D_{i,j}`` for one job (Equation 8).

    When all MRETs are zero (no timing information at all) the deadline is
    split uniformly so that the shares still sum to the relative deadline.

    The shares sum *exactly* to ``relative_deadline``: each share is computed
    from the well-scaled ratio ``value / total`` (avoiding subnormal
    intermediates for very small MRETs) and the final share is normalized to
    absorb the residual rounding error, clamped at zero.  Without the
    normalization the last stage's virtual deadline could drift off the job's
    actual deadline by accumulated rounding error.
    """
    if relative_deadline <= 0:
        raise ValueError("relative_deadline must be positive")
    if not mret_per_stage:
        raise ValueError("at least one stage is required")
    if any(value < 0 for value in mret_per_stage):
        raise ValueError("MRET values must be non-negative")
    total = left_sum(mret_per_stage)
    count = len(mret_per_stage)
    if total <= 0:
        shares = [relative_deadline / count] * count
    else:
        shares = [relative_deadline * (value / total) for value in mret_per_stage]
    shares[-1] = max(0.0, relative_deadline - left_sum(shares[:-1]))
    return shares


def assign_virtual_deadlines(job: Job) -> None:
    """Assign absolute virtual deadlines to every stage of ``job`` in place.

    Also records the MRET snapshot used for the assignment on each stage
    instance so later analysis (Figure 9) can compare prediction with the
    actually measured execution time.
    """
    task = job.task
    timing = task.timing
    version = timing.version
    if version != task._vd_version:
        # The share split depends only on the MRET snapshot; releases between
        # two timing-model updates reuse it (identical values, so identical
        # virtual deadlines).
        mrets = [timing.stage_value(i) for i in range(job.num_stages)]
        task._vd_mrets = mrets
        task._vd_shares = virtual_deadline_shares(mrets, task.spec.relative_deadline_ms)
        task._vd_version = version
    cumulative = job.release_time
    for stage, share, mret in zip(job.stages, task._vd_shares, task._vd_mrets):
        cumulative += share
        stage.virtual_deadline = cumulative
        stage.mret_at_release = mret
