"""Typed results for the baseline executors.

Every baseline returns a typed result carrying a full
:class:`~repro.rt.metrics.ScenarioMetrics`, so the experiment engine treats
them like DARIS (uniform metrics, cacheable).  The saturated executors
return a :class:`JpsResult`: a ``float`` subclass (the measured
jobs-per-second) that also exposes ``.metrics``, so ``executor.run(...) * 2``
and ``pytest.approx`` comparisons work while new code reads the full
metrics.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.rt.metrics import FaultImpact, PriorityMetrics, ScenarioMetrics


class JpsResult(float):
    """A measured jobs-per-second value that also carries scenario metrics.

    Behaves exactly like the ``float`` the saturated executors used to
    return (arithmetic, formatting, ``pytest.approx``), while new callers
    read ``.metrics`` for the uniform :class:`ScenarioMetrics` summary.
    """

    metrics: ScenarioMetrics

    def __new__(cls, jps: float, metrics: ScenarioMetrics) -> "JpsResult":
        result = super().__new__(cls, jps)
        result.metrics = metrics
        return result

    def __getnewargs__(self):
        # float.__getnewargs__ would reconstruct with the value alone and
        # crash __new__; supplying both arguments keeps pickle/deepcopy
        # working exactly as they did on the bare float.
        return (float(self), self.metrics)

    @property
    def jps(self) -> float:
        """The plain throughput value."""
        return float(self)


def accepted_miss_rate(metrics: ScenarioMetrics) -> float:
    """The historical Clockwork DMR: late completions over accepted requests.

    The legacy denominator counts every completion plus every miss (misses
    are a subset of completions, so late jobs weigh double) — kept verbatim
    so typed results and report rows reproduce the pre-typed numbers exactly.
    Works on any :class:`ScenarioMetrics`, which is all the engine returns.
    """
    missed = metrics.high.missed + metrics.low.missed
    return missed / max(1, metrics.total_completed + missed)


def single_class_metrics(
    horizon_ms: float,
    completed: int,
    missed: int = 0,
    released: Optional[int] = None,
    admitted: Optional[int] = None,
    rejected: int = 0,
    dropped: int = 0,
    timed_out: int = 0,
    failed: int = 0,
    launch_retries: int = 0,
    response_times: Optional[List[float]] = None,
    per_task_completed: Optional[Dict[str, int]] = None,
    fault_impact: Optional[FaultImpact] = None,
) -> ScenarioMetrics:
    """Metrics for a server with no priority classes (everything low).

    The single-tenant / batching / GSlice executors serve one undifferentiated
    request class; by convention their traffic lands in the *low* priority
    bucket (DARIS shields the high one) with an empty high bucket.  Unless
    stated otherwise, ``released`` and ``admitted`` default to ``completed``
    (the saturated executors observe only completions), which also keeps the
    deadline-miss denominator (``missed / admitted``) equal to the historical
    ``missed / completed`` ratios.

    The fault-cause counters (``dropped`` / ``timed_out`` / ``failed`` /
    ``launch_retries`` / ``fault_impact``) default to zero/absent, so
    fault-free callers produce byte-identical metrics to the pre-fault
    layout.
    """
    low = PriorityMetrics(
        released=released if released is not None else completed,
        admitted=admitted if admitted is not None else completed,
        rejected=rejected,
        dropped=dropped,
        timed_out=timed_out,
        failed=failed,
        launch_retries=launch_retries,
        completed=completed,
        missed=missed,
        response_times=list(response_times or []),
    )
    return ScenarioMetrics.from_priority_metrics(
        horizon_ms,
        low=low,
        per_task_completed=per_task_completed,
        fault_impact=fault_impact,
    )
