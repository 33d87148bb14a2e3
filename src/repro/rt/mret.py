"""Maximum Recent Execution Time (MRET) estimation (paper Section III-B2).

MRET is a sliding-window maximum of recently observed execution times,
computed per stage (Equation 1) and summed per task (Equation 2).  It replaces
static WCET estimates, adapting to the actual co-location the task currently
experiences.  Before any observation exists the estimator falls back to the
offline AFET value (Equation 10).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional


class MretEstimator:
    """Sliding-window maximum of execution times for one stage."""

    def __init__(self, window_size: int = 5, initial: Optional[float] = None):
        if window_size < 1:
            raise ValueError(f"window_size must be >= 1, got {window_size}")
        self.window_size = window_size
        self.initial = initial
        self._window: Deque[float] = deque(maxlen=window_size)
        self._cached_value: Optional[float] = None

    @property
    def observations(self) -> int:
        """Number of samples currently inside the window."""
        return len(self._window)

    def observe(self, execution_time: float) -> None:
        """Record a measured execution time (milliseconds)."""
        if execution_time < 0:
            raise ValueError(f"execution_time must be non-negative, got {execution_time}")
        self._window.append(execution_time)
        self._cached_value = None

    def value(self) -> float:
        """Current MRET: window maximum, or the AFET fallback when empty.

        The window maximum is cached between observations: ``value`` is called
        on every admission test and virtual-deadline assignment, far more
        often than the window changes.
        """
        cached = self._cached_value
        if cached is not None:
            return cached
        if self._window:
            result = max(self._window)
        elif self.initial is not None:
            result = self.initial
        else:
            result = 0.0
        self._cached_value = result
        return result

    def set_initial(self, afet: float) -> None:
        """Install the offline AFET fallback used before any measurement exists."""
        if afet < 0:
            raise ValueError("afet must be non-negative")
        self.initial = afet
        if not self._window:
            self._cached_value = None

    def window_values(self) -> List[float]:
        """Copy of the current window contents (oldest first)."""
        return list(self._window)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MretEstimator(ws={self.window_size}, value={self.value():.3f})"


class TaskTimingModel:
    """Per-task collection of stage MRET estimators."""

    def __init__(self, num_stages: int, window_size: int = 5):
        if num_stages < 1:
            raise ValueError("num_stages must be >= 1")
        self.window_size = window_size
        self._estimators = [MretEstimator(window_size=window_size) for _ in range(num_stages)]
        self._cached_total: Optional[float] = None
        # Bumped on every mutation; lets consumers cache derived quantities
        # (e.g. the scheduler's per-context MRET backlog contributions).
        self.version = 0

    @property
    def num_stages(self) -> int:
        """Number of stages tracked."""
        return len(self._estimators)

    def estimator(self, stage_index: int) -> MretEstimator:
        """The estimator of one stage."""
        return self._estimators[stage_index]

    def set_afet(self, afet_per_stage: List[float]) -> None:
        """Initialize every stage with its offline AFET value."""
        if len(afet_per_stage) != len(self._estimators):
            raise ValueError(
                f"expected {len(self._estimators)} AFET values, got {len(afet_per_stage)}"
            )
        for estimator, afet in zip(self._estimators, afet_per_stage):
            estimator.set_initial(afet)
        self._cached_total = None
        self.version += 1

    def observe(self, stage_index: int, execution_time: float) -> None:
        """Record a measurement for one stage."""
        self._estimators[stage_index].observe(execution_time)
        self._cached_total = None
        self.version += 1

    def stage_value(self, stage_index: int) -> float:
        """MRET of one stage (Equation 1)."""
        return self._estimators[stage_index].value()

    def stage_values(self) -> List[float]:
        """MRET of every stage."""
        return [estimator.value() for estimator in self._estimators]

    def total(self) -> float:
        """Task-level MRET (Equation 2), cached between observations."""
        cached = self._cached_total
        if cached is None:
            # Inlined repro.numeric.left_sum: this runs on every dispatch.
            cached = 0
            for estimator in self._estimators:
                cached += estimator.value()
            self._cached_total = cached
        return cached
