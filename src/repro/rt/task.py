"""Task, job and stage-instance runtime objects (paper Section III-A).

A *task* corresponds to one DNN served periodically; each released *job* is
divided into sequential *stage instances*, the unit the DARIS stage scheduler
dispatches.  Tasks carry their timing model (MRET per stage) and their current
context assignment, which the online phase may change for low-priority tasks
(migration).
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.canonical import splice_json
from repro.dnn.model import DnnModel
from repro.dnn.stage import StageSpec
from repro.rt.mret import TaskTimingModel


class Priority(enum.IntEnum):
    """Two task priority levels; HIGH beats LOW everywhere in the scheduler."""

    HIGH = 0
    LOW = 1


class JobState(enum.Enum):
    """Lifecycle of a released job.

    The last three states are terminal fault outcomes (see
    :mod:`repro.sim.faults`): the request was lost at arrival, abandoned by
    its client before service, or killed after exhausting launch retries.
    """

    RELEASED = "released"
    ADMITTED = "admitted"
    REJECTED = "rejected"
    RUNNING = "running"
    COMPLETED = "completed"
    DROPPED = "dropped"
    TIMED_OUT = "timed_out"
    FAILED = "failed"


@dataclass(frozen=True)
class TaskSpec:
    """Static description of a periodic inference task.

    Attributes:
        task_id: unique integer id.
        name: human-readable name (defaults to ``"{model}/task{id}"``).
        model: the calibrated DNN the task serves.
        period_ms: release period ``T_i``.
        deadline_ms: relative deadline ``D_i``; the paper uses implicit
            deadlines (``D_i = T_i``).
        priority: HIGH or LOW.
        batch_size: inference batch size (1 in the main experiments, 4/2/8 in
            the Figure 10 batching study).
        phase_ms: release offset of the first job.
    """

    task_id: int
    model: DnnModel
    period_ms: float
    priority: Priority
    deadline_ms: Optional[float] = None
    batch_size: int = 1
    phase_ms: float = 0.0
    name: str = ""

    def __post_init__(self) -> None:
        if self.period_ms <= 0:
            raise ValueError(f"period must be positive, got {self.period_ms}")
        if self.deadline_ms is not None and self.deadline_ms <= 0:
            raise ValueError("deadline must be positive")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not self.name:
            object.__setattr__(self, "name", f"{self.model.name}/task{self.task_id}")

    @property
    def relative_deadline_ms(self) -> float:
        """Relative deadline ``D_i`` (defaults to the period)."""
        return self.deadline_ms if self.deadline_ms is not None else self.period_ms

    def to_dict(self) -> dict:
        """Canonical field dictionary (used for cache keys).

        The model is flattened through :meth:`DnnModel.fingerprint` so the
        dictionary captures everything that influences simulated behaviour.
        """
        data = self._settings()
        data["model"] = self.model.fingerprint()
        return data

    @property
    def fingerprint_json(self) -> str:
        """:meth:`to_dict` as canonical JSON: sorted keys, no whitespace.

        The model's part is its memoized
        :attr:`~repro.dnn.model.DnnModel.fingerprint_json`, spliced in, so
        only the task's own fields are encoded here.
        """
        return splice_json(self._settings(), "model", self.model.fingerprint_json)

    def _settings(self) -> dict:
        """Every :meth:`to_dict` entry but the model."""
        return {
            "task_id": self.task_id,
            "name": self.name,
            "period_ms": self.period_ms,
            "deadline_ms": self.deadline_ms,
            "priority": int(self.priority),
            "batch_size": self.batch_size,
            "phase_ms": self.phase_ms,
        }

    @property
    def is_high_priority(self) -> bool:
        """True for HP tasks."""
        return self.priority is Priority.HIGH


class Task:
    """Runtime state of a task: timing model, context assignment, counters.

    ``task_id``/``name``/``priority``/``num_stages`` are plain instance
    attributes rather than properties delegating to the spec: the scheduler
    and admission hot paths read them hundreds of thousands of times per
    scenario, and the spec-side values are immutable after construction.
    """

    def __init__(self, spec: TaskSpec, stages: Optional[List[StageSpec]] = None, window_size: int = 5):
        self.spec = spec
        self.stages: List[StageSpec] = list(stages) if stages is not None else list(spec.model.stages)
        self.timing = TaskTimingModel(num_stages=len(self.stages), window_size=window_size)
        self.task_id: int = spec.task_id
        self.name: str = spec.name
        self.priority: Priority = spec.priority
        self.num_stages: int = len(self.stages)
        self.context_index: int = -1
        self.jobs_released = 0
        self.jobs_admitted = 0
        self.jobs_rejected = 0
        self.jobs_completed = 0
        self.jobs_missed = 0
        # Utilization memo, keyed by the timing-model version.
        self._util_version = -1
        self._util_value = 0.0
        # Virtual-deadline share memo (see repro.rt.deadlines), same keying:
        # consecutive releases between MRET updates reuse the share split.
        self._vd_version = -1
        self._vd_mrets: List[float] = []
        self._vd_shares: List[float] = []

    def mret_total(self) -> float:
        """Paper Equation 2: sum of per-stage MRETs."""
        return self.timing.total()

    def utilization(self) -> float:
        """Paper Equation 3 (with Equation 10's AFET fallback handled by the timing model).

        Cached on the timing-model version: the admission test evaluates the
        utilization of every task in a context per probe, far more often than
        an MRET window changes.
        """
        timing = self.timing
        version = timing.version
        if version != self._util_version:
            self._util_value = timing.total() / self.spec.period_ms
            self._util_version = version
        return self._util_value

    def release_job(self, release_time: float) -> "Job":
        """Create the next job of this task at ``release_time``."""
        job = Job(task=self, index=self.jobs_released, release_time=release_time)
        self.jobs_released += 1
        return job

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Task({self.name!r}, {self.priority.name}, T={self.spec.period_ms:.2f} ms, "
            f"ctx={self.context_index})"
        )


_job_counter = itertools.count()


class Job:
    """One released instance of a task.

    A ``__slots__`` class: one instance per release, with the priority and
    stage count denormalized from the task because the admission test and the
    stage-queue keys read them on every probe.

    A job owns its stage instances until it ends: :meth:`end` moves it to a
    terminal state and gives up the list.  Each stage points back at its job,
    so the list is the only reference cycle a job takes part in; once it is
    gone, reference counting frees the job and its stages as soon as the
    scheduler lets go of them.
    """

    __slots__ = (
        "uid",
        "task",
        "index",
        "release_time",
        "absolute_deadline",
        "state",
        "context_index",
        "completion_time",
        "stages",
        "current_stage_index",
        "priority",
        "num_stages",
    )

    def __init__(self, task: Task, index: int, release_time: float):
        self.uid = next(_job_counter)
        self.task = task
        self.index = index
        self.release_time = release_time
        self.absolute_deadline = release_time + task.spec.relative_deadline_ms
        self.state = JobState.RELEASED
        self.context_index: int = task.context_index
        self.completion_time: Optional[float] = None
        self.priority: Priority = task.priority
        self.stages: Sequence[StageInstance] = [
            StageInstance(job=self, stage_index=i, spec=stage)
            for i, stage in enumerate(task.stages)
        ]
        self.num_stages: int = len(self.stages)
        self.current_stage_index = 0

    @property
    def current_stage(self) -> "StageInstance":
        """The stage that should execute next."""
        return self.stages[self.current_stage_index]

    @property
    def is_finished(self) -> bool:
        """True once every stage completed."""
        return self.current_stage_index >= self.num_stages

    @property
    def response_time(self) -> Optional[float]:
        """Completion time minus release time, if the job finished."""
        if self.completion_time is None:
            return None
        return self.completion_time - self.release_time

    @property
    def missed_deadline(self) -> Optional[bool]:
        """Whether the job finished after its absolute deadline."""
        if self.completion_time is None:
            return None
        return self.completion_time > self.absolute_deadline + 1e-9

    def advance(self) -> None:
        """Mark the current stage as done and move to the next one."""
        self.current_stage_index += 1

    def end(self, state: JobState) -> None:
        """Move the job to terminal ``state`` and give up its stage instances."""
        self.state = state
        self.stages = ()

    def remaining_mret(self) -> float:
        """Sum of MRET of the stages that have not completed yet."""
        # Inlined repro.numeric.left_sum: this runs on every dispatch.
        stage_value = self.task.timing.stage_value
        total = 0
        for i in range(self.current_stage_index, self.num_stages):
            total += stage_value(i)
        return total

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Job({self.task.name}#{self.index}, state={self.state.value})"


@dataclass(slots=True)
class StageInstance:
    """One stage of one job: the dispatchable unit of the DARIS scheduler."""

    job: Job
    stage_index: int
    spec: StageSpec
    virtual_deadline: float = 0.0
    mret_at_release: float = 0.0
    context_index: int = -1
    enqueue_time: float = 0.0
    dispatch_time: Optional[float] = None
    start_time: Optional[float] = None
    finish_time: Optional[float] = None
    missed_virtual_deadline: bool = False
    predecessor_missed: bool = False

    @property
    def is_last(self) -> bool:
        """True for the final stage of its job (``tau_{i,n_i}``)."""
        return self.stage_index == self.job.num_stages - 1

    @property
    def priority(self) -> Priority:
        """Task priority of the owning job."""
        return self.job.priority

    @property
    def execution_time(self) -> Optional[float]:
        """Measured execution time (start to finish), once completed."""
        if self.start_time is None or self.finish_time is None:
            return None
        return self.finish_time - self.start_time

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"StageInstance({self.job.task.name}#{self.job.index}.s{self.stage_index}, "
            f"vd={self.virtual_deadline:.2f})"
        )
