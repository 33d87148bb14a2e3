"""Execution traces for analysis figures.

Figure 9 of the paper plots the measured execution time of ResNet18 against
its MRET prediction over time, for a well-behaved configuration (6x1 OS6) and
for a volatile one (3x3 OS1).  The :class:`TraceRecorder` captures exactly the
information needed for that comparison, plus per-job records used by the
response-time analysis (Figure 8a).

The records are plain values (floats, ints, strings and a
:class:`~repro.rt.task.Priority`).  The recorder keeps them by column, one
list per field, which is also its lossless JSON form
(:meth:`TraceRecorder.to_dict`), so traced results are cached like any
other and a cached trace is read back without rebuilding its records.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.rt.task import Priority


@dataclass(frozen=True)
class StageTraceRecord:
    """One completed stage execution."""

    time_ms: float
    task_name: str
    priority: Priority
    job_index: int
    stage_index: int
    execution_time_ms: float
    mret_prediction_ms: float
    virtual_deadline_ms: float
    missed_virtual_deadline: bool
    context_index: int


@dataclass(frozen=True)
class JobTraceRecord:
    """One completed job."""

    time_ms: float
    task_name: str
    priority: Priority
    job_index: int
    release_time_ms: float
    response_time_ms: float
    missed_deadline: bool
    context_index: int


#: Column names of each record type, in field (positional) order.
_STAGE_FIELDS = tuple(field.name for field in fields(StageTraceRecord))
_JOB_FIELDS = tuple(field.name for field in fields(JobTraceRecord))
_PRIORITY_VALUES = frozenset(int(priority) for priority in Priority)


def _append(columns: Dict[str, list], record: object) -> None:
    """Append one record's fields to their columns; priorities as their ints."""
    for name, values in columns.items():
        value = getattr(record, name)
        values.append(int(value) if name == "priority" else value)


def _records(columns: Dict[str, list], record_type: type) -> list:
    """The records held by ``columns``, rebuilt in recording order."""
    data = [
        list(map(Priority, values)) if name == "priority" else values
        for name, values in columns.items()
    ]
    return [record_type(*row) for row in zip(*data)]


def _adopt(columns: Mapping[str, Sequence[object]], names: Tuple[str, ...]) -> Dict[str, list]:
    """Checked copies of the ``names`` columns of :meth:`TraceRecorder.to_dict` output.

    Raises ``KeyError`` for a missing column and ``ValueError`` for columns
    of unequal length or a priority outside :class:`Priority`, so a damaged
    cache entry fails here, while it is read, and never later in analysis.
    """
    adopted = {name: list(columns[name]) for name in names}
    if len({len(values) for values in adopted.values()}) > 1:
        raise ValueError("trace columns differ in length")
    if not _PRIORITY_VALUES.issuperset(adopted["priority"]):
        raise ValueError("trace priority outside Priority")
    return adopted


class TraceRecorder:
    """Collects stage- and job-level records during a run.

    Records are held by column, one list per record field (priorities as
    their ints), which is also the serialized form: :meth:`to_dict` and
    :meth:`from_dict` copy columns and build no records.
    :attr:`stage_records` and :attr:`job_records` rebuild the records when
    read, and :meth:`execution_vs_mret` reads its columns directly.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._stages: Dict[str, list] = {name: [] for name in _STAGE_FIELDS}
        self._jobs: Dict[str, list] = {name: [] for name in _JOB_FIELDS}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TraceRecorder):
            return NotImplemented
        return (self.enabled, self._stages, self._jobs) == (
            other.enabled,
            other._stages,
            other._jobs,
        )

    @property
    def stage_records(self) -> List[StageTraceRecord]:
        """Every recorded stage, rebuilt from the columns on each access."""
        return _records(self._stages, StageTraceRecord)

    @property
    def job_records(self) -> List[JobTraceRecord]:
        """Every recorded job, rebuilt from the columns on each access."""
        return _records(self._jobs, JobTraceRecord)

    def to_dict(self) -> Dict[str, object]:
        """Lossless JSON-safe form, stored by column: one list per field."""
        return {
            "stages": {name: list(values) for name, values in self._stages.items()},
            "jobs": {name: list(values) for name, values in self._jobs.items()},
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Mapping[str, Sequence[object]]]) -> "TraceRecorder":
        """Rebuild an enabled recorder from :meth:`to_dict` output.

        Every column is checked before it is taken (see :func:`_adopt`).
        """
        recorder = cls(enabled=True)
        recorder._stages = _adopt(data["stages"], _STAGE_FIELDS)
        recorder._jobs = _adopt(data["jobs"], _JOB_FIELDS)
        return recorder

    def record_stage(self, record: StageTraceRecord) -> None:
        """Append a stage record (no-op when disabled)."""
        if self.enabled:
            _append(self._stages, record)

    def record_job(self, record: JobTraceRecord) -> None:
        """Append a job record (no-op when disabled)."""
        if self.enabled:
            _append(self._jobs, record)

    def stage_series(
        self, task_name: Optional[str] = None, stage_index: Optional[int] = None
    ) -> List[StageTraceRecord]:
        """Stage records filtered by task name and/or stage index."""
        records = self.stage_records
        if task_name is not None:
            records = [r for r in records if r.task_name == task_name]
        if stage_index is not None:
            records = [r for r in records if r.stage_index == stage_index]
        return records

    def job_series(self, priority: Optional[Priority] = None) -> List[JobTraceRecord]:
        """Job records filtered by priority."""
        if priority is None:
            return self.job_records
        return [r for r in self.job_records if r.priority is priority]

    def execution_vs_mret(self, task_name: str) -> List[tuple]:
        """(time, measured task execution, predicted task MRET) tuples for Figure 9.

        Stage records of the same job are aggregated so the series is at task
        granularity, matching the paper's plot.
        """
        stages = self._stages
        per_job: Dict[int, list] = {}
        for name, job_index, time_ms, execution_ms, mret_ms in zip(
            stages["task_name"],
            stages["job_index"],
            stages["time_ms"],
            stages["execution_time_ms"],
            stages["mret_prediction_ms"],
        ):
            if name != task_name:
                continue
            entry = per_job.get(job_index)
            if entry is None:
                entry = per_job[job_index] = [0.0, 0.0, 0.0]
            entry[0] = max(entry[0], time_ms)
            entry[1] += execution_ms
            entry[2] += mret_ms
        series = [tuple(entry) for entry in per_job.values()]
        series.sort(key=lambda item: item[0])
        return series


def underprediction_rate(series: Sequence[tuple]) -> float:
    """Fraction of jobs whose measured execution exceeded the MRET prediction.

    ``series`` is one task's :meth:`TraceRecorder.execution_vs_mret`.
    """
    if not series:
        return 0.0
    over = sum(1 for _, measured, predicted in series if measured > predicted + 1e-9)
    return over / len(series)
