"""Execution traces for analysis figures.

Figure 9 of the paper plots the measured execution time of ResNet18 against
its MRET prediction over time, for a well-behaved configuration (6x1 OS6) and
for a volatile one (3x3 OS1).  The :class:`TraceRecorder` captures exactly the
information needed for that comparison, plus per-job records used by the
response-time analysis (Figure 8a).

The records are plain values (floats, ints, strings and a
:class:`~repro.rt.task.Priority`), so a recorder serializes losslessly to
JSON (:meth:`TraceRecorder.to_dict`) and traced results are cached like any
other.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, List, Mapping, Optional, Sequence

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


def _to_columns(records: Sequence[object], record_type: type) -> Dict[str, list]:
    """One list per record field; priorities are stored as their ints."""
    columns: Dict[str, list] = {}
    for field in fields(record_type):
        values = [getattr(record, field.name) for record in records]
        if field.name == "priority":
            values = [int(value) for value in values]
        columns[field.name] = values
    return columns


def _from_columns(columns: Mapping[str, Sequence[object]], record_type: type) -> list:
    """Inverse of :func:`_to_columns`; ragged columns raise ``ValueError``."""
    data = []
    for field in fields(record_type):
        values = columns[field.name]
        if field.name == "priority":
            values = [Priority(value) for value in values]
        data.append(values)
    return [record_type(*row) for row in zip(*data, strict=True)]


class TraceRecorder:
    """Collects stage- and job-level records during a run."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.stage_records: List[StageTraceRecord] = []
        self.job_records: List[JobTraceRecord] = []

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TraceRecorder):
            return NotImplemented
        return (self.enabled, self.stage_records, self.job_records) == (
            other.enabled,
            other.stage_records,
            other.job_records,
        )

    def to_dict(self) -> Dict[str, object]:
        """Lossless JSON-safe form, stored by column: one list per field."""
        return {
            "stages": _to_columns(self.stage_records, StageTraceRecord),
            "jobs": _to_columns(self.job_records, JobTraceRecord),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Mapping[str, Sequence[object]]]) -> "TraceRecorder":
        """Rebuild an enabled recorder from :meth:`to_dict` output."""
        recorder = cls(enabled=True)
        recorder.stage_records = _from_columns(data["stages"], StageTraceRecord)
        recorder.job_records = _from_columns(data["jobs"], JobTraceRecord)
        return recorder

    def record_stage(self, record: StageTraceRecord) -> None:
        """Append a stage record (no-op when disabled)."""
        if self.enabled:
            self.stage_records.append(record)

    def record_job(self, record: JobTraceRecord) -> None:
        """Append a job record (no-op when disabled)."""
        if self.enabled:
            self.job_records.append(record)

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
            return list(self.job_records)
        return [r for r in self.job_records if r.priority is priority]

    def execution_vs_mret(self, task_name: str) -> List[tuple]:
        """(time, measured task execution, predicted task MRET) tuples for Figure 9.

        Stage records of the same job are aggregated so the series is at task
        granularity, matching the paper's plot.
        """
        per_job = {}
        for record in self.stage_records:
            if record.task_name != task_name:
                continue
            key = record.job_index
            entry = per_job.setdefault(key, {"time": 0.0, "exec": 0.0, "mret": 0.0})
            entry["time"] = max(entry["time"], record.time_ms)
            entry["exec"] += record.execution_time_ms
            entry["mret"] += record.mret_prediction_ms
        series = [
            (entry["time"], entry["exec"], entry["mret"])
            for entry in per_job.values()
        ]
        series.sort(key=lambda item: item[0])
        return series

    def underprediction_rate(self, task_name: str) -> float:
        """Fraction of jobs whose measured execution exceeded the MRET prediction."""
        series = self.execution_vs_mret(task_name)
        if not series:
            return 0.0
        over = sum(1 for _, measured, predicted in series if measured > predicted + 1e-9)
        return over / len(series)
