"""Task-set construction (paper Table II and the Figure 11 ratio study).

The paper's three main task sets each consist of a single DNN type, sized so
that the total demanded throughput is roughly 150 % of the pure-batching upper
baseline (the "150 % overload" of Section V), with a 2:1 LP-to-HP task ratio:

========== ===== ===== ==========
Task set   #High #Low  Task JPS
========== ===== ===== ==========
ResNet18     17    34      30
UNet          5    10      24
InceptionV3   9    18      24
========== ===== ===== ==========

A mixed set combines all three DNNs (Figure 7), and :func:`ratio_taskset`
builds the full-load / overload task sets with configurable HP:LP ratios used
in Figure 11.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.canonical import splice_json
from repro.dnn.model import DnnModel
from repro.dnn.zoo import build_model
from repro.numeric import left_sum
from repro.rt.task import Priority, TaskSpec


@dataclass(frozen=True)
class Table2Row:
    """One row of the paper's Table II."""

    model_name: str
    num_high: int
    num_low: int
    task_jps: float


TABLE2: Dict[str, Table2Row] = {
    "resnet18": Table2Row("resnet18", num_high=17, num_low=34, task_jps=30.0),
    "unet": Table2Row("unet", num_high=5, num_low=10, task_jps=24.0),
    "inceptionv3": Table2Row("inceptionv3", num_high=9, num_low=18, task_jps=24.0),
}


@dataclass(frozen=True)
class TaskSetSpec:
    """A fully specified task set ready to be instantiated by a scheduler.

    The task sequence is stored as a tuple so the spec is hashable and
    compares by value: two independently built but identical task sets are
    equal, which gives :class:`~repro.experiments.parallel.ScenarioRequest`
    a stable identity (and cache key).
    """

    name: str
    tasks: Tuple[TaskSpec, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.tasks, tuple):
            object.__setattr__(self, "tasks", tuple(self.tasks))

    def fingerprint(self) -> Dict[str, object]:
        """Canonical nested dictionary of the full task set (for cache keys)."""
        return {
            "name": self.name,
            "tasks": [task.to_dict() for task in self.tasks],
        }

    @functools.cached_property
    def fingerprint_json(self) -> str:
        """:meth:`fingerprint` as canonical JSON: sorted keys, no whitespace.

        Encoded once per instance, because a grid shares a few task sets
        among many requests and the task set is nearly all of a cache key's
        bytes.  Each task splices in its model's memoized JSON
        (:attr:`TaskSpec.fingerprint_json`), so a model that many tasks
        serve is encoded once.  The memo sits in the instance ``__dict__``
        only, outside the dataclass fields, so ``==``, ``hash`` and ``repr``
        never see it, and :meth:`__getstate__` leaves it out of the pickled
        state.
        """
        tasks = ",".join(task.fingerprint_json for task in self.tasks)
        return splice_json({"name": self.name}, "tasks", f"[{tasks}]")

    def __getstate__(self) -> Dict[str, object]:
        state = dict(self.__dict__)
        state.pop("fingerprint_json", None)
        return state

    @property
    def num_high(self) -> int:
        """Number of HP tasks."""
        return sum(1 for task in self.tasks if task.priority is Priority.HIGH)

    @property
    def num_low(self) -> int:
        """Number of LP tasks."""
        return sum(1 for task in self.tasks if task.priority is Priority.LOW)

    @property
    def total_demand_jps(self) -> float:
        """Total demanded throughput in inferences per second (batches count batch_size)."""
        return left_sum(task.batch_size * 1000.0 / task.period_ms for task in self.tasks)

    def demand_jps(self, priority: Priority) -> float:
        """Demanded inference throughput of one priority level."""
        return left_sum(
            task.batch_size * 1000.0 / task.period_ms
            for task in self.tasks
            if task.priority is priority
        )


def _staggered_phases(count: int, period_ms: float) -> List[float]:
    """Evenly staggered release phases so tasks do not all release at once."""
    if count <= 0:
        return []
    return [period_ms * index / count for index in range(count)]


def make_taskset(
    models: Sequence[DnnModel],
    num_high: int,
    num_low: int,
    task_jps: float,
    name: str = "custom",
    batch_size: int = 1,
    start_task_id: int = 0,
) -> TaskSetSpec:
    """Build a task set with ``num_high`` HP and ``num_low`` LP tasks.

    DNN models are assigned round-robin from ``models`` so a single-model list
    yields a homogeneous set (Table II) while a multi-model list yields a mixed
    set (Figure 7).

    ``task_jps`` is the *inference* rate of each task.  With ``batch_size > 1``
    (the Figure 10 study) each released job carries a whole batch, so the
    period is stretched by the batch size and the demanded inference rate is
    unchanged.
    """
    if task_jps <= 0:
        raise ValueError("task_jps must be positive")
    if num_high < 0 or num_low < 0 or num_high + num_low == 0:
        raise ValueError("the task set must contain at least one task")
    if not models:
        raise ValueError("at least one DNN model is required")

    period_ms = 1000.0 * batch_size / task_jps
    total = num_high + num_low
    phases = _staggered_phases(total, period_ms)
    tasks: List[TaskSpec] = []
    for index in range(total):
        priority = Priority.HIGH if index < num_high else Priority.LOW
        model = models[index % len(models)]
        tasks.append(
            TaskSpec(
                task_id=start_task_id + index,
                model=model,
                period_ms=period_ms,
                priority=priority,
                batch_size=batch_size,
                phase_ms=phases[index],
            )
        )
    return TaskSetSpec(name=name, tasks=tasks)


def table2_taskset(
    model_name: str,
    model: Optional[DnnModel] = None,
    batch_size: int = 1,
    scale: float = 1.0,
) -> TaskSetSpec:
    """Build one of the paper's Table II task sets.

    Args:
        model_name: ``resnet18``, ``unet`` or ``inceptionv3``.
        model: optionally a pre-built model (to avoid rebuilding the zoo).
        batch_size: per-task inference batch size (Figure 10 uses 4/2/8).
        scale: fraction of the Table II task counts to instantiate; useful for
            scaled-down continuous-integration runs.
    """
    key = model_name.lower()
    if key not in TABLE2:
        raise KeyError(f"unknown Table II task set {model_name!r}; known: {sorted(TABLE2)}")
    row = TABLE2[key]
    dnn = model if model is not None else build_model(key)
    num_high = max(1, int(round(row.num_high * scale)))
    num_low = max(1, int(round(row.num_low * scale)))
    return make_taskset(
        [dnn],
        num_high=num_high,
        num_low=num_low,
        task_jps=row.task_jps,
        name=f"table2/{key}",
        batch_size=batch_size,
    )


def mixed_taskset(
    models: Optional[Dict[str, DnnModel]] = None,
    scale: float = 1.0,
    batch_size: int = 1,
) -> TaskSetSpec:
    """Mixed task set containing all three DNN types (Figure 7).

    The composition keeps each network's Table II rate and the global 2:1
    LP-to-HP ratio, at roughly one third of each homogeneous set's size so the
    combined demand stays comparable to a single Table II set.
    """
    if models is None:
        models = {name: build_model(name) for name in TABLE2}
    tasks: List[TaskSpec] = []
    next_id = 0
    for key, row in TABLE2.items():
        dnn = models[key]
        num_high = max(1, int(round(row.num_high * scale / 3.0)))
        num_low = max(1, int(round(row.num_low * scale / 3.0)))
        subset = make_taskset(
            [dnn],
            num_high=num_high,
            num_low=num_low,
            task_jps=row.task_jps,
            name=f"mixed/{key}",
            batch_size=batch_size,
            start_task_id=next_id,
        )
        tasks.extend(subset.tasks)
        next_id += len(subset.tasks)
    return TaskSetSpec(name="mixed", tasks=tasks)


def ratio_taskset(
    model_name: str,
    hp_fraction: float,
    load_factor: float,
    upper_baseline_jps: Optional[float] = None,
    model: Optional[DnnModel] = None,
    task_jps: Optional[float] = None,
) -> TaskSetSpec:
    """Task set for the overload / HP-ratio study (Figure 11).

    Args:
        model_name: DNN to use (the paper uses ResNet18 and UNet).
        hp_fraction: fraction of the demanded load contributed by HP tasks
            (e.g. ``1/3`` for the default 2:1 LP-to-HP ratio, ``0.5``, ``1.0``).
        load_factor: demanded load relative to the upper baseline (1.0 = full
            load, 1.5 = the paper's overload scenario).
        upper_baseline_jps: throughput treated as "full load"; defaults to the
            profile's batched maximum (Table I).
        model: optionally a pre-built model.
        task_jps: per-task rate; defaults to the Table II rate for the model.
    """
    if not 0.0 <= hp_fraction <= 1.0:
        raise ValueError("hp_fraction must be within [0, 1]")
    if load_factor <= 0:
        raise ValueError("load_factor must be positive")
    key = model_name.lower()
    dnn = model if model is not None else build_model(key)
    if upper_baseline_jps is None:
        upper_baseline_jps = dnn.profile.batched_max_jps
    if task_jps is None:
        task_jps = TABLE2[key].task_jps if key in TABLE2 else 30.0

    total_tasks = max(1, int(round(load_factor * upper_baseline_jps / task_jps)))
    num_high = int(round(hp_fraction * total_tasks))
    num_high = min(max(num_high, 0), total_tasks)
    num_low = total_tasks - num_high
    if num_high == 0 and hp_fraction > 0:
        num_high, num_low = 1, max(0, num_low - 1)
    return make_taskset(
        [dnn],
        num_high=num_high,
        num_low=num_low,
        task_jps=task_jps,
        name=f"ratio/{key}/hp{hp_fraction:.2f}/load{load_factor:.2f}",
    )


def demanded_load_factor(taskset: TaskSetSpec, upper_baseline_jps: float) -> float:
    """Demanded throughput of a task set relative to an upper baseline."""
    if upper_baseline_jps <= 0:
        raise ValueError("upper_baseline_jps must be positive")
    return taskset.total_demand_jps / upper_baseline_jps
