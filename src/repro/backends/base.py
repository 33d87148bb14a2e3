"""The scheduler-backend protocol.

A *backend* turns one :class:`~repro.experiments.parallel.ScenarioRequest`
into one :class:`~repro.experiments.runner.ScenarioResult`: it interprets the
request's task set, workload (arrival process), configuration, GPU, seed and
horizon, runs its scheduler/server, and returns the uniform
:class:`~repro.rt.metrics.ScenarioMetrics` summary.  DARIS itself and every
baseline the paper compares against implement the same protocol, which is
what lets the experiment engine give *any* scheduler seed replication, CI
aggregation, disk caching and sharded sweeps without knowing which one it is
running.

Backends are stateless (a fresh server/scheduler is built per run), so one
registered instance can serve concurrent requests from the multiprocessing
pool — each worker process re-imports the registry and dispatches by name.
"""

from __future__ import annotations

import abc
import dataclasses
import math
import numbers
from typing import TYPE_CHECKING, ClassVar, Dict, List, Optional, Tuple, Type

from repro.dnn.model import DnnModel
from repro.rt.taskset import TaskSetSpec
from repro.sim.faults import DEFAULT_POLICY, FaultSpec, ResiliencePolicy
from repro.sim.workload import WorkloadSpec

if TYPE_CHECKING:  # imported lazily at runtime to avoid an import cycle
    from repro.experiments.parallel import ScenarioRequest
    from repro.experiments.runner import ScenarioResult


class BackendRequestError(ValueError):
    """A request is malformed for the backend it names (config/workload/trace)."""


@dataclasses.dataclass(frozen=True)
class AxisField:
    """One sweepable configuration field of a backend (or of the GPU spec).

    The design-space-exploration layer treats every fingerprintable dataclass
    field of a backend's config (and of :class:`~repro.gpu.spec.GpuSpec`) as
    a potential sweep axis; this is the declaration the CLI vocabulary,
    ``list --json`` and the ``--set`` validator are built from.

    Attributes:
        name: the canonical dataclass field name.
        type_name: the field's value type on the default/probe instance
            (what ``--set`` coerces the text to).
        default: the field's default value (``None`` when the field is
            required and has no default).
        aliases: accepted alternative spellings (``mret_window`` for
            DARIS's ``window_size``).
    """

    name: str
    type_name: str
    default: Optional[object] = None
    aliases: Tuple[str, ...] = ()


def axis_fields_of(config_cls: Type) -> Dict[str, AxisField]:
    """The sweepable fields of one config dataclass, keyed by canonical name.

    Any fingerprintable dataclass field is sweepable; ``FIELD_ALIASES``
    (when the class declares it) contributes the accepted alternative
    spellings.  Works for ``DarisConfig``, every ``BackendConfig`` subclass
    and ``GpuSpec`` — they share the frozen-dataclass + aliases protocol.
    """
    aliases_of: Dict[str, List[str]] = {}
    for alias, target in getattr(config_cls, "FIELD_ALIASES", {}).items():
        aliases_of.setdefault(target, []).append(alias)
    axes: Dict[str, AxisField] = {}
    for config_field in dataclasses.fields(config_cls):
        default = (
            config_field.default
            if config_field.default is not dataclasses.MISSING
            else None
        )
        if default is not None:
            type_name = type(default).__name__
        else:
            # Required fields (and None-defaulted optionals) carry their
            # annotation instead of a value type.
            type_name = str(config_field.type).replace("typing.", "")
        axes[config_field.name] = AxisField(
            name=config_field.name,
            type_name=type_name,
            default=default,
            aliases=tuple(sorted(aliases_of.get(config_field.name, []))),
        )
    return axes


class SchedulerBackend(abc.ABC):
    """One scheduling system behind the uniform scenario API.

    Class attributes (the backend's declaration):

    * ``name`` — registry key, the value of ``ScenarioRequest.scheduler``.
    * ``title`` — one-line description for CLI listings.
    * ``config_type`` — the configuration class requests must carry
      (:class:`~repro.scheduler.config.DarisConfig` or a
      :class:`~repro.backends.configs.BackendConfig` subclass).
    * ``supported_arrivals`` — which workload arrival kinds the backend can
      execute (subset of :data:`~repro.sim.workload.ARRIVAL_KINDS`).
    * ``supports_traces`` — whether ``with_trace=True`` requests are
      honoured (only DARIS records stage traces).
    * ``deterministic`` — the backend itself draws no randomness, so the
      request seed can only matter through rng-driven arrivals or fault
      draws (see :meth:`seed_sensitive`).
    * ``resilience`` — the backend's :class:`ResiliencePolicy`: how it
      answers injected faults (launch-retry budget, degraded-mode shedding,
      fallback mode).  A property of the backend's *algorithm*, not of the
      scenario, so it is never fingerprinted.
    """

    name: ClassVar[str]
    title: ClassVar[str] = ""
    config_type: ClassVar[Type]
    supported_arrivals: ClassVar[Tuple[str, ...]] = ("periodic",)
    supports_traces: ClassVar[bool] = False
    deterministic: ClassVar[bool] = False
    resilience: ClassVar[ResiliencePolicy] = DEFAULT_POLICY

    @classmethod
    def config_axes(cls) -> Dict[str, AxisField]:
        """The backend's sweepable config fields (its config-axis vocabulary).

        Derived from ``config_type``: every fingerprintable field is a
        declared axis, addressable as ``<backend>.<field>`` by experiment
        grids and the CLI's ``--set`` overrides.
        """
        return axis_fields_of(cls.config_type)

    def seed_sensitive(
        self, workload: WorkloadSpec, faults: Optional[FaultSpec] = None
    ) -> bool:
        """Whether the request seed can influence the result under ``workload``.

        The experiment engine consults this when crossing a grid with the
        ``--seeds N`` replication axis: replicating a seed-insensitive
        scenario would re-simulate (and cache) N identical results, so such
        requests keep their base seed across replicates and every replicate
        shares one simulation and one cache entry — the behaviour the
        pre-backend experiment code got by computing deterministic baselines
        once per run.
        """
        if not self.deterministic:
            return True
        # Randomized fault processes (launch failures, crashes, drops,
        # random slowdown windows) draw from seeded streams, so they make
        # even a purely deterministic server seed-sensitive.
        if faults is not None and faults.randomized:
            return True
        # A deterministic server otherwise sees the seed only through
        # rng-driven arrivals: randomized base kinds (poisson, mmpp) or a
        # jitter modulator.  The workload spec itself knows which it is.
        return workload.randomized

    def validate_request(self, request: "ScenarioRequest") -> None:
        """Reject a request this backend cannot execute, with a clear reason."""
        if request.scheduler != self.name:
            raise BackendRequestError(
                f"request names scheduler {request.scheduler!r}, not {self.name!r}"
            )
        if not isinstance(request.config, self.config_type):
            raise BackendRequestError(
                f"the {self.name!r} backend needs a {self.config_type.__name__}"
                f" config, got {type(request.config).__name__}"
            )
        if request.workload.arrival not in self.supported_arrivals:
            raise BackendRequestError(
                f"the {self.name!r} backend supports"
                f" {'/'.join(self.supported_arrivals)} workloads,"
                f" not {request.workload.arrival!r}"
            )
        if request.with_trace and not self.supports_traces:
            raise BackendRequestError(
                f"the {self.name!r} backend does not record stage traces"
            )
        horizon = request.horizon_ms
        if not (isinstance(horizon, numbers.Real) and math.isfinite(horizon) and horizon > 0):
            raise BackendRequestError(
                f"horizon_ms must be a finite number above 0, got {horizon!r}"
            )

    def execute(self, request: "ScenarioRequest") -> "ScenarioResult":
        """Validate and run: the entry point the scenario runner dispatches to."""
        self.validate_request(request)
        return self.run(request)

    @abc.abstractmethod
    def run(self, request: "ScenarioRequest") -> "ScenarioResult":
        """Execute one validated request and return its result."""

    # ------------------------------------------------------------- utilities

    @staticmethod
    def taskset_models(taskset: TaskSetSpec) -> List[DnnModel]:
        """Distinct DNN models of a task set, in order of first appearance.

        The request-server backends (single / batching / GSlice) are
        model-centric rather than task-centric; they derive their served
        models from the shared task set so the same scenario vocabulary
        drives every backend.
        """
        models: List[DnnModel] = []
        seen = set()
        for task in taskset.tasks:
            if task.model.name not in seen:
                seen.add(task.model.name)
                models.append(task.model)
        return models

    def single_model(self, taskset: TaskSetSpec) -> DnnModel:
        """The task set's one model; error if it is heterogeneous."""
        models = self.taskset_models(taskset)
        if len(models) != 1:
            raise BackendRequestError(
                f"the {self.name!r} backend serves exactly one model;"
                f" the task set contains {len(models)}"
                f" ({', '.join(model.name for model in models)})"
            )
        return models[0]
