"""Configuration and workload grids shared by the experiment modules.

The paper sweeps 2-10 parallel DNNs (``Np = Nc * Ns``) under the three
partitioning policies with oversubscription levels ``OS in {1, 1.5, 2, Nc}``.
``main_grid`` reproduces that sweep; ``quick_grid`` is the reduced subset used
by the benchmark suite.

The cross-backend grids (``backends``, ``faults``, ``dse`` and ``sota``)
share one load-scaled task set (:func:`load_scaled_taskset`) and one
canonical configuration per backend (:func:`backend_grid_config`).

:data:`NAMED_WORKLOADS` is the matching vocabulary for the *workload* half of
a scenario: the canonical, CLI-addressable arrival processes the sweepable
grids (and the ``--workload`` slice flag) use as columns.

The **config-axis** vocabulary lives here too: every fingerprintable field
of a backend's config (``daris.window_size``, ``clockwork.admission_slack``,
``gslice.oversubscription``, ...) and of the GPU spec (``gpu.num_sms``,
``gpu.memory_bandwidth_gbps``, ...) is addressable as ``target.field``.
:func:`parse_config_override` turns one ``target.field=value`` assignment
into a validated :class:`ConfigOverride` (unknown target/field, a value of
the wrong type, or an out-of-range value — negative SM count, zero batching
cap — all raise ``ValueError`` with the vocabulary, *before* any simulation
starts), and :func:`apply_config_overrides` rewrites a request with the
overrides that address it.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Sequence, Tuple

from repro.backends.configs import (
    BatchingConfig,
    ClockworkConfig,
    GSliceConfig,
    SingleConfig,
)
from repro.dnn.model import DnnModel
from repro.rt.taskset import TaskSetSpec, make_taskset
from repro.scheduler.config import DarisConfig, Policy
from repro.sim.faults import (
    NO_FAULTS,
    CrashFault,
    FaultSpec,
    LaunchFault,
    RequestFaults,
)
from repro.sim.workload import (
    DIURNAL_WORKLOAD,
    MMPP_WORKLOAD,
    PERIODIC_WORKLOAD,
    POISSON_WORKLOAD,
    SATURATED_WORKLOAD,
    WorkloadSpec,
)

#: CLI-addressable workload label -> canonical spec.  ``bursty`` is the
#: default two-phase MMPP (quiet/burst at mean rate 1x) and ``diurnal`` is
#: Poisson under a sinusoidal rate profile; the other three are the original
#: flat kinds.  ``trace`` workloads carry explicit times, so they have no
#: canonical named entry — build them with ``WorkloadSpec.trace``.
NAMED_WORKLOADS: Dict[str, WorkloadSpec] = {
    "periodic": PERIODIC_WORKLOAD,
    "poisson": POISSON_WORKLOAD,
    "saturated": SATURATED_WORKLOAD,
    "bursty": MMPP_WORKLOAD,
    "diurnal": DIURNAL_WORKLOAD,
}


def workload_names() -> List[str]:
    """The addressable workload labels, in declaration order."""
    return list(NAMED_WORKLOADS)


def named_workload(label: str) -> WorkloadSpec:
    """Resolve a workload label; unknown labels list the vocabulary."""
    try:
        return NAMED_WORKLOADS[label]
    except KeyError:
        raise KeyError(
            f"unknown workload {label!r}; known: {', '.join(NAMED_WORKLOADS)}"
        ) from None


#: CLI-addressable fault-profile label -> canonical spec — the *fault* half
#: of a scenario's environment, mirroring :data:`NAMED_WORKLOADS`.  ``none``
#: is the fault-free default (its requests keep their pre-fault cache keys
#: byte-identical); the single-kind profiles isolate one fault process each,
#: and ``storm`` composes all four for the worst-case resilience column.
NAMED_FAULTS: Dict[str, FaultSpec] = {
    "none": NO_FAULTS,
    "throttle": FaultSpec.throttle(period_ms=500.0, duration_ms=100.0, factor=0.5),
    "flaky-launch": FaultSpec.flaky_launches(failure_prob=0.08, retry_cost_ms=1.0),
    "crashy": FaultSpec.crashes(mtbf_ms=1500.0, recovery_ms=40.0),
    "lossy": FaultSpec.lossy(drop_prob=0.05, timeout_ms=250.0),
    "storm": (
        FaultSpec.throttle(period_ms=500.0, duration_ms=100.0, factor=0.5)
        .with_launch(LaunchFault(failure_prob=0.08, retry_cost_ms=1.0))
        .with_crash(CrashFault(mtbf_ms=1500.0, recovery_ms=40.0))
        .with_requests(RequestFaults(drop_prob=0.05, timeout_ms=250.0))
    ),
}


def fault_names() -> List[str]:
    """The addressable fault-profile labels, in declaration order."""
    return list(NAMED_FAULTS)


def named_fault(label: str) -> FaultSpec:
    """Resolve a fault-profile label; unknown labels list the vocabulary."""
    try:
        return NAMED_FAULTS[label]
    except KeyError:
        raise KeyError(
            f"unknown fault profile {label!r}; known: {', '.join(NAMED_FAULTS)}"
        ) from None


def oversubscription_options(num_contexts: int, quick: bool = False) -> List[float]:
    """The paper's OS options, clipped to the valid range for ``num_contexts``."""
    options = [1.0, float(num_contexts)] if quick else [1.0, 1.5, 2.0, float(num_contexts)]
    valid = sorted({min(max(option, 1.0), float(num_contexts)) for option in options})
    return valid


def str_configs(quick: bool = False) -> List[DarisConfig]:
    """STR policy configurations (one context, 2..10 streams)."""
    stream_counts = [2, 6, 10] if quick else [2, 3, 4, 6, 8, 10]
    return [DarisConfig.str_config(count) for count in stream_counts]


def mps_configs(quick: bool = False) -> List[DarisConfig]:
    """MPS policy configurations (2..10 contexts, every OS option)."""
    context_counts = [2, 6, 8] if quick else [2, 3, 4, 6, 8, 10]
    configs: List[DarisConfig] = []
    for count in context_counts:
        for oversubscription in oversubscription_options(count, quick):
            configs.append(DarisConfig.mps_config(count, oversubscription))
    return configs


def mps_str_configs(quick: bool = False) -> List[DarisConfig]:
    """MPS+STR policy configurations (Nc x Ns with both > 1)."""
    layouts = [(2, 2), (3, 2)] if quick else [(2, 2), (3, 2), (2, 3), (4, 2), (3, 3), (5, 2)]
    configs: List[DarisConfig] = []
    for num_contexts, streams in layouts:
        for oversubscription in oversubscription_options(num_contexts, quick):
            configs.append(
                DarisConfig.mps_str_config(num_contexts, streams, oversubscription)
            )
    return configs


def main_grid(quick: bool = False) -> List[DarisConfig]:
    """The full Figures 4-6 configuration grid (all three policies)."""
    return str_configs(quick) + mps_configs(quick) + mps_str_configs(quick)


def best_config_for(model_name: str) -> DarisConfig:
    """The per-DNN best-throughput configuration reported by the paper."""
    key = model_name.lower()
    if key == "inceptionv3":
        return DarisConfig.mps_config(8, 8.0)
    return DarisConfig.mps_config(6, 6.0)


def worst_dmr_config() -> DarisConfig:
    """The configuration the paper highlights as the most volatile (3x3 OS1)."""
    return DarisConfig.mps_str_config(3, 3, 1.0)


#: Backends the cross-backend grids measure at saturation (request servers;
#: the load level is moot).
SATURATED_BACKENDS = ("single", "batching_server", "gslice")

#: Backends the cross-backend grids drive by rate-based arrivals at the task
#: sets' mean rates.
POISSON_BACKENDS = ("daris", "rtgpu", "clockwork", "batching_server")


def load_scaled_taskset(model: DnnModel, load_factor: float, name: str) -> TaskSetSpec:
    """A homogeneous task set demanding ``load_factor`` x the batching baseline.

    Tasks run at 25 JPS each (at least three of them), and a third of them
    (at least one) are high priority.
    """
    task_jps = 25.0
    total_tasks = max(3, int(round(load_factor * model.profile.batched_max_jps / task_jps)))
    num_high = max(1, total_tasks // 3)
    return make_taskset(
        [model],
        num_high=num_high,
        num_low=total_tasks - num_high,
        task_jps=task_jps,
        name=name,
    )


def backend_grid_config(backend_name: str, model: DnnModel):
    """The canonical configuration of one backend in the cross-backend grids."""
    if backend_name in ("daris", "rtgpu"):
        return best_config_for(model.name)
    if backend_name == "clockwork":
        return ClockworkConfig()
    if backend_name == "single":
        return SingleConfig()
    if backend_name == "batching_server":
        return BatchingConfig(batch_size=model.profile.preferred_batch_size)
    if backend_name == "gslice":
        return GSliceConfig(batch_sizes=(model.profile.preferred_batch_size,))
    raise KeyError(f"no grid configuration for backend {backend_name!r}")


def horizon_ms(quick: bool = False) -> float:
    """Simulation horizon used by the experiments."""
    return 2500.0 if quick else 6000.0


def policy_name(config: DarisConfig) -> str:
    """Short policy name for report rows."""
    return config.policy.value


# --------------------------------------------------------------- config axes

#: The pseudo-target addressing :class:`~repro.gpu.spec.GpuSpec` fields —
#: hardware axes apply to *every* request of a grid, not one backend's.
GPU_AXIS_TARGET = "gpu"


class ConfigOverride(Tuple[str, str, object]):
    """One validated ``target.field=value`` assignment (value-typed tuple).

    ``target`` is a registered backend name or :data:`GPU_AXIS_TARGET`,
    ``field`` the *canonical* dataclass field name (aliases already
    resolved), ``value`` the coerced, range-checked value.  Being a plain
    tuple keeps overrides hashable and trivially serializable.
    """

    __slots__ = ()

    def __new__(cls, target: str, field: str, value: object) -> "ConfigOverride":
        return super().__new__(cls, (target, field, value))

    @property
    def target(self) -> str:
        return self[0]

    @property
    def field(self) -> str:
        return self[1]

    @property
    def value(self) -> object:
        return self[2]

    def spec_string(self) -> str:
        """The canonical ``target.field=value`` text form."""
        value = self.value
        if isinstance(value, Policy):
            value = value.value
        elif isinstance(value, tuple):
            value = ",".join(str(item) for item in value)
        elif isinstance(value, bool):
            value = "true" if value else "false"
        return f"{self.target}.{self.field}={value}"


def _axis_targets() -> Dict[str, type]:
    """Axis target -> config class: every registered backend plus ``gpu``."""
    from repro.backends import all_backends
    from repro.gpu.spec import GpuSpec

    targets: Dict[str, type] = {
        backend.name: backend.config_type for backend in all_backends()
    }
    targets[GPU_AXIS_TARGET] = GpuSpec
    return targets


def config_axis_vocabulary() -> Dict[str, Dict[str, object]]:
    """Every addressable axis: target -> canonical field -> :class:`AxisField`."""
    from repro.backends.base import axis_fields_of

    return {
        target: axis_fields_of(config_cls)
        for target, config_cls in sorted(_axis_targets().items())
    }


def format_axis_vocabulary() -> str:
    """One-line-per-target summary of the axis vocabulary (error messages)."""
    lines = []
    for target, axes in config_axis_vocabulary().items():
        names = []
        for axis in axes.values():
            names.append(
                axis.name if not axis.aliases else f"{axis.name}|{'|'.join(axis.aliases)}"
            )
        lines.append(f"  {target}: {', '.join(names)}")
    return "\n".join(lines)


def _probe_instance(target: str, config_cls: type) -> object:
    """A constructible default instance range checks are probed against."""
    from repro.gpu.spec import RTX_2080_TI

    if target == GPU_AXIS_TARGET:
        return RTX_2080_TI
    if config_cls is DarisConfig:
        # DarisConfig has no no-argument default; probe the widest MPS shape
        # so per-field range checks (window >= 1, OS within [1, Nc]) engage.
        return DarisConfig.mps_config(8, 1.0)
    return config_cls()


def _coerce_value(text: str, reference: object, annotation: str, field: str) -> object:
    """Coerce override text to the field's value type; ValueError on mismatch."""
    lowered = text.strip().lower()
    if isinstance(reference, bool) or annotation == "bool":
        if lowered in ("true", "1", "yes", "on"):
            return True
        if lowered in ("false", "0", "no", "off"):
            return False
        raise ValueError(f"expected a boolean for {field!r}, got {text!r}")
    if isinstance(reference, int) or annotation == "int":
        try:
            return int(text)
        except ValueError:
            raise ValueError(f"expected an integer for {field!r}, got {text!r}") from None
    if isinstance(reference, float) or annotation == "float":
        try:
            return float(text)
        except ValueError:
            raise ValueError(f"expected a number for {field!r}, got {text!r}") from None
    if isinstance(reference, Policy) or annotation == "Policy":
        try:
            return Policy(text)
        except ValueError:
            options = "/".join(policy.value for policy in Policy)
            raise ValueError(
                f"expected a policy ({options}) for {field!r}, got {text!r}"
            ) from None
    if isinstance(reference, str) or annotation == "str":
        return text
    # Optional / tuple-valued fields (no reference value): literal parsing.
    if lowered in ("none", "null"):
        return None
    tuple_valued = isinstance(reference, tuple) or "Tuple" in annotation
    if tuple_valued or "," in text:
        items = [item.strip() for item in text.split(",") if item.strip()]
        try:
            return tuple(int(item) for item in items)
        except ValueError:
            try:
                return tuple(float(item) for item in items)
            except ValueError:
                raise ValueError(
                    f"expected a comma-separated number list for {field!r}, got {text!r}"
                ) from None
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def parse_config_override(text: str) -> ConfigOverride:
    """Parse and validate one ``target.field=value`` assignment.

    Raises ``ValueError`` — listing the axis vocabulary — for an unknown
    target or field, a value that does not coerce to the field's type, or a
    value the config itself rejects (the range check is probed by applying
    the override to the target's default instance, so a negative SM count or
    a zero batching cap fails here, not as a traceback mid-sweep).
    """
    assignment, separator, value_text = text.partition("=")
    target, dot, field_text = assignment.partition(".")
    if not separator or not dot or not target or not field_text:
        raise ValueError(
            f"expected TARGET.FIELD=VALUE (e.g. daris.mret_window=8), got {text!r}"
        )
    targets = _axis_targets()
    if target not in targets:
        raise ValueError(
            f"unknown config-axis target {target!r}; known targets and fields:\n"
            + format_axis_vocabulary()
        )
    from repro.backends.base import axis_fields_of

    config_cls = targets[target]
    canonical = getattr(config_cls, "FIELD_ALIASES", {}).get(field_text, field_text)
    axes = axis_fields_of(config_cls)
    if canonical not in axes:
        raise ValueError(
            f"unknown config axis {target}.{field_text}; known targets and fields:\n"
            + format_axis_vocabulary()
        )
    axis = axes[canonical]
    value = _coerce_value(value_text, axis.default, axis.type_name, canonical)
    # Range probe: the dataclasses' own __post_init__ validation, surfaced
    # at parse time against the target's default instance.  Cross-field
    # constraints are re-checked against each grid's real configs when the
    # override is applied.
    probe = _probe_instance(target, config_cls)
    try:
        probe.with_field(canonical, value)
    except (ValueError, TypeError) as error:
        raise ValueError(f"invalid value for {target}.{canonical}: {error}") from None
    return ConfigOverride(target, canonical, value)


def parse_config_overrides(texts: Sequence[object]) -> Tuple[ConfigOverride, ...]:
    """Parse several override strings (the ``config_overrides`` spec param).

    Already-parsed :class:`ConfigOverride` instances pass through, so the
    parameter can carry either canonical strings (what the CLI and the sweep
    manifest serialize) or parsed overrides (programmatic callers).
    """
    return tuple(
        text if isinstance(text, ConfigOverride) else parse_config_override(str(text))
        for text in texts
    )


def apply_config_overrides(
    request, overrides: Sequence[ConfigOverride]
):
    """Rewrite one request with every override that addresses it.

    ``gpu`` overrides apply to every request (hardware is scenario-global);
    backend overrides apply only to requests dispatched to that backend, so
    one override list can shape a heterogeneous grid.  Returns the request
    unchanged (same object) when nothing addresses it.
    """
    changed = request
    for override in overrides:
        if override.target == GPU_AXIS_TARGET:
            changed = replace(changed, gpu=changed.gpu.with_field(override.field, override.value))
        elif changed.scheduler == override.target:
            changed = replace(
                changed, config=changed.config.with_field(override.field, override.value)
            )
    return changed
