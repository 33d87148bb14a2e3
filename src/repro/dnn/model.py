"""Calibrated DNN models.

A :class:`DnnModel` combines the layer-level architecture (relative work and
width per stage) with the calibration profile (absolute single-stream latency
and occupancy) into the stage specifications the scheduler dispatches.

A single un-batched inference leaves the GPU partially idle for two distinct
reasons, and the split between them matters for the oversubscription study:

* *launch gaps* — the time between consecutive small kernels (CPU launch cost
  plus GPU scheduling gaps); during a gap the owning context's SMs are idle
  and can only be reclaimed by another stream of the same context or, with
  oversubscription, by another context;
* *narrow kernels* — kernels that cannot occupy every SM of their context.

Calibration solves for two global scale factors:

* a *work scale* so the total work equals
  ``isolated_latency * occupancy_fraction * num_sms`` SM-milliseconds
  (this pins the colocation roofline to ``single_stream_jps /
  occupancy_fraction``), and
* a *parallelism scale* so that executing the stages back to back with all
  SMs available takes exactly the profile's isolated latency *minus* the
  launch-gap time implied by the model's kernel count.

The relative distribution of work and width across stages is preserved from
the real architecture, so stage-level behaviour (which stage is long, which
stage is wide) remains faithful.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.canonical import canonical_json
from repro.dnn.layer import LayerSpec
from repro.dnn.profiles import DnnProfile
from repro.dnn.stage import StageSpec
from repro.gpu.calibration import DEFAULT_CALIBRATION, GpuCalibration
from repro.gpu.spec import GpuSpec, RTX_2080_TI
from repro.numeric import left_sum

_MIN_PARALLELISM = 1.0


def launch_gap_ms(
    num_kernels: int,
    num_stages: int,
    gpu: GpuSpec = RTX_2080_TI,
    calibration: GpuCalibration = DEFAULT_CALIBRATION,
) -> float:
    """Total launch-gap time of one inference (kernel gaps + per-stage dispatch)."""
    if num_kernels < 0 or num_stages < 0:
        raise ValueError("kernel and stage counts must be non-negative")
    return num_kernels * gpu.launch_overhead_ms + num_stages * calibration.dispatch_overhead_ms


@dataclass(frozen=True)
class DnnModel:
    """A DNN ready to be scheduled: calibrated stages plus its profile.

    The stage sequence is stored as a tuple so the model is hashable and
    compares by value — two independently calibrated copies of the same
    network are equal, which is what gives :class:`ScenarioRequest` its
    stable identity (and cache key).
    """

    name: str
    profile: DnnProfile
    stages: Tuple[StageSpec, ...] = ()
    gpu: GpuSpec = RTX_2080_TI

    def __post_init__(self) -> None:
        if not isinstance(self.stages, tuple):
            object.__setattr__(self, "stages", tuple(self.stages))

    @property
    def num_stages(self) -> int:
        """Number of DARIS stages."""
        return len(self.stages)

    def fingerprint(self) -> Dict[str, object]:
        """Canonical nested dictionary describing the calibrated model.

        Every quantity that influences simulated behaviour is included, so
        two models with the same fingerprint are interchangeable in a
        scenario.  Used by the experiment result cache.
        """
        return {
            "name": self.name,
            "profile": self.profile.to_dict(),
            "stages": [stage.to_dict() for stage in self.stages],
            "gpu": self.gpu.to_dict(),
        }

    @functools.cached_property
    def fingerprint_json(self) -> str:
        """:meth:`fingerprint` as canonical JSON: sorted keys, no whitespace.

        Encoded once per instance, because every task that serves the model
        embeds it in its task set's cache key, and :func:`repro.dnn.build_model`
        hands out one instance per name and GPU.  The memo sits in the
        instance ``__dict__`` only, outside the dataclass fields, so ``==``,
        ``hash`` and ``repr`` never see it, and :meth:`__getstate__` leaves
        it out of the pickled state.
        """
        return canonical_json(self.fingerprint())

    def __getstate__(self) -> Dict[str, object]:
        state = dict(self.__dict__)
        state.pop("fingerprint_json", None)
        return state

    @property
    def total_work(self) -> float:
        """Total compute demand of one inference in SM-milliseconds."""
        return left_sum(stage.work for stage in self.stages)

    @property
    def total_kernels(self) -> int:
        """Number of CUDA kernel launches per inference."""
        return sum(stage.num_kernels for stage in self.stages)

    def launch_gap_ms(self, calibration: GpuCalibration = DEFAULT_CALIBRATION) -> float:
        """Per-inference launch-gap time (idle time between kernels and stages)."""
        return launch_gap_ms(self.total_kernels, self.num_stages, self.gpu, calibration)

    def compute_latency_ms(self) -> float:
        """Kernel execution time of one inference alone on the full GPU (gaps excluded)."""
        return left_sum(stage.isolated_duration_ms(self.gpu.num_sms) for stage in self.stages)

    def isolated_latency_ms(self, calibration: GpuCalibration = DEFAULT_CALIBRATION) -> float:
        """Latency of one inference running alone on the full GPU (gaps included)."""
        return self.compute_latency_ms() + self.launch_gap_ms(calibration)

    def mean_parallelism(self) -> float:
        """Work-weighted average SM occupancy of one inference while kernels run."""
        total = self.total_work
        if total == 0:
            return 0.0
        return total / self.compute_latency_ms()

    def stage_work_fractions(self) -> List[float]:
        """Fraction of total work contributed by each stage."""
        total = self.total_work
        return [stage.work / total for stage in self.stages]

    def merged(self) -> "DnnModel":
        """Return a single-stage version of this model (the "No Staging" ablation)."""
        total_work = self.total_work
        total_kernels = self.total_kernels
        weighted_parallelism = left_sum(s.work * s.parallelism for s in self.stages) / total_work
        weighted_memory = left_sum(s.work * s.memory_intensity for s in self.stages) / total_work
        merged_stage = StageSpec(
            name=f"{self.name}/whole",
            index=0,
            work=total_work,
            parallelism=weighted_parallelism,
            num_kernels=total_kernels,
            memory_intensity=weighted_memory,
        )
        return DnnModel(name=self.name, profile=self.profile, stages=[merged_stage], gpu=self.gpu)


def _stage_aggregates(stage_layers: Sequence[LayerSpec]) -> tuple:
    """Raw (work, width, kernel count, memory intensity) of a group of layers."""
    raw_work = left_sum(layer.flops_m for layer in stage_layers)
    if raw_work <= 0:
        raw_work = 1e-6
    width = left_sum(layer.flops_m * layer.relative_width for layer in stage_layers) / raw_work
    kernels = sum(layer.kernel_count for layer in stage_layers)
    memory = left_sum(layer.memory_mb for layer in stage_layers)
    return raw_work, width, kernels, memory


def calibrate_model(
    name: str,
    profile: DnnProfile,
    stage_layers: Sequence[Sequence[LayerSpec]],
    gpu: GpuSpec = RTX_2080_TI,
    calibration: GpuCalibration = DEFAULT_CALIBRATION,
) -> DnnModel:
    """Build a calibrated :class:`DnnModel` from per-stage layer lists."""
    if len(stage_layers) != profile.num_stages:
        raise ValueError(
            f"{name}: expected {profile.num_stages} stages, got {len(stage_layers)}"
        )

    aggregates = [_stage_aggregates(layers) for layers in stage_layers]
    raw_works = [agg[0] for agg in aggregates]
    raw_widths = [agg[1] for agg in aggregates]
    kernel_counts = [agg[2] for agg in aggregates]
    memory_mbs = [agg[3] for agg in aggregates]

    # Absolute work: total_work = isolated_latency * mean_parallelism.
    isolated_latency = profile.isolated_latency_ms
    mean_parallelism = profile.occupancy_fraction * gpu.num_sms
    target_total_work = isolated_latency * mean_parallelism
    work_scale = target_total_work / left_sum(raw_works)
    works = [raw * work_scale for raw in raw_works]

    # The kernel execution time is the isolated latency minus the launch gaps
    # implied by the model's kernel count; the gaps themselves are charged by
    # the GPU engine's per-context dispatcher at run time.
    gap_time = launch_gap_ms(sum(kernel_counts), len(stage_layers), gpu, calibration)
    compute_latency = max(isolated_latency - gap_time, 0.25 * isolated_latency)

    # Parallelism scale: find sigma such that the back-to-back kernel execution
    # time on the full GPU equals the compute latency.  The latency is a
    # monotonically decreasing function of sigma, so bisection converges.
    def latency_for(sigma: float) -> float:
        total = 0.0
        for work, width in zip(works, raw_widths):
            parallelism = min(max(sigma * width, _MIN_PARALLELISM), float(gpu.num_sms))
            total += work / parallelism
        return total

    low, high = 1e-6, 1e6
    for _ in range(200):
        mid = (low + high) / 2.0
        if latency_for(mid) > compute_latency:
            low = mid
        else:
            high = mid
    sigma = (low + high) / 2.0

    # Memory intensity: distribute the profile-level intensity across stages
    # proportionally to their per-work memory traffic.
    mem_per_work = [mb / max(w, 1e-9) for mb, w in zip(memory_mbs, works)]
    mean_mem_per_work = left_sum(m * w for m, w in zip(mem_per_work, works)) / left_sum(works)
    stages: List[StageSpec] = []
    for index, (work, width, kernels, mem_ratio) in enumerate(
        zip(works, raw_widths, kernel_counts, mem_per_work)
    ):
        parallelism = min(max(sigma * width, _MIN_PARALLELISM), float(gpu.num_sms))
        relative_memory = mem_ratio / max(mean_mem_per_work, 1e-9)
        memory_intensity = min(1.0, profile.memory_intensity * relative_memory)
        stages.append(
            StageSpec(
                name=f"{name}/stage{index}",
                index=index,
                work=work,
                parallelism=parallelism,
                num_kernels=kernels,
                memory_intensity=memory_intensity,
            )
        )
    return DnnModel(name=name, profile=profile, stages=stages, gpu=gpu)
