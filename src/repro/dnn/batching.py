"""Batching model.

Batching a DNN inference has three effects on the simulated GPU:

1. kernels *widen* — every stage's parallelism is multiplied by the batch size
   (capped at the physical SM count), so a single batched job can occupy SMs a
   single inference would leave idle;
2. launch gaps are *amortized* — one batch still issues one set of kernel
   launches, so the per-inference gap time shrinks by the batch size; and
3. per-inference kernel work changes — larger kernels are more efficient for
   networks with many small kernels (InceptionV3) but carry extra memory
   pressure for activation-heavy networks (UNet), so the per-inference work
   interpolates between the un-batched work ``W_1`` and a saturated value
   ``W_sat`` calibrated from Table I's batched maximum::

       W_b(B) = W_sat + (W_1 - W_sat) / B

The resulting single-stream batched throughput reproduces Figure 1 / Table I,
and because the widened kernels and amortized gaps are modelled explicitly,
colocating batched jobs under DARIS can exceed the single-stream batching
baseline exactly the way the paper's Section VI-H reports.
"""

from __future__ import annotations

from typing import List

from repro.dnn.model import DnnModel
from repro.dnn.stage import StageSpec
from repro.gpu.kernel import KernelSpec
from repro.numeric import left_sum

_REFERENCE_BATCH = 16


def saturated_work_per_inference(model: DnnModel) -> float:
    """Per-inference work (SM-ms) at a large batch size, anchored to Table I max."""
    profile = model.profile
    gap = model.launch_gap_ms()
    num_sms = float(model.gpu.num_sms)
    latency_at_reference = 1000.0 * _REFERENCE_BATCH / profile.batched_max_jps
    compute_latency = max(latency_at_reference - gap, 0.25 * latency_at_reference)
    return compute_latency * num_sms / _REFERENCE_BATCH


def work_per_inference(model: DnnModel, batch_size: int) -> float:
    """Per-inference work at ``batch_size`` (interpolates W_1 -> W_sat)."""
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    unbatched = model.total_work
    saturated = saturated_work_per_inference(model)
    return saturated + (unbatched - saturated) / batch_size


def batched_stage_specs(model: DnnModel, batch_size: int) -> List[StageSpec]:
    """Stage specifications for a batch of ``batch_size`` inferences.

    The relative work split across stages is preserved; parallelism widens with
    the batch size (capped at the physical SM count); the launch count stays
    the same, so the engine charges the same absolute gap per batch.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if batch_size == 1:
        return list(model.stages)

    num_sms = float(model.gpu.num_sms)
    total_batch_work = work_per_inference(model, batch_size) * batch_size
    unbatched_total = model.total_work
    specs: List[StageSpec] = []
    for stage in model.stages:
        share = stage.work / unbatched_total if unbatched_total > 0 else 1.0 / model.num_stages
        specs.append(
            StageSpec(
                name=f"{stage.name}@b{batch_size}",
                index=stage.index,
                work=total_batch_work * share,
                parallelism=min(stage.parallelism * batch_size, num_sms),
                num_kernels=stage.num_kernels,
                memory_intensity=stage.memory_intensity,
            )
        )
    return specs


def batched_kernel_specs(model: DnnModel, batch_size: int) -> List[KernelSpec]:
    """Kernel specifications (one per stage) for a batched inference."""
    return [stage.to_kernel_spec() for stage in batched_stage_specs(model, batch_size)]


def batched_latency_ms(model: DnnModel, batch_size: int) -> float:
    """Latency of one batch alone on the full GPU (kernel time plus launch gaps)."""
    stages = batched_stage_specs(model, batch_size)
    compute = left_sum(stage.isolated_duration_ms(model.gpu.num_sms) for stage in stages)
    return compute + model.launch_gap_ms()


def batching_target_jps(model: DnnModel, batch_size: int) -> float:
    """Single-stream throughput at ``batch_size`` (the Figure 1 curve)."""
    if batch_size == 1:
        return model.profile.single_stream_jps
    return 1000.0 * batch_size / batched_latency_ms(model, batch_size)


def batching_throughput_curve(model: DnnModel, batch_sizes: List[int]) -> List[float]:
    """Throughput (JPS) the batching upper baseline reaches at each batch size."""
    return [batching_target_jps(model, batch) for batch in batch_sizes]


def batching_gain(model: DnnModel, batch_size: int) -> float:
    """Throughput gain of batching at ``batch_size`` relative to single-stream."""
    return batching_target_jps(model, batch_size) / model.profile.single_stream_jps
