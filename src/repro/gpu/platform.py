"""High-level GPU platform facade used by schedulers and baselines.

``GpuPlatform`` bundles an engine, the MPS partitioning of Equation 9 and the
stream layout of a DARIS configuration (``Nc`` contexts x ``Ns`` streams).
Schedulers talk to the platform in terms of *(context index, stream index)*
slots, which keeps their code independent of the engine internals.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from repro.gpu.calibration import DEFAULT_CALIBRATION, GpuCalibration
from repro.gpu.context import Context
from repro.gpu.engine import GpuEngine
from repro.gpu.kernel import KernelInstance, KernelSpec
from repro.gpu.mps import partition_quotas
from repro.gpu.spec import GpuSpec, RTX_2080_TI
from repro.gpu.stream import Stream
from repro.sim.simulator import Simulator


@dataclass(frozen=True)
class PlatformConfig:
    """Spatial-partitioning configuration of the GPU platform.

    Attributes:
        num_contexts: number of MPS contexts (``Nc``).
        streams_per_context: CUDA streams per context (``Ns``).
        oversubscription: SM oversubscription level (``OS``), between 1 and
            ``Nc``.
    """

    num_contexts: int
    streams_per_context: int
    oversubscription: float

    def __post_init__(self) -> None:
        if self.num_contexts < 1:
            raise ValueError("num_contexts must be >= 1")
        if self.streams_per_context < 1:
            raise ValueError("streams_per_context must be >= 1")
        if not 1.0 <= self.oversubscription <= max(1.0, float(self.num_contexts)):
            raise ValueError(
                "oversubscription must lie in [1, num_contexts]"
                f" = [1, {self.num_contexts}], got {self.oversubscription}"
            )

    @property
    def max_parallel_jobs(self) -> int:
        """``Np = Nc * Ns``: maximum number of concurrently resident DNNs."""
        return self.num_contexts * self.streams_per_context

    def label(self) -> str:
        """Short ``Nc x Ns OS`` label used by the paper's figures."""
        os_text = (
            f"{int(self.oversubscription)}"
            if float(self.oversubscription).is_integer()
            else f"{self.oversubscription}"
        )
        return f"{self.num_contexts}x{self.streams_per_context} OS{os_text}"


class GpuPlatform:
    """A partitioned GPU exposing (context, stream) execution slots."""

    def __init__(
        self,
        simulator: Simulator,
        config: PlatformConfig,
        spec: GpuSpec = RTX_2080_TI,
        calibration: GpuCalibration = DEFAULT_CALIBRATION,
        noise_rng: Optional[np.random.Generator] = None,
    ):
        self.simulator = simulator
        self.config = config
        self.spec = spec
        self.engine = GpuEngine(simulator, spec, calibration, noise_rng=noise_rng)
        quotas = partition_quotas(
            spec.num_sms, config.num_contexts, config.oversubscription
        )
        self._contexts: List[Context] = []
        self._streams: List[List[Stream]] = []
        for quota in quotas:
            context = self.engine.create_context(quota)
            streams = [
                self.engine.create_stream(context)
                for _ in range(config.streams_per_context)
            ]
            self._contexts.append(context)
            self._streams.append(streams)
        # O(1) idle-stream tracking: per context, a min-heap of idle stream
        # indices (so the lowest idle index is returned, matching a linear
        # scan) plus a validity bitmap for lazy deletion.  ``launch`` marks
        # streams busy; the engine marks a drained stream idle in the same
        # two tables, which it is handed as data, so it keeps no reference
        # to the platform that owns it.  Context and stream ids coincide
        # with platform indices by construction.
        self._idle_heaps: List[List[int]] = [
            list(range(config.streams_per_context)) for _ in self._contexts
        ]
        self._idle_flags: List[List[bool]] = [
            [True] * config.streams_per_context for _ in self._contexts
        ]
        self.engine.track_idle_streams(self._idle_flags, self._idle_heaps)

    # ----------------------------------------------------------------- layout

    @property
    def num_contexts(self) -> int:
        """Number of contexts (``Nc``)."""
        return len(self._contexts)

    @property
    def streams_per_context(self) -> int:
        """Streams per context (``Ns``)."""
        return self.config.streams_per_context

    @property
    def sm_quota(self) -> float:
        """SM quota of each context (equal by Equation 9)."""
        return self._contexts[0].sm_quota

    def context(self, context_index: int) -> Context:
        """Context object at ``context_index`` (0-based)."""
        return self._contexts[context_index]

    def stream(self, context_index: int, stream_index: int) -> Stream:
        """Stream object at the given slot."""
        return self._streams[context_index][stream_index]

    # ------------------------------------------------------------------ slots

    def idle_stream_index(self, context_index: int) -> Optional[int]:
        """Lowest index of an idle stream in the context, or None if all are busy."""
        heap = self._idle_heaps[context_index]
        flags = self._idle_flags[context_index]
        while heap:
            candidate = heap[0]
            if flags[candidate]:
                return candidate
            heapq.heappop(heap)  # stale lazy-deleted entry
        return None

    def idle_stream_count(self, context_index: int) -> int:
        """Number of idle streams in the context."""
        return sum(1 for idle in self._idle_flags[context_index] if idle)

    def busy_stream_count(self, context_index: int) -> int:
        """Number of busy streams in the context."""
        return self.config.streams_per_context - self.idle_stream_count(context_index)

    # ----------------------------------------------------------------- launch

    def launch(
        self,
        context_index: int,
        stream_index: int,
        spec: KernelSpec,
        on_complete: Optional[Callable[[KernelInstance], None]] = None,
    ) -> KernelInstance:
        """Launch a kernel (usually an aggregated DNN stage) on a slot."""
        stream = self._streams[context_index][stream_index]
        self._idle_flags[context_index][stream_index] = False
        return self.engine.launch(stream, spec, on_complete=on_complete)

    def reserve_stream(self, context_index: int, stream_index: int) -> None:
        """Mark a stream busy without launching (held through a retry delay)."""
        self._idle_flags[context_index][stream_index] = False

    def release_stream(self, context_index: int, stream_index: int) -> None:
        """Return a reserved-but-unused stream to the idle pool."""
        flags = self._idle_flags[context_index]
        if not flags[stream_index]:
            flags[stream_index] = True
            heapq.heappush(self._idle_heaps[context_index], stream_index)

    # ---------------------------------------------------------------- metrics

    def is_idle(self) -> bool:
        """True when nothing is queued or running on the whole GPU."""
        return self.engine.is_idle()

    def average_utilization(self) -> float:
        """Time-averaged SM utilization since simulation start."""
        return self.engine.average_utilization()

    def utilization_integral(self) -> float:
        """Utilization time-integral for windowed measurements (see engine)."""
        return self.engine.utilization_integral()
