"""Event-driven GPU execution engine.

The engine owns the contexts/streams/kernels, recomputes the SM allocation
whenever the set of running kernels changes, and schedules the next kernel
completion on the simulator.  Progress is tracked continuously: each running
kernel has a remaining amount of work (SM-milliseconds) that decreases at a
rate equal to its current SM allocation times its efficiency.

Replanning is incremental: the engine maintains per-context running lists and
caches each context's water-filled allocation, so an event only re-runs the
water-filling for the context it touched.  When the cross-context scale factor
and the contention factor are unchanged by an event, the rates of kernels in
untouched contexts are provably unchanged — the fast path skips recomputing
them entirely.  All arithmetic follows the exact operation order of the
from-scratch two-level plan described in :mod:`repro.gpu.allocation`, so the
results are bit-identical to it: ``tests/test_gpu_allocation.py`` checks the
engine against that plan after every replan, and
``tests/test_golden_digests.py`` pins whole runs.

Completion events use a generation token instead of a cancellable handle:
each replan bumps the generation, so a superseded completion callback simply
fires as a no-op.  This avoids allocating an :class:`Event` plus handle and
running the cancellation bookkeeping on every replan, which is the hottest
scheduling site of a scenario run.
"""

from __future__ import annotations

import math
from heapq import heappush
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.gpu.allocation import water_fill
from repro.gpu.calibration import (
    CONTENTION_WEIGHT_BASE,
    CONTENTION_WEIGHT_MEMORY,
    DEFAULT_CALIBRATION,
    GpuCalibration,
)
from repro.gpu.context import Context
from repro.gpu.kernel import KernelInstance, KernelSpec, KernelState
from repro.gpu.spec import GpuSpec
from repro.gpu.stream import Stream
from repro.numeric import left_sum
from repro.sim.events import next_sequence
from repro.sim.simulator import Simulator

_EPSILON_WORK = 1e-9
_EPSILON_TIME = 1e-9

# Noise draws are taken from the generator in chunks of this size; the chunk
# reproduces the scalar draw sequence bit for bit (``normal(0, sigma)`` is
# ``sigma * standard_normal()`` on the same underlying stream).
_NOISE_CHUNK = 256


class GpuEngine:
    """Simulated GPU shared by all contexts of one experiment."""

    #: Always 0: the engine has no separate tier for wide running sets.
    #: Kept so run reports that read the counter keep their shape.
    vector_engagements = 0

    def __init__(
        self,
        simulator: Simulator,
        spec: GpuSpec,
        calibration: GpuCalibration = DEFAULT_CALIBRATION,
        noise_rng: Optional[np.random.Generator] = None,
    ):
        self.simulator = simulator
        self.spec = spec
        self.calibration = calibration
        # Plan-time invariants hoisted out of the replan hot loop.  The spec
        # and calibration are frozen dataclasses, so these never go stale.
        # ``_heap`` aliases the simulator's event heap (compaction replaces
        # its contents in place): completion/dispatch events are pushed
        # directly, skipping a Python call per scheduled event.
        self._num_sms = spec.num_sms
        self._min_rate = calibration.min_rate_sms
        self._contention_penalty = calibration.contention_penalty
        self._intra_penalty = calibration.intra_stream_penalty
        self._heap = simulator._heap
        self._noise_rng = noise_rng
        self._noise_chunk: List[float] = []
        self._noise_pos = 0
        self._contexts: Dict[int, Context] = {}
        # (id(spec), context_id) -> (spec, clipped_demand, contention_weight,
        # launch_cost): launch-time invariants memoized per spec/context pair
        # (the stored spec pins the id).  See launch().
        self._launch_invariants: Dict[Tuple[int, int], tuple] = {}
        # (allocation, contention_weight, fault_slowdown) -> the single-kernel
        # replan outputs; see the fast path in _replan().
        self._single_plan_cache: Dict[Tuple[float, float, float], tuple] = {}
        # Quota lookup used by every replan path.  Context.sm_quota is treated
        # as immutable after create_context(); all allocation code reads this
        # dict so there is a single source of truth at plan time.
        self._quotas: Dict[int, float] = {}
        self._streams: Dict[int, Dict[int, Stream]] = {}
        self._running: Dict[int, KernelInstance] = {}
        self._last_update: float = simulator.now
        self._next_context_id = 0
        self._utilization_time_integral = 0.0
        self._current_utilization = 0.0
        self._current_pressure = 0.0
        self._busy_time_start: Optional[float] = None
        self._total_busy_time = 0.0
        self.completed_kernels = 0
        # Incremental replanning state ------------------------------------
        # Per-context running kernels, in global start order (mirrors the
        # grouping the from-scratch plan derives from ``_running``).
        self._ctx_running: Dict[int, List[KernelInstance]] = {}
        # Per-context cached water-fill: (allocations, demand_sum).  Valid
        # until the context's running list changes.
        self._ctx_alloc: Dict[int, Tuple[List[float], float]] = {}
        self._dirty_contexts: set = set()
        self._last_scale = 1.0
        self._last_contention = 0.0  # contention factor last used for rates
        # Observability: how often the fast path skipped rate recomputation.
        self.fast_path_hits = 0
        self.full_replans = 0
        # Completion scheduling: a monotonically increasing generation token.
        # Every replan bumps it, so outstanding completion callbacks from
        # older plans fire as no-ops instead of being cancelled.
        self._completion_gen = 0
        # Invoked as ``callback(context_id, stream_id)`` whenever a stream
        # drains to empty; the platform uses it for O(1) idle-stream tracking.
        self.stream_idle_callback: Optional[Callable[[int, int], None]] = None
        # Fault injection: global rate multiplier applied while a slowdown
        # (thermal-throttle) window is open.  Exactly 1.0 outside windows, in
        # which case no rate expression is touched — fault-free runs execute
        # the historical arithmetic bit for bit.
        self._fault_slowdown = 1.0

    # ------------------------------------------------------------------ setup

    def create_context(self, sm_quota: float) -> Context:
        """Create a context with the given SM quota."""
        context = Context(context_id=self._next_context_id, sm_quota=sm_quota)
        self._next_context_id += 1
        self._contexts[context.context_id] = context
        self._streams[context.context_id] = {}
        self._quotas[context.context_id] = context.sm_quota
        return context

    def create_stream(self, context: Context) -> Stream:
        """Create a stream inside ``context``."""
        stream = context.create_stream()
        self._streams[context.context_id][stream.stream_id] = stream
        return stream

    @property
    def contexts(self) -> List[Context]:
        """All contexts in creation order."""
        return [self._contexts[cid] for cid in sorted(self._contexts)]

    def context(self, context_id: int) -> Context:
        """Look up a context by id."""
        return self._contexts[context_id]

    # ---------------------------------------------------------------- metrics

    @property
    def current_pressure(self) -> float:
        """Most recent oversubscription pressure (>= 1.0 when contended)."""
        return self._current_pressure

    @property
    def current_utilization(self) -> float:
        """Most recent fraction of physical SMs allocated."""
        return self._current_utilization

    def utilization_integral(self) -> float:
        """Time integral of SM utilization from t=0 to now (SM-fraction · ms).

        Unlike :meth:`average_utilization`, the integral is additive: capture
        it at the start of a measurement window and subtract to get the
        utilization of that window alone.
        """
        elapsed = self.simulator.now - self._last_update
        integral = self._utilization_time_integral
        if elapsed > 0:
            integral += self._current_utilization * elapsed
        return integral

    def average_utilization(self, since: float = 0.0, integral_at_since: float = 0.0) -> float:
        """Time-weighted mean SM utilization over ``[since, now]``.

        Args:
            since: window start time in milliseconds (defaults to t=0).
            integral_at_since: value of :meth:`utilization_integral` captured
                at time ``since``; required for a correct windowed average
                (with the default 0.0 the whole since-t=0 integral would be
                divided by the truncated horizon, overstating utilization).
        """
        horizon = self.simulator.now - since
        if horizon <= 0:
            return 0.0
        integral = self.utilization_integral() - integral_at_since
        return min(1.0, integral / horizon)

    def busy_time(self) -> float:
        """Total time during which at least one kernel was running (ms)."""
        total = self._total_busy_time
        if self._busy_time_start is not None:
            total += self.simulator.now - self._busy_time_start
        return total

    # ----------------------------------------------------------------- launch

    def launch(
        self,
        stream: Stream,
        spec: KernelSpec,
        on_complete: Optional[Callable[[KernelInstance], None]] = None,
    ) -> KernelInstance:
        """Enqueue a kernel on ``stream`` and return its runtime instance.

        The kernel starts executing once (a) it reaches the head of its stream
        and (b) the context dispatcher has paid the launch overhead for all
        CUDA kernels it represents.
        """
        kernel = KernelInstance(
            spec=spec,
            stream_id=stream.stream_id,
            context_id=stream.context_id,
            on_complete=on_complete,
        )
        kernel.enqueue_time = self.simulator.now
        kernel.effective_work = spec.work
        kernel.remaining_work = spec.work
        # Plan-time invariants of this kernel: the demand clipped to its
        # context quota, the memory-intensity contention weight and the
        # dispatcher launch overhead.  All three are pure functions of the
        # (frozen) spec, the context quota and the engine calibration — none
        # of which change after setup — so they are computed once per
        # (spec, context) pair and replayed bit for bit on every relaunch of
        # the same stage (serving loops launch the same few specs thousands
        # of times).  The tuple holds a strong reference to the spec so the
        # id()-key can never be resurrected by a different object.
        context_id = stream.context_id
        invariants = self._launch_invariants
        key = (id(spec), context_id)
        cached = invariants.get(key)
        if cached is None:
            quota = self._quotas[context_id]
            demand = spec.parallelism
            if demand > quota:
                demand = quota
            cached = (
                spec,
                demand,
                CONTENTION_WEIGHT_BASE
                + CONTENTION_WEIGHT_MEMORY * spec.memory_intensity,
                self.calibration.dispatch_overhead_ms
                + spec.num_launches * self.spec.launch_overhead_ms,
            )
            invariants[key] = cached
        kernel.clipped_demand = cached[1]
        kernel.contention_weight = cached[2]
        kernel.launch_cost = cached[3]
        became_head = stream.push(kernel)
        if became_head:
            self._begin_dispatch(kernel)
        return kernel

    def _begin_dispatch(self, kernel: KernelInstance) -> None:
        """Charge launch overhead on the context dispatcher, then start the kernel."""
        context = self._contexts[kernel.context_id]
        launch_cost = kernel.launch_cost  # cached at launch(); see there
        now = self.simulator.now
        free_at = context.dispatcher_free_at
        ready_at = (now if now > free_at else free_at) + launch_cost
        context.dispatcher_free_at = ready_at
        kernel.state = KernelState.DISPATCHING
        kernel.dispatch_ready_time = ready_at
        # Direct push of a fire-and-forget dispatch event (ready_at >= now by
        # construction, so it needs no past-time guard).
        heappush(
            self._heap,
            ((ready_at, 0, next_sequence()), lambda _sim, k=kernel: self._kernel_ready(k)),
        )

    def _kernel_ready(self, kernel: KernelInstance) -> None:
        """Transition a dispatched kernel to RUNNING and replan allocations."""
        if kernel.state is KernelState.COMPLETED:  # pragma: no cover - defensive
            return
        # _advance_progress inlined (hot: once per dispatched stage).
        now = self.simulator.now
        elapsed = now - self._last_update
        if elapsed > 0:
            self._utilization_time_integral += self._current_utilization * elapsed
        if elapsed > _EPSILON_TIME:
            for running_kernel in self._running.values():
                remaining = running_kernel.remaining_work - running_kernel.current_rate * elapsed
                running_kernel.remaining_work = remaining if remaining > 0.0 else 0.0
        self._last_update = now
        kernel.state = KernelState.RUNNING
        kernel.start_time = now
        context_id = kernel.context_id
        ctx_list = self._ctx_running.get(context_id)
        if self._noise_rng is None:
            # Without an RNG the noise factor is exactly 1.0 and the effective
            # work equals the nominal work bitwise; skip the sigma computation.
            kernel.noise_factor = 1.0
            kernel.effective_work = kernel.spec.work
            kernel.remaining_work = kernel.spec.work
        else:
            # The kernel itself is already a RUNNING stream head at this
            # point, so the historical concurrency count includes it *plus*
            # one: noise grows with (existing runners + 2).  Preserved exactly
            # for reproducibility.
            concurrent = (len(ctx_list) if ctx_list else 0) + 2
            sigma = self.calibration.noise_sigma(concurrent, self._current_pressure or 1.0)
            kernel.noise_factor = self._sample_noise(sigma)
            kernel.effective_work = kernel.spec.work * kernel.noise_factor
            kernel.remaining_work = kernel.effective_work
        self._running[kernel.uid] = kernel
        if ctx_list is None:
            self._ctx_running[context_id] = [kernel]
        else:
            ctx_list.append(kernel)
        self._dirty_contexts.add(context_id)
        self._replan()

    def _sample_noise(self, sigma: float) -> float:
        """Log-normal noise factor with unit mean (deterministic 1.0 without RNG)."""
        if self._noise_rng is None or sigma <= 0:
            return 1.0
        # ``normal(0, sigma)`` draws one standard normal and scales it;
        # taking the standard normals in chunks consumes the generator
        # identically (the engine owns the "gpu-noise" stream), so the draw
        # sequence — and hence every noise factor — is that of scalar draws.
        pos = self._noise_pos
        chunk = self._noise_chunk
        if pos >= len(chunk):
            chunk = self._noise_rng.standard_normal(size=_NOISE_CHUNK).tolist()
            self._noise_chunk = chunk
            pos = 0
        self._noise_pos = pos + 1
        draw = sigma * chunk[pos]
        return math.exp(draw - 0.5 * sigma * sigma)

    # ----------------------------------------------------------------- faults

    def set_fault_slowdown(self, scale: float) -> None:
        """Set the global fault rate multiplier (1.0 restores full speed).

        Progress earned so far is settled at the old rates first; the next
        replan then recomputes every kernel's rate under the new multiplier
        (the incremental reuse of cached rates is disabled for that replan).
        """
        if scale <= 0.0:
            raise ValueError("fault slowdown must be positive")
        if scale == self._fault_slowdown:
            return
        self._advance_progress()
        self._fault_slowdown = scale
        # Invalidate the rate-reuse fast path: NaN compares unequal to every
        # scale, forcing the general path to recompute all kernel rates.
        self._last_scale = math.nan
        self._replan()

    def interrupt_context(self, context_id: int, recovery_ms: float) -> int:
        """Crash an MPS context: in-flight work is lost, recovery is charged.

        Every kernel running in the context restarts from zero progress and
        additionally pays ``recovery_ms`` of stall, charged as equivalent
        work at its crash-time rate; the context dispatcher is blocked for
        ``recovery_ms`` so queued launches wait for the context rebuild.
        Returns the number of kernels whose progress was destroyed.
        """
        if recovery_ms < 0:
            raise ValueError("recovery_ms must be non-negative")
        self._advance_progress()
        kernels = self._ctx_running.get(context_id) or ()
        for kernel in kernels:
            kernel.remaining_work = kernel.effective_work + kernel.current_rate * recovery_ms
        context = self._contexts[context_id]
        now = self.simulator.now
        free_at = context.dispatcher_free_at
        context.dispatcher_free_at = (now if now > free_at else free_at) + recovery_ms
        if kernels:
            # Rates are unchanged but every ETA grew: reschedule completion.
            self._replan()
        return len(kernels)

    # -------------------------------------------------------------- execution

    def _advance_progress(self) -> None:
        """Decrease remaining work of running kernels for time elapsed since last update."""
        now = self.simulator.now
        elapsed = now - self._last_update
        if elapsed > 0:
            self._utilization_time_integral += self._current_utilization * elapsed
        if elapsed > _EPSILON_TIME:
            for kernel in self._running.values():
                remaining = kernel.remaining_work - kernel.current_rate * elapsed
                kernel.remaining_work = remaining if remaining > 0.0 else 0.0
        self._last_update = now

    # ---------------------------------------------------------------- replans

    def _schedule_completion(self, soonest: float) -> None:
        """Push the next completion event (fire_at >= now, guard-free push)."""
        fire_at = self.simulator.now + (soonest if soonest > 0.0 else 0.0)
        gen = self._completion_gen
        heappush(
            self._heap,
            ((fire_at, 0, next_sequence()), lambda _sim, g=gen: self._on_completion(g)),
        )

    def _replan(self) -> None:
        """Recompute SM allocation and schedule the next completion event.

        The computation reproduces, operation for operation, the from-scratch
        two-level plan (see :mod:`repro.gpu.allocation`) for the current
        running set; it merely avoids redoing work whose inputs are unchanged.
        """
        # Invalidate any outstanding completion callback.
        self._completion_gen += 1

        running = self._running
        # Track busy time for utilization-style reporting.
        if running and self._busy_time_start is None:
            self._busy_time_start = self.simulator.now
        elif not running and self._busy_time_start is not None:
            self._total_busy_time += self.simulator.now - self._busy_time_start
            self._busy_time_start = None

        # Drop contexts whose running set emptied; afterwards every entry of
        # ``_ctx_running`` is non-empty and every dirty context needs only a
        # water-fill refresh.
        dirty = self._dirty_contexts
        ctx_running = self._ctx_running
        if dirty:
            stale = None  # plain loop: no comprehension frame on the hot path
            for cid in dirty:
                if not ctx_running.get(cid):
                    if stale is None:
                        stale = [cid]
                    else:
                        stale.append(cid)
            if stale:
                for cid in stale:
                    ctx_running.pop(cid, None)
                    self._ctx_alloc.pop(cid, None)
                    dirty.remove(cid)

        if not running:
            self._current_utilization = 0.0
            self._current_pressure = 0.0
            return

        # Single running kernel: the whole plan collapses to a handful of
        # float operations (same operations as the general path, in the same
        # order, so the results stay bitwise identical) — and those operations
        # are a pure function of (allocation, contention weight, fault
        # multiplier) plus frozen engine constants, so the result is memoized
        # per input triple: serving loops that cycle through the same few
        # stage specs replay the cached floats instead of re-deriving them.
        if len(running) == 1:
            self.fast_path_hits += 1
            kernel = next(iter(running.values()))
            cid = kernel.context_id
            if dirty:
                demand = kernel.clipped_demand
                self._ctx_alloc[cid] = ([demand], demand)
                dirty.clear()
            allocation = self._ctx_alloc[cid][1]
            key = (allocation, kernel.contention_weight, self._fault_slowdown)
            cached = self._single_plan_cache.get(key)
            if cached is None:
                num_sms = self._num_sms
                pressure = allocation / num_sms
                if allocation > num_sms:
                    scale = num_sms / allocation
                    grant = allocation * scale
                else:
                    scale = 1.0
                    grant = allocation
                pressure = max(pressure, 1.0) if allocation > 0 else 0.0
                utilization = min(1.0, grant / num_sms) if num_sms else 0.0
                min_rate = self._min_rate
                allocated = grant if grant > min_rate else min_rate
                contention_factor = self._contention_penalty * (
                    pressure - 1.0 if pressure > 1.0 else 0.0
                )
                if contention_factor == 0.0:
                    # efficiency == 1/(1 + 0) == 1.0 exactly; the multiply is
                    # a bitwise no-op, so skip the division entirely.
                    rate = allocated
                else:
                    rate = allocated * (
                        1.0 / (1.0 + contention_factor * kernel.contention_weight)
                    )
                if self._fault_slowdown != 1.0:
                    rate *= self._fault_slowdown
                cached = (
                    pressure,
                    utilization,
                    allocated,
                    rate,
                    scale,
                    contention_factor,
                )
                self._single_plan_cache[key] = cached
            else:
                pressure, utilization, allocated, rate, scale, contention_factor = cached
            self._current_pressure = pressure
            self._current_utilization = utilization
            kernel.allocated_sms = allocated
            kernel.current_rate = rate
            self._last_scale = scale
            self._last_contention = contention_factor
            if rate > 0:
                # _schedule_completion inlined.
                soonest = kernel.remaining_work / rate
                fire_at = self.simulator.now + (soonest if soonest > 0.0 else 0.0)
                gen = self._completion_gen
                heappush(
                    self._heap,
                    ((fire_at, 0, next_sequence()), lambda _sim, g=gen: self._on_completion(g)),
                )
            return

        # Every context runs exactly one kernel (the MPS-policy shape, one
        # stream per context): water-filling degenerates to the clipped demand
        # and the intra efficiency is exactly 1.0, so the whole plan is a
        # single pass over the running kernels.  Operation order matches the
        # general path (context order == kernel start order here), keeping
        # results bitwise identical.
        if len(ctx_running) == len(running):
            self.fast_path_hits += 1
            ctx_alloc = self._ctx_alloc
            if dirty:
                for cid in dirty:
                    demand = ctx_running[cid][0].clipped_demand
                    ctx_alloc[cid] = ([demand], demand)
            num_sms = self._num_sms
            total_demand = 0.0
            for kernel in running.values():
                total_demand += kernel.clipped_demand
            pressure = total_demand / num_sms
            scale = 1.0 if total_demand <= num_sms else num_sms / total_demand
            self._current_pressure = pressure = (
                max(pressure, 1.0) if total_demand > 0 else 0.0
            )
            min_rate = self._min_rate
            contention_factor = self._contention_penalty * (
                pressure - 1.0 if pressure > 1.0 else 0.0
            )
            fault = self._fault_slowdown
            # When neither the cross-context scale nor the contention factor
            # moved, rates of kernels in untouched contexts are reproduced by
            # their cached values; only dirty contexts need the arithmetic.
            globals_changed = (
                scale != self._last_scale or contention_factor != self._last_contention
            )
            if globals_changed:
                granted = 0.0
                for kernel in running.values():
                    demand = kernel.clipped_demand
                    grant = demand if scale == 1.0 else demand * scale
                    granted += grant
                    allocated = grant if grant > min_rate else min_rate
                    kernel.allocated_sms = allocated
                    if contention_factor == 0.0:
                        rate = allocated
                    else:
                        rate = allocated * (
                            1.0 / (1.0 + contention_factor * kernel.contention_weight)
                        )
                    if fault != 1.0:
                        rate *= fault
                    kernel.current_rate = rate
            else:
                for cid in dirty:
                    kernel = ctx_running[cid][0]
                    demand = kernel.clipped_demand
                    grant = demand if scale == 1.0 else demand * scale
                    allocated = grant if grant > min_rate else min_rate
                    kernel.allocated_sms = allocated
                    if contention_factor == 0.0:
                        rate = allocated
                    else:
                        rate = allocated * (
                            1.0 / (1.0 + contention_factor * kernel.contention_weight)
                        )
                    if fault != 1.0:
                        rate *= fault
                    kernel.current_rate = rate
                if scale == 1.0:
                    # grant_i == demand_i, so the granted fold retraces the
                    # total_demand fold add for add.
                    granted = total_demand
                else:
                    granted = 0.0
                    for kernel in running.values():
                        granted += kernel.clipped_demand * scale
            dirty.clear()
            self._current_utilization = min(1.0, granted / num_sms) if num_sms else 0.0
            self._last_scale = scale
            self._last_contention = contention_factor
            # _finish_replan + _schedule_completion inlined (hottest tail:
            # once per event at the MPS-policy shape).
            soonest = None
            for kernel in running.values():
                rate = kernel.current_rate
                if rate > 0:
                    eta = kernel.remaining_work / rate
                    if soonest is None or eta < soonest:
                        soonest = eta
            if soonest is None:  # pragma: no cover - defensive
                return
            fire_at = self.simulator.now + (soonest if soonest > 0.0 else 0.0)
            gen = self._completion_gen
            heappush(
                self._heap,
                ((fire_at, 0, next_sequence()), lambda _sim, g=gen: self._on_completion(g)),
            )
            return

        # Context order of the reference plan: order of each context's first
        # running kernel within ``_running`` (global start order).
        if len(ctx_running) == 1:
            order = list(ctx_running)
        else:
            order = []
            seen = set()
            for kernel in running.values():
                cid = kernel.context_id
                if cid not in seen:
                    seen.add(cid)
                    order.append(cid)

        # Refresh the water-fill of every touched context.
        ctx_alloc = self._ctx_alloc
        for cid in dirty:
            kernels = ctx_running.get(cid)
            if not kernels:
                ctx_running.pop(cid, None)
                ctx_alloc.pop(cid, None)
                continue
            if len(kernels) == 1:
                # Water-filling one demand degenerates to min(demand, quota),
                # and the demand is already clipped to the quota.
                demand = kernels[0].clipped_demand
                ctx_alloc[cid] = ([demand], demand)
                continue
            allocations = water_fill(self._quotas[cid], [k.clipped_demand for k in kernels])
            ctx_alloc[cid] = (allocations, left_sum(allocations))

        num_sms = self._num_sms
        total_demand = 0.0
        for cid in order:
            total_demand += ctx_alloc[cid][1]
        pressure = total_demand / num_sms
        scale = 1.0 if total_demand <= num_sms else num_sms / total_demand

        granted = 0.0
        if scale == 1.0:
            for cid in order:
                for allocation in ctx_alloc[cid][0]:
                    granted += allocation
        else:
            for cid in order:
                for allocation in ctx_alloc[cid][0]:
                    granted += allocation * scale

        self._current_pressure = pressure = max(pressure, 1.0) if total_demand > 0 else 0.0
        self._current_utilization = min(1.0, granted / num_sms) if num_sms else 0.0

        # Kernel rates.  A context's rates only change when its own membership
        # changed (water-fill + concurrency) or when a global input changed
        # (scale, contention factor): every input to the pure float rate
        # expression is otherwise identical, so reusing the stored
        # ``current_rate`` is bitwise what a full recompute would produce.
        min_rate = self._min_rate
        intra_penalty = self._intra_penalty
        # contention_efficiency(pressure, mi) inlined with its pressure-only
        # part hoisted: 1 / (1 + penalty * excess * (base + memory_weight * mi)).
        contention_factor = self._contention_penalty * (
            pressure - 1.0 if pressure > 1.0 else 0.0
        )
        globals_changed = (
            scale != self._last_scale or contention_factor != self._last_contention
        )
        self._last_scale = scale
        self._last_contention = contention_factor
        fault = self._fault_slowdown
        for cid in order:
            if not globals_changed and cid not in dirty:
                self.fast_path_hits += 1
                continue
            self.full_replans += 1
            kernels = ctx_running[cid]
            allocations = ctx_alloc[cid][0]
            # intra_efficiency inlined; len(kernels) >= 1 so max(0, n-1) == n-1.
            intra = 1.0 / (1.0 + intra_penalty * (len(kernels) - 1))
            for kernel, allocation in zip(kernels, allocations):
                grant = allocation * scale
                allocated = grant if grant > min_rate else min_rate
                kernel.allocated_sms = allocated
                if contention_factor == 0.0:
                    # intra * (1/(1+0)) == intra exactly.
                    rate = allocated * intra
                else:
                    rate = allocated * (
                        intra
                        * (1.0 / (1.0 + contention_factor * kernel.contention_weight))
                    )
                if fault != 1.0:
                    rate *= fault
                kernel.current_rate = rate
        dirty.clear()
        self._finish_replan()

    def _finish_replan(self) -> None:
        """Find the earliest completion ETA and schedule its callback."""
        soonest: Optional[float] = None
        for kernel in self._running.values():
            rate = kernel.current_rate
            if rate > 0:
                eta = kernel.remaining_work / rate
                if soonest is None or eta < soonest:
                    soonest = eta
        if soonest is None:  # pragma: no cover - defensive
            return
        self._schedule_completion(soonest)

    def _on_completion(self, gen: int) -> None:
        """Complete every kernel whose remaining work reached zero, then replan."""
        if gen != self._completion_gen:
            return  # superseded by a newer plan
        # _advance_progress inlined (hot: once per live completion event).
        now = self.simulator.now
        elapsed = now - self._last_update
        if elapsed > 0:
            self._utilization_time_integral += self._current_utilization * elapsed
        if elapsed > _EPSILON_TIME:
            for kernel in self._running.values():
                remaining = kernel.remaining_work - kernel.current_rate * elapsed
                kernel.remaining_work = remaining if remaining > 0.0 else 0.0
        self._last_update = now
        finished = None  # plain loop: no comprehension frame on the hot path
        for kernel in self._running.values():
            if kernel.remaining_work <= _EPSILON_WORK:
                if finished is None:
                    finished = [kernel]
                else:
                    finished.append(kernel)
        if not finished:
            self._replan()
            return
        notify_idle = self.stream_idle_callback
        for kernel in finished:
            del self._running[kernel.uid]
            context_id = kernel.context_id
            ctx_list = self._ctx_running[context_id]
            for index, candidate in enumerate(ctx_list):
                if candidate is kernel:
                    del ctx_list[index]
                    break
            self._dirty_contexts.add(context_id)
            kernel.state = KernelState.COMPLETED
            kernel.finish_time = now
            kernel.remaining_work = 0.0
            self.completed_kernels += 1
            stream = self._streams[context_id][kernel.stream_id]
            popped = stream.pop_head()
            if popped.uid != kernel.uid:  # pragma: no cover - defensive
                raise RuntimeError("stream head does not match completed kernel")
            next_kernel = stream.head
            if next_kernel is not None:
                self._begin_dispatch(next_kernel)
            elif notify_idle is not None:
                notify_idle(context_id, kernel.stream_id)
        if self._running:
            self._replan()
        else:
            # _replan() inlined for the drained-engine case (the every-stage
            # tail of serving loops that run one kernel at a time): with no
            # running kernel the full replan reduces to exactly these side
            # effects — invalidate outstanding completion events, settle busy
            # time, drop emptied contexts and zero the utilization signals.
            self._completion_gen += 1
            if self._busy_time_start is not None:
                self._total_busy_time += now - self._busy_time_start
                self._busy_time_start = None
            dirty = self._dirty_contexts
            if dirty:
                ctx_running = self._ctx_running
                ctx_alloc = self._ctx_alloc
                for cid in tuple(dirty):
                    if not ctx_running.get(cid):
                        ctx_running.pop(cid, None)
                        ctx_alloc.pop(cid, None)
                        dirty.discard(cid)
            self._current_utilization = 0.0
            self._current_pressure = 0.0
        for kernel in finished:
            if kernel.on_complete is not None:
                kernel.on_complete(kernel)

    # ------------------------------------------------------------------ query

    def running_count(self) -> int:
        """Number of kernels currently receiving SM allocation."""
        return len(self._running)

    def is_idle(self) -> bool:
        """True when no kernel is queued, dispatching or running anywhere."""
        if self._running:
            return False
        return all(ctx.queue_depth() == 0 for ctx in self._contexts.values())
