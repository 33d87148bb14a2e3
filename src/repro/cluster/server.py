"""The EDF serving runtime: N per-GPU Clockwork executors behind one router.

One :class:`~repro.sim.simulator.Simulator` hosts the whole cluster — each
device is a :class:`~repro.gpu.platform.GpuPlatform` (with its own engine)
on that shared event graph, and a :class:`_GpuWorker` drives it with the
Clockwork discipline: one DNN at a time, EDF order, admission by predicted
completion time.  Releases enter at the cluster level through the shared
:class:`~repro.sim.workload.ReleaseStream`, the router picks a device, and
the request becomes an event in that device's loop; completions re-arm the
device's executor.  There is no wall-clock interleaving anywhere — every
cross-device dependency is a simulator event — so runs are bit-identical
per seed under the established RNG-stream discipline.  This is the
repository's one EDF serving loop: the single-GPU ``clockwork`` backend is a
1-GPU :class:`ClusterServer`.

Per-event cost: dispatch is O(1) in the cluster size.  Each release resolves
through the run's :class:`~repro.cluster.ledger.DispatchLedger` — per-task
constants (predicted latency, deadline, kernel specs, metric bucket) are
memoized once per run in a :class:`_TaskProfile`, the model's
:class:`~repro.cluster.ledger.DeviceGroup` answers the routing question
(incremental min-heap / bisect ordering / cursor over its alive members),
and the sustained-backlog migration trigger is a per-group counter compare.
:class:`GpuLoadView` snapshots are built only for an ``on_dispatch``
observer.

RNG streams: arrivals and request-level fault draws come from the run's
root :class:`~repro.sim.rng.RngFactory`, as do the device-level fault
timelines of a 1-GPU cluster; device-level fault timelines of a multi-GPU
cluster come from per-device ``spawn``-derived factories, so each device
degrades independently without perturbing any other stream.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from functools import partial
from itertools import count
from typing import Callable, Dict, List, Optional, Tuple

from repro.cluster.config import ClusterConfig
from repro.cluster.ledger import DeviceGroup, DispatchLedger
from repro.cluster.placement import PlacementSpec
from repro.gpu.calibration import DEFAULT_CALIBRATION, GpuCalibration
from repro.gpu.platform import GpuPlatform, PlatformConfig
from repro.gpu.spec import GpuSpec, RTX_2080_TI
from repro.numeric import left_sum
from repro.rt.metrics import FaultImpact, GpuTelemetry, PriorityMetrics, ScenarioMetrics
from repro.rt.task import Priority
from repro.rt.taskset import TaskSetSpec
from repro.sim.faults import (
    DEFAULT_POLICY,
    FaultInjector,
    FaultSpec,
    NO_FAULTS,
    ResiliencePolicy,
    deferred_launch,
)
from repro.sim.rng import RngFactory
from repro.sim.simulator import Simulator
from repro.sim.workload import PERIODIC_WORKLOAD, ReleaseStream, WorkloadSpec


@dataclass(frozen=True)
class GpuLoadView:
    """One device's load as an ``on_dispatch`` observer sees it.

    Attributes:
        index: device index within the cluster.
        outstanding_ms: predicted service time of everything queued or
            running on the device (the Clockwork-style isolated-latency
            ledger).
        queue_depth: requests queued or running on the device.
        alive: False while the device is degraded (crash recovery or a
            slowdown window); routing prefers alive devices and only falls
            back to degraded ones when no eligible device is healthy.
    """

    index: int
    outstanding_ms: float
    queue_depth: int
    alive: bool = True


class _TaskProfile:
    """Dispatch constants of one task, resolved once per run.

    The predicted latency (``isolated_latency_ms`` times the admission
    slack), the relative deadline and the per-priority bucket are pure
    functions of the immutable task/model/calibration, so they are computed
    once instead of on every release.
    """

    __slots__ = (
        "model_name",
        "task_name",
        "bucket",
        "predicted_ms",
        "relative_deadline_ms",
        "kernels",
        "num_stages",
    )

    def __init__(self, task, bucket: PriorityMetrics, predicted_ms: float, kernels):
        self.model_name = task.model.name
        self.task_name = task.name
        self.bucket = bucket
        self.predicted_ms = predicted_ms
        self.relative_deadline_ms = task.relative_deadline_ms
        self.kernels = kernels
        self.num_stages = len(kernels)


@dataclass(order=True, slots=True)
class _QueuedRequest:
    deadline: float
    seq: int
    release: float = field(compare=False)
    profile: _TaskProfile = field(compare=False, default=None)


class _GpuWorker:
    """One device's executor: the Clockwork loop bound to a shared simulator.

    Clockwork (Gujarati et al., OSDI 2020) achieves predictable latency by
    executing exactly one DNN at a time, relying on the resulting
    deterministic execution times to decide up front whether a request can
    meet its deadline; requests that cannot are rejected.  The DARIS paper
    cites it as the design point that trades throughput for predictability.

    Keeps a ledger of outstanding predicted work (the router's load signal)
    and per-device telemetry; the headline counters go to the cluster-shared
    per-priority buckets so the merged metrics match what one big Clockwork
    run over the same event sequence would have produced.  One request runs
    at a time, so the in-flight state lives in two slots
    (``_active``/``_stage``) instead of per-request closures, and every load
    / queue-depth delta is mirrored into the run's
    :class:`~repro.cluster.ledger.DispatchLedger`.
    """

    __slots__ = (
        "index",
        "simulator",
        "platform",
        "_engine",
        "_stream",
        "injector",
        "policy",
        "timeout_ms",
        "per_task_completed",
        "queue",
        "outstanding_ms",
        "depth",
        "ledger",
        "_track_load",
        "_track_depth",
        "_active",
        "_stage",
        "routed",
        "completed",
        "missed",
        "max_queue_depth",
        "migrations",
    )

    def __init__(
        self,
        index: int,
        simulator: Simulator,
        platform: GpuPlatform,
        injector: FaultInjector,
        policy: ResiliencePolicy,
        timeout_ms: Optional[float],
        per_task_completed: Dict[str, int],
        ledger: DispatchLedger,
    ):
        self.index = index
        self.simulator = simulator
        self.platform = platform
        # The worker owns its device outright and serializes requests itself
        # (one in flight, always slot (0, 0)), so stages launch straight on
        # the engine; the platform's idle-stream bookkeeping — maintained for
        # backends that hunt for free slots — is dead weight here and its
        # drain callback is unhooked.  Pure plumbing removal: event times and
        # kernel arithmetic are untouched.
        self._engine = platform.engine
        self._stream = platform.stream(0, 0)
        self._engine.stream_idle_callback = None
        self.injector = injector
        self.policy = policy
        self.timeout_ms = timeout_ms
        self.per_task_completed = per_task_completed
        self.queue: List[_QueuedRequest] = []
        self.outstanding_ms = 0.0
        self.depth = 0  # requests queued or running (incremental)
        self.ledger = ledger
        self._track_load = ledger.track_load
        self._track_depth = ledger.backlog > 0
        self._active: Optional[_QueuedRequest] = None
        self._stage = 0
        # Telemetry.
        self.routed = 0
        self.completed = 0
        self.missed = 0
        self.max_queue_depth = 0
        self.migrations = 0

    # ------------------------------------------------------------- load view

    def load_view(self) -> GpuLoadView:
        """Snapshot handed to an ``on_dispatch`` observer (see ``serve``)."""
        return GpuLoadView(
            index=self.index,
            outstanding_ms=self.outstanding_ms,
            queue_depth=self.depth,
            alive=not self.injector.degraded,
        )

    # ------------------------------------------------------------ bookkeeping

    def _add_load(self, delta: float) -> None:
        self.outstanding_ms += delta
        if self._track_load:
            self.ledger.load_changed(self.index, self.outstanding_ms)

    def _depth_delta(self, delta: int) -> None:
        old = self.depth
        new = old + delta
        self.depth = new
        if delta > 0 and new > self.max_queue_depth:
            self.max_queue_depth = new
        if self._track_depth:
            self.ledger.depth_changed(self.index, old, new)

    # --------------------------------------------------------------- ingress

    def enqueue(self, request: _QueuedRequest) -> None:
        """Accept a routed request and start serving if idle."""
        heapq.heappush(self.queue, request)
        self._add_load(request.profile.predicted_ms)
        self._depth_delta(1)
        self.start_next()

    def take_queued(self, model_name: str) -> List[_QueuedRequest]:
        """Remove (and return) every queued request of one model.

        The migration primitive: the running request (if any) stays — only
        the waiting queue moves.
        """
        queue = self.queue
        taken = [r for r in queue if r.profile.model_name == model_name]
        if taken:
            self.queue = [r for r in queue if r.profile.model_name != model_name]
            heapq.heapify(self.queue)
            for request in taken:
                self.outstanding_ms -= request.profile.predicted_ms
            if self._track_load:
                self.ledger.load_changed(self.index, self.outstanding_ms)
            self._depth_delta(-len(taken))
        return taken

    def receive_migrated(self, moved: List[_QueuedRequest]) -> None:
        """Absorb a migrated queue and start serving it."""
        queue = self.queue
        for request in moved:
            heapq.heappush(queue, request)
            self.outstanding_ms += request.profile.predicted_ms
        if moved:
            if self._track_load:
                self.ledger.load_changed(self.index, self.outstanding_ms)
            self._depth_delta(len(moved))
        self.start_next()

    # -------------------------------------------------------------- executor

    def start_next(self) -> None:
        """Pop and serve EDF-first requests until busy (the Clockwork loop)."""
        simulator = self.simulator
        injector = self.injector
        policy = self.policy
        timeout_ms = self.timeout_ms
        queue = self.queue
        while queue and self._active is None:
            request = heapq.heappop(queue)
            profile = request.profile
            bucket = profile.bucket
            if (
                timeout_ms is not None
                and simulator.now - request.release > timeout_ms + 1e-9
            ):
                # The client gave up while the request sat queued; it
                # entered the system, so it counts admitted + timed out.
                bucket.admitted += 1
                bucket.timed_out += 1
                self._add_load(-profile.predicted_ms)
                self._depth_delta(-1)
                continue
            latency = profile.predicted_ms
            effective = latency
            if policy.shed_when_degraded and injector.degraded:
                factor = injector.slowdown_factor
                if 0.0 < factor < 1.0:
                    effective = latency / factor
            if simulator.now + effective > request.deadline + 1e-9:
                bucket.rejected += 1
                if simulator.now + latency <= request.deadline + 1e-9:
                    # Only the degradation-inflated prediction failed:
                    # this is a shed, not a plain rejection.
                    bucket.shed += 1
                self._add_load(-profile.predicted_ms)
                self._depth_delta(-1)
                continue
            self._active = request
            self._stage = 0
            bucket.admitted += 1
            outcome = injector.launch_attempt()
            if outcome.retries:
                bucket.launch_retries += outcome.retries
            if not outcome.succeeded or outcome.delay_ms > 0.0:
                deferred_launch(
                    simulator, outcome, self._submit_stage, self._launch_failed
                )
                return
            self._submit_stage()
            return

    def _submit_stage(self) -> None:
        self._engine.launch(
            self._stream,
            self._active.profile.kernels[self._stage],
            on_complete=self._on_stage_done,
        )

    def _launch_failed(self) -> None:
        request = self._active
        request.profile.bucket.failed += 1
        self._active = None
        self._add_load(-request.profile.predicted_ms)
        self._depth_delta(-1)
        self.start_next()

    def _on_stage_done(self, _kernel) -> None:
        self._stage += 1
        request = self._active
        profile = request.profile
        if self._stage < profile.num_stages:
            self._submit_stage()
            return
        self._active = None
        self.completed += 1
        bucket = profile.bucket
        bucket.completed += 1
        per_task = self.per_task_completed
        per_task[profile.task_name] = per_task.get(profile.task_name, 0) + 1
        simulator = self.simulator
        now = simulator.now
        bucket.response_times.append(now - request.release)
        late = now > request.deadline + 1e-9
        if late:
            self.missed += 1
            bucket.missed += 1
        self._add_load(-profile.predicted_ms)
        self._depth_delta(-1)
        self.injector.note_completion(now, on_time=not late)
        self.start_next()

    def telemetry(self) -> GpuTelemetry:
        """Per-device breakdown, rolled up once at run end."""
        return GpuTelemetry(
            gpu=self.index,
            routed=self.routed,
            completed=self.completed,
            missed=self.missed,
            utilization=self.platform.average_utilization(),
            max_queue_depth=self.max_queue_depth,
            migrations=self.migrations,
        )


def _request_spec(faults: FaultSpec) -> FaultSpec:
    """The request-level (pre-routing) slice of a fault spec."""
    if faults.requests is None:
        return NO_FAULTS
    return FaultSpec(requests=faults.requests)


def _device_spec(faults: FaultSpec, gpu_index: int) -> FaultSpec:
    """The device-level slice of a fault spec as seen by one device.

    A targeted spec (``faults.gpu``) lands its slowdown/launch/crash
    components on that device only; untargeted device faults apply to every
    device (each drawing its own timeline).
    """
    if faults.gpu is not None and faults.gpu != gpu_index:
        return NO_FAULTS
    if faults.slowdown is None and faults.launch is None and faults.crash is None:
        return NO_FAULTS
    return FaultSpec(slowdown=faults.slowdown, launch=faults.launch, crash=faults.crash)


def _merged_impact(
    active: bool, injectors: List[FaultInjector]
) -> Optional[FaultImpact]:
    """Cluster-wide fault impact: episodes/downtime summed over devices."""
    if not active:
        return None
    episodes = 0
    downtime = 0.0
    recover_means: List[float] = []
    for injector in injectors:
        summary = injector.summary()
        if summary is None:
            continue
        episodes += int(summary["episodes"])
        downtime += float(summary["downtime_ms"])
        if summary["time_to_recover_ms"] is not None:
            recover_means.append(float(summary["time_to_recover_ms"]))
    recover = left_sum(recover_means) / len(recover_means) if recover_means else None
    return FaultImpact(
        episodes=episodes, downtime_ms=downtime, time_to_recover_ms=recover
    )


class ClusterServer:
    """N simulated GPUs behind a router, one event graph, one metrics merge.

    ``admission_slack`` multiplies every task's predicted latency — the
    figure both the admission test and the router's load signal use.  Above
    1 the workers shed earlier (conservative), below 1 they admit deeper
    (optimistic); the default 1.0 leaves every prediction unchanged.
    """

    def __init__(
        self,
        config: ClusterConfig,
        gpu: GpuSpec = RTX_2080_TI,
        calibration: GpuCalibration = DEFAULT_CALIBRATION,
        admission_slack: float = 1.0,
    ):
        if not admission_slack > 0:
            raise ValueError("admission_slack must be positive")
        self.config = config
        self.gpu = gpu
        self.calibration = calibration
        self.admission_slack = admission_slack
        #: Dispatches the ledger routed in the last ``serve`` run (all of
        #: them; kept as the run-report counter).
        self.indexed_engagements = 0

    def serve(
        self,
        taskset: TaskSetSpec,
        horizon_ms: float,
        workload: Optional[WorkloadSpec] = None,
        rng: Optional[RngFactory] = None,
        faults: Optional[FaultSpec] = None,
        resilience: Optional[ResiliencePolicy] = None,
        on_dispatch: Optional[
            Callable[[float, str, int, Tuple[GpuLoadView, ...], float, float], None]
        ] = None,
    ) -> ScenarioMetrics:
        """Serve a task set across the cluster; returns the merged metrics.

        ``on_dispatch(now, model_name, chosen, views, deadline, predicted_ms)``
        (when given) observes every routing decision with views of the
        candidate devices (the model's group members) as they stood before
        the request was enqueued — the hook the routing tests use to re-check
        each pick.  Observing does not change the routing.
        """
        if horizon_ms <= 0:
            raise ValueError("horizon must be positive")
        workload = workload if workload is not None else PERIODIC_WORKLOAD
        if workload.saturated:
            raise ValueError(
                "the cluster backend is deadline-driven; saturated workloads do not apply"
            )
        rng = rng if rng is not None else RngFactory(0)
        faults = faults if faults is not None else NO_FAULTS
        policy = resilience if resilience is not None else DEFAULT_POLICY
        config = self.config
        num_gpus = config.num_gpus
        self.indexed_engagements = 0

        simulator = Simulator()
        # Request-level faults (drops, client timeouts) happen before
        # routing, from the root factory's historical streams.
        cluster_injector = FaultInjector(_request_spec(faults), rng=rng, policy=policy)
        timeout_ms = cluster_injector.timeout_ms
        requests_spec = faults.requests
        drops_possible = requests_spec is not None and requests_spec.drop_prob > 0.0

        per_priority = {
            Priority.HIGH: PriorityMetrics(),
            Priority.LOW: PriorityMetrics(),
        }
        per_task_completed: Dict[str, int] = {}

        migration_on = config.migration_backlog > 0 and num_gpus >= 2
        # One dispatch ledger per run: device deltas are mirrored in,
        # routing and migration triggers read it directly.
        ledger = DispatchLedger(
            num_gpus,
            config.router,
            backlog=config.migration_backlog if migration_on else 0,
        )
        workers: List[_GpuWorker] = []
        device_injectors: List[FaultInjector] = []
        for index in range(num_gpus):
            platform = GpuPlatform(
                simulator,
                PlatformConfig(num_contexts=1, streams_per_context=1, oversubscription=1.0),
                spec=self.gpu,
                calibration=self.calibration,
            )
            # A 1-GPU cluster keeps the root factory: its fault streams are
            # those of a single-device run.
            device_rng = rng if num_gpus == 1 else rng.spawn(f"cluster-gpu[{index}]")
            injector = FaultInjector(
                _device_spec(faults, index), rng=device_rng, policy=policy
            )
            injector.install(simulator, platform, horizon_ms)
            injector.on_degraded_change = partial(ledger.degraded_changed, index)
            workers.append(
                _GpuWorker(
                    index,
                    simulator,
                    platform,
                    injector,
                    policy,
                    timeout_ms,
                    per_task_completed,
                    ledger,
                )
            )
            device_injectors.append(injector)

        model_names: List[str] = []
        for task in taskset.tasks:
            if task.model.name not in model_names:
                model_names.append(task.model.name)
        placement = PlacementSpec.build(config.placement, model_names, num_gpus)
        backlog_since: Dict[str, float] = {}
        dispatch_seq = count(1)

        # Per-run memos: predicted isolated latency per (model, calibration)
        # and the stage kernel specs per model, shared by every task of that
        # model; per-task profiles bundle them with the metric bucket.
        predicted_by_model: Dict[int, float] = {}
        kernels_by_model: Dict[int, tuple] = {}
        profiles: Dict[int, _TaskProfile] = {}
        for task in taskset.tasks:
            model = task.model
            key = id(model)
            predicted = predicted_by_model.get(key)
            if predicted is None:
                # One DNN at a time on the whole GPU: the isolated latency
                # *is* the deterministic worst case, Clockwork's core idea.
                predicted = model.isolated_latency_ms(self.calibration) * self.admission_slack
                predicted_by_model[key] = predicted
                kernels_by_model[key] = tuple(
                    stage.to_kernel_spec() for stage in model.stages
                )
            profiles[id(task)] = _TaskProfile(
                task, per_priority[task.priority], predicted, kernels_by_model[key]
            )

        # Where each model runs: its placement subset, narrowed by migration.
        group_by_model = {
            name: ledger.group_for(placement.gpus_for(name)) for name in model_names
        }

        def migrate(model_name: str, eligible: Tuple[int, ...], now: float) -> None:
            others = [g for g in range(num_gpus) if g not in eligible]
            if not others:
                backlog_since.pop(model_name, None)
                return
            target = min(others, key=lambda g: (workers[g].outstanding_ms, g))
            moved: List[_QueuedRequest] = []
            for g in eligible:
                taken = workers[g].take_queued(model_name)
                if taken:
                    # Only devices that actually contributed requests count
                    # a migration.
                    workers[g].migrations += 1
                    moved.extend(taken)
            group_by_model[model_name] = ledger.group_for((target,))
            backlog_since.pop(model_name, None)
            workers[target].receive_migrated(moved)

        def maybe_migrate(model_name: str, now: float) -> None:
            # ``below_backlog`` counts eligible devices under the threshold,
            # so "every eligible GPU holds a backlog" is one integer compare.
            group = group_by_model[model_name]
            if group.below_backlog > 0:
                backlog_since.pop(model_name, None)
                return
            since = backlog_since.get(model_name)
            if since is None:
                backlog_since[model_name] = now
            elif now - since >= config.migration_window_ms:
                migrate(model_name, group.devices, now)

        # The ledger's group methods are the routing policies.
        route = getattr(DeviceGroup, config.router)

        def on_release(task, event) -> None:
            profile = profiles[id(task)]
            bucket = profile.bucket
            bucket.released += 1
            if drops_possible and cluster_injector.drop_request():
                bucket.dropped += 1
                return
            model_name = profile.model_name
            now = event.time
            if migration_on:
                maybe_migrate(model_name, now)
            predicted = profile.predicted_ms
            deadline = now + profile.relative_deadline_ms
            group = group_by_model[model_name]
            choice = route(group, now, deadline, predicted)
            if on_dispatch is not None:
                views = tuple(workers[g].load_view() for g in group.members)
                on_dispatch(now, model_name, choice, views, deadline, predicted)
            worker = workers[choice]
            worker.routed += 1
            worker.enqueue(_QueuedRequest(deadline, next(dispatch_seq), now, profile))

        ReleaseStream(workload, rng).drive_taskset(
            simulator, horizon_ms, taskset.tasks, on_release
        )
        simulator.run_until(horizon_ms)
        self.indexed_engagements = sum(worker.routed for worker in workers)

        breakdown = tuple(worker.telemetry() for worker in workers)
        utilization = left_sum(gpu.utilization for gpu in breakdown) / len(breakdown)
        return ScenarioMetrics.from_priority_metrics(
            horizon_ms,
            high=per_priority[Priority.HIGH],
            low=per_priority[Priority.LOW],
            per_task_completed=per_task_completed,
            gpu_utilization=utilization,
            fault_impact=_merged_impact(faults.active, device_injectors),
            gpu_breakdown=breakdown,
        )
