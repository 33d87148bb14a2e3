"""Deterministic, fingerprintable fault injection for the serving stack.

Real serving fleets are defined by how they degrade: GPUs thermal-throttle,
kernel launches fail and are retried, MPS contexts crash and take a recovery
window to come back, and individual requests are lost or abandoned.  This
module gives every scenario a declarative, composable description of those
fault processes plus the one runtime that injects them:

* :class:`FaultSpec` — a pure value carried by a scenario request.  It is a
  composite of up to four optional fault components, each a frozen
  kind-tagged dataclass: :class:`SlowdownFault` (transient GPU
  slowdown/thermal-throttle windows), :class:`LaunchFault` (kernel-launch
  failures with a retry cost), :class:`CrashFault` (MPS context crashes with
  recovery latency) and :class:`RequestFaults` (per-request drops and
  timeouts).  Like :class:`~repro.sim.workload.WorkloadSpec`, the serialized
  form emits a key per component only when that component is present, so the
  default (fault-free) spec adds nothing to a request fingerprint and **no
  pre-existing cache key changes**.
* :class:`ResiliencePolicy` — how a scheduler backend *answers* faults:
  bounded launch retries with backoff, deadline-aware shedding while the GPU
  is degraded, and an optional degraded-mode fallback.  Policies are declared
  per :class:`~repro.backends.base.SchedulerBackend`; they describe the
  backend's algorithm (not the scenario), so they are not fingerprinted.
* :class:`FaultInjector` — the per-run engine.  All random draws come from
  dedicated named :class:`~repro.sim.rng.RngFactory` streams
  (``fault-windows`` / ``fault-launch`` / ``fault-crash`` / ``fault-drops``),
  so fault timelines are bit-identical per seed and adding fault draws never
  perturbs the draws any other subsystem sees.  Platform-level faults
  (slowdown windows, context crashes) are materialized eagerly at install
  time as simulator events, which keeps the RNG draw order independent of
  how the run interleaves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, ClassVar, Dict, List, Mapping, Optional, Tuple, Type, Union

import numpy as np

from repro.numeric import left_sum
from repro.sim.rng import RngFactory
from repro.sim.simulator import Simulator

#: Fault component kinds a :class:`FaultSpec` can carry, in serialization order.
FAULT_KINDS = ("slowdown", "launch", "crash", "requests")

#: Simulator event priority for fault state changes: fire before releases
#: (priority -1) and dispatches (priority 0) that share the same timestamp.
_FAULT_EVENT_PRIORITY = -2


def _float_dict(component) -> Dict[str, object]:
    """JSON-safe dict of a frozen component's fields (insertion order)."""
    data: Dict[str, object] = {}
    for name, value in component.__dict__.items():
        data[name] = value
    return data


@dataclass(frozen=True)
class SlowdownFault:
    """Transient GPU slowdown (thermal-throttle) windows.

    While a window is open every kernel's progress rate is multiplied by
    ``factor``.  Windows open every ``period_ms`` starting at ``start_ms``;
    with ``random=True`` the gaps between window starts are instead
    exponential with mean ``period_ms`` (drawn from the ``fault-windows``
    stream), modelling unpredictable co-tenant interference.
    """

    kind: ClassVar[str] = "slowdown"

    period_ms: float = 500.0
    duration_ms: float = 100.0
    factor: float = 0.5
    start_ms: float = 0.0
    random: bool = False

    def __post_init__(self) -> None:
        if self.period_ms <= 0:
            raise ValueError("period_ms must be positive")
        if self.duration_ms <= 0:
            raise ValueError("duration_ms must be positive")
        if not 0.0 < self.factor <= 1.0:
            raise ValueError("factor must lie in (0, 1]")
        if self.start_ms < 0:
            raise ValueError("start_ms must be non-negative")
        if not self.random and self.duration_ms > self.period_ms:
            raise ValueError("deterministic windows must not overlap (duration > period)")

    @property
    def randomized(self) -> bool:
        """Whether this component consumes random draws."""
        return self.random

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe serialized form."""
        return _float_dict(self)


@dataclass(frozen=True)
class LaunchFault:
    """Kernel-launch failures: each launch attempt fails with ``failure_prob``.

    Every failed attempt costs ``retry_cost_ms`` of extra dispatch latency
    (scaled by the backend policy's backoff); a backend's
    :class:`ResiliencePolicy` bounds how many retries are spent before the
    job is declared *failed*.
    """

    kind: ClassVar[str] = "launch"

    failure_prob: float = 0.05
    retry_cost_ms: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.failure_prob < 1.0:
            raise ValueError("failure_prob must lie in [0, 1)")
        if self.retry_cost_ms < 0:
            raise ValueError("retry_cost_ms must be non-negative")

    @property
    def randomized(self) -> bool:
        """Whether this component consumes random draws."""
        return self.failure_prob > 0.0

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe serialized form."""
        return _float_dict(self)


@dataclass(frozen=True)
class CrashFault:
    """MPS context crashes with recovery latency.

    Crash instants are exponential with mean ``mtbf_ms``; each crash picks a
    uniformly random context (both drawn from the ``fault-crash`` stream),
    destroys the progress of every kernel in flight there, and blocks the
    context for ``recovery_ms`` while it is rebuilt.
    """

    kind: ClassVar[str] = "crash"

    mtbf_ms: float = 2000.0
    recovery_ms: float = 50.0

    def __post_init__(self) -> None:
        if self.mtbf_ms <= 0:
            raise ValueError("mtbf_ms must be positive")
        if self.recovery_ms < 0:
            raise ValueError("recovery_ms must be non-negative")

    @property
    def randomized(self) -> bool:
        """Crash timelines are always stochastic."""
        return True

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe serialized form."""
        return _float_dict(self)


@dataclass(frozen=True)
class RequestFaults:
    """Per-request faults: arrival drops and service timeouts.

    Each released request is independently lost with ``drop_prob`` (the
    ``fault-drops`` stream); a request still waiting for service
    ``timeout_ms`` after its release is abandoned by the client and counted
    *timed out*.
    """

    kind: ClassVar[str] = "requests"

    drop_prob: float = 0.0
    timeout_ms: Optional[float] = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.drop_prob < 1.0:
            raise ValueError("drop_prob must lie in [0, 1)")
        if self.timeout_ms is not None and self.timeout_ms <= 0:
            raise ValueError("timeout_ms must be positive when set")
        if self.drop_prob == 0.0 and self.timeout_ms is None:
            raise ValueError("request faults need a drop probability or a timeout")

    @property
    def randomized(self) -> bool:
        """Whether this component consumes random draws."""
        return self.drop_prob > 0.0

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe serialized form (``timeout_ms`` only when set)."""
        data: Dict[str, object] = {"drop_prob": self.drop_prob}
        if self.timeout_ms is not None:
            data["timeout_ms"] = self.timeout_ms
        return data


_COMPONENT_TYPES: Dict[str, Type] = {
    "slowdown": SlowdownFault,
    "launch": LaunchFault,
    "crash": CrashFault,
    "requests": RequestFaults,
}

_Component = Union[SlowdownFault, LaunchFault, CrashFault, RequestFaults]


@dataclass(frozen=True)
class FaultSpec:
    """Composable, fingerprintable description of a scenario's fault processes.

    A pure value: never binds a simulator or RNG, lives on a
    ``ScenarioRequest``, and hashes/compares by value so equal specs coalesce
    in the experiment engine.  The default ``FaultSpec()`` (every component
    absent) is the fault-free scenario; its serialized form is the empty
    dict, and requests carrying it fingerprint exactly as they did before
    faults existed.

    ``gpu`` optionally targets the *device-level* components (slowdown,
    launch, crash) at one device of a multi-GPU cluster; request-level
    faults (drops, timeouts) happen before routing and ignore it.  Only the
    ``cluster`` backend interprets the target — single-device backends run
    on the one GPU there is.  It serializes only when set, so untargeted
    specs fingerprint exactly as before.
    """

    slowdown: Optional[SlowdownFault] = None
    launch: Optional[LaunchFault] = None
    crash: Optional[CrashFault] = None
    requests: Optional[RequestFaults] = None
    gpu: Optional[int] = None

    def __post_init__(self) -> None:
        if self.gpu is not None and self.gpu < 0:
            raise ValueError("gpu target must be non-negative when set")

    # -------------------------------------------------------------- builders

    @classmethod
    def throttle(
        cls,
        period_ms: float = 500.0,
        duration_ms: float = 100.0,
        factor: float = 0.5,
        start_ms: float = 0.0,
        random: bool = False,
    ) -> "FaultSpec":
        """Spec with only thermal-throttle slowdown windows."""
        return cls(
            slowdown=SlowdownFault(
                period_ms=period_ms,
                duration_ms=duration_ms,
                factor=factor,
                start_ms=start_ms,
                random=random,
            )
        )

    @classmethod
    def flaky_launches(
        cls, failure_prob: float = 0.05, retry_cost_ms: float = 1.0
    ) -> "FaultSpec":
        """Spec with only kernel-launch failures."""
        return cls(launch=LaunchFault(failure_prob=failure_prob, retry_cost_ms=retry_cost_ms))

    @classmethod
    def crashes(cls, mtbf_ms: float = 2000.0, recovery_ms: float = 50.0) -> "FaultSpec":
        """Spec with only MPS context crashes."""
        return cls(crash=CrashFault(mtbf_ms=mtbf_ms, recovery_ms=recovery_ms))

    @classmethod
    def lossy(
        cls, drop_prob: float = 0.05, timeout_ms: Optional[float] = None
    ) -> "FaultSpec":
        """Spec with only per-request drops/timeouts."""
        return cls(requests=RequestFaults(drop_prob=drop_prob, timeout_ms=timeout_ms))

    def with_slowdown(self, slowdown: SlowdownFault) -> "FaultSpec":
        """Copy of this spec with the slowdown component replaced."""
        return FaultSpec(slowdown, self.launch, self.crash, self.requests, self.gpu)

    def with_launch(self, launch: LaunchFault) -> "FaultSpec":
        """Copy of this spec with the launch-failure component replaced."""
        return FaultSpec(self.slowdown, launch, self.crash, self.requests, self.gpu)

    def with_crash(self, crash: CrashFault) -> "FaultSpec":
        """Copy of this spec with the crash component replaced."""
        return FaultSpec(self.slowdown, self.launch, crash, self.requests, self.gpu)

    def with_requests(self, requests: RequestFaults) -> "FaultSpec":
        """Copy of this spec with the request-fault component replaced."""
        return FaultSpec(self.slowdown, self.launch, self.crash, requests, self.gpu)

    def targeting(self, gpu: Optional[int]) -> "FaultSpec":
        """Copy of this spec with its device-fault target replaced.

        ``gpu=None`` clears the target (device faults apply cluster-wide).
        """
        return FaultSpec(self.slowdown, self.launch, self.crash, self.requests, gpu)

    # ------------------------------------------------------------ properties

    @property
    def is_default(self) -> bool:
        """True for the fault-free spec (every component absent, no target)."""
        return (
            self.slowdown is None
            and self.launch is None
            and self.crash is None
            and self.requests is None
            and self.gpu is None
        )

    @property
    def active(self) -> bool:
        """True when at least one fault component is present."""
        return not self.is_default

    @property
    def randomized(self) -> bool:
        """Whether any component consumes random draws (seed sensitivity)."""
        return any(
            component is not None and component.randomized for component in self._components()
        )

    def _components(self) -> Tuple[Optional[_Component], ...]:
        return (self.slowdown, self.launch, self.crash, self.requests)

    def label(self) -> str:
        """Compact human-readable tag (``none`` for the fault-free spec)."""
        present = [
            kind
            for kind, component in zip(FAULT_KINDS, self._components())
            if component is not None
        ]
        text = "+".join(present) if present else "none"
        if self.gpu is not None:
            text += f"@gpu{self.gpu}"
        return text

    # --------------------------------------------------------- serialization

    def to_dict(self) -> Dict[str, object]:
        """Serialized form: one key per *present* component, nothing else.

        The ``gpu`` target likewise appears only when set, so untargeted
        specs — every spec that predates cluster targeting — serialize
        byte-identically to their historical form.
        """
        data: Dict[str, object] = {}
        for kind, component in zip(FAULT_KINDS, self._components()):
            if component is not None:
                data[kind] = component.to_dict()
        if self.gpu is not None:
            data["gpu"] = self.gpu
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "FaultSpec":
        """Rebuild a spec from :meth:`to_dict` output (missing keys default)."""
        kwargs: Dict[str, object] = {}
        for kind in FAULT_KINDS:
            payload = data.get(kind)
            if payload is not None:
                kwargs[kind] = _COMPONENT_TYPES[kind](**dict(payload))
        gpu = data.get("gpu")
        if gpu is not None:
            kwargs["gpu"] = int(gpu)
        return cls(**kwargs)

    def fingerprint(self) -> Dict[str, object]:
        """Canonical content for cache keys (identical to :meth:`to_dict`)."""
        return self.to_dict()


#: Shared fault-free default; requests carrying it fingerprint unchanged.
NO_FAULTS = FaultSpec()


@dataclass(frozen=True)
class ResiliencePolicy:
    """How a scheduler backend answers injected faults.

    Attributes:
        max_launch_retries: failed kernel launches retried at most this many
            times before the owning job is declared *failed* (0 means one
            attempt, no retry).
        retry_backoff: multiplicative backoff applied to the retry cost of
            each successive failed attempt.
        shed_when_degraded: deadline-aware shedding — while the GPU is
            degraded (inside a slowdown window or crash recovery) the backend
            inflates its predicted finish/latency by the slowdown and sheds
            requests that can no longer make their deadline.
        degraded_fallback: optional named fallback mode entered while
            degraded (e.g. the batching server's ``"partial-batch"``, which
            stops waiting for full batches to cut queueing latency).
    """

    max_launch_retries: int = 0
    retry_backoff: float = 1.0
    shed_when_degraded: bool = False
    degraded_fallback: Optional[str] = None

    def __post_init__(self) -> None:
        if self.max_launch_retries < 0:
            raise ValueError("max_launch_retries must be non-negative")
        if self.retry_backoff < 1.0:
            raise ValueError("retry_backoff must be >= 1")


#: Policy of a backend that declares nothing: no retries, no shedding.
DEFAULT_POLICY = ResiliencePolicy()


@dataclass(frozen=True)
class LaunchOutcome:
    """Result of one (possibly retried) kernel-launch attempt sequence."""

    delay_ms: float
    succeeded: bool
    retries: int


_NO_FAULT_LAUNCH = LaunchOutcome(0.0, True, 0)


class FaultInjector:
    """Per-run fault engine: draws timelines and answers backend queries.

    One injector serves one simulation run.  Construction is cheap for the
    fault-free spec (every query short-circuits), so backends create one
    unconditionally and never branch on ``faults is None``.
    """

    WINDOW_STREAM = "fault-windows"
    LAUNCH_STREAM = "fault-launch"
    CRASH_STREAM = "fault-crash"
    DROP_STREAM = "fault-drops"

    def __init__(
        self,
        spec: Optional[FaultSpec] = None,
        rng: Union[RngFactory, int, None] = None,
        policy: ResiliencePolicy = DEFAULT_POLICY,
    ):
        self.spec = spec if spec is not None else NO_FAULTS
        self.policy = policy
        if isinstance(rng, RngFactory):
            self._rng: Optional[RngFactory] = rng
        elif rng is None:
            self._rng = None
        else:
            self._rng = RngFactory(int(rng))
        if self.spec.randomized and self._rng is None:
            raise ValueError("a randomized FaultSpec requires an RngFactory (or seed)")
        self._simulator: Optional[Simulator] = None
        #: Optional observer called with True/False when ``degraded`` flips
        #: (episode opens/closes).  The cluster backend uses it to keep an
        #: O(1) count of degraded devices for its dispatch fast path.
        self.on_degraded_change: Optional[Callable[[bool], None]] = None
        # Degradation bookkeeping: overlapping windows/recoveries are merged
        # into episodes; ``_active`` counts the currently open ones.
        self._active = 0
        self._window_depth = 0  # open slowdown windows (engine multiplier owner)
        self._episode_start = 0.0
        self._episodes: List[Tuple[float, float]] = []
        self._awaiting_recovery: List[float] = []  # closed-episode end times
        self._recoveries: List[float] = []
        self._slowdown_factor = 1.0
        # Observability counters.
        self.slowdown_windows = 0
        self.crashes = 0
        self.launch_retries = 0
        self.launch_failures = 0
        self.dropped_requests = 0

    # ------------------------------------------------------------------ state

    @property
    def degraded(self) -> bool:
        """True while inside a slowdown window or a crash recovery."""
        return self._active > 0

    @property
    def slowdown_factor(self) -> float:
        """Rate multiplier currently applied by slowdown windows (1.0 = none)."""
        return self._slowdown_factor if self._window_depth > 0 else 1.0

    @property
    def timeout_ms(self) -> Optional[float]:
        """Client abandonment timeout, when the spec declares one."""
        requests = self.spec.requests
        return requests.timeout_ms if requests is not None else None

    def _stream(self, name: str) -> np.random.Generator:
        assert self._rng is not None, "randomized fault draw without an RNG"
        return self._rng.stream(name)

    # ---------------------------------------------------------------- install

    def install(self, simulator: Simulator, platform, horizon_ms: float) -> None:
        """Materialize platform-level faults as simulator events.

        Slowdown windows toggle the engine's fault-slowdown multiplier;
        context crashes call :meth:`~repro.gpu.engine.GpuEngine.interrupt_context`.
        All timelines are drawn eagerly here so the RNG draw order never
        depends on how the run interleaves.  A no-op for specs without
        platform-level components.
        """
        self._simulator = simulator
        slowdown = self.spec.slowdown
        if slowdown is not None:
            self._install_slowdown(simulator, platform.engine, slowdown, horizon_ms)
        crash = self.spec.crash
        if crash is not None:
            self._install_crashes(simulator, platform, crash, horizon_ms)

    def _install_slowdown(
        self, simulator: Simulator, engine, slowdown: SlowdownFault, horizon_ms: float
    ) -> None:
        starts: List[float] = []
        if slowdown.random:
            rng = self._stream(self.WINDOW_STREAM)
            time = slowdown.start_ms + float(rng.exponential(slowdown.period_ms))
            while time <= horizon_ms:
                starts.append(time)
                time += slowdown.duration_ms + float(rng.exponential(slowdown.period_ms))
        else:
            time = slowdown.start_ms
            while time <= horizon_ms:
                starts.append(time)
                time += slowdown.period_ms
        factor = slowdown.factor
        for start in starts:
            simulator.schedule_at(
                start,
                lambda sim, f=factor: self._enter_window(sim, engine, f),
                priority=_FAULT_EVENT_PRIORITY,
                label="fault-slowdown-start",
            )
            simulator.schedule_at(
                start + slowdown.duration_ms,
                lambda sim: self._exit_window(sim, engine),
                priority=_FAULT_EVENT_PRIORITY,
                label="fault-slowdown-end",
            )

    def _install_crashes(
        self, simulator: Simulator, platform, crash: CrashFault, horizon_ms: float
    ) -> None:
        rng = self._stream(self.CRASH_STREAM)
        schedule: List[Tuple[float, int]] = []
        time = float(rng.exponential(crash.mtbf_ms))
        while time <= horizon_ms:
            context = int(rng.integers(platform.num_contexts))
            schedule.append((time, context))
            time += float(rng.exponential(crash.mtbf_ms))
        recovery = crash.recovery_ms
        for when, context in schedule:
            simulator.schedule_at(
                when,
                lambda sim, ctx=context: self._crash(sim, platform, ctx, recovery),
                priority=_FAULT_EVENT_PRIORITY,
                label="fault-context-crash",
            )

    # ----------------------------------------------------- episode transitions

    def _enter(self, now: float) -> None:
        if self._active == 0:
            self._episode_start = now
            if self.on_degraded_change is not None:
                self.on_degraded_change(True)
        self._active += 1

    def _exit(self, now: float) -> None:
        self._active -= 1
        if self._active == 0:
            self._episodes.append((self._episode_start, now))
            self._awaiting_recovery.append(now)
            if self.on_degraded_change is not None:
                self.on_degraded_change(False)

    def _enter_window(self, simulator: Simulator, engine, factor: float) -> None:
        self.slowdown_windows += 1
        self._slowdown_factor = factor
        self._window_depth += 1
        self._enter(simulator.now)
        engine.set_fault_slowdown(factor)

    def _exit_window(self, simulator: Simulator, engine) -> None:
        self._window_depth -= 1
        if self._window_depth == 0:
            engine.set_fault_slowdown(1.0)
        self._exit(simulator.now)

    def _crash(self, simulator: Simulator, platform, context: int, recovery_ms: float) -> None:
        self.crashes += 1
        platform.engine.interrupt_context(context, recovery_ms)
        self._enter(simulator.now)
        simulator.schedule_at(
            simulator.now + recovery_ms,
            lambda sim: self._exit(sim.now),
            priority=_FAULT_EVENT_PRIORITY,
            label="fault-context-recovered",
        )

    # ------------------------------------------------------- backend queries

    def drop_request(self) -> bool:
        """Draw whether a released request is lost before entering the system."""
        requests = self.spec.requests
        if requests is None or requests.drop_prob <= 0.0:
            return False
        dropped = bool(self._stream(self.DROP_STREAM).random() < requests.drop_prob)
        if dropped:
            self.dropped_requests += 1
        return dropped

    def launch_attempt(self) -> LaunchOutcome:
        """Draw one bounded-retry launch sequence under the backend policy.

        Returns the accumulated retry delay, whether the launch ultimately
        succeeded within ``policy.max_launch_retries`` retries, and the
        number of failed attempts consumed.
        """
        launch = self.spec.launch
        if launch is None or launch.failure_prob <= 0.0:
            return _NO_FAULT_LAUNCH
        rng = self._stream(self.LAUNCH_STREAM)
        probability = launch.failure_prob
        cost = launch.retry_cost_ms
        backoff = self.policy.retry_backoff
        delay = 0.0
        failures = 0
        attempts = self.policy.max_launch_retries + 1
        for _ in range(attempts):
            if float(rng.random()) >= probability:
                if failures:
                    self.launch_retries += failures
                return LaunchOutcome(delay, True, failures)
            failures += 1
            delay += cost
            cost *= backoff
        self.launch_retries += failures
        self.launch_failures += 1
        return LaunchOutcome(delay, False, failures)

    def note_completion(self, now: float, on_time: bool) -> None:
        """Observe a completion for the time-to-recover metric.

        The first *on-time* completion at or after a fault episode's end
        closes that episode's recovery window.
        """
        if not on_time or not self._awaiting_recovery:
            return
        remaining: List[float] = []
        for end in self._awaiting_recovery:
            if end <= now:
                self._recoveries.append(now - end)
            else:
                remaining.append(end)
        self._awaiting_recovery = remaining

    # ---------------------------------------------------------------- summary

    def summary(self) -> Optional[Dict[str, object]]:
        """Fault-impact summary of the run, or None for the fault-free spec.

        Keys: ``episodes`` (merged degraded intervals), ``downtime_ms``
        (total degraded time), ``time_to_recover_ms`` (mean delay from an
        episode's end to the next on-time completion; None when no episode
        recovered within the horizon).
        """
        if self.spec.is_default:
            return None
        episodes = list(self._episodes)
        if self._active > 0 and self._simulator is not None:
            episodes.append((self._episode_start, self._simulator.now))
        downtime = left_sum(end - start for start, end in episodes)
        recover = (
            float(left_sum(self._recoveries) / len(self._recoveries)) if self._recoveries else None
        )
        return {
            "episodes": len(episodes),
            "downtime_ms": float(downtime),
            "time_to_recover_ms": recover,
        }


def deferred_launch(
    simulator: Simulator,
    outcome: LaunchOutcome,
    do_launch: Callable[[], None],
    on_failed: Callable[[], None],
) -> None:
    """Execute a launch according to a drawn :class:`LaunchOutcome`.

    Shared by every backend: launch immediately when clean, after the retry
    delay when retried, and report failure (after the wasted retry delay)
    when the retry bound was exhausted.
    """
    if outcome.succeeded:
        if outcome.delay_ms > 0.0:
            simulator.schedule_after(
                outcome.delay_ms, lambda _sim: do_launch(), label="fault-launch-retry"
            )
        else:
            do_launch()
        return
    if outcome.delay_ms > 0.0:
        simulator.schedule_after(
            outcome.delay_ms, lambda _sim: on_failed(), label="fault-launch-failed"
        )
    else:
        on_failed()
