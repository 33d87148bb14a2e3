"""Arrival processes for periodic, aperiodic and bursty real-time workloads.

DARIS targets periodic soft real-time inference tasks, so the primary process
is :class:`PeriodicArrival` (period and phase).  The other processes model
the load shapes a deployed inference service sees: memoryless request
streams (:class:`PoissonArrival`), bursty load from a Markov-modulated
Poisson process (:class:`MmppArrival`), and replayed production traces
(:class:`TraceArrival`).  Each process is one scalar generator: it draws
its randomness one event at a time.

The declarative face of the same processes is :class:`WorkloadSpec` — a pure
value built from two composable halves:

* a **base process** (:class:`BaseProcess` subclass), kind-tagged as one of
  :data:`ARRIVAL_KINDS`: ``periodic`` / ``poisson`` / ``saturated`` plus
  ``mmpp`` (N-phase bursty Poisson) and ``trace`` (explicit release times);
* zero or more **modulators** that wrap any rate-driven base: bounded release
  jitter (``jitter_ms``) and a :class:`DiurnalModulator` rate profile
  (sinusoidal or piecewise day/night load shaping via time rescaling).

A spec never binds a simulator or RNG, so it can live inside a scenario
request, be fingerprinted into a cache key, and be interpreted by any
scheduler backend.  The serialized form is backward compatible: the three
original kinds with at most jitter produce byte-identical ``to_dict`` /
``fingerprint`` output to the flat pre-hierarchy ``WorkloadSpec``, so no
existing cache entry is invalidated; new kinds and modulators add keys only
when present.

:class:`ReleaseStream` is the one shared driver that turns a spec into
scheduled simulator events.  Every serving loop that releases work consumes
it: the DARIS scheduler (which also runs RTGPU), the cluster server (which
also runs Clockwork as one GPU) and the batching server.  That is what
makes a new arrival kind a one-file change.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, fields
from typing import (
    Callable,
    ClassVar,
    Dict,
    Iterator,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Type,
)

import numpy as np

from repro.numeric import left_sum
from repro.sim.rng import RngFactory
from repro.sim.simulator import Simulator

#: Base arrival kinds a :class:`WorkloadSpec` can name.
ARRIVAL_KINDS = ("periodic", "poisson", "saturated", "mmpp", "trace")


class ArrivalEvent:
    """A single job arrival produced by an arrival process.

    A ``__slots__`` value type rather than a frozen dataclass: one instance
    is created per generated release, so construction cost is the floor of
    release generation.  Equality and hashing follow the historical
    ``(index, time)`` field tuple.
    """

    __slots__ = ("index", "time")

    def __init__(self, index: int, time: float):
        self.index = index
        self.time = time

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ArrivalEvent):
            return NotImplemented
        return self.index == other.index and self.time == other.time

    def __hash__(self) -> int:
        return hash((self.index, self.time))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ArrivalEvent(index={self.index!r}, time={self.time!r})"


class ArrivalProcess:
    """Common machinery shared by every concrete arrival process.

    Subclasses implement :meth:`next_arrival`; generation is lazy — each call
    produces exactly the next event and draws only the randomness that event
    needs, so driving a large horizon never materializes the whole release
    list and no RNG stream is consumed ahead of its events.  A finite
    process (trace replay) signals exhaustion by returning events at
    ``time = inf``, which every horizon-bounded consumer treats as "past the
    horizon".
    """

    def next_arrival(self) -> ArrivalEvent:
        """Produce the next arrival event."""
        raise NotImplementedError

    def events(self, horizon: float) -> Iterator[ArrivalEvent]:
        """Lazily yield arrivals with ``time <= horizon``, in order."""
        while True:
            event = self.next_arrival()
            if event.time > horizon:
                return
            yield event

    def drive(
        self,
        simulator: Simulator,
        horizon: float,
        callback: Callable[[ArrivalEvent], None],
    ) -> int:
        """Schedule all arrivals up to ``horizon`` on ``simulator``.

        Returns the number of arrivals scheduled.  The callback receives the
        :class:`ArrivalEvent`; it is invoked at the arrival time.  The
        release times are generated now, in order, so every RNG stream (the
        shared jitter stream included) is drawn exactly as before; they are
        kept as packed floats and scheduled as one
        :meth:`Simulator.schedule_series`, which holds one heap entry per
        stream.  Every process numbers its events 0, 1, 2, ..., so an
        event's index is its position in the series.
        """
        times = array("d", [event.time for event in self.events(horizon)])
        simulator.schedule_series(
            times, -1, lambda _sim, index: callback(ArrivalEvent(index, times[index]))
        )
        return len(times)


class PeriodicArrival(ArrivalProcess):
    """Generates job releases every ``period`` ms starting at ``phase``.

    Release jitter is a modulator, as on every other kind: a jittered
    workload wraps this process in :class:`JitteredArrival`.
    """

    def __init__(self, period: float, phase: float = 0.0):
        if period <= 0:
            raise ValueError(f"period must be positive, got {period}")
        self.period = float(period)
        self.phase = float(phase)
        self._index = 0

    def nominal_release(self, index: int) -> float:
        """Release time of job ``index``."""
        return self.phase + index * self.period

    def next_arrival(self) -> ArrivalEvent:
        index = self._index
        self._index = index + 1
        return ArrivalEvent(index, self.phase + index * self.period)


class PoissonArrival(ArrivalProcess):
    """Memoryless arrival process with a given mean rate (jobs per second)."""

    def __init__(self, rate_jps: float, rng: np.random.Generator, start: float = 0.0):
        if rate_jps <= 0:
            raise ValueError(f"rate must be positive, got {rate_jps}")
        self.rate_jps = float(rate_jps)
        self._rng = rng
        self._time = float(start)
        self._index = 0

    def next_arrival(self) -> ArrivalEvent:
        """Draw the next arrival using exponential inter-arrival times."""
        time = self._time + float(self._rng.exponential(1000.0 / self.rate_jps))
        self._time = time
        index = self._index
        self._index = index + 1
        return ArrivalEvent(index, time)


def _validate_mmpp_phases(rates: Sequence[float], dwells: Sequence[float]) -> None:
    """The MMPP phase constraints, shared by the spec and runtime layers."""
    if len(rates) < 2 or len(rates) != len(dwells):
        raise ValueError("mmpp needs >= 2 phases with one dwell time per rate")
    if any(rate < 0 for rate in rates) or not any(rate > 0 for rate in rates):
        raise ValueError("mmpp phase rates must be >= 0 with at least one > 0")
    if any(dwell <= 0 for dwell in dwells):
        raise ValueError("mmpp phase dwell times must be positive")


class MmppArrival(ArrivalProcess):
    """N-phase Markov-modulated Poisson process (bursty arrivals).

    The process cycles through ``len(rates_jps)`` phases; while in phase
    ``p`` it emits Poisson arrivals at ``rates_jps[p]`` and holds the phase
    for an exponentially distributed dwell with mean ``dwell_ms[p]``.  With
    two phases (a quiet rate and a burst rate) this is the classic on/off
    bursty-load model; more phases give multi-level load regimes.  A phase
    rate of zero is a pure "off" period.

    Phase switches exploit memorylessness: the pending inter-arrival draw is
    discarded at a switch, which is statistically exact for exponential gaps
    and keeps generation deterministic per RNG stream.
    """

    def __init__(
        self,
        rates_jps: Sequence[float],
        dwell_ms: Sequence[float],
        rng: np.random.Generator,
        start: float = 0.0,
    ):
        rates = tuple(float(rate) for rate in rates_jps)
        dwells = tuple(float(dwell) for dwell in dwell_ms)
        _validate_mmpp_phases(rates, dwells)
        self.rates_jps = rates
        self.dwell_ms = dwells
        self._rng = rng
        self._time = float(start)
        self._index = 0
        self._phase = 0
        self._dwell_left: Optional[float] = None

    def next_arrival(self) -> ArrivalEvent:
        while True:
            if self._dwell_left is None:
                self._dwell_left = float(self._rng.exponential(self.dwell_ms[self._phase]))
            rate = self.rates_jps[self._phase]
            gap = float(self._rng.exponential(1000.0 / rate)) if rate > 0 else math.inf
            if gap <= self._dwell_left:
                self._dwell_left -= gap
                self._time += gap
                index = self._index
                self._index = index + 1
                return ArrivalEvent(index, self._time)
            self._time += self._dwell_left
            self._dwell_left = None
            self._phase = (self._phase + 1) % len(self.rates_jps)


class TraceArrival(ArrivalProcess):
    """Replays an explicit, sorted list of release times (trace replay).

    ``offset_ms`` shifts the whole trace (a task's phase); past the last
    recorded release the process is exhausted and yields ``inf`` events,
    which horizon-bounded consumers treat as "no more arrivals".
    """

    def __init__(self, times_ms: Sequence[float], offset_ms: float = 0.0):
        times = tuple(float(time) for time in times_ms)
        if not times:
            raise ValueError("a trace needs at least one release time")
        if any(time < 0 for time in times):
            raise ValueError("trace release times must be non-negative")
        if any(later < earlier for earlier, later in zip(times, times[1:])):
            raise ValueError("trace release times must be sorted (non-decreasing)")
        self.times_ms = times
        self.offset_ms = float(offset_ms)
        self._index = 0

    def next_arrival(self) -> ArrivalEvent:
        index = self._index
        self._index += 1
        if index >= len(self.times_ms):
            return ArrivalEvent(index=index, time=math.inf)
        return ArrivalEvent(index=index, time=self.offset_ms + self.times_ms[index])


class JitteredArrival(ArrivalProcess):
    """Bounded-jitter modulator: adds ``uniform(0, jitter_ms)`` per release.

    Wraps any base process, periodic included.  Successive jittered times
    are clamped to be non-decreasing (jitter can exceed a stochastic base's
    inter-arrival gap), so release order always matches index order.  On a
    plain periodic base :meth:`WorkloadSpec.arrival_for_task` keeps the
    jitter below one period, so there the clamp can fire only when the
    jitter is within float rounding of the period.
    """

    def __init__(self, base: ArrivalProcess, jitter_ms: float, rng: np.random.Generator):
        if jitter_ms <= 0:
            raise ValueError("jitter_ms must be positive for a jitter modulator")
        self._base = base
        self.jitter_ms = float(jitter_ms)
        self._rng = rng
        self._last = -math.inf

    def next_arrival(self) -> ArrivalEvent:
        event = self._base.next_arrival()
        if math.isinf(event.time):
            return event
        time = event.time + float(self._rng.uniform(0.0, self.jitter_ms))
        time = max(time, self._last)
        self._last = time
        return ArrivalEvent(index=event.index, time=time)


class DiurnalArrival(ArrivalProcess):
    """Diurnal rate modulator: time-rescales a base process through a profile.

    The base process generates arrivals in *operational time* at its nominal
    rate; each arrival is mapped through the inverse cumulative rate profile
    ``Λ⁻¹``, so the instantaneous arrival rate becomes ``nominal x
    factor(t)``.  The mapping is strictly monotone, preserving order, and
    uses no randomness of its own — the modulated process is exactly as
    deterministic per seed as its base.
    """

    def __init__(self, base: ArrivalProcess, profile: "DiurnalModulator"):
        self._base = base
        self.profile = profile
        self._last = -math.inf

    def next_arrival(self) -> ArrivalEvent:
        event = self._base.next_arrival()
        if math.isinf(event.time):
            return event
        # Clamp so a pair of near-coincident base events can never come back
        # inverted.
        time = max(self.profile.inverse_cumulative(event.time), self._last)
        self._last = time
        return ArrivalEvent(event.index, time)


# --------------------------------------------------------------------------
# Declarative spec layer: kind-tagged base processes plus modulators.
# --------------------------------------------------------------------------

#: ``kind`` tag -> base process class, filled in by ``_register_base``.
_BASE_KINDS: Dict[str, Type["BaseProcess"]] = {}


def _params_to_dict(spec) -> Dict[str, object]:
    """Dataclass fields as a JSON-safe dict (tuples become lists)."""
    data: Dict[str, object] = {}
    for spec_field in fields(spec):
        value = getattr(spec, spec_field.name)
        data[spec_field.name] = list(value) if isinstance(value, tuple) else value
    return data


def _params_from_dict(cls, data: Mapping[str, object]):
    """Rebuild a dataclass from :func:`_params_to_dict` output.

    Missing keys fall back to the field defaults, so older serialized specs
    (and hand-written sweep grids) stay loadable as new fields are added.
    """
    kwargs = {}
    for spec_field in fields(cls):
        if spec_field.name not in data:
            continue
        value = data[spec_field.name]
        kwargs[spec_field.name] = tuple(value) if isinstance(value, list) else value
    return cls(**kwargs)


@dataclass(frozen=True)
class BaseProcess:
    """One kind-tagged base arrival process of a :class:`WorkloadSpec`.

    Class attributes describe the kind's capabilities:

    * ``kind`` — the tag, one of :data:`ARRIVAL_KINDS`.
    * ``rate_driven`` — the process is parameterized by a task's mean rate,
      so rate modulators (jitter, diurnal profiles) can wrap it.
    * ``randomized`` — generation draws from an RNG, so the request seed
      shapes the release times (the engine's seed-replication axis cares).
    """

    kind: ClassVar[str] = ""
    rate_driven: ClassVar[bool] = True
    randomized: ClassVar[bool] = False

    def params(self) -> Dict[str, object]:
        """The kind's own parameters (empty for parameterless kinds)."""
        return _params_to_dict(self)

    def build(
        self,
        period_ms: float,
        phase_ms: float,
        rng: Optional[np.random.Generator],
    ) -> ArrivalProcess:
        """Concrete process for one task-shaped stream (period/phase)."""
        raise NotImplementedError


def _register_base(cls: Type[BaseProcess]) -> Type[BaseProcess]:
    if not cls.kind or cls.kind not in ARRIVAL_KINDS:
        raise ValueError(f"{cls.__name__} must set a kind from ARRIVAL_KINDS")
    _BASE_KINDS[cls.kind] = cls
    return cls


@_register_base
@dataclass(frozen=True)
class PeriodicProcess(BaseProcess):
    """Releases at each task's own period/phase (the paper's native model)."""

    kind: ClassVar[str] = "periodic"

    def build(self, period_ms, phase_ms, rng):
        return PeriodicArrival(period=period_ms, phase=phase_ms)


@_register_base
@dataclass(frozen=True)
class PoissonProcess(BaseProcess):
    """Memoryless releases at each task's mean rate (aperiodic load)."""

    kind: ClassVar[str] = "poisson"
    randomized: ClassVar[bool] = True

    def build(self, period_ms, phase_ms, rng):
        if rng is None:
            raise ValueError("poisson arrivals need an rng for reproducibility")
        return PoissonArrival(rate_jps=1000.0 / period_ms, rng=rng, start=phase_ms)


@_register_base
@dataclass(frozen=True)
class SaturatedProcess(BaseProcess):
    """Requests always pending — no arrival process at all."""

    kind: ClassVar[str] = "saturated"
    rate_driven: ClassVar[bool] = False

    def build(self, period_ms, phase_ms, rng):
        raise ValueError("saturated workloads have no arrival process")


@_register_base
@dataclass(frozen=True)
class MmppProcess(BaseProcess):
    """Bursty load: an N-phase Markov-modulated Poisson process.

    ``rate_factors`` scale the driven task's mean rate per phase, so one
    spec composes with any task set (a factor of 3.0 means "3x the nominal
    rate while this phase holds"); ``dwell_ms`` gives each phase's mean
    exponential dwell.  The default is a two-phase quiet/burst profile whose
    time-averaged rate equals the nominal rate (0.5 for 400 ms, 3.0 for
    100 ms).
    """

    kind: ClassVar[str] = "mmpp"
    randomized: ClassVar[bool] = True
    rate_factors: Tuple[float, ...] = (0.5, 3.0)
    dwell_ms: Tuple[float, ...] = (400.0, 100.0)

    def __post_init__(self) -> None:
        if not isinstance(self.rate_factors, tuple):
            object.__setattr__(self, "rate_factors", tuple(self.rate_factors))
        if not isinstance(self.dwell_ms, tuple):
            object.__setattr__(self, "dwell_ms", tuple(self.dwell_ms))
        _validate_mmpp_phases(self.rate_factors, self.dwell_ms)

    def build(self, period_ms, phase_ms, rng):
        if rng is None:
            raise ValueError("mmpp arrivals need an rng for reproducibility")
        nominal_jps = 1000.0 / period_ms
        return MmppArrival(
            rates_jps=tuple(factor * nominal_jps for factor in self.rate_factors),
            dwell_ms=self.dwell_ms,
            rng=rng,
            start=phase_ms,
        )


@_register_base
@dataclass(frozen=True)
class TraceProcess(BaseProcess):
    """Replay explicit release times (each driven stream replays the trace,
    shifted by its own phase).  Deterministic: the seed never matters."""

    kind: ClassVar[str] = "trace"
    rate_driven: ClassVar[bool] = False
    times_ms: Tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.times_ms, tuple):
            object.__setattr__(self, "times_ms", tuple(self.times_ms))
        # Construction-time validation mirrors TraceArrival's (fail early,
        # at spec build rather than mid-scenario).
        TraceArrival(self.times_ms)

    def build(self, period_ms, phase_ms, rng):
        return TraceArrival(self.times_ms, offset_ms=phase_ms)


def base_process_from_dict(
    kind: str, params: Optional[Mapping[str, object]] = None
) -> BaseProcess:
    """Rebuild a kind-tagged base process from its serialized parameters."""
    process_cls = _BASE_KINDS.get(kind)
    if process_cls is None:
        raise ValueError(
            f"unknown arrival kind {kind!r}; known: {', '.join(ARRIVAL_KINDS)}"
        )
    if not params:
        return process_cls()
    return _params_from_dict(process_cls, params)


@dataclass(frozen=True)
class DiurnalModulator:
    """Diurnal rate profile wrapping any rate-driven base process.

    The instantaneous rate is ``nominal x factor(t)`` where ``factor`` is a
    periodic profile with mean 1 (the task's average demand is preserved):

    * ``shape="sin"`` — ``factor(t) = 1 + amplitude * sin(2πt / period_ms)``
      with ``0 <= amplitude < 1`` (smooth day/night swing);
    * ``shape="piecewise"`` — ``levels`` holds equal-width rate multipliers
      across one period, normalized internally to mean 1 (step profiles,
      e.g. quiet night / morning ramp / evening peak).

    Modulation is applied by time-rescaling through the cumulative profile,
    which needs no randomness and preserves event order for every base.
    The sinusoidal profile inverts by a Newton-seeded crossing scan (see
    ``_sin_crossing``), with the 64-step bisection ``_sin_bisect`` as its
    fallback.  The scan returns the bisection's result wherever the float
    predicate ``cumulative(t) >= target`` flips once near the root.  That
    held for every target tried at amplitude <= 0.5, and for
    ``DIURNAL_WORKLOAD`` (amplitude 0.6, period 1 s), which
    ``tests/test_sim_workload.py`` pins.  Near the rate trough of a deeper
    or faster profile the predicate can flip several times within a few
    ulp, and the scan returns the flip nearest its candidate: at amplitude
    0.6 and period 700 ms a few of 4,000 random targets invert differently
    from bisection, at amplitude 0.9 and period 300 ms a few dozen.  Every
    stream inverts through :meth:`inverse_cumulative`, so a release time
    depends only on its base time, never on how the stream was driven.
    """

    period_ms: float = 1000.0
    amplitude: float = 0.5
    shape: str = "sin"
    levels: Optional[Tuple[float, ...]] = None

    def __post_init__(self) -> None:
        if self.period_ms <= 0:
            raise ValueError("diurnal period_ms must be positive")
        if self.shape not in ("sin", "piecewise"):
            raise ValueError(f"diurnal shape must be 'sin' or 'piecewise', got {self.shape!r}")
        if self.shape == "sin":
            if not 0.0 <= self.amplitude < 1.0:
                raise ValueError("sinusoidal amplitude must be in [0, 1)")
            if self.levels is not None:
                raise ValueError("levels apply to piecewise profiles only")
            normalized: Optional[Tuple[float, ...]] = None
        else:
            if self.levels is None:
                raise ValueError("piecewise diurnal profiles need levels")
            if not isinstance(self.levels, tuple):
                object.__setattr__(self, "levels", tuple(self.levels))
            if not self.levels or any(level < 0 for level in self.levels):
                raise ValueError("piecewise levels must be non-negative (>= 1 level)")
            if not any(level > 0 for level in self.levels):
                raise ValueError("at least one piecewise level must be positive")
            mean = left_sum(self.levels) / len(self.levels)
            normalized = tuple(level / mean for level in self.levels)
        # Cached mean-1 normalization: consulted once per generated arrival,
        # so it must not be recomputed per event.  Not a dataclass field —
        # eq/hash/fingerprint see only the user-supplied profile.
        object.__setattr__(self, "_normalized", normalized)

    def _normalized_levels(self) -> Tuple[float, ...]:
        return self._normalized

    def cumulative(self, time_ms: float) -> float:
        """``Λ(t)``: integral of the rate factor from 0 to ``time_ms``."""
        period = self.period_ms
        if self.shape == "sin":
            angular = 2.0 * math.pi / period
            return time_ms + self.amplitude / angular * (1.0 - math.cos(angular * time_ms))
        levels = self._normalized_levels()
        width = period / len(levels)
        cycles, remainder = divmod(time_ms, period)
        total = cycles * period  # mean 1 => one period integrates to itself
        for level in levels:
            if remainder <= 0:
                break
            span = min(width, remainder)
            total += level * span
            remainder -= span
        return total

    def inverse_cumulative(self, target: float) -> float:
        """``Λ⁻¹``: the real time at which the cumulative factor hits ``target``."""
        period = self.period_ms
        if self.shape == "sin":
            if target > 0.0 and 0.0 < self.amplitude <= 0.9:
                result = self._sin_crossing(target, self._sin_newton(target))
                if result is not None:
                    return result
            return self._sin_bisect(target)
        levels = self._normalized_levels()
        width = period / len(levels)
        cycles, remainder = divmod(target, period)
        time = cycles * period
        for level in levels:
            capacity = level * width
            if remainder <= capacity:
                return time + (remainder / level if level > 0 else 0.0)
            remainder -= capacity
            time += width
        return time  # remainder ~ 0 after the last segment (float slack)

    # --------------------------------------------- sinusoidal inversion paths

    def _sin_bisect(self, target: float) -> float:
        """The reference inversion: 64 bisection steps on the slack bracket.

        cumulative(t) - t is bounded by amplitude * period / π, so the root
        is bracketed; bisection is deterministic.  64 halvings shrink the
        bracket far below one ulp, so the result is the round-to-even
        midpoint of an adjacent float pair (l, h) at which the predicate
        ``cumulative(t) >= target`` flips.  Where it flips once near the
        root, ``_sin_crossing`` finds the same pair directly; where it flips
        several times, the bisection's path picks one of them.
        """
        low = max(0.0, target - self.amplitude * self.period_ms / math.pi)
        high = target + 1e-12
        for _ in range(64):
            mid = 0.5 * (low + high)
            if self.cumulative(mid) < target:
                low = mid
            else:
                high = mid
        return 0.5 * (low + high)

    def _sin_newton(self, target: float) -> float:
        """Newton candidate for ``Λ⁻¹(target)``, seeded by the linear inverse.

        Accuracy-only: the result comes from ``_sin_crossing``, so this
        just has to land within a few ulp.
        ``Λ' = 1 + amplitude·sin(ωt) >= 1 - amplitude > 0``, so the
        iteration is well-conditioned for the amplitudes it is gated to.
        """
        angular = 2.0 * math.pi / self.period_ms
        coeff = self.amplitude / angular
        amp = self.amplitude
        cos = math.cos
        sin = math.sin
        t = target - coeff * (1.0 - cos(angular * target))
        if t < 0.0:
            t = 0.0
        for _ in range(10):
            f = t + coeff * (1.0 - cos(angular * t)) - target
            if f == 0.0:
                break
            step = f / (1.0 + amp * sin(angular * t))
            t -= step
            if abs(step) <= 4.5e-16 * abs(t):
                break
        return t

    def _sin_crossing(self, target: float, candidate: float) -> Optional[float]:
        """Inversion from a near-converged candidate.

        Locates the adjacent float pair (l, h) with ``cumulative(l) <
        target <= cumulative(h)`` nearest the candidate by ulp-stepping from
        it, then returns its round-to-even midpoint.  That is the reference
        bisection's result wherever the predicate flips once near the root
        (see the class docstring).  Returns ``None`` (caller falls back to
        the real bisection) when the candidate is too far off, or when the
        crossing lies at/below the bracket floor ``max(0, target - slack)``
        — there the bisection's never-evaluated endpoint takes over and its
        result is not the crossing midpoint.
        """
        period = self.period_ms
        angular = 2.0 * math.pi / period
        coeff = self.amplitude / angular
        low0 = target - self.amplitude * period / math.pi
        if low0 < 0.0:
            low0 = 0.0
        high0 = target + 1e-12
        if candidate < low0:
            candidate = low0
        elif candidate > high0:
            candidate = high0
        cos = math.cos
        nextafter = math.nextafter
        inf = math.inf
        # Predicate: cumulative(t) >= target, with cumulative() inlined
        # bitwise (same expression, same evaluation order).
        if candidate + coeff * (1.0 - cos(angular * candidate)) >= target:
            h = candidate
            for _ in range(64):
                l = nextafter(h, -inf)
                if l + coeff * (1.0 - cos(angular * l)) < target:
                    if l < low0:
                        return None
                    return 0.5 * (l + h)
                h = l
            return None
        l = candidate
        for _ in range(64):
            h = nextafter(l, inf)
            if h + coeff * (1.0 - cos(angular * h)) >= target:
                if l < low0:
                    return None
                return 0.5 * (l + h)
            l = h
        return None


class WorkloadSpec:
    """Declarative arrival-process half of a scenario.

    A scenario is a task set (what runs, at which rates and deadlines) plus a
    workload (how jobs reach the scheduler).  The spec is a pure value —
    hashable, JSON round-trippable, fingerprintable — composed of a
    kind-tagged :class:`BaseProcess` plus optional modulators:

    * base kinds: ``periodic`` (the paper's native soft real-time model),
      ``poisson`` (memoryless at each task's mean rate; request servers use
      one aggregate stream), ``saturated`` (requests always waiting, rates
      ignored), ``mmpp`` (N-phase bursty load), ``trace`` (explicit replay);
    * ``jitter_ms`` — bounded uniform release jitter on any rate-driven base
      (must stay strictly below every driven period on a plain periodic
      base);
    * ``diurnal`` — a :class:`DiurnalModulator` rate profile on any
      rate-driven base.

    Construction accepts either the kind tag (``WorkloadSpec("poisson")``,
    backward compatible with the flat spec) or an explicit base process
    (``WorkloadSpec(base=MmppProcess(...))``); :meth:`mmpp`, :meth:`trace`,
    :meth:`with_jitter` and :meth:`with_diurnal` are the composable
    shorthands.
    """

    def __init__(
        self,
        arrival: Optional[str] = None,
        jitter_ms: float = 0.0,
        *,
        base: Optional[BaseProcess] = None,
        diurnal: Optional[DiurnalModulator] = None,
    ):
        if base is None:
            base = base_process_from_dict(arrival if arrival is not None else "periodic")
        elif not isinstance(base, BaseProcess):
            raise TypeError(f"base must be a BaseProcess, got {type(base).__name__}")
        elif arrival is not None and arrival != base.kind:
            raise ValueError(f"arrival {arrival!r} contradicts base kind {base.kind!r}")
        jitter_ms = float(jitter_ms)
        if jitter_ms < 0:
            raise ValueError("jitter_ms must be non-negative")
        if jitter_ms and not base.rate_driven:
            raise ValueError(
                f"jitter_ms applies to rate-driven arrivals only, not {base.kind!r}"
            )
        if diurnal is not None:
            if not isinstance(diurnal, DiurnalModulator):
                raise TypeError("diurnal must be a DiurnalModulator")
            if not base.rate_driven:
                raise ValueError(
                    f"diurnal profiles apply to rate-driven arrivals only, not {base.kind!r}"
                )
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "jitter_ms", jitter_ms)
        object.__setattr__(self, "diurnal", diurnal)

    # Value semantics: the spec is frozen after construction.
    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("WorkloadSpec is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError("WorkloadSpec is immutable")

    def _key(self) -> Tuple[object, ...]:
        return (self.base, self.jitter_ms, self.diurnal)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WorkloadSpec):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        parts = [repr(self.base)]
        if self.jitter_ms:
            parts.append(f"jitter_ms={self.jitter_ms!r}")
        if self.diurnal is not None:
            parts.append(f"diurnal={self.diurnal!r}")
        return f"WorkloadSpec({', '.join(parts)})"

    # ------------------------------------------------------------ properties

    @property
    def arrival(self) -> str:
        """The base process's kind tag (one of :data:`ARRIVAL_KINDS`)."""
        return self.base.kind

    @property
    def is_default(self) -> bool:
        """True for the plain periodic workload every legacy scenario used."""
        return self == PERIODIC_WORKLOAD

    @property
    def saturated(self) -> bool:
        """True when requests are always pending (rates ignored)."""
        return self.base.kind == "saturated"

    @property
    def randomized(self) -> bool:
        """True when the request seed shapes the release times.

        Randomized base kinds (poisson, mmpp) and the jitter modulator draw
        from seeded RNG streams; periodic, saturated, trace and diurnal
        modulation are fully deterministic.
        """
        return self.base.randomized or self.jitter_ms > 0

    # -------------------------------------------------------------- builders

    @classmethod
    def mmpp(
        cls,
        rate_factors: Sequence[float] = (0.5, 3.0),
        dwell_ms: Sequence[float] = (400.0, 100.0),
        jitter_ms: float = 0.0,
        diurnal: Optional[DiurnalModulator] = None,
    ) -> "WorkloadSpec":
        """A bursty (Markov-modulated Poisson) workload."""
        return cls(
            base=MmppProcess(rate_factors=tuple(rate_factors), dwell_ms=tuple(dwell_ms)),
            jitter_ms=jitter_ms,
            diurnal=diurnal,
        )

    @classmethod
    def trace(cls, times_ms: Sequence[float]) -> "WorkloadSpec":
        """A trace-replay workload with explicit release times."""
        return cls(base=TraceProcess(times_ms=tuple(times_ms)))

    def with_jitter(self, jitter_ms: float) -> "WorkloadSpec":
        """This workload with bounded release jitter added (or replaced)."""
        return WorkloadSpec(base=self.base, jitter_ms=jitter_ms, diurnal=self.diurnal)

    def with_diurnal(
        self,
        period_ms: float = 1000.0,
        amplitude: float = 0.5,
        shape: str = "sin",
        levels: Optional[Sequence[float]] = None,
    ) -> "WorkloadSpec":
        """This workload with a diurnal rate profile added (or replaced)."""
        modulator = DiurnalModulator(
            period_ms=period_ms,
            amplitude=amplitude,
            shape=shape,
            levels=tuple(levels) if levels is not None else None,
        )
        return WorkloadSpec(base=self.base, jitter_ms=self.jitter_ms, diurnal=modulator)

    # ---------------------------------------------------------- serialization

    def label(self) -> str:
        """Short human-readable tag for report rows."""
        parts = [self.base.kind]
        if self.diurnal is not None:
            parts.append("diurnal")
        if self.jitter_ms:
            parts.append(f"j{self.jitter_ms:g}")
        return "+".join(parts)

    def to_dict(self) -> Dict[str, object]:
        """Canonical JSON-safe form (doubles as the fingerprint).

        Byte-identical to the flat pre-hierarchy spec for the original three
        kinds with at most jitter (``{"arrival": ..., "jitter_ms": ...}``);
        parameterized kinds add one key named after the kind, and a diurnal
        modulator adds ``"diurnal"`` — new fields appear only when present,
        so no pre-existing cache key changes.
        """
        data: Dict[str, object] = {"arrival": self.base.kind, "jitter_ms": self.jitter_ms}
        params = self.base.params()
        if params:
            data[self.base.kind] = params
        if self.diurnal is not None:
            data["diurnal"] = _params_to_dict(self.diurnal)
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "WorkloadSpec":
        """Rebuild a spec from :meth:`to_dict` output.

        Tolerant of missing optional keys (``jitter_ms`` and every newer
        field default when absent), so older serialized specs and
        hand-written JSON sweep grids stay loadable as fields are added.
        """
        arrival = str(data.get("arrival", "periodic"))
        base = base_process_from_dict(arrival, data.get(arrival))
        diurnal_data = data.get("diurnal")
        diurnal = (
            _params_from_dict(DiurnalModulator, diurnal_data)
            if diurnal_data is not None
            else None
        )
        return cls(base=base, jitter_ms=float(data.get("jitter_ms", 0.0)), diurnal=diurnal)

    def fingerprint(self) -> Dict[str, object]:
        """Canonical dictionary for cache keys (alias of :meth:`to_dict`)."""
        return self.to_dict()

    # ------------------------------------------------------------- processes

    def arrival_for_task(
        self,
        period_ms: float,
        phase_ms: float = 0.0,
        rng: Optional[np.random.Generator] = None,
        jitter_rng: Optional[np.random.Generator] = None,
    ) -> ArrivalProcess:
        """Concrete arrival process for one task-shaped release stream.

        ``rng`` feeds the base process's draws (poisson/mmpp gaps);
        ``jitter_rng`` feeds the jitter modulator and defaults to ``rng``
        (the historical single-generator behaviour).  ``saturated``
        workloads have no arrival process at all (the executor
        back-to-backs work), so asking for one is an error — callers branch
        on :attr:`saturated` first.  Randomized processes require their rng;
        silently running unrandomized would mislabel the scenario.  On a
        plain periodic base the jitter must stay below one period, so job
        indices remain in release order.
        """
        if jitter_rng is None:
            jitter_rng = rng
        process = self.base.build(period_ms, phase_ms, rng)
        if self.diurnal is not None:
            process = DiurnalArrival(process, self.diurnal)
        elif self.base.kind == "periodic" and self.jitter_ms >= period_ms:
            raise ValueError(f"jitter must be in [0, period), got {self.jitter_ms}")
        if self.jitter_ms > 0:
            if jitter_rng is None:
                raise ValueError("jittered arrivals need an rng for reproducibility")
            process = JitteredArrival(process, self.jitter_ms, jitter_rng)
        return process


class ReleaseStream:
    """The one shared release-driving pipeline behind every backend.

    Owns the RNG-stream discipline (via :class:`~repro.sim.rng.RngFactory`)
    and the per-task / aggregate driving loops of the three serving loops
    that release work: the DARIS scheduler (which also runs RTGPU), the
    cluster server (which also runs Clockwork as one GPU) and the batching
    server.

    * randomized base kinds draw per-task from the stream
      ``"{kind}-arrivals[{task_id}]"`` (``poisson-arrivals[i]`` is the
      historical name, preserved draw-for-draw);
    * jitter draws come from the single shared ``"release-jitter"`` stream,
      consumed in task order (the historical discipline);
    * aggregate mode (one request stream at a total rate, the batching
      server's shape) draws everything from ``"batching-arrivals"``.

    ``rng`` is an :class:`RngFactory`, or ``None`` for fully deterministic
    workloads.
    """

    JITTER_STREAM = "release-jitter"
    AGGREGATE_STREAM = "batching-arrivals"

    def __init__(self, workload: Optional[WorkloadSpec], rng: Optional[RngFactory] = None):
        if rng is not None and not isinstance(rng, RngFactory):
            raise TypeError(f"rng must be an RngFactory or None, got {type(rng).__name__}")
        self.workload = workload if workload is not None else PERIODIC_WORKLOAD
        self._factory = rng

    def _stream(self, name: str) -> Optional[np.random.Generator]:
        return self._factory.stream(name) if self._factory is not None else None

    def arrival_for(
        self, task_id: int, period_ms: float, phase_ms: float = 0.0
    ) -> ArrivalProcess:
        """The task's concrete arrival process under the stream discipline."""
        workload = self.workload
        base_rng = None
        if workload.base.randomized:
            base_rng = self._stream(f"{workload.base.kind}-arrivals[{task_id}]")
        return workload.arrival_for_task(
            period_ms=period_ms,
            phase_ms=phase_ms,
            rng=base_rng,
            jitter_rng=self._stream(self.JITTER_STREAM),
        )

    def drive(
        self,
        simulator: Simulator,
        horizon_ms: float,
        *,
        task_id: int,
        period_ms: float,
        phase_ms: float = 0.0,
        callback: Callable[[ArrivalEvent], None],
    ) -> int:
        """Schedule one task-shaped stream's releases up to ``horizon_ms``."""
        return self.arrival_for(task_id, period_ms, phase_ms).drive(
            simulator, horizon_ms, callback
        )

    def drive_taskset(
        self,
        simulator: Simulator,
        horizon_ms: float,
        tasks: Sequence,
        callback: Callable[[object, ArrivalEvent], None],
    ) -> int:
        """Drive every task of a task set; ``callback(task, event)`` per release.

        Tasks must expose ``task_id`` / ``period_ms`` / ``phase_ms`` (the
        :class:`~repro.rt.task.TaskSpec` surface).  Streams are driven in
        task order, which pins the shared-jitter draw order and the order of
        the tasks' release series (simultaneous releases of two tasks pop in
        task order) exactly as the historical per-backend loops did.
        """
        released = 0
        for task in tasks:
            released += self.drive(
                simulator,
                horizon_ms,
                task_id=task.task_id,
                period_ms=task.period_ms,
                phase_ms=task.phase_ms,
                callback=lambda event, task=task: callback(task, event),
            )
        return released

    def drive_aggregate(
        self,
        simulator: Simulator,
        horizon_ms: float,
        rate_jps: float,
        callback: Callable[[ArrivalEvent], None],
    ) -> int:
        """Drive one aggregate request stream at ``rate_jps`` total demand.

        The request-server mode: the whole task set collapses into a single
        stream (no per-task identity), and every draw — gaps and jitter
        alike — comes from the ``"batching-arrivals"`` stream.
        """
        if rate_jps <= 0:
            raise ValueError("aggregate arrival rate must be positive")
        rng = self._stream(self.AGGREGATE_STREAM)
        process = self.workload.arrival_for_task(
            period_ms=1000.0 / rate_jps, phase_ms=0.0, rng=rng, jitter_rng=rng
        )
        return process.drive(simulator, horizon_ms, callback)


#: The workload every pre-backend scenario implicitly used: plain periodic
#: releases, no jitter.  Shared instance so default requests compare equal.
PERIODIC_WORKLOAD = WorkloadSpec()

#: Always-pending requests (the saturated server baselines).
SATURATED_WORKLOAD = WorkloadSpec(arrival="saturated")

#: Memoryless arrivals at each task's mean rate.
POISSON_WORKLOAD = WorkloadSpec(arrival="poisson")

#: Bursty arrivals: the default two-phase quiet/burst MMPP (mean rate 1x).
MMPP_WORKLOAD = WorkloadSpec.mmpp()

#: Day/night load: Poisson arrivals under a sinusoidal diurnal profile.
DIURNAL_WORKLOAD = POISSON_WORKLOAD.with_diurnal(period_ms=1000.0, amplitude=0.6)
