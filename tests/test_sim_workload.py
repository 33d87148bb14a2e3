"""Tests for the arrival processes, the spec hierarchy and ReleaseStream."""

import math

import numpy as np
import pytest

from repro.sim.rng import RngFactory
from repro.sim.simulator import Simulator
from repro.sim.workload import (
    ARRIVAL_KINDS,
    DIURNAL_WORKLOAD,
    MMPP_WORKLOAD,
    PERIODIC_WORKLOAD,
    POISSON_WORKLOAD,
    DiurnalModulator,
    MmppArrival,
    PeriodicArrival,
    PoissonArrival,
    ReleaseStream,
    TraceArrival,
    WorkloadSpec,
)


def test_periodic_nominal_release_times():
    arrival = PeriodicArrival(period=10.0, phase=3.0)
    assert arrival.nominal_release(0) == 3.0
    assert arrival.nominal_release(4) == 43.0


def test_periodic_next_arrival_increments_index():
    arrival = PeriodicArrival(period=5.0)
    events = [arrival.next_arrival() for _ in range(3)]
    assert [event.index for event in events] == [0, 1, 2]
    assert [event.time for event in events] == [0.0, 5.0, 10.0]


def test_periodic_rejects_bad_period_and_jitter():
    with pytest.raises(ValueError):
        PeriodicArrival(period=0.0)
    with pytest.raises(ValueError):
        PeriodicArrival(period=5.0, jitter=5.0)
    with pytest.raises(ValueError):
        PeriodicArrival(period=5.0, jitter=-1.0)


def test_periodic_jitter_stays_below_one_period():
    rng = np.random.default_rng(0)
    arrival = PeriodicArrival(period=10.0, jitter=2.0, rng=rng)
    for index in range(50):
        event = arrival.next_arrival()
        assert arrival.nominal_release(index) <= event.time < arrival.nominal_release(index) + 2.0


def test_periodic_drive_schedules_until_horizon():
    sim = Simulator()
    arrival = PeriodicArrival(period=10.0)
    seen = []
    count = arrival.drive(sim, horizon=35.0, callback=lambda event: seen.append(event.time))
    sim.run_until(35.0)
    assert count == 4  # releases at 0, 10, 20, 30
    assert seen == [0.0, 10.0, 20.0, 30.0]


def test_poisson_mean_rate_is_roughly_requested():
    rng = np.random.default_rng(1)
    arrival = PoissonArrival(rate_jps=100.0, rng=rng)
    times = [arrival.next_arrival().time for _ in range(2000)]
    measured_rate = 1000.0 * len(times) / times[-1]
    assert 85.0 <= measured_rate <= 115.0


def test_poisson_rejects_nonpositive_rate():
    with pytest.raises(ValueError):
        PoissonArrival(rate_jps=0.0, rng=np.random.default_rng(0))


def test_poisson_drive_counts_match_callbacks():
    sim = Simulator()
    rng = np.random.default_rng(2)
    arrival = PoissonArrival(rate_jps=50.0, rng=rng)
    seen = []
    count = arrival.drive(sim, horizon=1000.0, callback=lambda event: seen.append(event.index))
    sim.run_until(1000.0)
    assert count == len(seen)
    assert seen == sorted(seen)


# ----------------------------------------------------- new arrival processes


def test_mmpp_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        MmppArrival(rates_jps=(100.0,), dwell_ms=(10.0,), rng=rng)  # >= 2 phases
    with pytest.raises(ValueError):
        MmppArrival(rates_jps=(100.0, 50.0), dwell_ms=(10.0,), rng=rng)  # mismatch
    with pytest.raises(ValueError):
        MmppArrival(rates_jps=(0.0, 0.0), dwell_ms=(10.0, 10.0), rng=rng)  # all off
    with pytest.raises(ValueError):
        MmppArrival(rates_jps=(100.0, 50.0), dwell_ms=(10.0, 0.0), rng=rng)


def test_mmpp_mean_rate_matches_the_dwell_weighted_phases():
    """Long-run MMPP rate ~ sum(rate_i * dwell_i) / sum(dwell_i)."""
    rng = np.random.default_rng(7)
    arrival = MmppArrival(rates_jps=(50.0, 300.0), dwell_ms=(400.0, 100.0), rng=rng)
    times = [arrival.next_arrival().time for _ in range(4000)]
    measured = 1000.0 * len(times) / times[-1]
    expected = (50.0 * 400.0 + 300.0 * 100.0) / 500.0  # = 100 jps
    assert 0.85 * expected <= measured <= 1.15 * expected


def test_mmpp_off_phase_emits_nothing():
    """A zero-rate phase is a pure gap: all arrivals fall in the on phase."""
    rng = np.random.default_rng(3)
    arrival = MmppArrival(rates_jps=(0.0, 500.0), dwell_ms=(50.0, 50.0), rng=rng)
    events = [arrival.next_arrival() for _ in range(200)]
    assert all(
        later.time >= earlier.time for earlier, later in zip(events, events[1:])
    )


def test_trace_replays_exact_times_and_exhausts():
    arrival = TraceArrival([0.0, 5.0, 5.0, 12.5], offset_ms=2.0)
    events = [arrival.next_arrival() for _ in range(6)]
    assert [event.time for event in events[:4]] == [2.0, 7.0, 7.0, 14.5]
    assert math.isinf(events[4].time) and math.isinf(events[5].time)
    assert [event.index for event in events] == [0, 1, 2, 3, 4, 5]


def test_trace_drive_stops_at_exhaustion():
    sim = Simulator()
    arrival = TraceArrival([1.0, 2.0, 3.0])
    seen = []
    count = arrival.drive(sim, horizon=100.0, callback=lambda event: seen.append(event.time))
    sim.run_until(100.0)
    assert count == 3 and seen == [1.0, 2.0, 3.0]


def test_diurnal_modulator_cumulative_inverse_round_trip():
    for profile in (
        DiurnalModulator(period_ms=500.0, amplitude=0.8),
        DiurnalModulator(period_ms=300.0, shape="piecewise", levels=(0.2, 1.0, 2.8)),
        DiurnalModulator(period_ms=300.0, shape="piecewise", levels=(0.0, 2.0)),
    ):
        for time in (0.0, 13.7, 299.9, 300.0, 1234.5):
            target = profile.cumulative(time)
            recovered = profile.inverse_cumulative(target)
            assert profile.cumulative(recovered) == pytest.approx(target, abs=1e-6)


def test_diurnal_preserves_mean_rate():
    """Time rescaling keeps the long-run rate at the nominal value."""
    spec = POISSON_WORKLOAD.with_diurnal(period_ms=200.0, amplitude=0.9)
    arrival = spec.arrival_for_task(period_ms=10.0, rng=np.random.default_rng(11))
    times = [event.time for event in arrival.events(20000.0)]
    measured = 1000.0 * len(times) / times[-1]
    assert 85.0 <= measured <= 115.0  # nominal 100 jps


def test_diurnal_workload_inverts_like_the_reference_bisection():
    """``DIURNAL_WORKLOAD``'s Newton inversion equals ``_sin_bisect`` on both paths.

    Every grid and perfbench's ``cluster-64gpu`` use this profile.  The
    scalar ``inverse_cumulative`` and the buffered per-task ``ReleaseStream``
    must both give the bisection's time for each base (operational-time)
    event, drawn from the same seeded stream without the profile.
    """
    profile = DIURNAL_WORKLOAD.diurnal
    horizon_ms = 8_000.0
    checked = 0
    for task_id in range(3):
        base = ReleaseStream(POISSON_WORKLOAD, RngFactory(1)).arrival_for(task_id, 4.0)
        modulated = ReleaseStream(DIURNAL_WORKLOAD, RngFactory(1)).arrival_for(task_id, 4.0)
        base_times = [event.time for event in base.events(profile.cumulative(horizon_ms) + 50.0)]
        released = [event.time for event in modulated.events(horizon_ms)]
        expected = [profile._sin_bisect(time) for time in base_times]
        assert released == expected[: len(released)]
        assert [profile.inverse_cumulative(time) for time in base_times] == expected
        checked += len(released)
    assert checked >= 5_000


# ----------------------------------------------- property-style invariants


def _arrival_for(workload: WorkloadSpec, seed: int):
    stream = ReleaseStream(workload, RngFactory(seed))
    return stream.arrival_for(task_id=0, period_ms=8.0, phase_ms=1.0)


INVARIANT_WORKLOADS = {
    "periodic": PERIODIC_WORKLOAD,
    "periodic+jitter": WorkloadSpec(jitter_ms=2.0),
    "poisson": POISSON_WORKLOAD,
    "poisson+jitter": WorkloadSpec(arrival="poisson", jitter_ms=2.0),
    "mmpp": MMPP_WORKLOAD,
    "mmpp+jitter": MMPP_WORKLOAD.with_jitter(1.0),
    "diurnal-sin": DIURNAL_WORKLOAD,
    "diurnal-piecewise": POISSON_WORKLOAD.with_diurnal(
        period_ms=250.0, shape="piecewise", levels=(0.5, 2.0, 0.5)
    ),
    "diurnal-periodic": PERIODIC_WORKLOAD.with_diurnal(period_ms=250.0, amplitude=0.7),
    "trace": WorkloadSpec.trace([1.5 * index for index in range(700)]),
}


@pytest.mark.parametrize("label", sorted(INVARIANT_WORKLOADS))
def test_every_kind_yields_ordered_indices_and_nondecreasing_times(label):
    events = list(_arrival_for(INVARIANT_WORKLOADS[label], seed=9).events(1000.0))
    assert events, label
    assert [event.index for event in events] == list(range(len(events)))
    assert all(
        later.time >= earlier.time for earlier, later in zip(events, events[1:])
    )
    assert all(event.time <= 1000.0 for event in events)


@pytest.mark.parametrize("label", sorted(INVARIANT_WORKLOADS))
def test_every_kind_is_bit_identical_for_a_fixed_seed(label):
    workload = INVARIANT_WORKLOADS[label]
    first = [
        (event.index, event.time) for event in _arrival_for(workload, seed=4).events(1000.0)
    ]
    second = [
        (event.index, event.time) for event in _arrival_for(workload, seed=4).events(1000.0)
    ]
    assert first == second


def test_modulated_processes_preserve_base_fingerprint_compatibility():
    """Modulators only ever *add* keys: stripped of its modulator keys, a
    modulated spec's fingerprint is exactly its base's fingerprint, and the
    flat kinds keep the flat two-key shape."""
    for base in (PERIODIC_WORKLOAD, POISSON_WORKLOAD):
        base_fingerprint = base.fingerprint()
        assert set(base_fingerprint) == {"arrival", "jitter_ms"}
        modulated = base.with_diurnal(period_ms=400.0).with_jitter(1.0)
        fingerprint = modulated.fingerprint()
        assert fingerprint["arrival"] == base_fingerprint["arrival"]
        stripped = {
            key: value for key, value in fingerprint.items() if key != "diurnal"
        }
        stripped["jitter_ms"] = 0.0
        assert stripped == base_fingerprint
    mmpp = MMPP_WORKLOAD
    modulated = mmpp.with_diurnal(period_ms=400.0)
    assert {
        key: value for key, value in modulated.fingerprint().items() if key != "diurnal"
    } == mmpp.fingerprint()


def test_every_workload_spec_is_hashable():
    """Specs promise value semantics: every composed shape must hash (they
    live in engine dicts/sets and deduplicate value-identical requests)."""
    for workload in INVARIANT_WORKLOADS.values():
        assert hash(workload) == hash(
            WorkloadSpec.from_dict(workload.to_dict())
        )


def test_arrival_kinds_vocabulary_is_closed():
    assert ARRIVAL_KINDS == ("periodic", "poisson", "saturated", "mmpp", "trace")
    for kind in ("periodic", "poisson", "mmpp", "trace"):
        spec = (
            WorkloadSpec.trace([1.0]) if kind == "trace" else WorkloadSpec(arrival=kind)
        )
        assert spec.arrival == kind


# ------------------------------------------------------------- ReleaseStream


def test_release_stream_reproduces_the_legacy_rng_discipline():
    """Per-task poisson streams and the shared jitter stream match what the
    backends historically derived by hand from the same RngFactory."""
    factory = RngFactory(21)
    stream = ReleaseStream(POISSON_WORKLOAD, factory)
    events = [
        (event.index, event.time)
        for event in stream.arrival_for(task_id=3, period_ms=10.0).events(200.0)
    ]
    legacy_rng = RngFactory(21).stream("poisson-arrivals[3]")
    legacy = POISSON_WORKLOAD.arrival_for_task(period_ms=10.0, rng=legacy_rng)
    assert events == [(event.index, event.time) for event in legacy.events(200.0)]

    jitter_spec = WorkloadSpec(jitter_ms=2.0)
    stream = ReleaseStream(jitter_spec, RngFactory(21))
    jittered = [
        event.time for event in stream.arrival_for(task_id=0, period_ms=10.0).events(100.0)
    ]
    legacy = jitter_spec.arrival_for_task(
        period_ms=10.0, rng=RngFactory(21).stream("release-jitter")
    )
    assert jittered == [event.time for event in legacy.events(100.0)]


def test_release_stream_drive_taskset_counts_and_orders_releases():
    class _Spec:
        def __init__(self, task_id, period_ms, phase_ms=0.0):
            self.task_id = task_id
            self.period_ms = period_ms
            self.phase_ms = phase_ms

    sim = Simulator()
    stream = ReleaseStream(PERIODIC_WORKLOAD, RngFactory(0))
    seen = []
    released = stream.drive_taskset(
        sim,
        40.0,
        [_Spec(0, 10.0), _Spec(1, 20.0, phase_ms=5.0)],
        lambda task, event: seen.append((task.task_id, event.time)),
    )
    sim.run_until(40.0)
    assert released == len(seen) == 5 + 2
    assert [time for _, time in seen] == sorted(time for _, time in seen)


def test_release_stream_aggregate_mode_matches_the_legacy_batching_stream():
    sim_a, sim_b = Simulator(), Simulator()
    times_new, times_old = [], []
    stream = ReleaseStream(POISSON_WORKLOAD, RngFactory(8))
    count_new = stream.drive_aggregate(
        sim_a, 300.0, 100.0, lambda event: times_new.append(event.time)
    )
    legacy_rng = RngFactory(8).stream("batching-arrivals")
    legacy = POISSON_WORKLOAD.arrival_for_task(period_ms=10.0, rng=legacy_rng)
    count_old = legacy.drive(sim_b, 300.0, lambda event: times_old.append(event.time))
    sim_a.run_until(300.0)
    sim_b.run_until(300.0)
    assert count_new == count_old and times_new == times_old


def test_release_stream_accepts_a_bare_generator_for_legacy_callers():
    stream = ReleaseStream(POISSON_WORKLOAD, np.random.default_rng(5))
    events = list(stream.arrival_for(task_id=0, period_ms=10.0).events(100.0))
    legacy = POISSON_WORKLOAD.arrival_for_task(
        period_ms=10.0, rng=np.random.default_rng(5)
    )
    assert [event.time for event in events] == [
        event.time for event in legacy.events(100.0)
    ]


def test_release_stream_without_rng_rejects_randomized_workloads():
    stream = ReleaseStream(POISSON_WORKLOAD, None)
    with pytest.raises(ValueError):
        stream.arrival_for(task_id=0, period_ms=10.0)
