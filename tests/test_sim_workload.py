"""Tests for the arrival processes, the spec hierarchy and ReleaseStream."""

import hashlib
import math
from types import SimpleNamespace

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
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        WorkloadSpec().arrival_for_task(period_ms=0.0)
    with pytest.raises(ValueError):
        WorkloadSpec(jitter_ms=5.0).arrival_for_task(period_ms=5.0, rng=rng)
    with pytest.raises(ValueError):
        WorkloadSpec(jitter_ms=-1.0).arrival_for_task(period_ms=5.0, rng=rng)


def test_periodic_jitter_stays_below_one_period():
    rng = np.random.default_rng(0)
    arrival = WorkloadSpec(jitter_ms=2.0).arrival_for_task(period_ms=10.0, rng=rng)
    nominal = PeriodicArrival(period=10.0)
    for index in range(50):
        event = arrival.next_arrival()
        assert nominal.nominal_release(index) <= event.time < nominal.nominal_release(index) + 2.0


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


@pytest.mark.parametrize(
    "workload, rate_jps, horizon_ms, minimum",
    [
        pytest.param(DIURNAL_WORKLOAD, 250.0, 8_000.0, 5_000, id="a0.6-p1000"),
        pytest.param(
            POISSON_WORKLOAD.with_diurnal(period_ms=300.0, amplitude=0.9),
            700.0,
            1_000.0,
            2_000,
            id="a0.9-p300",
        ),
    ],
)
def test_diurnal_workload_inverts_like_the_reference_bisection(
    workload, rate_jps, horizon_ms, minimum
):
    """Every diurnal stream releases ``inverse_cumulative`` of its base times.

    Three per-task ``ReleaseStream`` streams must release exactly
    ``inverse_cumulative`` of each base (operational-time) event, drawn from
    the same seeded stream without the profile.  ``DIURNAL_WORKLOAD``, which
    every grid and perfbench's ``cluster-64gpu`` use, must also equal the
    reference bisection ``_sin_bisect``.  The deep, fast profile is one where
    the Newton inversion can differ from bisection near the rate trough (see
    the ``DiurnalModulator`` docstring), so there it only has to agree with
    ``inverse_cumulative``.
    """
    profile = workload.diurnal
    period_ms = 1000.0 / rate_jps
    checked = 0
    for task_id in range(3):
        base = ReleaseStream(POISSON_WORKLOAD, RngFactory(1)).arrival_for(task_id, period_ms)
        modulated = ReleaseStream(workload, RngFactory(1)).arrival_for(task_id, period_ms)
        base_times = [event.time for event in base.events(profile.cumulative(horizon_ms) + 50.0)]
        released = [event.time for event in modulated.events(horizon_ms)]
        inverted = [profile.inverse_cumulative(time) for time in base_times]
        assert released == inverted[: len(released)]
        if workload == DIURNAL_WORKLOAD:
            assert inverted == [profile._sin_bisect(time) for time in base_times]
        checked += len(released)
    assert checked >= minimum


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


#: SHA-256 of ``repr`` of each label's ``(index, time)`` releases at seed 4
#: over 1 s: the per-task stream of ``_arrival_for`` and, for rate-driven
#: kinds, one ``drive_aggregate`` stream at 250 requests/s.  Recorded while
#: the arrival processes still pre-drew their RNG streams in chunks and
#: inverted diurnal profiles through a buffer, so they pin that scalar draws
#: reproduce those chunks draw for draw.
RELEASE_DIGESTS = {
    "diurnal-periodic": (
        "e459e0496d6f6b86a46bdccc4678ad1bf5bd3f4a838a3fcb9b062296404a06d2",
        "5d5c06e1e5c3c8452e56af58905f0b91c2c3da8412a8ed87ee412f93797cc728",
    ),
    "diurnal-piecewise": (
        "2e616043096c97f0c827b4e95b7e5bab5af87b2969fc75eefc82395d7d3e2e16",
        "d96a672d385e21aedd1ed616eafd4012c948ab4acd39ecd90468e67667b3e7c1",
    ),
    "diurnal-sin": (
        "fc38adfd9dcd2763ba96f38cdf959118d296dc6d83a0cf6cebbda5d83c8df2ce",
        "9d2e942e38b1bdcb695ae5b11c03cd908e4c67c176db85ad2f947e6a02f37463",
    ),
    "mmpp": (
        "bac3dbf594c74eacacce69dce5a87bf76ddcdcb5858bd0df732382ae8d9429e8",
        "047109030d73fd1de8a868c4a01b89573eb8a2a66f588b924d2e98b92567c9b4",
    ),
    "mmpp+jitter": (
        "c6975939d29cbcd4267643f7dedc68653d21f4487c7ba8c6b7d179cb786e8fef",
        "03cda1491034983a6b4c74016d3c7e442f075e938f7142459e12cdc89e02c585",
    ),
    "periodic": (
        "6ea082f87862960555d60d3c4057a270e40ded9cbadc446a5ddbe72df82edb22",
        "05b9257f8ea8feadfbe674cbd5bfdbb69b551e2f60d56c0c77fe607b81894d19",
    ),
    "periodic+jitter": (
        "982303260de7d38ecdf97e28b7487efdbc045415fc29eba94e02d5d58c24443a",
        "3eb33d1eb2ff48e6522280d9c338c3d1eca642279317adf85ac16c6050f1ffa5",
    ),
    "poisson": (
        "97b66e1bcfc9c03be884d14f75e00d6ab498fd4458ad0b49b7c19b2311a8c4c0",
        "f0dea3d7a1b8dc40d5920043822cfbbbcb313d2cc3a733a377c48e71e9cc17dd",
    ),
    "poisson+jitter": (
        "6c011b63473ee0cc1fbc41a0de95baf648622d196e151faf4de66d0fbece045d",
        "38d6dfcab9a6616a0f89d7cd725c8a7f474948350f45eb4baebc793c85c73fa4",
    ),
    "trace": ("dc89dca90518ad57a5c9d887d976c6a80af566c2fdff5e03b8fd2ab6df5b0d59", None),
}


def _release_digest(releases) -> str:
    return hashlib.sha256(repr(releases).encode()).hexdigest()


def _aggregate_releases(workload: WorkloadSpec, seed: int):
    simulator = Simulator()
    releases = []
    ReleaseStream(workload, RngFactory(seed)).drive_aggregate(
        simulator, 1000.0, 250.0, lambda event: releases.append((event.index, event.time))
    )
    simulator.run_until(1000.0)
    return releases


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
    per_task, aggregate = RELEASE_DIGESTS[label]
    assert _release_digest(first) == per_task
    if workload.base.rate_driven:
        assert _release_digest(_aggregate_releases(workload, seed=4)) == aggregate
    else:
        assert aggregate is None


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


def test_release_streams_keep_one_heap_entry_each():
    """Driving holds one pending release per stream, however long the horizon."""
    tasks = [SimpleNamespace(task_id=i, period_ms=10.0 + i, phase_ms=0.5 * i) for i in range(8)]
    sim = Simulator()
    stream = ReleaseStream(POISSON_WORKLOAD.with_jitter(2.0), RngFactory(3))
    released = stream.drive_taskset(sim, 10_000.0, tasks, lambda task, event: None)
    assert released > 100 * len(tasks)
    assert sim.pending_events == len(tasks)
    assert stream.drive_aggregate(sim, 10_000.0, 500.0, lambda event: None) > 1000
    assert sim.pending_events == len(tasks) + 1
    sim.run_until(5_000.0)
    assert sim.pending_events == len(tasks) + 1


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


def test_release_stream_rejects_a_bare_generator():
    with pytest.raises(TypeError, match="RngFactory"):
        ReleaseStream(POISSON_WORKLOAD, np.random.default_rng(5))


def test_release_stream_without_rng_rejects_randomized_workloads():
    stream = ReleaseStream(POISSON_WORKLOAD, None)
    with pytest.raises(ValueError):
        stream.arrival_for(task_id=0, period_ms=10.0)
