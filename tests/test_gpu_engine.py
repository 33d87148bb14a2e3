"""Tests for the event-driven GPU engine."""

import numpy as np
import pytest

from repro.gpu.calibration import GpuCalibration
from repro.gpu.engine import GpuEngine
from repro.gpu.kernel import KernelSpec, KernelState
from repro.gpu.spec import GpuSpec
from repro.sim.simulator import Simulator

NO_OVERHEAD_GPU = GpuSpec(name="ideal", num_sms=68, launch_overhead_ms=0.0)
NO_OVERHEAD_CAL = GpuCalibration(
    intra_stream_penalty=0.0,
    contention_penalty=0.0,
    noise_sigma_base=0.0,
    noise_sigma_intra=0.0,
    noise_sigma_contention=0.0,
    dispatch_overhead_ms=0.0,
)


def _engine(gpu=NO_OVERHEAD_GPU, calibration=NO_OVERHEAD_CAL, noise_rng=None):
    simulator = Simulator()
    engine = GpuEngine(simulator, gpu, calibration, noise_rng=noise_rng)
    return simulator, engine


def test_single_kernel_runs_for_work_over_parallelism():
    simulator, engine = _engine()
    context = engine.create_context(68)
    stream = engine.create_stream(context)
    done = []
    engine.launch(stream, KernelSpec("k", work=34.0, parallelism=34.0), done.append)
    simulator.run_until(10.0)
    assert len(done) == 1
    assert done[0].finish_time == pytest.approx(1.0, abs=1e-6)
    assert done[0].state is KernelState.COMPLETED


def test_kernels_in_one_stream_serialize():
    simulator, engine = _engine()
    context = engine.create_context(68)
    stream = engine.create_stream(context)
    finished = []
    for name in ("a", "b"):
        engine.launch(stream, KernelSpec(name, work=68.0, parallelism=68.0), finished.append)
    simulator.run_until(10.0)
    assert [k.spec.name for k in finished] == ["a", "b"]
    assert finished[0].finish_time == pytest.approx(1.0, abs=1e-6)
    assert finished[1].finish_time == pytest.approx(2.0, abs=1e-6)


def test_two_streams_in_one_context_share_the_quota():
    simulator, engine = _engine()
    context = engine.create_context(40)
    streams = [engine.create_stream(context) for _ in range(2)]
    finished = []
    for stream in streams:
        engine.launch(stream, KernelSpec("k", work=40.0, parallelism=40.0), finished.append)
    simulator.run_until(10.0)
    # Each kernel gets 20 SMs -> 2 ms each, finishing together.
    assert all(k.finish_time == pytest.approx(2.0, abs=1e-6) for k in finished)


def test_two_isolated_contexts_run_independently():
    simulator, engine = _engine()
    finished = []
    for _ in range(2):
        context = engine.create_context(34)
        stream = engine.create_stream(context)
        engine.launch(stream, KernelSpec("k", work=34.0, parallelism=34.0), finished.append)
    simulator.run_until(10.0)
    assert all(k.finish_time == pytest.approx(1.0, abs=1e-6) for k in finished)


def test_oversubscribed_contexts_scale_down_proportionally():
    simulator, engine = _engine()
    finished = []
    for _ in range(2):
        context = engine.create_context(68)
        stream = engine.create_stream(context)
        engine.launch(stream, KernelSpec("k", work=68.0, parallelism=68.0), finished.append)
    simulator.run_until(10.0)
    # Both kernels demand the whole GPU; each gets half -> 2 ms.
    assert all(k.finish_time == pytest.approx(2.0, abs=1e-6) for k in finished)


def test_narrow_kernel_cannot_use_more_than_its_parallelism():
    simulator, engine = _engine()
    context = engine.create_context(68)
    stream = engine.create_stream(context)
    done = []
    engine.launch(stream, KernelSpec("narrow", work=10.0, parallelism=5.0), done.append)
    simulator.run_until(10.0)
    assert done[0].finish_time == pytest.approx(2.0, abs=1e-6)


def test_launch_overhead_is_charged_before_execution():
    gpu = GpuSpec(name="overhead", num_sms=68, launch_overhead_ms=0.1)
    simulator, engine = _engine(gpu=gpu)
    context = engine.create_context(68)
    stream = engine.create_stream(context)
    done = []
    engine.launch(
        stream, KernelSpec("k", work=68.0, parallelism=68.0, num_launches=5), done.append
    )
    simulator.run_until(10.0)
    assert done[0].finish_time == pytest.approx(1.5, abs=1e-6)  # 5 * 0.1 + 1.0


def test_dispatcher_serializes_launches_within_a_context():
    gpu = GpuSpec(name="overhead", num_sms=68, launch_overhead_ms=0.2)
    simulator, engine = _engine(gpu=gpu)
    context = engine.create_context(68)
    streams = [engine.create_stream(context) for _ in range(2)]
    started = []
    for stream in streams:
        engine.launch(
            stream,
            KernelSpec("k", work=6.8, parallelism=68.0, num_launches=1),
            lambda k: started.append(k.start_time),
        )
    simulator.run_until(10.0)
    assert sorted(started) == pytest.approx([0.2, 0.4], abs=1e-6)


def test_intra_context_penalty_slows_co_resident_streams():
    calibration = GpuCalibration(
        intra_stream_penalty=0.5,
        contention_penalty=0.0,
        noise_sigma_base=0.0,
        noise_sigma_intra=0.0,
        noise_sigma_contention=0.0,
        dispatch_overhead_ms=0.0,
    )
    simulator, engine = _engine(calibration=calibration)
    context = engine.create_context(68)
    streams = [engine.create_stream(context) for _ in range(2)]
    finished = []
    for stream in streams:
        engine.launch(stream, KernelSpec("k", work=34.0, parallelism=34.0), finished.append)
    simulator.run_until(20.0)
    # Two co-resident kernels: efficiency 1 / 1.5, so 1 ms becomes 1.5 ms.
    assert all(k.finish_time == pytest.approx(1.5, abs=1e-6) for k in finished)


def test_noise_rng_produces_unit_mean_variation():
    calibration = GpuCalibration(noise_sigma_base=0.2, dispatch_overhead_ms=0.0)
    gpu = GpuSpec(name="noisy", num_sms=68, launch_overhead_ms=0.0)
    durations = []
    for seed in range(30):
        simulator, engine = _engine(
            gpu=gpu, calibration=calibration, noise_rng=np.random.default_rng(seed)
        )
        context = engine.create_context(68)
        stream = engine.create_stream(context)
        done = []
        engine.launch(stream, KernelSpec("k", work=68.0, parallelism=68.0), done.append)
        simulator.run_until(10.0)
        durations.append(done[0].finish_time)
    assert len(set(durations)) > 1
    assert 0.8 <= float(np.mean(durations)) <= 1.2


def test_engine_is_idle_after_all_work_completes():
    simulator, engine = _engine()
    context = engine.create_context(68)
    stream = engine.create_stream(context)
    engine.launch(stream, KernelSpec("k", work=6.8, parallelism=68.0))
    assert not engine.is_idle()
    simulator.run_until(10.0)
    assert engine.is_idle()
    assert engine.completed_kernels == 1


def test_completion_callback_can_launch_follow_up_work():
    simulator, engine = _engine()
    context = engine.create_context(68)
    stream = engine.create_stream(context)
    finish_times = []

    def chain(kernel):
        finish_times.append(kernel.finish_time)
        if len(finish_times) < 3:
            engine.launch(stream, KernelSpec("next", work=68.0, parallelism=68.0), chain)

    engine.launch(stream, KernelSpec("first", work=68.0, parallelism=68.0), chain)
    simulator.run_until(10.0)
    assert finish_times == pytest.approx([1.0, 2.0, 3.0], abs=1e-6)


def test_busy_time_tracks_active_periods():
    simulator, engine = _engine()
    context = engine.create_context(68)
    stream = engine.create_stream(context)
    engine.launch(stream, KernelSpec("k", work=68.0, parallelism=68.0))
    simulator.run_until(5.0)
    assert engine.busy_time() == pytest.approx(1.0, abs=1e-6)


def test_drained_streams_are_marked_in_the_handed_idle_tables():
    simulator, engine = _engine()
    context = engine.create_context(68)
    streams = [engine.create_stream(context) for _ in range(2)]
    flags, heaps = [[False, True]], [[]]
    engine.track_idle_streams(flags, heaps)
    engine.launch(streams[0], KernelSpec("k", work=34.0, parallelism=34.0))
    simulator.run_until(10.0)
    assert flags == [[True, True]]
    assert heaps == [[0]]


def test_drop_callbacks_forgets_the_callbacks_of_kernels_in_flight():
    simulator, engine = _engine()
    context = engine.create_context(68)
    stream = engine.create_stream(context)
    done = []
    kernels = [
        engine.launch(stream, KernelSpec(name, work=68.0, parallelism=68.0), done.append)
        for name in ("a", "b", "c")
    ]
    simulator.run_until(1.5)
    engine.drop_callbacks()
    assert [kernel.on_complete is None for kernel in kernels] == [False, True, True]
    assert [kernel.state for kernel in kernels[1:]] == [KernelState.RUNNING, KernelState.QUEUED]
    simulator.run_until(10.0)
    assert [kernel.spec.name for kernel in done] == ["a"]
    assert engine.completed_kernels == 3
