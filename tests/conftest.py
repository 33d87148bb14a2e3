"""Shared fixtures: calibrated models are expensive enough to build once per session."""

from __future__ import annotations

import gc

import pytest

from repro.dnn.zoo import build_inceptionv3, build_resnet18, build_resnet50, build_unet


@pytest.fixture(scope="session")
def resnet18():
    return build_resnet18()


@pytest.fixture(scope="session")
def resnet50():
    return build_resnet50()


@pytest.fixture(scope="session")
def unet():
    return build_unet()


@pytest.fixture(scope="session")
def inceptionv3():
    return build_inceptionv3()


@pytest.fixture(scope="session")
def all_models(resnet18, resnet50, unet, inceptionv3):
    return {
        "resnet18": resnet18,
        "resnet50": resnet50,
        "unet": unet,
        "inceptionv3": inceptionv3,
    }


@pytest.fixture
def unreachable_after():
    """Run a callable with the cyclic collector paused; report what it left behind.

    Returns a function of ``run`` that gives ``(run's result, objects)``,
    where ``objects`` are those a collection right after the run finds
    unreachable.  With the collector paused, everything the run let go of
    that reference counting could not free is still there to be found.
    """

    def measure(run):
        gc.collect()
        enabled = gc.isenabled()
        gc.disable()
        try:
            result = run()
            gc.set_debug(gc.DEBUG_SAVEALL)
            gc.collect()
            found = list(gc.garbage)
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            if enabled:
                gc.enable()
        return result, found

    return measure


@pytest.fixture
def executed_requests(monkeypatch):
    """Every request the scenario runner executes, in order.

    Wraps the runner's worker entry point, so it counts the simulations of
    every engine path — ``run``, ``run --shard`` and ``dse`` alike — as
    long as they run serially (``processes=1``), in this process.
    """
    from repro.experiments import parallel

    executed = []
    run_request = parallel._run_request

    def counted(request):
        executed.append(request)
        return run_request(request)

    monkeypatch.setattr(parallel, "_run_request", counted)
    return executed
