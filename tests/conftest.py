"""Shared fixtures: calibrated models are expensive enough to build once per session."""

from __future__ import annotations

import pytest

from leaks import unreachable_after_run
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
    """:func:`unreachable_after_run`, as a fixture."""
    return unreachable_after_run


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
