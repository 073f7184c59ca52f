import multiprocessing
from multiprocessing import forkserver, resource_tracker

import pytest

from powersde import PrototypeParams, make_prototype, montecarlo


@pytest.fixture
def cir_params():
    return PrototypeParams(kind="cir", kappa=1.0, lam=1.0, theta=1.0, x0=1.0)


@pytest.fixture
def cir_model(cir_params):
    return make_prototype(cir_params)


@pytest.fixture
def wf_params():
    return PrototypeParams(kind="wf", kappa=2.0, lam=0.5, theta=1.0, x0=0.5)


@pytest.fixture
def wf_model(wf_params):
    return make_prototype(wf_params)


def pytest_sessionfinish(session, exitstatus):
    """Close the engine's pool; then no worker may be left running.  The
    helper processes of the forkserver and spawn start methods are stopped
    too, instead of exiting just after this process."""
    montecarlo._close_pool()
    assert multiprocessing.active_children() == []
    forkserver._forkserver._stop()
    resource_tracker._resource_tracker._stop()
