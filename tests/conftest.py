import multiprocessing
import os
import signal
import threading

import numpy as np
import pytest

from evbandit.model import ArrivalModel, CostChain, Instance, PenaltyFunction


def make_instance(
    n_chargers=2,
    capacity=1,
    discount=0.9,
    t_max=3,
    b_max=2,
    kappa=0.4,
    rho=0.7,
    cost=None,
    n_periods=1,
):
    return Instance(
        n_chargers=n_chargers,
        capacity=capacity,
        discount=discount,
        t_max=t_max,
        b_max=b_max,
        penalty=PenaltyFunction.quadratic(kappa, b_max),
        arrivals=ArrivalModel.uniform_feasible(t_max, b_max, rho, n_periods),
        cost=CostChain.constant(cost)
        if isinstance(cost, (int, float))
        else (cost if cost is not None else CostChain.constant(0.5)),
    )


TWO_STATE_COST = CostChain(
    values=np.array([0.2, 0.8]), P=np.array([[0.9, 0.1], [0.5, 0.5]])
)


@pytest.fixture(scope="session")
def toy_dynamic():
    """Small 2-cost-level instance used as the index oracle workbench."""
    return Instance(
        n_chargers=2,
        capacity=1,
        discount=0.9,
        t_max=4,
        b_max=3,
        penalty=PenaltyFunction.quadratic(0.3, 3),
        arrivals=ArrivalModel.uniform_feasible(4, 3, rho=0.6),
        cost=TWO_STATE_COST,
    )


@pytest.fixture(scope="session")
def toy_constant():
    return make_instance()


@pytest.fixture
def no_child_left():
    """Fails a test that still waits on a child process after a minute, or
    that leaves one running or unreaped, or a thread running."""
    def hung(signum, frame):
        raise TimeoutError("still waiting on a child process after 60 s")

    old = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)
    assert multiprocessing.active_children() == []
    assert threading.active_count() == 1
    try:  # reaps and returns a zombie; (0, 0) while only live children remain
        assert os.waitpid(-1, os.WNOHANG) == (0, 0)
    except ChildProcessError:  # no child at all
        pass
