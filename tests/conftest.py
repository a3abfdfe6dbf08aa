import contextlib
import glob
import os
import signal

import numpy as np
import pytest

from kvgrpo.checks import CheckInstance, make_instance
from kvgrpo.network import NetworkShape, param_init


TINY = NetworkShape(latent_dim=3, hidden_dim=5, prompt_dim=2)


@pytest.fixture(autouse=True)
def cpu_affinity_unchanged():
    """Fail a test that leaves this thread's CPU set changed, and restore the set:
    a leaked pin would slow every later test in the run."""
    if not hasattr(os, "sched_getaffinity"):
        yield
        return
    before = os.sched_getaffinity(0)
    yield
    if (after := os.sched_getaffinity(0)) != before:
        os.sched_setaffinity(0, before)
        pytest.fail(f"the test left this thread on CPUs {sorted(after)}, not {sorted(before)}")


def _children() -> set[int]:
    """This process's child pids, running or unreaped, over all its threads."""
    pids = set()
    for path in glob.glob("/proc/self/task/*/children"):
        with contextlib.suppress(FileNotFoundError), open(path) as f:  # a thread may end
            pids.update(int(pid) for pid in f.read().split())
    return pids


@pytest.fixture(autouse=True)
def no_child_left():
    """Fail a test that leaves a new child process, running or unreaped, then
    kill and reap it: a leaked sidecar would hold its CPU and memory for the
    rest of the run."""
    if not glob.glob("/proc/self/task/*/children"):
        yield
        return
    before = _children()
    yield
    if left := sorted(_children() - before):
        for pid in left:
            with contextlib.suppress(OSError):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        pytest.fail(f"the test left child processes {left} running or unreaped")


@pytest.fixture
def tiny_params():
    return param_init(TINY, seed=7)


@pytest.fixture
def tiny_prompt():
    return np.array([0.3, -0.2])


@pytest.fixture(scope="session")
def check_instance() -> CheckInstance:
    """One shared small rollout group with rewards, for gradient/policy tests."""
    return make_instance(seed=11)
