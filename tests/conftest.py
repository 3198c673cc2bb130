"""Suite-wide guards."""

import os
import threading
import time

import pytest


@pytest.fixture(autouse=True)
def no_child_process_left_behind():
    """Fail a test that leaves a child process running or unreaped."""
    yield
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"the test left a child process behind: waitpid gave {(pid, status)}")


@pytest.fixture(autouse=True)
def no_thread_left_behind():
    """Fail a test that leaves a new thread alive after a 2 s grace period."""
    before = set(threading.enumerate())
    yield
    deadline = time.monotonic() + 2.0
    for thread in set(threading.enumerate()) - before:
        thread.join(max(0.0, deadline - time.monotonic()))
    left = [thread.name for thread in set(threading.enumerate()) - before]
    if left:
        pytest.fail(f"the test left threads behind: {sorted(left)}")
