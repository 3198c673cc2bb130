"""Suite-wide guards."""

import gc
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


# The modules whose tests open sockets.
SOCKET_MODULES = {"test_net", "test_cli"}


@pytest.fixture(autouse=True)
def sockets_closed_by_the_test_that_opened_them(request):
    """Collect a socket-opening test's garbage at its teardown.

    A socket the test leaves open may sit in a reference cycle (an endpoint
    and its serve loop; a failed check's traceback and its frames), which
    only the cycle collector frees, whenever it next runs. Collected here,
    its ResourceWarning fails the test that leaked it, not a later one.
    What existed before the test is frozen, so the collection reads only
    what the test made.
    """
    if request.module.__name__ not in SOCKET_MODULES:
        yield
        return
    gc.freeze()
    try:
        yield
        gc.collect()
    finally:
        gc.unfreeze()
