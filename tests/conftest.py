"""Suite-wide guards."""

import os

import pytest


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail the test that leaves a child process behind, running or unreaped (train_model's helper)."""
    yield
    try:
        leaked = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"a child process outlived the test (waitpid -> {leaked})")
