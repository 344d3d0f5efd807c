"""Shared fixtures."""

import multiprocessing

import pytest


@pytest.fixture(autouse=True)
def no_leaked_worker_processes():
    # the solver runs pixel blocks in worker processes; a pool left open or a
    # hung worker fails the test that started it, not a later one
    yield
    leaked = multiprocessing.active_children()
    for proc in leaked:
        proc.terminate()
        proc.join(timeout=10)
    assert not leaked, f"test left worker processes running: {leaked}"
