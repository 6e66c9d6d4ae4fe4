"""Suite-wide guards."""

import threading

import pytest


def pool_threads():
    """Helper threads of sortkern's pool that are still alive."""
    return [t for t in threading.enumerate() if t.name.startswith("sortkern-")]


@pytest.fixture(autouse=True)
def no_pool_thread_left():
    # every fan-out joins its helpers before it returns or raises, so a
    # thread still alive after a test has leaked from the pool
    yield
    leaked = pool_threads()
    if leaked:
        pytest.fail(f"pool threads left alive: {[t.name for t in leaked]}")
