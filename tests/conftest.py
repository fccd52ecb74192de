"""Suite-wide fixtures and Hypothesis settings."""

from __future__ import annotations

import threading
import time

import pytest
from hypothesis import settings

# Every run draws the same examples and replays nothing from a local
# example database, so a pass or a failure does not depend on past runs.
# Each test's own max_examples still applies.
settings.register_profile("fedhosp", derandomize=True, database=None)
settings.load_profile("fedhosp")


@pytest.fixture(autouse=True)
def no_leaked_hospital_threads():
    """Fail a test that leaves a ``hospital-*`` worker thread running.

    Threads the test started get up to 1 s in all to finish after it.
    """
    before = set(threading.enumerate())
    yield
    deadline = time.monotonic() + 1.0
    leaked = []
    for t in threading.enumerate():
        if t in before or not t.name.startswith("hospital-"):
            continue
        t.join(timeout=max(0.0, deadline - time.monotonic()))
        if t.is_alive():
            leaked.append(t.name)
    if leaked:
        pytest.fail(f"test left hospital threads running: {sorted(leaked)}")
