"""Session fixtures shared by the test modules."""

import pytest

from test_golden import run_profile


@pytest.fixture(scope="session")
def profile_runs():
    """``profile_runs(name)``: reproduction profile ``name`` at 20 seeds, run
    once per session, as its runs' digests and its criteria by name."""
    cache = {}

    def run(name):
        if name not in cache:
            cache[name] = run_profile(name)
        return cache[name]

    return run
