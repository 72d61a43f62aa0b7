import sys
from dataclasses import replace
from pathlib import Path

import pytest

# make tests/oracles.py importable as a plain module from any test file
sys.path.insert(0, str(Path(__file__).parent))

from stageq import harness, kernel  # noqa: E402


@pytest.fixture(params=["kernel", "fallback"])
def path(request, monkeypatch):
    """Learners built inside the test use the kernel, or the Python loops."""
    if request.param == "fallback":
        monkeypatch.setattr(kernel, "load", lambda: None)
    elif kernel.load() is None:
        pytest.skip("no C compiler: the kernel cannot be built")
    return request.param


@pytest.fixture
def lower_vstar(monkeypatch):
    """lower_vstar(drop) has the harness's runs read V*(s=1) lowered by
    drop: both audit bodies read V* (not the policy values they compute),
    so episodes from state 1 whose regret is below drop turn negative."""
    solve = harness.backward_induction

    def lower(drop):
        def lowered(mdp):
            tables, pistar = solve(mdp)
            V = tables.V.copy()
            V[0, 1] -= drop
            return replace(tables, V=V), pistar

        monkeypatch.setattr(harness, "backward_induction", lowered)
    return lower
