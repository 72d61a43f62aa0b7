import sys
from pathlib import Path

import pytest

# make tests/oracles.py importable as a plain module from any test file
sys.path.insert(0, str(Path(__file__).parent))

from stageq import kernel  # noqa: E402


@pytest.fixture(params=["kernel", "fallback"])
def path(request, monkeypatch):
    """Learners built inside the test use the kernel, or the Python loops."""
    if request.param == "fallback":
        monkeypatch.setattr(kernel, "load", lambda: None)
    elif kernel.load() is None:
        pytest.skip("no C compiler: the kernel cannot be built")
    return request.param
