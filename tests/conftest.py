import sys
from pathlib import Path

import numpy as np
import pytest

# Make the shared oracle helpers importable regardless of invocation cwd.
sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def call_count(monkeypatch):
    """``count(owner, name)`` returns a list that grows by one per call of
    ``owner.name`` made after it, through attribute lookup on ``owner``."""

    def count(owner, name):
        calls = []
        fn = getattr(owner, name)

        def counting(*args, **kwargs):
            calls.append(None)
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)
        return calls

    return count


@pytest.fixture
def philox_count(call_count):
    """List that grows by one per Philox bit generator built after the fixture."""
    return call_count(np.random, "Philox")
