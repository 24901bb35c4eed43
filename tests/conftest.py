import sys
from pathlib import Path

import numpy as np
import pytest

# Make the shared oracle helpers importable regardless of invocation cwd.
sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def philox_count(monkeypatch):
    """List that grows by one per Philox bit generator built after the fixture."""
    built = []
    philox = np.random.Philox

    def counting(*args, **kwargs):
        built.append(None)
        return philox(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", counting)
    return built
