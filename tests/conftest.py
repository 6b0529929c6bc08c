import os
from pathlib import Path

import pytest
from hypothesis import settings

# exact arithmetic is slow per example; cap examples and drop the deadline
settings.register_profile("exact", deadline=None, max_examples=60)
settings.load_profile("exact")

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def child_env() -> dict:
    """The environment of a child process that imports weylops from this
    checkout, whether or not the package is installed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env
