import os

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

# On CI (CI set, as Hypothesis itself decides) the suite builds on Hypothesis'
# own "ci" profile: derandomized, no example database, and a reproduction
# blob printed with each failure.
settings.register_profile(
    "suite",
    parent=settings.get_profile("ci") if "CI" in os.environ else None,
    deadline=None,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
