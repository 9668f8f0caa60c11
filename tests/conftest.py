import numpy as np
import pytest
from hypothesis import settings

# Every run draws the same examples: a property fails on a change to the
# code or to the test, not on a lucky draw. print_blob prints the blob that
# replays a failing example with @reproduce_failure.
settings.register_profile("deterministic", derandomize=True, print_blob=True)
settings.load_profile("deterministic")


@pytest.fixture
def rng():
    return np.random.default_rng(20240801)
