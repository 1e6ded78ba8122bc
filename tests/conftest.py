import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

from spincim.array import SenseConfig
from spincim.device import CurrentLevelModel

MASTER_SEED = 20240

# every run draws the same Hypothesis examples and keeps no example database
settings.register_profile("reproducible", derandomize=True, database=None)
settings.load_profile("reproducible")


@pytest.fixture
def model():
    return CurrentLevelModel()


@pytest.fixture
def zero_noise_model():
    return replace(CurrentLevelModel(), sigma=0.0)


@pytest.fixture
def sense():
    return SenseConfig()
