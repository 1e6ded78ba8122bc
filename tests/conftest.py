import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

from spincim.array import ArrayGeometry, CimArray, SenseConfig
from spincim.cost import ExecutionTrace
from spincim.device import CurrentLevelModel

MASTER_SEED = 20240

# every run draws the same Hypothesis examples and keeps no example database
settings.register_profile("reproducible", derandomize=True, database=None)
settings.load_profile("reproducible")


def auth_array(model=None, rng=None, width=16, sense=None) -> CimArray:
    """A recorded array of ``width`` columns for one ``run_auth``."""
    return CimArray(ArrayGeometry(cols_per_row=width), model, sense, rng=rng,
                    recorder=ExecutionTrace())


@pytest.fixture
def model():
    return CurrentLevelModel()


@pytest.fixture
def zero_noise_model():
    return replace(CurrentLevelModel(), sigma=0.0)


@pytest.fixture
def sense():
    return SenseConfig()
