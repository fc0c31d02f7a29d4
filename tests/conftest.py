import numpy as np
import pytest

from ptwreg import ModelSpecConfig, build_design, dataset_table, expand_count_column


@pytest.fixture(scope="session")
def dicentrics_model():
    """Design matrix and response for the embedded dicentrics data with the
    quadratic dose predictor (the model both published fits use)."""
    table = expand_count_column(dataset_table("dicentrics"))
    config = ModelSpecConfig(response="y", terms=("dose", "dose^2"))
    model, names = build_design(table, config)
    return model, names


@pytest.fixture
def rng():
    return np.random.default_rng(20260816)
