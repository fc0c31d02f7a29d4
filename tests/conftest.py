import os
import subprocess
import sys

import numpy as np
import pytest

from ptwreg import ModelSpecConfig, build_design, dataset_table, expand_count_column
from ptwreg import ptwdist


@pytest.fixture(autouse=True)
def cold_draw_caches():
    """Start every test with no mixing draws and no Monte Carlo pmf
    estimates kept, so that what a test counts does not hang on the tests
    that ran before it."""
    ptwdist._mixing_draws.cache_clear()


@pytest.fixture(scope="session")
def dicentrics_model():
    """Design matrix and response for the embedded dicentrics data with the
    quadratic dose predictor (the model both published fits use)."""
    table = expand_count_column(dataset_table("dicentrics"))
    config = ModelSpecConfig(response="y", terms=("dose", "dose^2"))
    model, names = build_design(table, config)
    return model, names


@pytest.fixture(scope="session")
def study_json_by_blas_threads():
    """``ptwreg simstudy`` JSON of ptw-p2-di2 at n = 60 and 120, 50
    replicates, seed 4, each from a fresh interpreter at
    OPENBLAS_NUM_THREADS = 1 and = 2, keyed by the thread count.  OpenBLAS
    reads the variable once, when it loads, so only a new process can
    change the number of threads a study runs with."""
    argv = ["simstudy", "--scenario", "ptw-p2-di2", "--replicates", "50",
            "--sizes", "60,120", "--seed", "4"]
    outputs = {}
    for threads in (1, 2):
        proc = subprocess.run(
            [sys.executable, "-m", "ptwreg", *argv],
            capture_output=True,
            env={**os.environ, "OPENBLAS_NUM_THREADS": str(threads)},
        )
        assert proc.returncode == 0, proc.stderr.decode()
        outputs[threads] = proc.stdout.decode("utf-8")
    return outputs


@pytest.fixture
def rng():
    return np.random.default_rng(20260816)
