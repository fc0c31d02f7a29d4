"""The benchmark's tracer against the functions it traces.

``perfbench/tracer.py`` looks each traced function up by (module, name),
and its info extractors read some of their arguments and results.  It is
loaded here from its file, and nothing is installed, so a renamed traced
function or a reordered signature fails in this suite.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from ptwreg.chaser import FitConfig, fit, step_control
from ptwreg.estfun import PtwModel, Theta
from ptwreg.numcore import RngStream

_TRACER_FILE = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER_FILE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves(tracer):
    for module_name, attr in tracer.TRACED:
        target = getattr(importlib.import_module(module_name), attr, None)
        assert callable(target), f"{module_name}.{attr}"


def test_step_shrunk_reads_step_control_arguments(tracer):
    theta = Theta(np.array([1.2, 0.5]), 0.3, 1.5)
    mu = np.exp(1.2 + 0.5 * np.linspace(-1.0, 1.0, 50))
    for delta, shrunk in ((np.array([0.1, -0.2]), False), (np.array([10.0, 0.0]), True)):
        args = (theta, delta, mu)
        assert tracer._step_shrunk(args, {}, step_control(*args)) is shrunk


def test_fit_outcome_reads_a_fit_result(tracer):
    gen = RngStream(3).generator()
    X = np.column_stack([np.ones(200), np.linspace(-1.0, 1.0, 200)])
    model = PtwModel(X=X, y=gen.poisson(np.exp(X @ np.array([1.2, 0.5]))))
    result = fit(model, FitConfig(phi_fixed=0.0))
    assert tracer._fit_outcome((model,), {}, result) == (result.iterations, True, True)
