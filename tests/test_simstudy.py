import hashlib
import json
import warnings

import numpy as np
import pytest

from ptwreg import refdists
from ptwreg.dataio import study_result_dict, study_result_json
from ptwreg.errors import InvalidParameterError, MissingBaselineError
from ptwreg.simstudy import (
    Scenario,
    StudyResult,
    make_scenario,
    run_study,
    scenario_names,
    scenario_truth,
    standardized_bias_table,
)


@pytest.fixture(scope="module")
def small_study():
    scenario = make_scenario("ptw-p2-di2", replicates=50, sample_sizes=(60, 120))
    return run_study(scenario, seed=4)


# ------------------------------------------------------------------- registry


def test_registry_contents():
    names = scenario_names()
    assert len(names) == 24
    ptw = [n for n in names if n.startswith("ptw-")]
    assert len(ptw) == 16
    for p in ("1.1", "1.5", "2", "3"):
        for di in (2, 5, 10, 20):
            assert f"ptw-p{p}-di{di}" in names
    for nu in (2, 4, 6, 8):
        assert f"compoisson-nu{nu}" in names
        assert f"gammacount-nu{nu}" in names


def test_make_scenario_scales_and_overrides():
    desk = make_scenario("ptw-p3-di10")
    assert desk.sample_sizes == (100, 500)
    assert desk.replicates == 200
    paper = make_scenario("ptw-p3-di10", scale="paper")
    assert paper.sample_sizes == (100, 250, 500, 1000)
    assert paper.replicates == 1000
    custom = make_scenario("gammacount-nu4", sample_sizes=(80,), replicates=64)
    assert custom.sample_sizes == (80,)
    assert custom.replicates == 64
    assert custom.family == "gamma-count"
    assert custom.params == (2.0, 1.0, 4.0)


def test_make_scenario_rejects_unknowns():
    with pytest.raises(InvalidParameterError, match="unknown scenario"):
        make_scenario("ptw-p7-di2")
    with pytest.raises(InvalidParameterError, match="scale"):
        make_scenario("ptw-p2-di2", scale="galactic")


def test_scenario_validation():
    with pytest.raises(InvalidParameterError):
        Scenario("x", "binomial", (1.0, 2.0), (100,), 200)
    with pytest.raises(InvalidParameterError):
        Scenario("x", "poisson-tweedie", (0.1, 2.0, 3.0), (100,), 200)
    with pytest.raises(InvalidParameterError):
        Scenario("x", "poisson-tweedie", (0.1, 2.0), (100,), 10)
    with pytest.raises(InvalidParameterError):
        Scenario("x", "poisson-tweedie", (0.1, 2.0), (5,), 200)
    assert Scenario("x", "com-poisson", (8.0, 4.0, 2.0), (50,), 50).parameter_names == (
        "beta0",
        "beta1",
        "phi",
        "p",
    )


# --------------------------------------------------------------------- truth


def test_truth_for_tweedie_scenarios():
    theta = scenario_truth(make_scenario("ptw-p2-di5"))
    assert np.allclose(theta.beta, [np.log(10.0), 0.8, -1.0])
    assert theta.phi == 0.4
    assert theta.p == 2.0
    # DI = 1 + phi mu^{p-1} equals the nominal index at mu = 10
    for name in scenario_names():
        if not name.startswith("ptw-"):
            continue
        sc = make_scenario(name)
        t = scenario_truth(sc)
        di = 1.0 + t.phi * 10.0 ** (t.p - 1.0)
        nominal = float(name.rsplit("di", 1)[1])
        assert di == pytest.approx(nominal, rel=0.07), name


def test_truth_for_mapped_scenarios():
    cp = scenario_truth(make_scenario("compoisson-nu4"))
    assert cp.beta == pytest.approx([1.941, 1.047], abs=0.03)
    assert cp.phi == pytest.approx(-0.714, abs=0.05)
    assert cp.p == pytest.approx(1.014, abs=0.05)
    gc = scenario_truth(make_scenario("gammacount-nu6"))
    assert gc.beta == pytest.approx([1.936, 1.048], abs=0.03)
    assert gc.phi == pytest.approx(-0.779, abs=0.05)
    assert gc.p == pytest.approx(1.019, abs=0.05)
    # cached: the mapped truth is stable across calls
    again = scenario_truth(make_scenario("compoisson-nu4"))
    assert np.array_equal(cp.as_array(), again.as_array())


# ----------------------------------------------------------------- run_study


def test_run_study_shape_and_bookkeeping(small_study):
    result = small_study
    assert isinstance(result, StudyResult)
    assert result.scenario == "ptw-p2-di2"
    assert result.parameter_names == ("beta0", "beta1", "beta2", "phi", "p")
    assert len(result.cells) == 2 * 5
    assert [f[0] for f in result.failures] == [60, 120]
    for n, excluded in result.failures:
        assert 0 <= excluded < result.replicates
    for cell in result.cells:
        assert cell.n in (60, 120)
        assert np.isfinite(cell.mean_se) and cell.mean_se > 0
        assert 0.0 <= cell.coverage <= 1.0


def test_run_study_deterministic(small_study):
    scenario = make_scenario("ptw-p2-di2", replicates=50, sample_sizes=(60, 120))
    assert run_study(scenario, seed=4) == small_study


def test_run_study_worker_count_invariant(small_study, monkeypatch):
    scenario = make_scenario("ptw-p2-di2", replicates=50, sample_sizes=(60, 120))
    monkeypatch.setenv("PTW_THREADS", "1")
    serial = run_study(scenario, seed=4)
    monkeypatch.setenv("PTW_THREADS", "3")
    threaded = run_study(scenario, seed=4)
    assert serial == small_study
    assert threaded == small_study


@pytest.mark.parametrize(
    "name, sha256",
    [
        ("gammacount-nu4", "a77909f9e8351fa0c78ecc6e9d314974fddd816f6646e721067be55c63fb888d"),
        ("compoisson-nu4", "bb136af84bcd785cf6c707cc1e16a5e752d618555d847e42c6ff66f49aed147c"),
        ("ptw-p3-di2", "506fa52902de498e543e10bdf85b4c2a3d5047be87375df020d9f745f0fcd9e8"),
    ],
)
def test_study_json_is_bit_stable(name, sha256):
    # seeded study outputs are pinned byte for byte; a change that only
    # removes repeated work must leave them exactly as they are
    scenario = make_scenario(name, sample_sizes=(100,), replicates=50)
    text = study_result_json(run_study(scenario, seed=0))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == sha256


@pytest.mark.parametrize(
    "name, sha256",
    [
        ("gammacount-nu4", "e6301351e224ba0d2dda6becebc014dcd6285954c9771c1ce4d27c4acdfc0d42"),
        ("compoisson-nu4", "09bb3a6c1dcc31cb2b43a439f6cc7dcc6c02ce121ac15316a5651e3a402b8077"),
    ],
)
def test_study_fit_fields_are_bit_stable(name, sha256):
    # the fields that do not depend on the moment-mapped truth (exclusions,
    # reported and empirical standard errors), pinned separately so that a
    # change to the truth alone cannot move them
    scenario = make_scenario(name, sample_sizes=(100,), replicates=50)
    d = study_result_dict(run_study(scenario, seed=0))
    fit_only = {
        "failures": d["failures"],
        "cells": [[c["parameter"], c["n"], c["mean_se"], c["empirical_se"]] for c in d["cells"]],
    }
    text = json.dumps(fit_only)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == sha256


def test_run_study_cold_and_warm_table_cache_agree():
    scenario = make_scenario("gammacount-nu4", sample_sizes=(100,), replicates=50)
    scenario_truth(scenario)  # the moment mapping fills the cache with its own tables
    refdists._gammacount_table.cache_clear()
    cold = study_result_json(run_study(scenario, seed=2))
    assert refdists._gammacount_table.cache_info().misses == 1
    warm = study_result_json(run_study(scenario, seed=2))
    assert refdists._gammacount_table.cache_info().misses == 1
    assert cold == warm


def test_run_study_seed_matters(small_study):
    scenario = make_scenario("ptw-p2-di2", replicates=50, sample_sizes=(60, 120))
    other = run_study(scenario, seed=5)
    assert other != small_study


def test_godambe_se_tracks_sampling_spread():
    # at n = 500 the mean reported beta s.e. reproduces the spread of the
    # estimates across a thousand replications
    scenario = make_scenario("ptw-p2-di2", replicates=1000, sample_sizes=(500,))
    result = run_study(scenario, seed=0)
    for cell in result.cells:
        if cell.parameter.startswith("beta"):
            assert cell.mean_se == pytest.approx(cell.empirical_se, rel=0.10), (
                cell.parameter
            )


# ------------------------------------------------------- standardized table


def test_standardized_bias_table_baseline():
    scenario = make_scenario("ptw-p2-di2", replicates=60, sample_sizes=(100, 200))
    result = run_study(scenario, seed=1)
    rows = standardized_bias_table(result)
    assert len(rows) == len(result.cells)
    for row in rows:
        if row["n"] == 100:
            assert row["std_se"] == pytest.approx(1.0, abs=1e-12)
        assert row["std_lower"] == pytest.approx(row["std_bias"] - row["std_se"], abs=1e-12)
        assert row["std_upper"] == pytest.approx(row["std_bias"] + row["std_se"], abs=1e-12)


def test_standardized_bias_table_root_n_shrink():
    scenario = make_scenario("ptw-p2-di2")  # desk scale: n = 100, 500
    result = run_study(scenario, seed=0)
    rows = standardized_bias_table(result)
    for row in rows:
        if row["n"] == 500 and row["parameter"].startswith("beta"):
            assert row["std_se"] == pytest.approx(np.sqrt(100 / 500), rel=0.25)


def test_standardized_bias_table_needs_baseline(small_study):
    with pytest.raises(MissingBaselineError):
        standardized_bias_table(small_study)


@pytest.mark.parametrize("name, excluded", [("ptw-p3-di5", 13), ("ptw-p3-di2", 19),
                                            ("compoisson-nu2", 3)])
def test_study_fits_leak_no_runtime_warning(name, excluded):
    # the ptw-p3-di5 and compoisson-nu2 cells hold fits whose trial points
    # overflow mu**p; a warning escaping a fit would be raised here instead
    # of excluding the replicate
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        result = run_study(make_scenario(name, sample_sizes=(100,), replicates=50), seed=0)
    assert result.failures == ((100, excluded),)
