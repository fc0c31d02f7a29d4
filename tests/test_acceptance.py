"""Release acceptance suite.

Nine end-to-end checks covering the fitted dicentrics analyses, the
moment mapping, the desk-scale simulation study, oracle equivalence of
the probability routines, the analytic derivative identities, the
Poisson reduction, and byte-level determinism.  Each test prints a
single PASS/FAIL line so a full run doubles as a release checklist.
"""

import time
from types import SimpleNamespace

import numpy as np
import pytest

from oracles import cpg_loglik, irls_poisson, nb_pmf, poisson_loglik

import ptwreg.ptwdist as ptwdist
from ptwreg.dataio import (
    ModelSpecConfig,
    build_design,
    counts_csv,
    expand_count_column,
    fit_result_dict,
    fit_result_json,
    fit_table,
    loglik_at_fit,
    study_result_json,
)
from ptwreg.datasets import dataset_table
from ptwreg.chaser import FitConfig, fit
from ptwreg.estfun import PtwModel, Theta, estfun_state, pearson_score, quasi_score, sensitivity
from ptwreg.numcore import RngStream
from ptwreg.ptwdist import PmfConfig, PtwParams, _pmf_monte_carlo, ptw_pmf, ptw_sample, sample_ptw_mu
from ptwreg.simstudy import make_scenario, run_study, scenario_truth


def _report(capsys, number, label, ok):
    with capsys.disabled():
        print(f"\n{'PASS' if ok else 'FAIL'} criterion {number}: {label}")


def _within(value, target, rel):
    return abs(value - target) <= rel * abs(target)


# --------------------------------------------------------------------------
# Shared expensive computations
# --------------------------------------------------------------------------


def _dicentrics_config(**overrides):
    return ModelSpecConfig(response="y", terms=("dose", "dose^2"), **overrides)


@pytest.fixture(scope="module")
def tweedie_fit():
    """Free-power fit of the dicentrics data plus its serialized report."""
    start = time.perf_counter()
    try:
        table = expand_count_column(dataset_table("dicentrics"))
        config = _dicentrics_config()
        model, names = build_design(table, config)
        result = fit(model, config.fit)
        loglik, reason = loglik_at_fit(result, model, config)
        payload = fit_result_dict(result, names, loglik, reason)
        return SimpleNamespace(
            model=model,
            result=result,
            payload=payload,
            elapsed=time.perf_counter() - start,
            error=None,
        )
    except Exception as exc:  # noqa: BLE001 - reported by the criteria below
        return SimpleNamespace(error=exc, elapsed=time.perf_counter() - start)


@pytest.fixture(scope="module")
def desk_studies():
    """The three overdispersed desk-scale study scenarios at seed 0."""
    start = time.perf_counter()
    try:
        results = {
            name: run_study(
                make_scenario(name, sample_sizes=(100, 500), replicates=200), seed=0
            )
            for name in ("ptw-p1.5-di2", "ptw-p2-di2", "ptw-p3-di2")
        }
        return SimpleNamespace(
            results=results, elapsed=time.perf_counter() - start, error=None
        )
    except Exception as exc:  # noqa: BLE001
        return SimpleNamespace(error=exc, elapsed=time.perf_counter() - start)


# --------------------------------------------------------------------------
# Criterion 1: free-power fit of the dicentrics data
# --------------------------------------------------------------------------


def test_criterion_1_tweedie_fit_on_dicentrics(tweedie_fit, capsys):
    label = "free-power fit on dicentrics reproduces reference estimates"
    if tweedie_fit.error is not None:
        _report(capsys, 1, label, False)
        raise tweedie_fit.error

    theta = tweedie_fit.result.theta_hat
    se = tweedie_fit.result.std_errors
    problems = []
    for got, ref in zip(theta.beta, (-3.126, 5.514, -2.481)):
        if not _within(got, ref, 0.01):
            problems.append(f"coefficient {got:.4f} vs {ref}")
    if abs(theta.phi - 0.249) > 0.02:
        problems.append(f"phi {theta.phi:.4f} vs 0.249")
    if abs(theta.p - 1.085) > 0.05:
        problems.append(f"p {theta.p:.4f} vs 1.085")
    for got, ref in zip(se[:3], (0.106, 0.408, 0.342)):
        if not _within(got, ref, 0.05):
            problems.append(f"coefficient s.e. {got:.4f} vs {ref}")
    for got, ref in zip(se[3:], (0.100, 0.299)):
        if not _within(got, ref, 0.15):
            problems.append(f"dispersion s.e. {got:.4f} vs {ref}")
    if tweedie_fit.elapsed >= 30.0:
        problems.append(f"runtime {tweedie_fit.elapsed:.1f}s (budget 30s)")

    _report(capsys, 1, f"{label} ({tweedie_fit.elapsed:.1f}s)", not problems)
    assert not problems, problems
    assert tweedie_fit.result.converged


# --------------------------------------------------------------------------
# Criterion 2: Poisson fit of the dicentrics data
# --------------------------------------------------------------------------


def test_criterion_2_poisson_fit_on_dicentrics(capsys):
    label = "Poisson fit on dicentrics reproduces reference estimates"
    table = expand_count_column(dataset_table("dicentrics"))
    config = _dicentrics_config(fit=FitConfig(phi_fixed=0.0))
    model, names = build_design(table, config)
    result = fit(model, config.fit)
    loglik, reason = loglik_at_fit(result, model, config)

    problems = []
    for got, ref in zip(result.theta_hat.beta, (-3.125, 5.508, -2.476)):
        if not _within(got, ref, 0.01):
            problems.append(f"coefficient {got:.4f} vs {ref}")
    for got, ref in zip(result.std_errors, (0.097, 0.369, 0.309)):
        if not _within(got, ref, 0.05):
            problems.append(f"coefficient s.e. {got:.4f} vs {ref}")
    if loglik is None:
        problems.append(f"log-likelihood unavailable: {reason}")
    else:
        if abs(loglik.value - (-2995.389)) > 1e-2:
            problems.append(f"log-likelihood {loglik.value:.4f} vs -2995.389")
        # the phi=0 likelihood is evaluated in closed form; cross-check it
        # against an independent Poisson log-likelihood computation
        oracle = poisson_loglik(model.X, model.y, result.theta_hat.beta)
        if abs(loglik.value - oracle) > 1e-6:
            problems.append(f"log-likelihood {loglik.value:.6f} vs oracle {oracle:.6f}")

    _report(capsys, 2, label, not problems)
    assert not problems, problems


# --------------------------------------------------------------------------
# Criterion 3: Monte Carlo log-likelihood at the fitted parameters
# --------------------------------------------------------------------------


def test_criterion_3_monte_carlo_loglik_at_fit(tweedie_fit, capsys):
    label = "Monte Carlo log-likelihood at the fitted parameters brackets the reference"
    if tweedie_fit.error is not None:
        _report(capsys, 3, label, False)
        raise tweedie_fit.error

    loglik = tweedie_fit.payload["loglik"]
    problems = []
    if loglik.get("value") is None:
        problems.append(f"log-likelihood unavailable: {loglik.get('reason')}")
    else:
        value, stderr = loglik["value"], loglik["mc_stderr"]
        if loglik["method"] != "monte-carlo":
            problems.append(f"expected the Monte Carlo route, got {loglik['method']}")
        if abs(value - (-2950.605)) > 0.5:
            problems.append(f"log-likelihood {value:.4f} vs -2950.605 (window 0.5)")
        if abs(value - (-2950.605)) > 3 * stderr:
            problems.append(
                f"discrepancy {abs(value + 2950.605):.4f} exceeds 3 x MC s.e. {stderr:.4f}"
            )
        # internal consistency: the same likelihood through the series
        # expansion of the compound-Poisson-gamma density
        theta = tweedie_fit.result.theta_hat
        mu = np.exp(tweedie_fit.model.linear_predictor(theta.beta))
        exact = cpg_loglik(mu, theta.phi, theta.p, tweedie_fit.model.y)
        if abs(value - exact) > 3 * stderr:
            problems.append(f"MC value {value:.4f} vs series value {exact:.4f}")

    _report(capsys, 3, label, not problems)
    assert not problems, problems


# --------------------------------------------------------------------------
# Criterion 4: moment mapping reproduces the reference rows
# --------------------------------------------------------------------------

# family scenario -> reference (beta0, beta1, phi, p)
MAPPED_ROWS = {
    "compoisson-nu2": (3.995, 2.004, -0.485, 1.008),
    "compoisson-nu4": (1.941, 1.047, -0.714, 1.014),
    "compoisson-nu6": (1.206, 0.744, -0.790, 1.020),
    "compoisson-nu8": (0.803, 0.602, -0.821, 1.036),
    "gammacount-nu2": (1.962, 1.028, -0.429, 1.045),
    "gammacount-nu4": (1.943, 1.042, -0.682, 1.003),
    "gammacount-nu6": (1.936, 1.048, -0.779, 1.019),
    "gammacount-nu8": (1.932, 1.051, -0.820, 1.020),
}


def test_criterion_4_moment_mapping_rows(capsys):
    label = "moment mapping reproduces all eight reference rows"
    start = time.perf_counter()
    problems = []
    for name, (beta0, beta1, phi, p) in MAPPED_ROWS.items():
        truth = scenario_truth(make_scenario(name))
        for got, ref, tol, what in (
            (truth.beta[0], beta0, 0.03, "beta0"),
            (truth.beta[1], beta1, 0.03, "beta1"),
            (truth.phi, phi, 0.05, "phi"),
            (truth.p, p, 0.05, "p"),
        ):
            if abs(got - ref) > tol:
                problems.append(f"{name} {what}: {got:.4f} vs {ref}")
    elapsed = time.perf_counter() - start
    if elapsed >= 300.0:
        problems.append(f"runtime {elapsed:.0f}s (budget 300s)")

    _report(capsys, 4, f"{label} ({elapsed:.0f}s)", not problems)
    assert not problems, problems


# --------------------------------------------------------------------------
# Criterion 5: desk-scale simulation study properties
# --------------------------------------------------------------------------


def _bias_shrinks(result):
    """Check per-parameter bias reduction from n=100 to n=500.

    The estimating functions are unbiased, so several biases sit at the
    Monte Carlo noise floor of a 200-replicate study; comparing two noise
    values point-wise would reject a perfect estimator.  A bias is
    required to shrink strictly where it is resolvable (above twice its
    own standard error at n=100); elsewhere it must not grow by more
    than twice the combined standard error of the comparison.
    """
    kept = {n: result.replicates - excluded for n, excluded in result.failures}
    cells = {(cell.parameter, cell.n): cell for cell in result.cells}
    problems = []
    for name in result.parameter_names:
        b100, b500 = cells[(name, 100)], cells[(name, 500)]
        se100 = b100.empirical_se / np.sqrt(kept[100])
        se500 = b500.empirical_se / np.sqrt(kept[500])
        if abs(b100.mean_bias) > 2 * se100:
            ok = abs(b500.mean_bias) < abs(b100.mean_bias)
        else:
            ok = abs(b500.mean_bias) - abs(b100.mean_bias) <= 2 * np.hypot(se100, se500)
        if not ok:
            problems.append(
                f"{name}: bias {b100.mean_bias:+.4f} (n=100) -> "
                f"{b500.mean_bias:+.4f} (n=500)"
            )
    return problems


def test_criterion_5_desk_scale_study(desk_studies, capsys):
    label = "desk-scale study: bias shrinks, coverage and sandwich errors in range"
    if desk_studies.error is not None:
        _report(capsys, 5, label, False)
        raise desk_studies.error

    problems = []
    for name, result in desk_studies.results.items():
        problems += [f"{name} {p}" for p in _bias_shrinks(result)]
        for cell in result.cells:
            if not cell.parameter.startswith("beta"):
                continue
            if not 0.90 <= cell.coverage <= 0.99:
                problems.append(
                    f"{name} {cell.parameter} coverage {cell.coverage:.3f} at n={cell.n}"
                )
            if cell.n == 500 and not _within(cell.mean_se, cell.empirical_se, 0.15):
                problems.append(
                    f"{name} {cell.parameter} mean s.e. {cell.mean_se:.4f} vs "
                    f"empirical {cell.empirical_se:.4f} at n=500"
                )
    if desk_studies.elapsed >= 600.0:
        problems.append(f"runtime {desk_studies.elapsed:.0f}s (budget 600s)")

    _report(capsys, 5, f"{label} ({desk_studies.elapsed:.0f}s)", not problems)
    assert not problems, problems


# --------------------------------------------------------------------------
# Criterion 6: forced Monte Carlo pmf vs the exact routes
# --------------------------------------------------------------------------


def test_criterion_6_monte_carlo_vs_exact_pmf(capsys):
    label = "forced Monte Carlo pmf matches exact routes within 3 standard errors"
    # The far tail (pmf ~ 1e-8 at y=50) is reached by a rare sliver of the
    # mixing distribution, and the plug-in standard error is only reliable
    # once that sliver is well represented; 10^7 draws calibrates it over
    # the whole y range.
    budget = PmfConfig(mc_draws=10_000_000, rng=RngStream(0))
    problems = []
    try:
        for mu, phi, p in ((10.0, 0.1, 2.0), (10.0, 0.5, 2.0), (10.0, 1.0, 1.0)):
            params = PtwParams(mu, phi, p)
            worst = 0.0
            for y, mc in enumerate(_pmf_monte_carlo(params, range(51), budget)):
                if p == 2.0:
                    exact = nb_pmf(mu, phi, y)
                else:
                    est = ptw_pmf(params, y)
                    assert est.method == "exact-sum"
                    exact = est.value
                if mc.mc_stderr > 0:
                    worst = max(worst, abs(mc.value - exact) / mc.mc_stderr)
            if worst >= 3.0:
                problems.append(f"(mu={mu}, phi={phi}, p={p}): max deviation {worst:.2f} s.e.")
    finally:
        ptwdist._mixing_draws.cache_clear()

    _report(capsys, 6, label, not problems)
    assert not problems, problems


# --------------------------------------------------------------------------
# Criterion 7: analytic derivatives vs numerical oracles
# --------------------------------------------------------------------------


def test_criterion_7_derivative_identities(capsys):
    label = "analytic weights and sensitivity match finite-difference oracles"
    problems = []

    # variance-function weights: -d(1/C) in each parameter direction,
    # on a grid covering p=1, p=2, mu=1 (log mu = 0) and negative phi
    for mu, phi, p in ((1.0, 0.3, 1.5), (5.0, 0.2, 1.0), (5.0, 0.2, 2.0), (10.0, 0.8, 1.3), (2.0, -0.1, 1.2)):
        model = PtwModel(X=np.array([[1.0]]), y=np.array([1]))
        beta0 = np.log(mu)
        state = estfun_state(model, Theta(np.array([beta0]), phi, p))

        def inv_c(b0, ph, pw):
            m = np.exp(b0)
            return 1.0 / (m + ph * m**pw)

        for arg, got in ((1, state.W_phi[0]), (2, state.W_p[0]), (0, state.W_beta[0, 0])):
            point = [beta0, phi, p]
            h = 1e-5 * max(1.0, abs(point[arg]))
            hi, lo = point.copy(), point.copy()
            hi[arg] += h
            lo[arg] -= h
            fd = -(inv_c(*hi) - inv_c(*lo)) / (2 * h)
            if abs(got - fd) > 1e-5 * abs(fd) + 1e-12:
                problems.append(f"weight {arg} at (mu={mu}, phi={phi}, p={p})")

    # every sensitivity entry: derivative of the estimating function
    # averaged over 200 datasets held fixed while theta moves
    n = 80
    X = np.column_stack([np.ones(n), np.linspace(-1.0, 1.0, n)])
    theta = Theta(np.array([np.log(5.0), 0.6]), 0.4, 1.6)
    mu = np.exp(X @ theta.beta)
    gen = RngStream(77).generator()
    datasets = [np.asarray(sample_ptw_mu(mu, theta.phi, theta.p, gen)) for _ in range(200)]

    def averaged_score(values):
        th = Theta(values[:2], float(values[2]), float(values[3]))
        acc = np.zeros(4)
        for y in datasets:
            state = estfun_state(PtwModel(X=X, y=y), th)
            acc += np.concatenate([quasi_score(state), pearson_score(state)])
        return acc / len(datasets)

    S = sensitivity(estfun_state(PtwModel(X=X, y=datasets[0]), theta))
    point = np.concatenate([theta.beta, [theta.phi, theta.p]])
    fd = np.zeros((4, 4))
    for k in range(4):
        h = 1e-4 * max(1.0, abs(point[k]))
        hi, lo = point.copy(), point.copy()
        hi[k] += h
        lo[k] -= h
        fd[:, k] = (averaged_score(hi) - averaged_score(lo)) / (2 * h)

    scale = np.max(np.abs(S))
    if np.max(np.abs(S[:2, 2:])) != 0.0:
        problems.append("insensitivity block is not exactly zero")
    for j in range(4):
        for k in range(4):
            if abs(S[j, k]) > 1e-8 * scale:
                if abs(fd[j, k] - S[j, k]) > 0.05 * abs(S[j, k]):
                    problems.append(f"sensitivity entry ({j}, {k}): {S[j, k]:.4f} vs FD {fd[j, k]:.4f}")
            elif abs(fd[j, k]) > 0.05 * scale:
                problems.append(f"structural zero ({j}, {k}) has FD {fd[j, k]:.4f}")

    # phi=0 reduction: the coefficient block is the negative Poisson information
    S0 = sensitivity(estfun_state(PtwModel(X=X, y=datasets[0]), Theta(theta.beta, 0.0, 2.0)))
    info = X.T @ (X * mu[:, None])
    if not np.allclose(S0[:2, :2], -info, rtol=1e-10):
        problems.append("phi=0 sensitivity is not the negative Poisson information")

    _report(capsys, 7, label, not problems)
    assert not problems, problems


# --------------------------------------------------------------------------
# Criterion 8: Poisson reduction vs IRLS
# --------------------------------------------------------------------------


def test_criterion_8_poisson_reduction_matches_irls(capsys):
    label = "dispersion fixed at zero reproduces IRLS Poisson fits to 1e-8"
    gen = np.random.default_rng(123)
    worst_beta = worst_se = 0.0
    for k in range(20):
        n = int(gen.integers(50, 400))
        q = int(gen.integers(1, 5))
        X = np.column_stack([np.ones(n)] + [gen.uniform(-1, 1, n) for _ in range(q - 1)])
        beta = np.concatenate([[gen.uniform(0.5, 2.0)], gen.uniform(-0.5, 0.5, q - 1)])
        offset = np.log(gen.uniform(0.5, 2.0, n)) if k % 2 else None
        eta = X @ beta + (offset if offset is not None else 0.0)
        y = gen.poisson(np.exp(eta))
        result = fit(PtwModel(X=X, y=y.astype(float), offset=offset), FitConfig(phi_fixed=0.0))
        beta_ref, cov_ref = irls_poisson(X, y, offset=offset)
        worst_beta = max(worst_beta, float(np.max(np.abs(result.theta_hat.beta - beta_ref))))
        worst_se = max(
            worst_se, float(np.max(np.abs(result.std_errors - np.sqrt(np.diag(cov_ref)))))
        )

    ok = worst_beta <= 1e-8 and worst_se <= 1e-8
    _report(capsys, 8, label, ok)
    assert ok, (worst_beta, worst_se)


# --------------------------------------------------------------------------
# Criterion 9: byte-level determinism
# --------------------------------------------------------------------------


def test_criterion_9_determinism(tweedie_fit, study_json_by_blas_threads, capsys):
    label = "seeded outputs byte-identical across reruns and thread counts"
    problems = []

    scenario = make_scenario("ptw-p2-di2", sample_sizes=(60, 120), replicates=50)
    single = study_result_json(run_study(scenario, seed=4))
    if study_result_json(run_study(scenario, seed=4)) != single:
        problems.append("study JSON differs between identical runs")
    for threads, text in study_json_by_blas_threads.items():
        if text != single:
            problems.append(
                f"study JSON differs in a fresh interpreter at OPENBLAS_NUM_THREADS={threads}"
            )

    params = PtwParams(4.0, 0.5, 1.5)
    if counts_csv(ptw_sample(params, 200, RngStream(9))) != counts_csv(
        ptw_sample(params, 200, RngStream(9))
    ):
        problems.append("simulated sample CSV differs between identical runs")

    if tweedie_fit.error is None:
        fresh = fit_table(expand_count_column(dataset_table("dicentrics")), _dicentrics_config())
        if fit_result_json(fresh) != fit_result_json(tweedie_fit.payload):
            problems.append("fit JSON differs between identical runs")
    else:
        problems.append(f"fit unavailable: {tweedie_fit.error}")

    _report(capsys, 9, label, not problems)
    assert not problems, problems
