import numpy as np
import pytest

import ptwreg.chaser as chaser
from ptwreg.chaser import (
    FitConfig,
    FitResult,
    fit,
    initialize,
    step_control,
)
from ptwreg.errors import (
    BoundaryTrapError,
    InvalidParameterError,
    RankDeficiencyError,
    SingularMatrixError,
)
from ptwreg.estfun import (
    PtwModel,
    Theta,
    _s_lambda,
    estfun_state,
    pearson_score,
    quasi_score,
    sensitivity,
    variability,
)
from ptwreg.numcore import RngStream
from ptwreg.ptwdist import sample_ptw_mu
from ptwreg.refdists import gammacount_sample_lam
from ptwreg.simstudy import _simulate, make_scenario

from oracles import irls_poisson


def poisson_model(n=600, beta=(1.2, 0.5), seed=3):
    gen = RngStream(seed).generator()
    x1 = np.linspace(-1.0, 1.0, n)
    X = np.column_stack([np.ones(n), x1])
    mu = np.exp(X @ np.asarray(beta))
    return PtwModel(X=X, y=gen.poisson(mu))


# -------------------------------------------------------------------- config


def test_config_validation():
    with pytest.raises(InvalidParameterError):
        FitConfig(power_mode=-2.0)
    with pytest.raises(InvalidParameterError):
        FitConfig(phi_sign="positive")
    assert FitConfig(power_mode=2).power_mode == 2.0
    assert FitConfig(phi_fixed=0.0).free_dispersion() == ()
    assert FitConfig(phi_fixed=0.3).free_dispersion() == ("p",)
    assert FitConfig(phi_fixed=0.0, phi_sign="nonnegative").free_dispersion() == ()
    assert FitConfig(power_mode=2.0).free_dispersion() == ("phi",)
    assert FitConfig().free_dispersion() == ("phi", "p")


@pytest.mark.parametrize(
    "overrides, message",
    [
        # float("abc") raised a bare ValueError
        ({"power_mode": "abc"}, "power_mode must be 'free' or a number"),
        # float("2") passed text as p = 2
        ({"power_mode": "2"}, "power_mode must be 'free' or a number"),
        # a bool is an int, so True passed as p = 1
        ({"power_mode": True}, "power_mode must be 'free' or a number"),
        # np.isfinite raised a TypeError on text
        ({"phi_fixed": "abc"}, "phi_fixed must be a finite number"),
        # a bool is an int, so True passed as phi = 1
        ({"phi_fixed": True}, "phi_fixed must be a finite number"),
        # a free power died in step halving, and p = 2 reported phi < 0
        ({"phi_fixed": -0.05, "phi_sign": "nonnegative"}, "contradicts phi_sign 'nonnegative'"),
    ],
    ids=["power-mode-text", "power-mode-numeric-text", "power-mode-bool", "phi-fixed-text",
         "phi-fixed-bool", "phi-fixed-below-sign"],
)
def test_config_refuses_settings_that_break_a_fit(overrides, message):
    with pytest.raises(InvalidParameterError, match=message):
        FitConfig(**overrides)


# ------------------------------------------------------------ starting values


def test_initialize_moment_matches_dispersion():
    # DI = 2 at mu = 10 with p0 = 1.5 implies phi0 near 1/sqrt(10)
    gen = RngStream(1).generator()
    mu = np.full(5000, 10.0)
    y = sample_ptw_mu(mu, 10**-0.5, 1.5, gen)
    theta0 = initialize(PtwModel(X=np.ones((5000, 1)), y=y))
    assert theta0.p == 1.5
    assert 0.2 < theta0.phi < 0.45


def test_initialize_near_zero_for_poisson_data():
    gen = RngStream(1).generator()
    y = gen.poisson(np.full(5000, 10.0))
    theta0 = initialize(PtwModel(X=np.ones((5000, 1)), y=y))
    assert abs(theta0.phi) < 0.05


def test_initialize_weighted_matches_expanded():
    # frequency weights enter the least squares and the phi0 sums as the
    # repeated rows would
    model = poisson_model(n=40)
    weights = 1 + np.arange(40) % 5
    weighted = PtwModel(X=model.X, y=model.y, weights=weights)
    expanded = PtwModel(X=np.repeat(model.X, weights, axis=0), y=np.repeat(model.y, weights))
    for config in (FitConfig(), FitConfig(power_mode=2.0)):
        got = initialize(weighted, config).as_array()
        want = initialize(expanded, config).as_array()
        assert got == pytest.approx(want, rel=1e-12, abs=1e-14)


def test_initialize_respects_fixed_modes():
    model = poisson_model()
    assert initialize(model, FitConfig(power_mode=3.0)).p == 3.0
    pinned = initialize(model, FitConfig(phi_fixed=0.0))
    assert pinned.phi == 0.0
    nonneg = initialize(model, FitConfig(phi_sign="nonnegative"))
    assert nonneg.phi >= 0.0


# ---------------------------------------------------------------- step control


def test_step_control_feasible_step_unchanged():
    model = poisson_model(n=50)
    theta = Theta(np.array([1.2, 0.5]), 0.3, 1.5)
    mu = np.exp(model.linear_predictor(theta.beta))
    out = step_control(theta, np.array([0.1, -0.2]), mu)
    assert out.phi == pytest.approx(0.2, abs=1e-15)
    assert out.p == pytest.approx(1.7, abs=1e-15)
    assert np.array_equal(out.beta, theta.beta)


def test_step_control_halves_until_feasible():
    model = poisson_model(n=50)
    theta = Theta(np.array([1.2, 0.5]), 0.3, 1.5)
    # a raw step to phi = -9.7 would make every C negative
    mu = np.exp(model.linear_predictor(theta.beta))
    out = step_control(theta, np.array([10.0, 0.0]), mu)
    mu = np.exp(model.linear_predictor(out.beta))
    assert np.all(mu + out.phi * mu**out.p > 0)
    halved = (0.3 - out.phi) * 2 ** np.arange(31)
    assert np.any(np.abs(halved - 10.0) < 1e-12)


def test_step_control_power_floor():
    model = poisson_model(n=50)
    theta = Theta(np.array([1.2, 0.5]), 0.3, 1.5)
    mu = np.exp(model.linear_predictor(theta.beta))
    out = step_control(theta, np.array([0.0, 5.0]), mu)
    assert out.p == pytest.approx(1e-4)


def test_step_control_boundary_trap():
    model = poisson_model(n=50)
    theta = Theta(np.array([1.2, 0.5]), 0.0, 1.5)
    # nonnegativity pins phi at 0; any downhill step stays infeasible
    mu = np.exp(model.linear_predictor(theta.beta))
    with pytest.raises(BoundaryTrapError):
        step_control(theta, np.array([1.0, 0.0]), mu, phi_sign="nonnegative")


# ----------------------------------------------------------------- full fits


def test_fit_dicentrics_free_power(dicentrics_model):
    model, _ = dicentrics_model
    result = fit(model)
    assert result.converged
    assert result.iterations < 50
    assert result.covariance_layout == ("beta0", "beta1", "beta2", "phi", "p")
    beta = result.theta_hat.beta
    assert beta == pytest.approx([-3.126299, 5.513773, -2.480901], rel=1e-4)
    assert result.theta_hat.phi == pytest.approx(0.250726, abs=1e-4)
    assert result.theta_hat.p == pytest.approx(1.087340, abs=1e-4)
    assert result.std_errors == pytest.approx(
        [0.1064, 0.4079, 0.3418, 0.10093, 0.30003], rel=1e-3
    )
    # the returned point really solves both estimating equations
    state = estfun_state(model, result.theta_hat)
    score = np.concatenate([quasi_score(state), pearson_score(state)])
    assert np.max(np.abs(score)) < 1e-5


def test_fit_dicentrics_power_steps_stay_small(dicentrics_model):
    # The largest power step is 0.356 (the first, from p0 = 1.5); later ones
    # are below 0.04.  A change that lets it pass 0.4 fails here, before it
    # shows as a moved estimate.
    model, _ = dicentrics_model
    result = fit(model)
    powers = [initialize(model).p] + [current[-1] for current, _ in result.trace]
    steps = np.abs(np.diff(powers))
    assert steps.max() < 0.4


def test_fit_phi_zero_matches_poisson_glm(dicentrics_model):
    model, _ = dicentrics_model
    result = fit(model, FitConfig(phi_fixed=0.0))
    beta_ref, cov_ref = irls_poisson(model.X, model.y)
    assert result.covariance_layout == ("beta0", "beta1", "beta2")
    assert np.max(np.abs(result.theta_hat.beta - beta_ref)) < 1e-8
    assert np.allclose(result.covariance, cov_ref, rtol=1e-7)
    assert result.theta_hat.phi == 0.0


def test_fit_fixed_power_on_poisson_data():
    model = poisson_model()
    result = fit(model, FitConfig(power_mode=2.0))
    assert result.converged
    assert result.covariance_layout == ("beta0", "beta1", "phi")
    assert result.covariance.shape == (3, 3)
    se_phi = result.std_errors[2]
    assert abs(result.theta_hat.phi) < 4 * se_phi


def test_fixed_power_choice_barely_matters_when_equidispersed():
    # with phi-hat near zero the three classical variance shapes agree
    model = poisson_model()
    fits = {p: fit(model, FitConfig(power_mode=p)) for p in (1.0, 2.0, 3.0)}
    betas = np.array([fits[p].theta_hat.beta for p in (1.0, 2.0, 3.0)])
    ses = np.array([fits[p].std_errors[:2] for p in (1.0, 2.0, 3.0)])
    assert np.max(np.abs(betas - betas[0]) / np.abs(betas[0])) < 0.005
    assert np.max(np.abs(ses - ses[0]) / ses[0]) < 0.03


def test_fit_underdispersed_counts_negative_phi():
    # strongly underdispersed renewal counts: the extended family reaches
    # them with phi < 0 while every fitted variance stays positive
    gen = RngStream(2).generator()
    n = 800
    x1 = np.linspace(0.0, 1.0, n)
    X = np.column_stack([np.ones(n), x1])
    lam = np.exp(0.8 + 0.7 * x1)
    model = PtwModel(X=X, y=gammacount_sample_lam(lam, 8.0, gen))
    result = fit(model, FitConfig(power_mode=1.0))
    assert result.converged
    assert result.theta_hat.phi < -0.5
    mu = np.exp(model.linear_predictor(result.theta_hat.beta))
    assert np.all(mu + result.theta_hat.phi * mu**result.theta_hat.p > 0)


def test_fit_budget_exhaustion_is_reported(dicentrics_model, monkeypatch):
    model, _ = dicentrics_model
    monkeypatch.setattr(chaser, "_MAX_ITER", 2)
    result = fit(model)
    assert not result.converged
    assert result.iterations == 2
    assert any("did not converge" in w for w in result.warnings)
    assert not any("flat-power" in w for w in result.warnings)
    assert np.all(np.isfinite(result.std_errors))
    assert len(result.trace) == 2


def test_fit_flat_power_warning_on_equidispersed_data():
    # Poisson data carry no information about the power: the free-power fit
    # stalls with a dispersion interval covering zero and says so
    result = fit(poisson_model())
    assert not result.converged
    assert any("flat-power" in w for w in result.warnings)
    assert any("fixed-power refits" in w for w in result.warnings)


def test_fit_reports_a_singular_sandwich(monkeypatch):
    # No input is known to reach this branch (a singular S_beta stops the
    # beta step first, and the loop solves S_lambda one step before the
    # estimate), so the sandwich's solve is made to fail.
    seen = []

    def singular(S, V):
        seen.append(V)
        raise SingularMatrixError("sensitivity matrix is numerically singular")

    monkeypatch.setattr(chaser, "godambe_covariance", singular)
    model = poisson_model()
    result = fit(model)
    assert result.warnings[-1] == (
        "covariance unavailable: sensitivity matrix is numerically singular"
    )
    assert result.covariance.shape == (4, 4) and np.isnan(result.covariance).all()
    assert result.std_errors.shape == (4,) and np.isnan(result.std_errors).all()
    # unpatched, these data get the flat-power warning; it needs the errors
    assert not any("flat-power" in w for w in result.warnings)
    # the sandwich reads the loop's last state: the one a fresh build gives
    assert np.array_equal(seen[0], variability(estfun_state(model, result.theta_hat)))


def test_fit_needs_enough_observations_for_free_power():
    X = np.ones((3, 1))
    model = PtwModel(X=X, y=np.array([1, 2, 3]))
    with pytest.raises(InvalidParameterError):
        fit(model)


def test_free_power_guard_counts_weighted_observations():
    # observations, not rows: the frequency form of the same guard
    with pytest.raises(InvalidParameterError, match="n > Q"):
        fit(PtwModel(X=np.ones((2, 1)), y=np.array([1, 2]), weights=np.array([2, 1])))
    assert PtwModel(X=np.ones((2, 1)), y=np.array([1, 2]), weights=np.array([2, 2])).n_obs == 4


@pytest.mark.filterwarnings("error")
def test_fit_with_underflowing_mean_fails_quietly():
    # paper-scale ptw-p3-di5, n = 250, stream (1, 3): the power step reaches
    # p near 15.8 and exp(X beta) underflows to 0; that is rejected like an
    # overflow, with no RuntimeWarning from log(0)
    design, y = _simulate(make_scenario("ptw-p3-di5", scale="paper"), 250,
                          RngStream(0, (1, 3)).generator())
    with pytest.raises(InvalidParameterError, match="underflow"):
        fit(PtwModel(design, y), FitConfig())


def _overflowing_replicate():
    # desk-scale ptw-p3-di5, n = 100, stream (0, 49): its power steps propose
    # points where mu**p overflows, and the fit ends on a non-finite S_lambda
    design, y = _simulate(make_scenario("ptw-p3-di5"), 100, RngStream(0, (0, 49)).generator())
    return PtwModel(design, y)


@pytest.mark.filterwarnings("error")
def test_public_functions_stay_quiet_on_their_own_at_overflow():
    # each function keeps numpy quiet when called outside a fit
    model = _overflowing_replicate()
    theta = Theta(np.array([np.log(10.0), 0.8, -1.0]), 0.04, 400.0)
    state = estfun_state(model, theta)
    assert not np.isfinite(state.C).all() and not np.isfinite(state.W_phi).all()
    assert not np.isfinite(pearson_score(state)).all()
    start = Theta(theta.beta, 0.04, 3.0)
    accepted = step_control(start, np.array([0.0, -400.0]), state.mu)
    assert 3.0 < accepted.p < 403.0  # the overflowing trial points were halved away
    with pytest.raises(InvalidParameterError, match="must be finite"):
        fit(model, FitConfig())


def test_fit_rank_deficient_design():
    n = 40
    x1 = np.linspace(0, 1, n)
    X = np.column_stack([np.ones(n), x1, 2.0 * x1])
    gen = RngStream(9).generator()
    model = PtwModel(X=X, y=gen.poisson(np.full(n, 5.0)))
    with pytest.raises(RankDeficiencyError):
        fit(model, FitConfig(phi_fixed=0.0))


def test_fit_result_is_frozen(dicentrics_model):
    model, _ = dicentrics_model
    result = fit(model, FitConfig(phi_fixed=0.0))
    assert isinstance(result, FitResult)
    with pytest.raises(AttributeError):
        result.converged = True


# ---------------------------------------------------------------- lean kernel

# Fits of one seeded study replicate per scenario, recorded before the chaser
# stopped building the full sensitivity matrix every iteration:
# (scenario, n, iterations, theta_hat, std_errors).
_KERNEL_REFERENCE = (
    ("ptw-p1.5-di5", 100, 31,
     [2.3322135488045186, 0.8811864019302244, -1.0314645113708572,
      1.3080044633934933, 1.6997544009788392],
     [0.12287039704832982, 0.16512063561479795, 0.19365850413876978,
      0.6905636736665182, 0.1917943677656261]),
    ("ptw-p3-di2", 500, 37,
     [2.2687620112868085, 0.817767147445131, -0.8891521607973704,
      0.006370115751991481, 3.0815094607584106],
     [0.02810516644708783, 0.03892461893680553, 0.04398911702502356,
      0.007439866890701591, 0.44564980270303617]),
    ("gammacount-nu4", 100, 49,
     [1.9504724151898818, 1.0332939637696352, -0.7701764303241839,
      0.9856384129507648],
     [0.020284979243572487, 0.03284100131157609, 0.09507957264630877,
      0.06205689025348803]),
)


@pytest.mark.parametrize("name,n,iterations,theta_ref,se_ref", _KERNEL_REFERENCE)
def test_lean_kernel_matches_full_sensitivity(name, n, iterations, theta_ref, se_ref):
    design, y = _simulate(make_scenario(name), n, RngStream(7, (0,)).generator())
    model = PtwModel(design, y)
    result = fit(model, FitConfig())
    assert result.converged
    assert result.iterations == iterations
    assert result.theta_hat.as_array() == pytest.approx(theta_ref, rel=1e-8)
    assert result.std_errors == pytest.approx(se_ref, rel=1e-8)

    q = model.n_coef
    for theta in (initialize(model), result.theta_hat):
        state = estfun_state(model, theta)
        s_full = sensitivity(state)
        for lam_idx in ([0, 1], [0], [1]):
            idx = [q + i for i in lam_idx]
            expected = s_full[np.ix_(idx, idx)]
            got = _s_lambda(state)[np.ix_(lam_idx, lam_idx)]
            assert got.shape == (len(lam_idx), len(lam_idx))
            assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))
