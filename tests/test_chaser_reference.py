"""The chaser's array loops against the loops they replaced.

``reference_initialize`` and ``reference_fit`` are the chaser as it was when
each half-step built a ``Theta`` and an ``EstFunState``: they evaluate every
quantity through ``estfun_state``, ``_beta_step``, ``step_control``,
``_with_dispersion`` (defined here, as the program no longer calls it),
``quasi_score`` and ``pearson_score``.  ``fit`` and ``initialize`` must
reproduce them bit for bit, and raise the same error with the same message
wherever they raise; so must a study's way to fit, the lockstep block
(``_fit_block``) followed by ``fit`` resumed where the block handed over.
"""

import numpy as np
import pytest

from ptwreg import ModelSpecConfig, build_design, chaser, dataset_table
from ptwreg.chaser import (
    _ALPHA,
    _FAST_POWERS,
    _LAMBDA_INDEX,
    _MAX_ITER,
    _TOL,
    P_FLOOR,
    FitConfig,
    FitResult,
    _beta_step,
    _fit_block,
    _sandwich,
    fit,
    initialize,
    step_control,
)
from ptwreg.errors import PtwError, SingularMatrixError, VarianceNonpositiveError
from ptwreg.estfun import (
    EstFunState,
    PtwModel,
    Theta,
    _dispersion_weights,
    _s_lambda,
    _weigh,
    estfun_state,
    pearson_score,
    quasi_score,
)
from ptwreg.numcore import RngStream, quiet, solve_linear
from ptwreg.simstudy import _simulate, make_scenario


def _with_dispersion(state, theta):
    """The state at theta when only (phi, p) differ from ``state.theta``:
    mu, the residuals and log mu carry over, C and the W weights are redone.
    Runs in its quiet caller's error state."""
    C, w_phi, w_p = _dispersion_weights(state.mu, state.log_mu, theta.phi, theta.p)
    return EstFunState(
        mu=state.mu, C=C, resid=state.resid, resid2=state.resid2, W_phi=w_phi, W_p=w_p,
        log_mu=state.log_mu, X=state.X, weights=state.weights, theta=theta,
    )


@quiet
def reference_initialize(model, config=None):
    config = config or FitConfig()
    X, z = model.X, np.log(model.y + 0.5)
    if model.weights is not None:
        root_w = np.sqrt(model.weights)
        X, z = root_w[:, None] * X, root_w * z
    beta = np.linalg.lstsq(X, z, rcond=None)[0]
    theta = Theta(beta, 0.0, 1.0)
    for _ in range(100):
        state = estfun_state(model, theta)
        beta_new = _beta_step(state, quasi_score(state))
        done = np.max(np.abs(beta_new - theta.beta)) < 1e-10
        theta = Theta(beta_new, 0.0, 1.0)
        if done:
            break

    p0 = 1.5 if config.power_is_free else float(config.power_mode)
    if config.phi_fixed is not None:
        return Theta(theta.beta, float(config.phi_fixed), p0)
    mu = np.exp(model.linear_predictor(theta.beta))
    w = model.weights
    phi0 = float(np.sum(_weigh(w, (model.y - mu) ** 2 - mu)) / np.sum(_weigh(w, mu**p0)))
    phi_floor = -0.9 * float(np.min(mu ** (1.0 - p0)))
    phi0 = max(phi0, phi_floor)
    if config.phi_sign == "nonnegative":
        phi0 = max(phi0, 1e-8)
    return Theta(theta.beta, phi0, p0)


@quiet
def reference_fit(model, config=None):
    config = config or FitConfig()
    free = config.free_dispersion()
    lam = slice(_LAMBDA_INDEX[free[0]], _LAMBDA_INDEX[free[-1]] + 1) if free else None
    p_floor = P_FLOOR if "p" in free else None

    trace, warn = [], []
    converged = False
    score_norm = lambda_step_norm = np.inf
    iterations = 0

    state = estfun_state(model, reference_initialize(model, config))
    psi_beta = quasi_score(state)
    current = state.theta.as_array()
    for iterations in range(1, _MAX_ITER + 1):
        prev = current
        beta_new = _beta_step(state, psi_beta)
        state = estfun_state(model, Theta(beta_new, state.theta.phi, state.theta.p))
        if free:
            psi_l = pearson_score(state)[lam]
            delta = np.zeros(2)
            delta[lam] = _ALPHA * solve_linear(_s_lambda(state)[lam, lam], psi_l)
            theta = step_control(state.theta, delta, state.mu, config.phi_sign, p_floor)
            lambda_step_norm = max(abs(theta.phi - state.theta.phi),
                                   abs(theta.p - state.theta.p))
            state = _with_dispersion(state, theta)
        psi_beta = quasi_score(state)
        score = psi_beta
        if free:
            score = np.concatenate([psi_beta, pearson_score(state)[lam]])
        score_norm = float(np.abs(score).max())
        current = state.theta.as_array()
        param_change = float(np.abs(current - prev).max())
        trace.append((current, score_norm))
        if score_norm < _TOL and param_change < _TOL:
            converged = True
            break

    if not converged:
        warn.append(f"did not converge in {_MAX_ITER} iterations "
                    f"(score sup-norm {score_norm:.3e})")
    theta = state.theta
    layout = tuple(f"beta{j}" for j in range(model.n_coef)) + free
    try:
        covariance = _sandwich(state, free)
        std_errors = np.sqrt(np.diag(covariance))
    except SingularMatrixError as exc:
        warn.append(f"covariance unavailable: {exc}")
        k = len(layout)
        covariance = np.full((k, k), np.nan)
        std_errors = np.full(k, np.nan)
    if "p" in free and np.isfinite(std_errors).all():
        se_phi = std_errors[model.n_coef]
        stalled = (not converged) and lambda_step_norm < _TOL and score_norm > _TOL
        if abs(theta.phi) <= 1.96 * se_phi and stalled:
            warn.append(
                "flat-power: the dispersion interval contains 0 and the power "
                "updates stalled; the data cannot distinguish power values — "
                "consider fixed-power refits at p in {1, 2, 3}"
            )
    return FitResult(theta, covariance, std_errors, layout, iterations, trace, converged, warn)


def _outcome(func, *args):
    """The result of ``func(*args)``, or the PtwError it raised."""
    try:
        return func(*args)
    except PtwError as exc:
        return exc


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def _same_theta(got, want):
    assert _bits(got.beta) == _bits(want.beta)
    assert (got.phi, got.p) == (want.phi, want.p)
    assert (type(got.phi), type(got.p)) == (type(want.phi), type(want.p))


def _assert_same_outcome(got, want):
    """Two fit outcomes, each a FitResult or the PtwError raised, are equal."""
    if isinstance(want, Exception):
        assert (type(got), str(got)) == (type(want), str(want))
        return
    _same_theta(got.theta_hat, want.theta_hat)
    assert _bits(got.covariance) == _bits(want.covariance)
    assert _bits(got.std_errors) == _bits(want.std_errors)
    assert got.covariance_layout == want.covariance_layout
    assert (got.iterations, got.converged, got.warnings) == (
        want.iterations, want.converged, want.warnings)
    assert len(got.trace) == len(want.trace)
    for (current, norm), (current_ref, norm_ref) in zip(got.trace, want.trace):
        assert _bits(current) == _bits(current_ref) and norm == norm_ref


def assert_same_fit(model, config, *resumes):
    """``fit`` and ``initialize`` equal the reference loops, and so does
    ``fit`` resumed from each of ``resumes``; returns why the fit would be
    excluded from a study, or None when it is kept."""
    start = _outcome(initialize, model, config)
    start_ref = _outcome(reference_initialize, model, config)
    if isinstance(start_ref, Exception):
        assert (type(start), str(start)) == (type(start_ref), str(start_ref))
    else:
        _same_theta(start, start_ref)
    want = _outcome(reference_fit, model, config)
    _assert_same_outcome(_outcome(fit, model, config), want)
    for resume in resumes:
        _assert_same_outcome(_outcome(fit, model, config, resume), want)
    if isinstance(want, Exception):
        return type(want).__name__
    if not want.converged:
        return "nonconverged"
    return None if np.isfinite(want.std_errors).all() else "nonfinite_se"


def test_dispersion_update_matches_fresh_state():
    model = _replicate("ptw-p1.5-di5", 100, 0, 0, 0)
    theta = reference_initialize(model)
    moved = Theta(theta.beta, 0.7, 1.9)
    fresh = estfun_state(model, moved)
    reused = _with_dispersion(estfun_state(model, theta), moved)
    for name in ("mu", "C", "resid", "resid2", "W_phi", "W_p", "log_mu", "W_beta"):
        assert np.array_equal(getattr(reused, name), getattr(fresh, name)), name
    assert reused.theta is moved
    with pytest.raises(VarianceNonpositiveError):
        _with_dispersion(fresh, Theta(theta.beta, -5.0, 1.9))


# ptw-p3-di2 replicates (seed, replicate) by sample size, drawn from the
# substream (seed, (size index, replicate)) as ``run_study`` draws them, and
# the reason each is excluded from a study (None: kept).
_P3_REPLICATES = {
    100: {(0, 0): None, (0, 1): "VarianceNonpositiveError", (0, 6): "SingularMatrixError",
          (0, 33): "RankDeficiencyError", (0, 47): "nonconverged",
          (1, 4): "InvalidParameterError"},
    500: {(0, 0): None, (0, 4): "nonconverged", (0, 5): "VarianceNonpositiveError",
          (0, 26): "RankDeficiencyError", (0, 35): "InvalidParameterError",
          (2, 5): "SingularMatrixError"},
    1000: {(0, 3): None, (0, 0): "VarianceNonpositiveError", (0, 2): "nonconverged",
           (0, 28): "SingularMatrixError", (1, 44): "RankDeficiencyError",
           (2, 46): "InvalidParameterError"},
}


def _replicate(name, n, seed, index, r):
    design, y = _simulate(make_scenario(name), n, RngStream(seed, (index, r)).generator())
    return PtwModel(design, y)


def _block(name, n, index, keys):
    """The replicates (seed, r) in ``keys`` at the ``index``-th sample size
    ``n``, sharing one design array as the lockstep block requires."""
    models = [_replicate(name, n, seed, index, r) for seed, r in keys]
    return [PtwModel(models[0].X, model.y) for model in models]


@pytest.mark.parametrize("n", sorted(_P3_REPLICATES))
def test_ptw_p3_replicates_match_the_reference(n):
    index = sorted(_P3_REPLICATES).index(n)
    models = _block("ptw-p3-di2", n, index, _P3_REPLICATES[n])
    resumes = _fit_block(models)
    reasons = {
        key: assert_same_fit(model, FitConfig(), resume)
        for key, model, resume in zip(_P3_REPLICATES[n], models, resumes)
    }
    assert reasons == _P3_REPLICATES[n]
    # every way a study replicate is excluded, at each size
    assert set(reasons.values()) == {
        None, "VarianceNonpositiveError", "SingularMatrixError", "RankDeficiencyError",
        "InvalidParameterError", "nonconverged"}


_STUDY_NAMES = ["ptw-p1.5-di5", "ptw-p2-di5", "compoisson-nu4", "gammacount-nu4"]


# Off the default config: a fixed power solves 1 x 1 lambda systems, and a
# nonnegative dispersion meets _halve's sign refusal (ptw-p2-di5) and a
# singular first lambda step (the underdispersed generators).
@pytest.mark.parametrize(
    "name, config",
    [pytest.param(name, FitConfig(), id=name) for name in _STUDY_NAMES]
    + [pytest.param(name, FitConfig(power_mode=2.0), id=f"{name}-power-2")
       for name in _STUDY_NAMES]
    + [pytest.param(name, FitConfig(phi_sign="nonnegative"), id=f"{name}-phi-nonnegative")
       for name in _STUDY_NAMES],
)
def test_study_cell_matches_the_reference(name, config):
    # the n = 100 cell of a study at seed 0: its 50 replicates, through the
    # lockstep block at the one configuration it runs
    models = _block(name, 100, 0, [(0, r) for r in range(50)])
    if config != FitConfig():
        for model in models:
            assert_same_fit(model, config)
        return
    for model, resume in zip(models, _fit_block(models)):
        assert_same_fit(model, config, resume)


@pytest.mark.parametrize(
    "config",
    [FitConfig(), FitConfig(power_mode=1.0), FitConfig(power_mode=2.0),
     FitConfig(power_mode=3.0), FitConfig(phi_fixed=0.0), FitConfig(phi_sign="nonnegative")],
    ids=["free", "power-1", "power-2", "power-3", "phi-0", "phi-nonnegative"],
)
def test_weighted_dicentrics_fits_match_the_reference(config):
    model, _ = build_design(dataset_table("dicentrics"),
                            ModelSpecConfig(response="y", terms=("dose", "dose^2")))
    assert model.weights is not None
    assert assert_same_fit(model, config) is None


def test_offset_fit_matches_the_reference():
    gen = RngStream(11).generator()
    n = 150
    X = np.column_stack([np.ones(n), np.linspace(-1.0, 1.0, n)])
    offset = np.log(gen.uniform(0.5, 2.0, n))
    y = gen.negative_binomial(4, 4 / (4 + np.exp(1.5 + 0.4 * X[:, 1] + offset)))
    model = PtwModel(X=X, y=y, offset=offset)
    for config in (FitConfig(), FitConfig(power_mode=2.0), FitConfig(phi_fixed=0.3)):
        assert assert_same_fit(model, config) is None


# What fit meets in its first iteration after a hand-over, read off the
# resumed fit: the error it raises, a halving or the power floor in
# ``_halve``, convergence, the end of the budget, or a power on which numpy's
# ``array ** scalar`` takes another routine.
def _first_resumed_iteration(monkeypatch, model, resume):
    theta, trace = resume
    events = set()
    halve = chaser._halve

    def spy(phi, p, delta, mu, phi_sign, p_floor):
        trial = delta.copy()
        out = halve(phi, p, delta, mu, phi_sign, p_floor)
        if not np.array_equal(trial, delta):
            events.add("halving")
        if p_floor is not None and p - trial[1] < p_floor:
            events.add("p floor")
        return out

    with monkeypatch.context() as patch:
        patch.setattr(chaser, "_halve", spy)
        patch.setattr(chaser, "_MAX_ITER", len(trace) + 1)  # that iteration alone
        result = _outcome(fit, model, None, resume)
    if isinstance(result, Exception):
        events.add(type(result).__name__)
    elif result.converged:
        events.add("converged")
    elif len(trace) + 1 == _MAX_ITER:
        events.add("budget")
    if not isinstance(result, Exception) and result.trace[-1][0][-1] in chaser._FAST_POWERS:
        events.add("fast power")
    return events


# One study replicate per reason the block hands a fit over: (reason,
# scenario, n, size index, seed, replicate, iterations the block commits).
_HAND_OVERS = [
    ("halving", "ptw-p1.5-di2", 100, 0, 0, 47, 1),
    ("p floor", "ptw-p1.1-di2", 100, 0, 0, 39, 1),
    ("RankDeficiencyError", "ptw-p3-di10", 500, 2, 3, 26, 3),
    ("SingularMatrixError", "compoisson-nu2", 100, 0, 1, 7, 20),
    ("VarianceNonpositiveError", "ptw-p2-di2", 100, 0, 0, 5, 5),
    ("InvalidParameterError", "ptw-p3-di20", 100, 0, 1, 5, 4),
    ("converged", "ptw-p1.5-di5", 100, 0, 0, 0, 28),
    ("budget", "compoisson-nu2", 100, 0, 1, 4, _MAX_ITER - 1),
    # the power of the next iteration is made one of _FAST_POWERS
    ("fast power", "ptw-p1.5-di5", 100, 0, 0, 0, 2),
]


@pytest.mark.parametrize("reason, name, n, index, seed, r, committed", _HAND_OVERS,
                         ids=[case[0] for case in _HAND_OVERS])
def test_block_hands_over_each_reason(monkeypatch, reason, name, n, index, seed, r,
                                      committed):
    # the beta solve refuses as RankDeficiencyError, the lambda solve as
    # SingularMatrixError; C <= 0 is VarianceNonpositiveError
    model = _replicate(name, n, seed, index, r)
    if reason == "fast power":
        (free_run,) = _fit_block([model])
        monkeypatch.setattr(chaser, "_FAST_POWERS", (free_run[1][committed][0][-1],))
    (resume,) = _fit_block([model])
    assert len(resume[1]) == committed
    assert reason in _first_resumed_iteration(monkeypatch, model, resume)
    assert_same_fit(model, FitConfig(), resume)


def test_block_leaves_a_refused_start_to_fit():
    X = np.column_stack([np.ones(60), np.linspace(-1.0, 1.0, 60)])
    refused = PtwModel(X, np.r_[np.zeros(59), 1.0])  # initialize's mean underflows
    kept = PtwModel(X, np.zeros(60))  # a start whose C is below 0
    assert isinstance(_outcome(initialize, refused), PtwError)
    resumes = _fit_block([refused, kept])
    assert resumes[0] is None and resumes[1][1] == []
    for model, resume in zip((refused, kept), resumes):
        assert_same_fit(model, FitConfig(), resume)


def test_block_chunks_give_the_same_hand_overs(monkeypatch):
    models = _block("ptw-p1.5-di5", 100, 0, [(0, r) for r in range(7)])
    whole = _fit_block(models)
    monkeypatch.setattr(chaser, "_BLOCK_CELLS", 300)  # chunks of 3, 3 and 1
    for (theta, trace), (theta_ref, trace_ref) in zip(_fit_block(models), whole):
        _same_theta(theta, theta_ref)
        assert len(trace) == len(trace_ref) > 0
        for (current, norm), (current_ref, norm_ref) in zip(trace, trace_ref):
            assert _bits(current) == _bits(current_ref) and norm == norm_ref


def test_block_refuses_models_it_cannot_run_together():
    a, b = _replicate("ptw-p1.5-di5", 100, 0, 0, 0), _replicate("ptw-p1.5-di5", 100, 0, 0, 1)
    weighted = PtwModel(a.X, a.y, weights=np.ones(100))
    for models in ([a, b], [a, weighted]):  # two design arrays; weights
        with pytest.raises(PtwError, match="one shared design"):
            _fit_block(models)
    assert _fit_block([]) == []


def test_fit_resumes_from_every_iterate_of_the_dicentrics_fit():
    # the weighted free-power fit: each iterate before the last, with the
    # trace up to it, resumes to the uninterrupted fit
    model, _ = build_design(dataset_table("dicentrics"),
                            ModelSpecConfig(response="y", terms=("dose", "dose^2")))
    full = fit(model)
    q = model.n_coef
    iterates = [initialize(model)] + [Theta(current[:q], current[q], current[q + 1])
                                      for current, _ in full.trace[:-1]]
    assert len(iterates) == full.iterations > 1
    for k, theta in enumerate(iterates):
        _assert_same_outcome(fit(model, None, (theta, full.trace[:k])), full)
    with pytest.raises(PtwError, match="cannot resume"):
        fit(model, None, (iterates[-1], full.trace[:1] * _MAX_ITER))


def test_numpy_special_cases_exactly_the_fast_powers():
    # numpy 2.4.6 computes x ** e for a scalar e in {-1, 0, 0.5, 1, 2} by
    # 1/x, 1, sqrt, x and x*x; at any other e it takes the general power,
    # whose bits the block's x ** column reproduces row by row
    x = RngStream(5).generator().uniform(0.01, 50.0, 20_000)
    rows = np.stack([x, x[::-1]])
    fast = {-1.0: 1.0 / x, 0.0: np.ones_like(x), 0.5: np.sqrt(x), 1.0: x, 2.0: x * x}
    assert set(fast) == set(_FAST_POWERS)
    for e, value in fast.items():
        assert _bits(x**e) == _bits(value)
    grid = np.arange(-4.0, 4.25, 0.25).tolist() + [1.0 / 3.0, 1.5 + 2**-40, 2.0 - 2**-40]
    for e in set(grid) - set(_FAST_POWERS):
        assert _bits(x**e) == _bits((rows ** np.full((2, 1), e))[0]), e
