import numpy as np
import pytest

from ptwreg.errors import InvalidParameterError, SingularMatrixError, VarianceNonpositiveError
from ptwreg.estfun import (
    PtwModel,
    Theta,
    _s_beta,
    _s_lambda,
    estfun_state,
    godambe_covariance,
    pearson_score,
    quasi_score,
    sensitivity,
    variability,
)
from ptwreg.numcore import RngStream
from ptwreg.ptwdist import sample_ptw_mu


def single_obs_model(mu, y):
    return PtwModel(X=np.array([[1.0]]), y=np.array([y]))


def sim_model(n=60, beta=(np.log(5.0), 0.6), phi=0.4, p=1.6, seed=0):
    """A small well-behaved design plus data simulated at truth."""
    x1 = np.linspace(-1.0, 1.0, n)
    X = np.column_stack([np.ones(n), x1])
    mu = np.exp(X @ np.asarray(beta))
    y = sample_ptw_mu(mu, phi, p, RngStream(seed).generator())
    return PtwModel(X=X, y=y), Theta(np.asarray(beta, float), phi, p), mu


# ----------------------------------------------------------- hand computations


def test_quasi_score_hand_value():
    # x=(1), mu=10, phi=0.1, p=2, y=12: C=20, score = 10 * (1/20) * 2 = 1
    model = single_obs_model(10.0, 12)
    theta = Theta(np.array([np.log(10.0)]), 0.1, 2.0)
    assert quasi_score(estfun_state(model, theta)) == pytest.approx([1.0], abs=1e-12)


def test_pearson_score_hand_value():
    # mu=10, phi=0.1, p=2, y=16: bracket = 36-20 = 16, W_phi = 100/400
    model = single_obs_model(10.0, 16)
    theta = Theta(np.array([np.log(10.0)]), 0.1, 2.0)
    psi = pearson_score(estfun_state(model, theta))
    assert psi[0] == pytest.approx(4.0, abs=1e-12)
    # p-component carries the extra factor phi * log(mu)
    assert psi[1] == pytest.approx(4.0 * 0.1 * np.log(10.0), abs=1e-12)


def test_scores_vanish_on_contrived_data():
    # mu=4, phi=1.25, p=1: C=9; y in {1,7} has (y-mu)^2 = C and residuals
    # summing to zero, so both estimating functions vanish exactly
    model = PtwModel(X=np.array([[1.0], [1.0]]), y=np.array([1, 7]))
    theta = Theta(np.array([np.log(4.0)]), 1.25, 1.0)
    assert np.allclose(quasi_score(estfun_state(model, theta)), 0.0, atol=1e-12)
    assert np.allclose(pearson_score(estfun_state(model, theta)), 0.0, atol=1e-12)


def test_variance_constraint_enforced():
    model = single_obs_model(10.0, 3)
    with pytest.raises(VarianceNonpositiveError):
        quasi_score(estfun_state(model, Theta(np.array([np.log(10.0)]), -1.5, 1.0)))


# ------------------------------------------------- derivative identities (W's)


W_GRID = [
    (1.0, 0.3, 1.5),  # log mu = 0: the W_p contribution vanishes
    (5.0, 0.2, 1.0),
    (5.0, 0.2, 2.0),
    (10.0, 0.8, 1.3),
    (2.0, -0.1, 1.2),  # underdispersed but C > 0
]


@pytest.mark.parametrize("mu,phi,p", W_GRID)
def test_weights_match_finite_differences(mu, phi, p):
    # W_phi = -d(1/C)/dphi, W_p = -d(1/C)/dp, W_beta = -d(1/C)/dbeta
    model = single_obs_model(mu, 1)
    beta0 = np.log(mu)
    state = estfun_state(model, Theta(np.array([beta0]), phi, p))

    def inv_c(b0, ph, pw):
        m = np.exp(b0)
        return 1.0 / (m + ph * m**pw)

    for target, arg in (("phi", 1), ("p", 2), ("beta", 0)):
        point = [beta0, phi, p]
        h = 1e-5 * max(1.0, abs(point[arg]))
        hi, lo = point.copy(), point.copy()
        hi[arg] += h
        lo[arg] -= h
        fd = -(inv_c(*hi) - inv_c(*lo)) / (2 * h)
        got = {"phi": state.W_phi[0], "p": state.W_p[0], "beta": state.W_beta[0, 0]}[target]
        assert got == pytest.approx(fd, rel=1e-5, abs=1e-12), (target, mu, phi, p)


def test_state_fields_consistent():
    model, theta, mu = sim_model()
    state = estfun_state(model, theta)
    assert np.allclose(state.mu, mu, rtol=1e-12)
    assert np.allclose(state.C, mu + theta.phi * mu**theta.p, rtol=1e-12)
    assert np.allclose(state.resid, model.y - mu)
    assert np.allclose(state.resid2, (model.y - mu) ** 2)


@pytest.mark.filterwarnings("error")
def test_mu_underflow_is_rejected_quietly():
    # exp(-800) is 0: log mu would be -inf, and C = 0 at any phi and p
    model = PtwModel(X=np.array([[1.0], [2.0]]), y=np.array([0, 1]))
    with pytest.raises(InvalidParameterError, match="underflow"):
        estfun_state(model, Theta(np.array([-400.0]), 0.3, 1.5))
    with pytest.raises(InvalidParameterError, match="overflow"):
        estfun_state(model, Theta(np.array([400.0]), 0.3, 1.5))


# ------------------------------------------------------------ frequency weights


def weighted_model(seed=0):
    """20 distinct rows with frequencies 1..4, and the same data expanded."""
    model, theta, _ = sim_model(n=20, seed=seed)
    weights = 1 + np.arange(20) % 4
    weighted = PtwModel(X=model.X, y=model.y, offset=np.full(20, 0.1), weights=weights)
    expanded = PtwModel(
        X=np.repeat(model.X, weights, axis=0),
        y=np.repeat(model.y, weights),
        offset=np.full(int(weights.sum()), 0.1),
    )
    return weighted, expanded, theta


def test_weights_validated_and_counted():
    weighted, expanded, _ = weighted_model()
    assert weighted.n_obs == expanded.n_obs == 50
    X, y = weighted.X, weighted.y
    for bad in (np.zeros(20), np.full(20, 1.5), -np.ones(20), np.ones(19), np.full(20, np.nan)):
        with pytest.raises(InvalidParameterError, match="weights"):
            PtwModel(X=X, y=y, weights=bad)


def test_weighted_sums_equal_expanded_sums():
    weighted, expanded, theta = weighted_model()
    for func in (quasi_score, pearson_score, sensitivity, variability):
        got, want = func(estfun_state(weighted, theta)), func(estfun_state(expanded, theta))
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12 * np.max(np.abs(want))), func
    for block in (_s_beta, _s_lambda):
        got = block(estfun_state(weighted, theta))
        want = block(estfun_state(expanded, theta))
        assert np.allclose(got, want, rtol=1e-12, atol=0.0), block
    # unit weights multiply by 1.0: exactly the unweighted sums
    unit = PtwModel(X=weighted.X, y=weighted.y, weights=np.ones(20))
    plain = PtwModel(X=weighted.X, y=weighted.y)
    for func in (quasi_score, pearson_score, sensitivity, variability):
        assert np.array_equal(
            func(estfun_state(unit, theta)), func(estfun_state(plain, theta))
        ), func


@pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
def test_lean_blocks_match_averaged_score_differences(weighted):
    # _s_beta and _s_lambda against central differences of the quasi- and
    # Pearson scores averaged over 200 datasets held fixed while theta moves,
    # as criterion 7 checks the full sensitivity matrix
    model, theta, mu = sim_model(n=80)
    weights = 1 + np.arange(80) % 3 if weighted else None
    gen = RngStream(78).generator()
    models = [
        PtwModel(X=model.X, y=sample_ptw_mu(mu, theta.phi, theta.p, gen), weights=weights)
        for _ in range(200)
    ]
    state = estfun_state(models[0], theta)
    q = model.n_coef

    def averaged(score, beta, phi, p):
        th = Theta(beta, phi, p)
        return np.mean([score(estfun_state(m, th)) for m in models], axis=0)

    fd_beta = np.zeros((q, q))
    for k in range(q):
        h = 1e-4 * max(1.0, abs(theta.beta[k]))
        step = h * np.eye(q)[k]
        hi = averaged(quasi_score, theta.beta + step, theta.phi, theta.p)
        lo = averaged(quasi_score, theta.beta - step, theta.phi, theta.p)
        fd_beta[:, k] = (hi - lo) / (2 * h)
    fd_lambda = np.zeros((2, 2))
    for k in range(2):
        h = 1e-4 * max(1.0, abs((theta.phi, theta.p)[k]))
        dphi, dp = h * np.eye(2)[k]
        hi = averaged(pearson_score, theta.beta, theta.phi + dphi, theta.p + dp)
        lo = averaged(pearson_score, theta.beta, theta.phi - dphi, theta.p - dp)
        fd_lambda[:, k] = (hi - lo) / (2 * h)

    for analytic, fd in ((_s_beta(state), fd_beta), (_s_lambda(state), fd_lambda)):
        assert np.all(np.abs(fd - analytic) <= 0.05 * np.abs(analytic)), (analytic, fd)


# ----------------------------------------------------------------- sensitivity


def test_sensitivity_insensitivity_block():
    model, theta, _ = sim_model()
    S = sensitivity(estfun_state(model, theta))
    q = model.n_coef
    assert np.array_equal(S[:q, q:], np.zeros((q, 2)))


def test_sensitivity_poisson_reduction():
    # phi=0: S_beta is the negative Poisson information -X' diag(mu) X
    model, theta, mu = sim_model()
    theta0 = Theta(theta.beta, 0.0, 2.0)
    S = sensitivity(estfun_state(model, theta0))
    q = model.n_coef
    info = model.X.T @ (model.X * mu[:, None])
    assert np.allclose(S[:q, :q], -info, rtol=1e-10)


def _averaged_score(model_template, thetas, datasets):
    """Mean of the stacked estimating function over fixed datasets, one value
    per theta (common random numbers across evaluation points)."""
    out = []
    for theta in thetas:
        acc = np.zeros(model_template.n_coef + 2)
        for y in datasets:
            model = PtwModel(X=model_template.X, y=y)
            state = estfun_state(model, theta)
            acc += np.concatenate([quasi_score(state), pearson_score(state)])
        out.append(acc / len(datasets))
    return out


def test_sensitivity_matches_simulated_finite_differences():
    # every entry of S equals the derivative of the expected estimating
    # function; estimate the expectation over 200 datasets held fixed while
    # theta moves
    model, theta, mu = sim_model(n=80)
    gen = RngStream(77).generator()
    datasets = [
        np.asarray(sample_ptw_mu(mu, theta.phi, theta.p, gen)) for _ in range(200)
    ]
    S = sensitivity(estfun_state(model, theta))
    dim = model.n_coef + 2
    point = np.concatenate([theta.beta, [theta.phi, theta.p]])

    fd = np.zeros((dim, dim))
    for k in range(dim):
        h = 1e-4 * max(1.0, abs(point[k]))
        hi, lo = point.copy(), point.copy()
        hi[k] += h
        lo[k] -= h
        thetas = [
            Theta(v[: model.n_coef], float(v[model.n_coef]), float(v[model.n_coef + 1]))
            for v in (hi, lo)
        ]
        psi_hi, psi_lo = _averaged_score(model, thetas, datasets)
        fd[:, k] = (psi_hi - psi_lo) / (2 * h)

    scale = np.max(np.abs(S))
    for j in range(dim):
        for k in range(dim):
            if abs(S[j, k]) > 1e-8 * scale:
                assert fd[j, k] == pytest.approx(S[j, k], rel=0.05), (j, k)
            else:
                # structural zeros (the insensitivity block): the finite
                # difference is pure noise around zero
                assert abs(fd[j, k]) < 0.05 * scale, (j, k)


# ----------------------------------------------------------------- variability


def test_variability_beta_block_and_symmetry():
    model, theta, _ = sim_model()
    state = estfun_state(model, theta)
    S = sensitivity(state)
    V = variability(state)
    q = model.n_coef
    assert np.array_equal(V[:q, :q], -S[:q, :q])
    assert np.max(np.abs(V - V.T)) < 1e-12


def test_variability_lambda_block_matches_replicate_variance():
    # the empirical V-lambda estimates Var(pearson_score) under the truth
    model, theta, mu = sim_model(n=400, seed=5)
    gen = RngStream(88).generator()
    reps = np.array(
        [
            pearson_score(estfun_state(
                PtwModel(X=model.X, y=sample_ptw_mu(mu, theta.phi, theta.p, gen)), theta
            ))
            for _ in range(500)
        ]
    )
    emp = np.cov(reps.T)
    q = model.n_coef
    # average the empirical variability over a handful of datasets to tame
    # its own sampling noise
    gen2 = RngStream(99).generator()
    v_acc = np.zeros((2, 2))
    n_avg = 20
    for _ in range(n_avg):
        m = PtwModel(X=model.X, y=sample_ptw_mu(mu, theta.phi, theta.p, gen2))
        v_acc += variability(estfun_state(m, theta))[q:, q:]
    v_lambda = v_acc / n_avg
    assert np.all(np.abs(v_lambda - emp) <= 0.15 * np.abs(emp) + 1e-12)


def test_estimating_functions_unbiased_at_truth():
    model, theta, mu = sim_model(n=100)
    gen = RngStream(123).generator()
    reps = []
    for _ in range(600):
        m = PtwModel(X=model.X, y=sample_ptw_mu(mu, theta.phi, theta.p, gen))
        state = estfun_state(m, theta)
        reps.append(np.concatenate([quasi_score(state), pearson_score(state)]))
    reps = np.asarray(reps)
    mean = reps.mean(axis=0)
    se = reps.std(axis=0, ddof=1) / np.sqrt(len(reps))
    assert np.all(np.abs(mean) < 4 * se), (mean, se)


# -------------------------------------------------------------------- godambe


def test_godambe_trivial_cases():
    S = -np.eye(3)
    assert np.allclose(godambe_covariance(S, np.eye(3)), np.eye(3))
    # V = -S with S symmetric negative definite: J^{-1} = -S^{-1}
    A = np.array([[2.0, 0.3], [0.3, 1.0]])
    assert np.allclose(godambe_covariance(-A, A), np.linalg.inv(A), rtol=1e-12)


def test_godambe_symmetric_psd():
    model, theta, _ = sim_model()
    state = estfun_state(model, theta)
    J = godambe_covariance(sensitivity(state), variability(state))
    assert np.max(np.abs(J - J.T)) < 1e-12
    eigs = np.linalg.eigvalsh(J)
    assert eigs.min() >= -1e-10 * np.trace(J)
    assert np.all(np.diag(J) >= 0)


def test_godambe_singular_sensitivity():
    with pytest.raises(SingularMatrixError):
        godambe_covariance(np.zeros((2, 2)), np.eye(2))
