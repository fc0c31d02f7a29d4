"""Estimating functions, sensitivity/variability matrices, and the sandwich.

The regression parameters beta enter through the quasi-score
psi_beta_j = sum_i mu_i x_ij C_i^{-1} (y_i - mu_i) and the dispersion
parameters lambda = (phi, p) through the Pearson estimating function
psi_lambda_j = sum_i W_{i lambda_j} [(y_i - mu_i)^2 - C_i], where the
weights W are derivatives of -C_i^{-1}.  Together with the sensitivity S
(expected derivative) and variability V (variance, empirical for the
lambda blocks), the asymptotic covariance is the inverse Godambe
information S^{-1} V S^{-T}.

A model may carry frequency weights w_i: row i then stands for w_i
identical observations, and every sum over i above (the scores, S, and
the empirical V_lambda = sum_i w_i psi_i psi_i^T with its cross block)
becomes sum_i w_i (...).  This equals the same sum over the expanded
rows, up to summation order.  Unweighted models skip the products.

The public functions take one ``EstFunState``: the per-observation
quantities at one theta, built by ``estfun_state``, with the design,
weights and theta it was built from.  Each formula lives in one private
array function, which those functions call on a state's fields:
``_mean_terms`` (mu, log mu and the residuals, refusing a mean that under-
or overflows), ``_variance`` and ``_lambda_weights`` (C, W_phi and W_p,
joined with the C > 0 refusal in ``_dispersion_weights``), ``_psi_beta``
and ``_psi_lambda`` (the two scores, from the per-observation terms
``_quasi_terms`` and ``_pearson_terms``), and ``_sens_beta`` and
``_sens_lambda`` (the S_beta and S_lambda blocks; ``_lambda_c2`` is the
W C^2 factor S_lambda shares with its cross block).  ``variability`` and
``sensitivity`` take their per-observation terms from the same functions.
The chaser's loops call the same array functions on arrays they hold
themselves, so an iteration builds no state.

Parameter ordering everywhere: (beta_1..beta_Q, phi, p).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    InvalidParameterError,
    SingularMatrixError,
    VarianceNonpositiveError,
)
from .numcore import _lu_solver, quiet

@dataclass(frozen=True)
class PtwModel:
    """Count-regression data: design X (n x Q), counts y, optional offset,
    and optional frequency weights.

    The link is log; the offset is additive on the linear predictor scale.
    ``weights`` are positive integers: row i stands for ``weights[i]``
    identical observations.
    """

    X: np.ndarray
    y: np.ndarray
    offset: np.ndarray | None = None
    weights: np.ndarray | None = None

    def __post_init__(self):
        X = np.atleast_2d(np.asarray(self.X, dtype=float))
        y = np.asarray(self.y, dtype=float)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)
        n, q = X.shape
        if y.shape != (n,):
            raise InvalidParameterError(f"y must have length {n}, got shape {y.shape}")
        if n < q:
            raise InvalidParameterError(f"need n >= Q, got n = {n}, Q = {q}")
        if not np.all(np.isfinite(X)):
            raise InvalidParameterError("design matrix must be finite")
        if not np.all(np.isfinite(y)) or np.any(y < 0) or np.any(y != np.round(y)):
            raise InvalidParameterError("y must be finite non-negative integers")
        if self.offset is not None:
            off = np.asarray(self.offset, dtype=float)
            if off.shape != (n,) or not np.all(np.isfinite(off)):
                raise InvalidParameterError(f"offset must be a finite vector of length {n}")
            object.__setattr__(self, "offset", off)
        if self.weights is not None:
            w = np.asarray(self.weights, dtype=float)
            if w.shape != (n,) or not np.all(np.isfinite(w)) or np.any(w < 1) \
                    or np.any(w != np.round(w)):
                raise InvalidParameterError(
                    f"weights must be a vector of {n} positive integers"
                )
            object.__setattr__(self, "weights", w)

    @property
    def n_obs(self) -> int:
        """Observations: rows, or the sum of the frequency weights."""
        if self.weights is None:
            return self.X.shape[0]
        return int(self.weights.sum())

    @property
    def n_coef(self) -> int:
        return self.X.shape[1]

    def linear_predictor(self, beta: np.ndarray) -> np.ndarray:
        eta = self.X @ beta
        if self.offset is not None:
            eta = eta + self.offset
        return eta


@dataclass(frozen=True)
class Theta:
    """Full parameter vector theta = (beta, lambda = (phi, p))."""

    beta: np.ndarray
    phi: float
    p: float

    def __post_init__(self):
        beta = np.atleast_1d(np.asarray(self.beta, dtype=float))
        object.__setattr__(self, "beta", beta)
        _require_finite_beta(beta)
        _require_finite_lambda(self.phi, self.p)

    def as_array(self) -> np.ndarray:
        return _theta_array(self.beta, self.phi, self.p)


def _require_finite_beta(beta: np.ndarray) -> None:
    # On Python floats: cheaper than numpy's calls for Q coefficients.
    if not all(map(math.isfinite, beta.ravel().tolist())):
        raise InvalidParameterError("beta must be finite")


def _require_finite_lambda(phi: float, p: float) -> None:
    if not (math.isfinite(phi) and math.isfinite(p)):
        raise InvalidParameterError("phi and p must be finite")


def _theta_array(beta: np.ndarray, phi: float, p: float) -> np.ndarray:
    """(beta_1..beta_Q, phi, p) as one vector."""
    return np.concatenate([beta, [phi, p]])


@dataclass(frozen=True)
class EstFunState:
    """Per-observation quantities shared by scores, S, and V at one theta."""

    mu: np.ndarray
    C: np.ndarray
    resid: np.ndarray
    resid2: np.ndarray
    W_phi: np.ndarray
    W_p: np.ndarray
    log_mu: np.ndarray
    X: np.ndarray
    weights: np.ndarray | None
    theta: Theta

    @cached_property
    @quiet
    def W_beta(self) -> np.ndarray:
        """n x Q, built on first use: only ``sensitivity``'s cross block reads it."""
        phi, p = self.theta.phi, self.theta.p
        w = self.C**-2.0 * (1.0 + phi * p * self.mu ** (p - 1.0)) * self.mu
        return w[:, None] * self.X


@quiet
def estfun_state(model: PtwModel, theta: Theta) -> EstFunState:
    """Evaluate mu, C, residuals, and the W weights at theta.

    W_phi = C^{-2} mu^p, W_p = C^{-2} phi mu^p log mu, and
    W_beta_k = C^{-2} (1 + phi p mu^{p-1}) mu x_k — the derivatives of
    -C^{-1} with respect to phi, p, and beta_k.  Overflow stays quiet here
    and in the other functions marked ``quiet`` (see ``numcore.quiet``).
    """
    mu, log_mu, resid, resid2 = _mean_terms(model, theta.beta)
    C, w_phi, w_p = _dispersion_weights(mu, log_mu, theta.phi, theta.p)
    return EstFunState(
        mu=mu, C=C, resid=resid, resid2=resid2, W_phi=w_phi, W_p=w_p, log_mu=log_mu,
        X=model.X, weights=model.weights, theta=theta,
    )


# The array functions (see the module docstring) run in their quiet callers'
# error state.


def _mean_terms(model: PtwModel, beta: np.ndarray):
    """mu = exp(X beta + offset), log mu, y - mu and (y - mu)^2; refuses a
    mean that underflows to 0 or overflows."""
    mu = np.exp(model.linear_predictor(beta))
    log_mu = np.log(mu)
    # log mu is finite exactly when 0 < mu < inf: one check covers both ends.
    # Its finite values lie within [-745, 710], so their sum is finite
    # exactly when every one of them is.
    if not math.isfinite(np.add.reduce(log_mu)):
        if np.isfinite(mu).all():
            raise InvalidParameterError("linear predictor underflow: mu is 0")
        raise InvalidParameterError("linear predictor overflow: mu is not finite")
    resid = model.y - mu
    return mu, log_mu, resid, resid**2


def _variance(mu, phi, p):
    """mu^p and the variance C = mu + phi mu^p."""
    mu_p = mu**p
    return mu_p, mu + phi * mu_p


def _lambda_weights(mu_p, C, log_mu, phi):
    """W_phi = C^{-2} mu^p and W_p = C^{-2} phi mu^p log mu."""
    inv_c2 = C**-2.0
    return inv_c2 * mu_p, inv_c2 * phi * mu_p * log_mu


def _dispersion_weights(mu, log_mu, phi, p):
    """C = mu + phi mu^p, W_phi and W_p; raises VarianceNonpositiveError
    when some C_i <= 0."""
    mu_p, C = _variance(mu, phi, p)
    # fmin skips NaN, as (C <= 0).any() does; initial keeps an empty C.
    if np.fmin.reduce(C, initial=math.inf) <= 0:
        raise VarianceNonpositiveError(
            f"min(mu + phi*mu^p) = {np.min(C):.6g} <= 0 at phi = {phi}, p = {p}"
        )
    return (C,) + _lambda_weights(mu_p, C, log_mu, phi)


def _weigh(weights: np.ndarray | None, values: np.ndarray) -> np.ndarray:
    """``values`` (rows first) times the frequency weights; as is when unweighted."""
    if weights is None:
        return values
    return weights * values if values.ndim == 1 else weights[:, None] * values


def _quasi_terms(mu, resid, C):
    """mu_i C_i^{-1} (y_i - mu_i): observation i's quasi-score, per x_ij."""
    return mu * resid / C


def _pearson_terms(resid2, C):
    """The Pearson bracket (y_i - mu_i)^2 - C_i."""
    return resid2 - C


def _psi_beta(X, weights, mu, resid, C):
    """The quasi-score sum_i w_i mu_i x_ij C_i^{-1} (y_i - mu_i)."""
    return X.T @ _weigh(weights, _quasi_terms(mu, resid, C))


def _psi_lambda(weights, resid2, C, w_phi, w_p):
    """The Pearson score: the bracket (y - mu)^2 - C against W_phi and W_p,
    as a list of two Python floats (``pearson_score`` makes it an array)."""
    bracket = _weigh(weights, _pearson_terms(resid2, C))
    return [float(np.add.reduce(w_phi * bracket)), float(np.add.reduce(w_p * bracket))]


def _sens_beta(X, weights, mu, C):
    """S_beta_jk = -sum_i w_i mu_i x_ij C_i^{-1} x_ik mu_i."""
    return -(mu[:, None] * X).T @ (_weigh(weights, mu / C)[:, None] * X)


def _lambda_matrix(w_phi, w_p):
    """The n x 2 matrix with columns W_phi and W_p."""
    wl = np.empty((w_phi.shape[0], 2))
    wl[:, 0] = w_phi
    wl[:, 1] = w_p
    return wl


def _lambda_c2(weights, C, wl):
    """The rows of ``wl`` (n x 2, from ``_lambda_matrix``) times w_i C_i^2:
    the left factor of S_lambda and of its cross block."""
    return wl * _weigh(weights, C**2)[:, None]


def _sens_lambda(weights, C, w_phi, w_p):
    """S_lambda_jk = -sum_i w_i W_{i lambda_j} C_i^2 W_{i lambda_k}."""
    wl = _lambda_matrix(w_phi, w_p)
    return -_lambda_c2(weights, C, wl).T @ wl


def quasi_score(state: EstFunState) -> np.ndarray:
    """psi_beta: component j = sum_i mu_i x_ij C_i^{-1} (y_i - mu_i)."""
    return _psi_beta(state.X, state.weights, state.mu, state.resid, state.C)


@quiet
def pearson_score(state: EstFunState) -> np.ndarray:
    """psi_lambda = (phi component, p component): squared-residual bracket
    (y - mu)^2 - C contracted against the W_phi and W_p weights."""
    return np.array(_psi_lambda(state.weights, state.resid2, state.C, state.W_phi, state.W_p))


def _s_beta(state: EstFunState) -> np.ndarray:
    """S_beta_jk = -sum_i mu_i x_ij C_i^{-1} x_ik mu_i (Q x Q).  Runs in its
    quiet callers' error state."""
    return _sens_beta(state.X, state.weights, state.mu, state.C)


def _s_lambda(state: EstFunState) -> np.ndarray:
    """S_lambda_jk = -sum_i W_{i lambda_j} C_i^2 W_{i lambda_k} over (phi, p)
    (2 x 2).  Runs in its quiet callers' error state."""
    return _sens_lambda(state.weights, state.C, state.W_phi, state.W_p)


@quiet
def sensitivity(state: EstFunState) -> np.ndarray:
    """The (Q+2) x (Q+2) sensitivity matrix E(d psi / d theta).

    Block lower-triangular by the insensitivity property:

        [[S_beta,        0   ],
         [S_lambda_beta, S_lambda]]

    with S_beta and S_lambda from ``_s_beta`` and ``_s_lambda``, and
    S_lambda_beta_jk = -sum_i W_{i lambda_j} C_i^2 W_{i beta_k}.
    """
    q = state.X.shape[1]
    s = np.zeros((q + 2, q + 2))
    s[:q, :q] = _s_beta(state)
    s[q:, q:] = _s_lambda(state)
    weighted = _lambda_c2(state.weights, state.C, _lambda_matrix(state.W_phi, state.W_p))
    s[q:, :q] = -weighted.T @ state.W_beta
    return s


@quiet
def variability(state: EstFunState) -> np.ndarray:
    """The (Q+2) x (Q+2) variability matrix Var(psi).

    The beta block is analytic (V_beta = -S_beta); the lambda and
    cross blocks are the empirical (frequency-weighted) sums of
    per-observation estimating-function products evaluated at the
    state's theta, with no degrees-of-freedom correction.  Symmetric by
    construction.
    """
    q = state.X.shape[1]
    v = np.zeros((q + 2, q + 2))
    v[:q, :q] = -_s_beta(state)
    psi_beta_i = _quasi_terms(state.mu, state.resid, state.C)[:, None] * state.X
    psi_lambda_i = (_lambda_matrix(state.W_phi, state.W_p)
                    * _pearson_terms(state.resid2, state.C)[:, None])
    weighted = _weigh(state.weights, psi_lambda_i)
    v[q:, q:] = weighted.T @ psi_lambda_i
    cross = weighted.T @ psi_beta_i
    v[q:, :q] = cross
    v[:q, q:] = cross.T
    return v


def godambe_covariance(S: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Inverse Godambe information S^{-1} V S^{-T}, symmetrized.

    Raises
    ------
    SingularMatrixError
        If the sensitivity matrix is numerically singular.
    """
    S = np.asarray(S, dtype=float)
    V = np.asarray(V, dtype=float)
    solve = _lu_solver(S, "zero sensitivity matrix", "sensitivity matrix is numerically singular")
    cov = solve(solve(V).T).T
    cov = 0.5 * (cov + cov.T)
    diag = np.diag(cov).copy()
    tiny = np.abs(diag) <= 1e-10 * max(np.trace(cov), 1e-300)
    diag[tiny & (diag < 0)] = 0.0
    if np.any(diag < 0):
        raise SingularMatrixError("sandwich produced a negative variance")
    np.fill_diagonal(cov, diag)
    return cov
