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
        if not np.isfinite(beta).all():
            raise InvalidParameterError("beta must be finite")
        if not (math.isfinite(self.phi) and math.isfinite(self.p)):
            raise InvalidParameterError("phi and p must be finite")

    def as_array(self) -> np.ndarray:
        return np.concatenate([self.beta, [self.phi, self.p]])


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
    mu = np.exp(model.linear_predictor(theta.beta))
    log_mu = np.log(mu)
    # log mu is finite exactly when 0 < mu < inf: one check covers both ends.
    if not np.isfinite(log_mu).all():
        if np.isfinite(mu).all():
            raise InvalidParameterError("linear predictor underflow: mu is 0")
        raise InvalidParameterError("linear predictor overflow: mu is not finite")
    resid = model.y - mu
    resid2 = resid**2
    C, w_phi, w_p = _dispersion_weights(mu, log_mu, theta.phi, theta.p)
    return EstFunState(
        mu=mu, C=C, resid=resid, resid2=resid2, W_phi=w_phi, W_p=w_p, log_mu=log_mu,
        X=model.X, weights=model.weights, theta=theta,
    )


@quiet
def _with_dispersion(state: EstFunState, theta: Theta) -> EstFunState:
    """The state at theta when only (phi, p) differ from ``state.theta``:
    mu, the residuals and log mu carry over, C and the W weights are redone."""
    C, w_phi, w_p = _dispersion_weights(state.mu, state.log_mu, theta.phi, theta.p)
    return EstFunState(
        mu=state.mu, C=C, resid=state.resid, resid2=state.resid2, W_phi=w_phi, W_p=w_p,
        log_mu=state.log_mu, X=state.X, weights=state.weights, theta=theta,
    )


def _dispersion_weights(mu, log_mu, phi, p):
    """C = mu + phi mu^p, W_phi and W_p; raises VarianceNonpositiveError
    when some C_i <= 0.  Runs in its quiet callers' error state."""
    mu_p = mu**p
    C = mu + phi * mu_p
    if (C <= 0).any():
        raise VarianceNonpositiveError(
            f"min(mu + phi*mu^p) = {np.min(C):.6g} <= 0 at phi = {phi}, p = {p}"
        )
    inv_c2 = C**-2.0
    return C, inv_c2 * mu_p, inv_c2 * phi * mu_p * log_mu


def _weigh(weights: np.ndarray | None, values: np.ndarray) -> np.ndarray:
    """``values`` (rows first) times the frequency weights; as is when unweighted."""
    if weights is None:
        return values
    return weights * values if values.ndim == 1 else weights[:, None] * values


def quasi_score(model: PtwModel, theta: Theta, state: EstFunState | None = None) -> np.ndarray:
    """psi_beta: component j = sum_i mu_i x_ij C_i^{-1} (y_i - mu_i)."""
    st = state or estfun_state(model, theta)
    return model.X.T @ _weigh(st.weights, st.mu * st.resid / st.C)


@quiet
def pearson_score(model: PtwModel, theta: Theta, state: EstFunState | None = None) -> np.ndarray:
    """psi_lambda = (phi component, p component): squared-residual bracket
    (y - mu)^2 - C contracted against the W_phi and W_p weights."""
    st = state or estfun_state(model, theta)
    bracket = _weigh(st.weights, st.resid2 - st.C)
    return np.array([(st.W_phi * bracket).sum(), (st.W_p * bracket).sum()])


def _lambda_weights(state: EstFunState) -> np.ndarray:
    """The n x 2 matrix with columns W_phi and W_p."""
    wl = np.empty((state.W_phi.shape[0], 2))
    wl[:, 0] = state.W_phi
    wl[:, 1] = state.W_p
    return wl


@quiet
def _s_beta(state: EstFunState) -> np.ndarray:
    """S_beta_jk = -sum_i mu_i x_ij C_i^{-1} x_ik mu_i (Q x Q)."""
    return -(state.mu[:, None] * state.X).T @ (
        _weigh(state.weights, state.mu / state.C)[:, None] * state.X
    )


@quiet
def _s_lambda(state: EstFunState) -> np.ndarray:
    """S_lambda_jk = -sum_i W_{i lambda_j} C_i^2 W_{i lambda_k} over (phi, p) (2 x 2)."""
    wl = _lambda_weights(state)
    return -(wl * _weigh(state.weights, state.C**2)[:, None]).T @ wl


@quiet
def sensitivity(model: PtwModel, theta: Theta, state: EstFunState | None = None) -> np.ndarray:
    """The (Q+2) x (Q+2) sensitivity matrix E(d psi / d theta).

    Block lower-triangular by the insensitivity property:

        [[S_beta,        0   ],
         [S_lambda_beta, S_lambda]]

    with S_beta and S_lambda from ``_s_beta`` and ``_s_lambda``, and
    S_lambda_beta_jk = -sum_i W_{i lambda_j} C_i^2 W_{i beta_k}.
    """
    st = state or estfun_state(model, theta)
    q = model.n_coef
    s = np.zeros((q + 2, q + 2))
    s[:q, :q] = _s_beta(st)
    s[q:, q:] = _s_lambda(st)
    s[q:, :q] = -(_lambda_weights(st) * _weigh(st.weights, st.C**2)[:, None]).T @ st.W_beta
    return s


@quiet
def variability(model: PtwModel, theta: Theta, state: EstFunState | None = None) -> np.ndarray:
    """The (Q+2) x (Q+2) variability matrix Var(psi).

    The beta block is analytic (V_beta = -S_beta); the lambda and
    cross blocks are the empirical (frequency-weighted) sums of
    per-observation estimating-function products evaluated at the
    supplied theta, with no degrees-of-freedom correction.  Symmetric by
    construction.
    """
    st = state or estfun_state(model, theta)
    q = model.n_coef
    v = np.zeros((q + 2, q + 2))
    v[:q, :q] = -_s_beta(st)
    psi_beta_i = (st.mu * st.resid / st.C)[:, None] * model.X
    psi_lambda_i = _lambda_weights(st) * (st.resid2 - st.C)[:, None]
    weighted = _weigh(st.weights, psi_lambda_i)
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
