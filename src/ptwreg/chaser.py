"""The modified chaser algorithm.

Alternates a full Newton step on the regression quasi-score,
beta <- beta - S_beta^{-1} psi_beta, with a damped Newton step on the
Pearson estimating function for the dispersion parameters,
lambda <- lambda - alpha S_lambda^{-1} psi_lambda evaluated at the fresh
beta.  The insensitivity property (S_beta_lambda = 0) is what makes the
alternation valid.  Step halving keeps every fitted variance
C_i = mu_i + phi mu_i^p positive — including for negative phi, where the
extended model lives — and the power can be held fixed or the dispersion
pinned (phi = 0 reduces to a Poisson GLM).

The step constant alpha = 0.5, the tolerance 1e-6 (the fit has converged
when both the score sup-norm and the largest parameter change fall below
it) and the budget of 200 iterations are fixed parts of the method
(Bonat & Jørgensen 2016), not settings: ``FitConfig`` holds only the
choices about the model.

``initialize`` and ``fit`` iterate on arrays: they hold beta, phi, p and
the per-observation mu, log mu, residuals, C, W_phi and W_p as locals and
call estfun's array functions on them (``_mean_terms``,
``_dispersion_weights``, ``_psi_beta``, ``_psi_lambda``, ``_sens_lambda``;
``_sens_beta`` through ``_newton_beta``; ``_variance`` through ``_halve``,
whose accepted mu**p and C feed ``_lambda_weights``).  No iteration builds
a ``Theta`` or an ``EstFunState``; ``_beta_step`` and ``step_control`` take
the same steps on those records.  At the study's sizes numpy's cost per
call outweighs its arithmetic, so the loops keep their bookkeeping on
Python floats: the score sup-norm (``_sup_norm``), the largest parameter
change (taken only once the score is below the tolerance),
``initialize``'s max|delta beta| and the finiteness of beta.  The refusal
checks are direct numpy reductions: C in (0, inf) in ``_halve`` (a minimum
and a maximum), C <= 0 in ``_dispersion_weights`` and a finite log mu in
``_mean_terms``.  The array formulas keep their operation order and memory
layout, so every fit is the same bit for bit as with numpy's ``.all()``,
``.any()`` and ``.max()`` (``tests/test_chaser_reference.py`` and
``tests/test_check_reference.py``).

Standard errors come from the inverse Godambe information assembled
blockwise on one ``EstFunState`` built from the loop's last arrays: the
beta block is -S_beta^{-1} and the dispersion block
S_lambda^{-1} V_lambda S_lambda^{-T}, each computed without
cross-propagation (the convention the reference results use and the one
reported here).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from operator import sub

import numpy as np

from .errors import (
    BoundaryTrapError,
    InvalidParameterError,
    RankDeficiencyError,
    SingularMatrixError,
)
from .estfun import (
    EstFunState,
    PtwModel,
    Theta,
    _dispersion_weights,
    _lambda_weights,
    _mean_terms,
    _psi_beta,
    _psi_lambda,
    _require_finite_beta,
    _require_finite_lambda,
    _s_lambda,
    _sens_beta,
    _sens_lambda,
    _theta_array,
    _variance,
    _weigh,
    godambe_covariance,
    variability,
)
from .numcore import quiet, solve_linear

POWER_FREE = "free"
P_FLOOR = 1e-4
_MAX_HALVINGS = 30
_ALPHA = 0.5  # the dispersion step's constant
_TOL = 1e-6  # on the score sup-norm and on the largest parameter change
_MAX_ITER = 200


def _is_number(value) -> bool:
    """A real number, Python's or numpy's, but not a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


@dataclass(frozen=True)
class FitConfig:
    """What a caller chooses about the model the chaser fits.

    power_mode is either the string "free" or a number fixing the Tweedie
    power.  phi_fixed pins the dispersion (phi_fixed = 0 gives a Poisson
    GLM; the power is then irrelevant and not estimated).  phi_sign
    restricts the dispersion-step direction when set to "nonnegative".
    The step constant (0.5), tolerance (1e-6) and iteration budget (200)
    are fixed parts of the method: see the module docstring.
    """

    power_mode: float | str = POWER_FREE
    phi_sign: str = "any"
    phi_fixed: float | None = None

    def __post_init__(self):
        if self.power_mode != POWER_FREE:
            if not _is_number(self.power_mode):
                raise InvalidParameterError(
                    f"power_mode must be {POWER_FREE!r} or a number, got {self.power_mode!r}"
                )
            p0 = float(self.power_mode)
            if not np.isfinite(p0) or p0 <= 0:
                raise InvalidParameterError(f"fixed power must be positive, got {p0}")
            object.__setattr__(self, "power_mode", p0)
        if self.phi_sign not in ("any", "nonnegative"):
            raise InvalidParameterError("phi_sign must be 'any' or 'nonnegative'")
        if self.phi_fixed is not None and not (
            _is_number(self.phi_fixed) and np.isfinite(self.phi_fixed)
        ):
            raise InvalidParameterError(
                f"phi_fixed must be a finite number or None, got {self.phi_fixed!r}"
            )
        if self.phi_sign == "nonnegative" and self.phi_fixed is not None and self.phi_fixed < 0:
            raise InvalidParameterError(
                f"phi_fixed = {self.phi_fixed} contradicts phi_sign 'nonnegative'"
            )

    @property
    def power_is_free(self) -> bool:
        return self.power_mode == POWER_FREE

    def free_dispersion(self) -> tuple[str, ...]:
        """Which of (phi, p) the lambda step updates."""
        if self.phi_fixed is not None and self.phi_fixed == 0.0:
            return ()  # C = mu regardless of p: nothing to estimate
        free = () if self.phi_fixed is not None else ("phi",)
        if self.power_is_free:
            free = free + ("p",)
        return free


@dataclass(frozen=True)
class FitResult:
    """Fit output: estimate, sandwich covariance, trace, and diagnostics.

    covariance rows/columns follow ``covariance_layout``: the Q regression
    coefficients first, then whichever of phi, p were estimated (fixed
    parameters carry no sampling variability and are dropped).
    """

    theta_hat: Theta
    covariance: np.ndarray
    std_errors: np.ndarray
    covariance_layout: tuple[str, ...]
    iterations: int
    trace: list
    converged: bool
    warnings: list = field(default_factory=list)


def _newton_beta(X, weights, mu, C, beta, psi_beta):
    """beta - S_beta^{-1} psi_beta, with S_beta from the mean ``mu`` and the
    variance ``C`` at ``beta``; a singular S_beta is a rank-deficient design."""
    try:
        return beta - solve_linear(_sens_beta(X, weights, mu, C), psi_beta)
    except SingularMatrixError as exc:
        raise RankDeficiencyError(f"design matrix is rank deficient: {exc}") from exc


def _beta_step(state: EstFunState, psi_beta: np.ndarray) -> np.ndarray:
    """One quasi-score Newton update of ``state.theta.beta`` from S_beta at
    ``state`` and the quasi-score ``psi_beta`` evaluated there."""
    return _newton_beta(state.X, state.weights, state.mu, state.C, state.theta.beta, psi_beta)


@quiet
def initialize(model: PtwModel, config: FitConfig | None = None) -> Theta:
    """Starting values: beta from a Poisson fit, phi by moment matching.

    beta0 solves the phi = 0 quasi-score (a Poisson GLM) by Newton
    iteration from a least-squares fit to log(y + 0.5).  p0 is 1.5 unless
    fixed.  phi0 matches the average squared residual,
    sum[(y - mu)^2 - mu] / sum mu^p0, floored so that every fitted
    variance stays above 0.1 * mu.  Frequency weights weight both the
    least squares and the phi0 sums.
    """
    config = config or FitConfig()
    X, z = model.X, np.log(model.y + 0.5)
    if model.weights is not None:
        root_w = np.sqrt(model.weights)
        X, z = root_w[:, None] * X, root_w * z
    beta = np.linalg.lstsq(X, z, rcond=None)[0]
    _require_finite_beta(beta)
    X, w = model.X, model.weights
    for _ in range(100):
        # At phi = 0 the variance mu + 0 * mu**1 is mu itself, bit for bit.
        mu, _, resid, _ = _mean_terms(model, beta)
        beta_new = _newton_beta(X, w, mu, mu, beta, _psi_beta(X, w, mu, resid, mu))
        # On Python floats; a non-finite beta_new is refused just below.
        done = max(map(abs, map(sub, beta_new.tolist(), beta.tolist()))) < 1e-10
        _require_finite_beta(beta_new)
        beta = beta_new
        if done:
            break

    p0 = 1.5 if config.power_is_free else float(config.power_mode)
    if config.phi_fixed is not None:
        return Theta(beta, float(config.phi_fixed), p0)
    mu = np.exp(model.linear_predictor(beta))
    phi0 = float(np.sum(_weigh(w, (model.y - mu) ** 2 - mu)) / np.sum(_weigh(w, mu**p0)))
    phi_floor = -0.9 * float(np.min(mu ** (1.0 - p0)))
    phi0 = max(phi0, phi_floor)
    if config.phi_sign == "nonnegative":
        phi0 = max(phi0, 1e-8)
    return Theta(beta, phi0, p0)


def _halve(phi, p, delta, mu, phi_sign, p_floor):
    """The feasible point of the lambda step from (phi, p) by the decrement
    ``delta``, which it halves in place: (phi, p, mu**p, C) there.  See
    ``step_control``."""
    for _ in range(_MAX_HALVINGS + 1):
        phi_new = phi - delta[0]
        p_new = p - delta[1]
        if p_floor is not None and p_new < p_floor:
            p_new = p_floor
        feasible = phi_sign != "nonnegative" or phi_new >= 0
        if feasible:
            # Trial points far out may overflow; that just means "infeasible".
            mu_p, c = _variance(mu, phi_new, p_new)
            # Every c_i in (0, inf): numpy's minimum carries a NaN through, so
            # a NaN c_i fails the first test.  initial keeps an empty c.
            feasible = (np.minimum.reduce(c, initial=math.inf) > 0
                        and np.maximum.reduce(c, initial=-math.inf) < math.inf)
        if feasible:
            _require_finite_lambda(phi_new, p_new)
            return phi_new, p_new, mu_p, c
        delta /= 2.0
    raise BoundaryTrapError(
        f"lambda step from (phi={phi:.6g}, p={p:.6g}) could not be "
        f"made feasible in {_MAX_HALVINGS} halvings"
    )


@quiet
def step_control(
    theta: Theta,
    delta: np.ndarray,
    mu: np.ndarray,
    phi_sign: str = "any",
    p_floor: float | None = P_FLOOR,
) -> Theta:
    """Apply the proposed lambda update, halving it until feasible.

    ``delta`` is the raw (phi, p) Newton decrement; the accepted point has
    every C_i > 0 and, when phi_sign is "nonnegative", phi >= 0.  A free
    power is floored at ``p_floor`` (pass None when the power is fixed).
    Raises BoundaryTrapError when 30 halvings cannot restore feasibility.
    ``mu`` is exp(X beta) at ``theta.beta``: the beta-step state's mean.
    """
    delta = np.asarray(delta, dtype=float).copy()
    phi, p, _, _ = _halve(theta.phi, theta.p, delta, mu, phi_sign, p_floor)
    return Theta(theta.beta, phi, p)


_LAMBDA_INDEX = {"phi": 0, "p": 1}


def _sup_norm(values: list) -> float:
    """max |v| over a list of Python floats; NaN when one is NaN, as with
    numpy's max (Python's max may skip a NaN)."""
    if any(map(math.isnan, values)):
        return math.nan
    return max(map(abs, values))


def _sandwich(state: EstFunState, free: tuple[str, ...]) -> np.ndarray:
    """Godambe covariance at ``state``, blockwise (cross-sensitivity
    omitted), restricted to the estimated parameters."""
    q = state.X.shape[1]
    v = variability(state)
    s = np.zeros((q + 2, q + 2))  # block diagonal: see module docstring
    s[:q, :q] = -v[:q, :q]  # V_beta = -S_beta exactly, so S_beta is formed once
    s[q:, q:] = _s_lambda(state)
    idx = list(range(q)) + [q + _LAMBDA_INDEX[name] for name in free]
    return godambe_covariance(s[np.ix_(idx, idx)], v[np.ix_(idx, idx)])


@quiet
def fit(model: PtwModel, config: FitConfig | None = None) -> FitResult:
    """Fit the Poisson-Tweedie regression by the modified chaser.

    Returns the last iterate with ``converged=False`` (plus a warning)
    when the iteration budget runs out; raises BoundaryTrapError when the
    variance constraint traps the dispersion step, and RankDeficiencyError
    when the design loses full column rank.  Overflow stays quiet here, as
    in every public function of the fit (see ``numcore.quiet``); the
    private helpers it calls run in its error state.
    """
    config = config or FitConfig()
    free = config.free_dispersion()
    if "p" in free and model.n_obs <= model.n_coef + 2:
        raise InvalidParameterError("free-power fitting needs n > Q + 2")

    # free is a contiguous part of (phi, p), so basic slices select it
    lam = slice(_LAMBDA_INDEX[free[0]], _LAMBDA_INDEX[free[-1]] + 1) if free else None
    p_floor = P_FLOOR if "p" in free else None

    trace: list = []
    warn: list = []
    converged = False
    score_norm = np.inf
    lambda_step_norm = np.inf
    iterations = 0

    start = initialize(model, config)
    beta, phi, p = start.beta, start.phi, start.p
    X, w = model.X, model.weights
    mu, log_mu, resid, resid2 = _mean_terms(model, beta)
    C, w_phi, w_p = _dispersion_weights(mu, log_mu, phi, p)
    psi_beta = _psi_beta(X, w, mu, resid, C)
    current = _theta_array(beta, phi, p)
    for iterations in range(1, _MAX_ITER + 1):
        prev = current
        beta = _newton_beta(X, w, mu, C, beta, psi_beta)
        _require_finite_beta(beta)
        mu, log_mu, resid, resid2 = _mean_terms(model, beta)
        C, w_phi, w_p = _dispersion_weights(mu, log_mu, phi, p)

        if free:
            psi_l = _psi_lambda(w, resid2, C, w_phi, w_p)[lam]
            delta = np.zeros(2)
            delta[lam] = _ALPHA * solve_linear(_sens_lambda(w, C, w_phi, w_p)[lam, lam], psi_l)
            phi_new, p_new, mu_p, C = _halve(phi, p, delta, mu, config.phi_sign, p_floor)
            lambda_step_norm = max(abs(phi_new - phi), abs(p_new - p))
            phi, p = phi_new, p_new
            w_phi, w_p = _lambda_weights(mu_p, C, log_mu, phi)

        # The quasi-score here is also the next beta step's psi_beta.
        psi_beta = _psi_beta(X, w, mu, resid, C)
        score = psi_beta.tolist()
        if free:
            score += _psi_lambda(w, resid2, C, w_phi, w_p)[lam]
        score_norm = _sup_norm(score)
        current = _theta_array(beta, phi, p)
        trace.append((current, score_norm))
        # The largest parameter change, on Python floats, only once the
        # score is small: theta is finite, so it holds no NaN.
        if score_norm < _TOL and max(
                map(abs, map(sub, current.tolist(), prev.tolist()))) < _TOL:
            converged = True
            break

    if not converged:
        warn.append(f"did not converge in {_MAX_ITER} iterations "
                    f"(score sup-norm {score_norm:.3e})")

    theta = Theta(beta, phi, p)
    state = EstFunState(
        mu=mu, C=C, resid=resid, resid2=resid2, W_phi=w_phi, W_p=w_p, log_mu=log_mu,
        X=X, weights=w, theta=theta,
    )
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

    return FitResult(
        theta_hat=theta,
        covariance=covariance,
        std_errors=std_errors,
        covariance_layout=layout,
        iterations=iterations,
        trace=trace,
        converged=converged,
        warnings=warn,
    )
