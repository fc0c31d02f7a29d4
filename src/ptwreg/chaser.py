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

Standard errors come from the inverse Godambe information assembled
blockwise at the estimate: the beta block is -S_beta^{-1} and the
dispersion block S_lambda^{-1} V_lambda S_lambda^{-T}, each computed
without cross-propagation (the convention the reference results use and
the one reported here).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

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
    _s_beta,
    _s_lambda,
    _weigh,
    _with_dispersion,
    estfun_state,
    godambe_covariance,
    pearson_score,
    quasi_score,
    variability,
)
from .numcore import quiet, solve_linear

POWER_FREE = "free"
P_FLOOR = 1e-4
_MAX_HALVINGS = 30


def _is_number(value) -> bool:
    """A real number, Python's or numpy's, but not a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


@dataclass(frozen=True)
class FitConfig:
    """Tuning of the chaser: step constant, budget, tolerances, and modes.

    power_mode is either the string "free" or a number fixing the Tweedie
    power.  phi_fixed pins the dispersion (phi_fixed = 0 gives a Poisson
    GLM; the power is then irrelevant and not estimated).  phi_sign
    restricts the dispersion-step direction when set to "nonnegative".
    """

    alpha: float = 0.5
    max_iter: int = 200
    tol: float = 1e-6
    power_mode: float | str = POWER_FREE
    phi_sign: str = "any"
    phi_fixed: float | None = None

    def __post_init__(self):
        if not (_is_number(self.alpha) and 0 < self.alpha <= 1):
            raise InvalidParameterError(f"alpha must be a number in (0, 1], got {self.alpha!r}")
        if not (_is_number(self.tol) and 0 < self.tol < np.inf):  # also refuses nan
            raise InvalidParameterError(f"tol must be positive and finite, got {self.tol!r}")
        if (
            isinstance(self.max_iter, bool)
            or not isinstance(self.max_iter, (int, np.integer))
            or self.max_iter < 1
        ):
            raise InvalidParameterError(f"max_iter must be an integer >= 1, got {self.max_iter!r}")
        if self.power_mode != POWER_FREE:
            try:
                p0 = float(self.power_mode)
            except (TypeError, ValueError):
                raise InvalidParameterError(
                    f"power_mode must be {POWER_FREE!r} or a number, got {self.power_mode!r}"
                ) from None
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


def _beta_step(state: EstFunState, beta: np.ndarray, psi_beta: np.ndarray) -> np.ndarray:
    """One quasi-score Newton update from S_beta at ``state`` and the
    quasi-score ``psi_beta`` evaluated there."""
    try:
        return beta - solve_linear(_s_beta(state), psi_beta)
    except SingularMatrixError as exc:
        raise RankDeficiencyError(f"design matrix is rank deficient: {exc}") from exc


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
    theta = Theta(beta, 0.0, 1.0)
    for _ in range(100):
        state = estfun_state(model, theta)
        beta_new = _beta_step(state, theta.beta, quasi_score(model, theta, state))
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
    for _ in range(_MAX_HALVINGS + 1):
        phi_new = theta.phi - delta[0]
        p_new = theta.p - delta[1]
        if p_floor is not None and p_new < p_floor:
            p_new = p_floor
        feasible = phi_sign != "nonnegative" or phi_new >= 0
        if feasible:
            # Trial points far out may overflow; that just means "infeasible".
            c = mu + phi_new * mu**p_new
            feasible = bool((c > 0).all() and np.isfinite(c).all())
        if feasible:
            return Theta(theta.beta, phi_new, p_new)
        delta /= 2.0
    raise BoundaryTrapError(
        f"lambda step from (phi={theta.phi:.6g}, p={theta.p:.6g}) could not be "
        f"made feasible in {_MAX_HALVINGS} halvings"
    )


_LAMBDA_INDEX = {"phi": 0, "p": 1}


def _sandwich(model: PtwModel, theta: Theta, free: tuple[str, ...]) -> np.ndarray:
    """Godambe covariance at theta, blockwise (cross-sensitivity omitted),
    restricted to the estimated parameters."""
    q = model.n_coef
    state = estfun_state(model, theta)
    v = variability(model, theta, state)
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
    when the design loses full column rank.  The whole fit runs in one
    quiet error state (see ``numcore.quiet``).
    """
    config = config or FitConfig()
    free = config.free_dispersion()
    if "p" in free and model.n_obs <= model.n_coef + 2:
        raise InvalidParameterError("free-power fitting needs n > Q + 2")

    theta = initialize(model, config)
    # free is a contiguous part of (phi, p), so basic slices select it
    lam = slice(_LAMBDA_INDEX[free[0]], _LAMBDA_INDEX[free[-1]] + 1) if free else None
    p_floor = P_FLOOR if "p" in free else None

    trace: list = []
    warn: list = []
    converged = False
    score_norm = np.inf
    lambda_step_norm = np.inf
    iterations = 0

    state = estfun_state(model, theta)
    psi_beta = quasi_score(model, theta, state)
    current = theta.as_array()
    for iterations in range(1, config.max_iter + 1):
        prev = current
        beta_new = _beta_step(state, theta.beta, psi_beta)
        theta = Theta(beta_new, theta.phi, theta.p)
        state = estfun_state(model, theta)

        if free:
            psi_l = pearson_score(model, theta, state)[lam]
            delta = np.zeros(2)
            delta[lam] = config.alpha * solve_linear(_s_lambda(state)[lam, lam], psi_l)
            phi_before, p_before = theta.phi, theta.p
            theta = step_control(theta, delta, state.mu, config.phi_sign, p_floor)
            lambda_step_norm = max(abs(theta.phi - phi_before), abs(theta.p - p_before))
            state = _with_dispersion(state, theta)

        # The quasi-score at this state is also the next beta step's psi_beta.
        psi_beta = quasi_score(model, theta, state)
        score = psi_beta
        if free:
            score = np.concatenate([psi_beta, pearson_score(model, theta, state)[lam]])
        score_norm = float(np.abs(score).max())
        current = theta.as_array()
        param_change = float(np.abs(current - prev).max())
        trace.append((current, score_norm))
        if score_norm < config.tol and param_change < config.tol:
            converged = True
            break

    if not converged:
        warn.append(f"did not converge in {config.max_iter} iterations "
                    f"(score sup-norm {score_norm:.3e})")

    layout = tuple(f"beta{j}" for j in range(model.n_coef)) + free
    try:
        covariance = _sandwich(model, theta, free)
        std_errors = np.sqrt(np.diag(covariance))
    except SingularMatrixError as exc:
        warn.append(f"covariance unavailable: {exc}")
        k = len(layout)
        covariance = np.full((k, k), np.nan)
        std_errors = np.full(k, np.nan)

    if "p" in free and np.isfinite(std_errors).all():
        se_phi = std_errors[model.n_coef]
        stalled = (not converged) and lambda_step_norm < config.tol and score_norm > config.tol
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
