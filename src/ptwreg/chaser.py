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

A study fits many replicates that share one design, at ``FitConfig()``,
where numpy's cost per call dominates.  ``_fit_block`` runs that one
configuration for all of them at once on (R, n) arrays, from
``initialize``'s Newton loop to convergence, each chunk of them in one
workspace that every step writes into (``_Workspace``): X beta and the
scores through estfun's functions on a leading replicate axis, the S
blocks through forms of its own, the small systems through one batched
LAPACK solve behind a pivot screen (``_solve_rows``), and a step that
needs halving or the power floor through ``_halve`` on its own row; every
row equals the 1-D computation bit for bit.  Each replicate's resume,
(its start, its trace), is made before the first iteration, and the block
appends to the trace each iteration it commits.  A replicate stops with
the iteration at which it converges or the budget ends, or before the
first iteration the block cannot run as ``fit`` would: a refusal, or a
power numpy's ``array ** scalar`` special-cases (``_FAST_POWERS``).
``fit(model, resume=resume)`` reads its iterate and state off the start
and the trace, and runs any iterations left with the code above, so each
result equals the uninterrupted fit's.

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
    PtwError,
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
# numpy's ``array ** scalar`` computes these exponents by other routines
# (reciprocal, ones, sqrt, a copy, square), whose last bits may differ from
# the general power that the lockstep block's ``array ** column`` takes.
_FAST_POWERS = (-1.0, 0.0, 0.5, 1.0, 2.0)
# Replicates x observations in one lockstep block, so that a study cell of
# 50 replicates at n <= 1000 runs as one chunk.  A chunk's workspace holds
# eleven (R, n) arrays and two (R, n, max(Q, 2)) factor blocks: 8 (11 + 2
# max(Q, 2)) bytes per cell, 136 at Q = 3, so 6.5 MiB for such a cell at
# n = 1000 and at most 8.5 MiB.  In chunks of 2**14 cells (16 replicates at
# n = 1000) the replicates still running near the budget ran it one or two
# at a time: a ptw-p3-di2 cell at n = 1000 took a median 316 ms of CPU
# against 245 ms in one chunk (one BLAS thread, 2-core x86-64).
_BLOCK_CELLS = 2**16


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
    """max |v| over a list of floats, Python's or numpy's, as a Python float;
    NaN when one is NaN, as with numpy's max (Python's max may skip a NaN)."""
    if any(map(math.isnan, values)):
        return math.nan
    return float(max(map(abs, values)))


def _has_converged(current: np.ndarray, score_norm: float, prev: np.ndarray) -> bool:
    """The stopping rule: the score sup-norm at the iterate ``current`` and
    its largest change from ``prev`` are both below the tolerance.  The
    change is taken on Python floats, only once the score is small: theta is
    finite, so it holds no NaN."""
    return score_norm < _TOL and max(
        map(abs, map(sub, current.tolist(), prev.tolist()))) < _TOL


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
def fit(model: PtwModel, config: FitConfig | None = None,
        resume: tuple[Theta, list] | None = None) -> FitResult:
    """Fit the Poisson-Tweedie regression by the modified chaser.

    Returns the last iterate with ``converged=False`` (plus a warning)
    when the iteration budget runs out; raises BoundaryTrapError when the
    variance constraint traps the dispersion step, and RankDeficiencyError
    when the design loses full column rank.  Overflow stays quiet here, as
    in every public function of the fit (see ``numcore.quiet``); the
    private helpers it calls run in its error state.

    ``resume`` = (start, trace) continues this same fit: ``start`` is
    ``initialize``'s theta and ``trace`` the entries of the iterations run
    from it, as ``FitResult.trace`` records them.  The fit reads off the
    trace, with the start standing before its first entry, the iterate it
    continues from, whether it has converged there, the last score sup-norm
    and the last dispersion step, as it reads them after its own loop; a
    converged trace goes straight to the sandwich.  It rebuilds its arrays
    at that iterate with the code that built them, so the result equals the
    uninterrupted fit's field for field.  A trace longer than the budget is
    refused.  A study's lockstep block (``_fit_block``) hands each
    replicate over this way.
    """
    config = config or FitConfig()
    free = config.free_dispersion()
    if "p" in free and model.n_obs <= model.n_coef + 2:
        raise InvalidParameterError("free-power fitting needs n > Q + 2")

    # free is a contiguous part of (phi, p), so basic slices select it
    lam = slice(_LAMBDA_INDEX[free[0]], _LAMBDA_INDEX[free[-1]] + 1) if free else None
    p_floor = P_FLOOR if "p" in free else None

    if resume is None:
        start, trace = initialize(model, config), []
    else:
        start, trace = resume[0], list(resume[1])
    if len(trace) > _MAX_ITER:
        raise InvalidParameterError(
            f"cannot resume after {len(trace)} of {_MAX_ITER} iterations")
    # The last iterate, the one before it and the last score sup-norm, the
    # start standing before the first entry; the loop keeps them so.
    current, prev, score_norm = start.as_array(), None, math.inf
    if trace:
        prev = trace[-2][0] if len(trace) > 1 else current
        current, score_norm = trace[-1]
    converged = _has_converged(current, score_norm, prev)
    warn: list = []

    q = model.n_coef
    beta, phi, p = current[:q].copy(), float(current[q]), float(current[q + 1])
    X, w = model.X, model.weights
    mu, log_mu, resid, resid2 = _mean_terms(model, beta)
    C, w_phi, w_p = _dispersion_weights(mu, log_mu, phi, p)
    psi_beta = _psi_beta(X, w, mu, resid, C)
    while not converged and len(trace) < _MAX_ITER:
        prev = current
        beta = _newton_beta(X, w, mu, C, beta, psi_beta)
        _require_finite_beta(beta)
        mu, log_mu, resid, resid2 = _mean_terms(model, beta)
        C, w_phi, w_p = _dispersion_weights(mu, log_mu, phi, p)

        if free:
            psi_l = _psi_lambda(w, resid2, C, w_phi, w_p)[lam]
            delta = np.zeros(2)
            delta[lam] = _ALPHA * solve_linear(_sens_lambda(w, C, w_phi, w_p)[lam, lam], psi_l)
            phi, p, mu_p, C = _halve(phi, p, delta, mu, config.phi_sign, p_floor)
            w_phi, w_p = _lambda_weights(mu_p, C, log_mu, phi)

        # The quasi-score here is also the next beta step's psi_beta.
        psi_beta = _psi_beta(X, w, mu, resid, C)
        score = psi_beta.tolist()
        if free:
            score += _psi_lambda(w, resid2, C, w_phi, w_p)[lam]
        score_norm = _sup_norm(score)
        current = _theta_array(beta, phi, p)
        trace.append((current, score_norm))
        converged = _has_converged(current, score_norm, prev)

    if not converged:
        warn.append(f"did not converge in {_MAX_ITER} iterations "
                    f"(score sup-norm {score_norm:.3e})")

    theta = Theta(beta, phi, p)
    state = EstFunState(
        mu=mu, C=C, resid=resid, resid2=resid2, W_phi=w_phi, W_p=w_p, log_mu=log_mu,
        X=X, weights=w, theta=theta,
    )
    layout = tuple(f"beta{j}" for j in range(q)) + free
    try:
        covariance = _sandwich(state, free)
        std_errors = np.sqrt(np.diag(covariance))
    except SingularMatrixError as exc:
        warn.append(f"covariance unavailable: {exc}")
        k = len(layout)
        covariance = np.full((k, k), np.nan)
        std_errors = np.full(k, np.nan)

    if "p" in free and np.isfinite(std_errors).all():
        se_phi = std_errors[q]
        lambda_step = max(map(abs, map(sub, current[q:].tolist(), prev[q:].tolist())))
        stalled = (not converged) and lambda_step < _TOL and score_norm > _TOL
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
        iterations=len(trace),
        trace=trace,
        converged=converged,
        warnings=warn,
    )


# The lockstep block: the loop of ``fit`` at ``FitConfig()`` for R replicates
# that share one design, on (R, n) arrays.  X beta and both scores are
# estfun's own functions on a leading replicate axis, and the elementwise
# formulas take (R, 1) columns of phi and p (see estfun's docstring).
# S_beta and S_lambda keep block forms of their own, stacked products of the
# transposed factor filled one column at a time (one gemm per row), each row
# bit-equal to the 1-D product: on a 2-core x86-64 machine, one broadcast
# form shared with estfun made study cells about 7-18% slower at n = 500
# and 1000, and these column forms in estfun made the 26-row dicentrics fit
# about 15% slower.  Every (R, n) step writes into a ``_Workspace`` made
# once per chunk, so that an iteration maps no fresh pages.


class _Workspace:
    """The arrays one chunk of the lockstep block writes into: the counts Y,
    mu, log mu, y - mu, (y - mu)^2, mu^p, C, W_phi, W_p and two scratch
    arrays, each (rows, n), and two factor blocks of S_beta, which
    S_lambda's reuse.  A step on r rows uses the leading r rows of each;
    the rows that stay are compacted into them (``compact``)."""

    def __init__(self, rows, n, q):
        (self.Y, self.mu, self.log_mu, self.resid, self.resid2, self.mu_p, self.C,
         self.w_phi, self.w_p, self.scratch1, self.scratch2) = np.empty((11, rows, n))
        self.factors = np.empty((2, rows * n * max(q, 2)))

    def factor_pair(self, r, k):
        """Two contiguous (r, n, k) blocks for the factors of an S block."""
        size = r * self.Y.shape[1] * k
        return [f[:size].reshape(r, -1, k) for f in self.factors]

    def compact(self, keep, arrays):
        """Move the rows of ``arrays`` (some of the (rows, n) arrays) that
        the boolean mask ``keep`` selects to the leading rows, in order."""
        for dst, src in enumerate(np.flatnonzero(keep).tolist()):
            if src != dst:
                for a in arrays:
                    a[dst] = a[src]


def _block_mean_terms(model, Y, B, ws):
    """``_mean_terms`` row by row, for the coefficient rows ``B`` and the
    counts ``Y`` on ``model``'s design, in the workspace ``ws``: (mu, log mu,
    y - mu, (y - mu)^2) and whether each row's log mu is finite."""
    r = len(B)
    mu = ws.mu[:r]
    np.exp(model.linear_predictor(B, out=mu), out=mu)
    log_mu = np.log(mu, out=ws.log_mu[:r])
    finite = np.isfinite(np.add.reduce(log_mu, axis=1))
    resid = np.subtract(Y, mu, out=ws.resid[:r])
    return mu, log_mu, resid, np.square(resid, out=ws.resid2[:r]), finite


def _times_columns(v, columns, out):
    """Fill the (R, n, k) block ``out`` so that its column j is
    v * columns[j], one column at a time: numpy's broadcast loop over 2 or
    3 inner entries costs more than the products, which are the same."""
    for j, column in enumerate(columns):
        np.multiply(v, column, out=out[:, :, j])


def _block_sens_beta(X, mu, C, ws):
    """``_sens_beta`` row by row (R x Q x Q), the sign on -mu."""
    r = len(mu)
    left, right = ws.factor_pair(r, X.shape[1])
    _times_columns(np.negative(mu, out=ws.scratch1[:r]), X.T, left)
    _times_columns(np.divide(mu, C, out=ws.scratch2[:r]), X.T, right)
    return left.transpose(0, 2, 1) @ right


def _block_sens_lambda(C, w_phi, w_p, ws):
    """``_sens_lambda`` row by row (R x 2 x 2), the sign on -C^2."""
    r = len(C)
    left, wl = ws.factor_pair(r, 2)
    neg_c2 = np.negative(np.square(C, out=ws.scratch1[:r]), out=ws.scratch1[:r])
    for j, w in enumerate((w_phi, w_p)):  # W first, as in estfun's W * -C^2
        np.multiply(w, neg_c2, out=left[:, :, j])
        wl[:, :, j] = w
    return left.transpose(0, 2, 1) @ wl


def _pivots_clear(A, b):
    """The rows j of the stack ``A`` (R x q x q) on which solve_linear(A[j],
    b[j]) is sure to pass its checks: A[j] and b[j] finite, and every pivot
    of A[j]'s partially pivoted LU above solve_linear's cut 1e-12 max|A[j]|.

    With PA = LU, |L| <= 1 and U^{-1} = A^{-1} P^T L, so 1/|u_kk| is at most
    a row's absolute sum of A^{-1}: cofactors over det A.  Scaled to
    max|A| = 1, Hadamard's inequality bounds each cofactor by
    (q-1)^((q-1)/2), so every pivot is at least |det| / (q (q-1)^((q-1)/2))
    times max|A|; the rows cleared are those where that bound is twice the
    cut.  LAPACK's computed factors are exact for A + E with |E| <= gamma_q
    q 2^(q-1) max|A| (Higham, Thm 9.3; growth at most 2^(q-1)), for gesv
    and for numpy's determinant alike, and for q <= 5 each moves the scaled
    determinant by under an eighth of the bound: the factor 2 covers both.
    That holds while no step under- or overflows, so max|A| must lie within
    1e-250 and 1e250; a zero or non-finite A[j] lies outside, and orders
    above 5 clear nothing.
    """
    q = A.shape[-1]
    if q > 5:
        return np.zeros(len(A), dtype=bool)
    scale = np.abs(A).max(axis=(1, 2))
    det = np.linalg.det(A / scale[:, None, None])
    return ((np.abs(det) > 2e-12 * q * (q - 1) ** ((q - 1) / 2))
            & (scale > 1e-250) & (scale < 1e250) & np.isfinite(b).all(axis=1))


def _solve_rows(A, b, ok) -> np.ndarray:
    """solve_linear(A[j], b[j]) for each row j still ok, bit for bit; a row
    whose solve refuses is marked not ok, and its solution is left at 0.

    The rows ``_pivots_clear`` clears are solved together by numpy's
    batched gesv, the LAPACK routine solve_linear calls, and equal its
    per-row results bit for bit; the others go through solve_linear, so
    every refusal is its own.  For 50 systems of order 2 or 3, solve_linear
    row by row takes about 217 us and this about 52 us (2-core x86-64).
    """
    clear = ok & _pivots_clear(A, b)
    if clear.all():
        return np.linalg.solve(A, b[:, :, None])[:, :, 0]
    out = np.zeros(b.shape)
    if clear.any():
        out[clear] = np.linalg.solve(A[clear], b[clear][:, :, None])[:, :, 0]
    for j in np.flatnonzero(ok & ~clear).tolist():
        try:
            out[j] = solve_linear(A[j], b[j])
        except PtwError:
            ok[j] = False
    return out


@quiet
def _fit_block(models: list) -> list:
    """Run the chaser at ``FitConfig()`` on every model at once, up to where
    ``fit`` must take over each one: a resume (start, trace) per model, or
    None where ``fit`` must start from scratch (``initialize`` refuses the
    model).

    The models share one design array and carry neither weights nor an
    offset, as a study's replicates at one sample size do.  Their starts
    are ``initialize``'s, its Newton loop run for all of them at once
    (``_block_starts``); then iteration k is run for every model on (R, n)
    arrays, a dispersion step that needs halving or the power floor taking
    ``_halve`` on its own row.  The iteration is committed to the model's
    trace unless it refused something (a non-finite score sup-norm counts)
    or left p on one of ``_FAST_POWERS``, and the model stops there; it
    also stops once it converges or has run the budget.  The rest — the
    uncommitted iteration and all after it, every refusal, the sandwich and
    the warnings — is ``fit``'s, which makes ``fit(model, resume=resume)``
    equal ``fit(model)`` field for field.  The models run in chunks of
    ``_BLOCK_CELLS`` cells.
    """
    resumes = [None] * len(models)
    if not models:
        return resumes
    X = models[0].X
    if any(m.X is not X or m.weights is not None or m.offset is not None for m in models):
        raise InvalidParameterError(
            "a lockstep block needs one shared design and no weights or offset")
    n, q = X.shape
    if n <= q + 2:
        return resumes  # fit refuses a free power here before it starts
    step = max(1, _BLOCK_CELLS // n)
    for lo in range(0, len(models), step):
        resumes[lo:lo + step] = _lockstep(X, models[lo:lo + step])
    return resumes


def _block_starts(X, models, ws) -> list:
    """``initialize(model)`` for each model, bit for bit, or None where it
    refuses.  The least-squares start stays per model (the batched form
    differs in its last bits); the Poisson Newton loop runs on (R, n)
    arrays of the workspace ``ws``, each row stopping where
    ``initialize``'s loop would.  It fills ``ws.Y`` with the models' counts."""
    starts = [None] * len(models)
    B = np.array([np.linalg.lstsq(X, np.log(m.y + 0.5), rcond=None)[0] for m in models])
    R = len(models)
    Y = ws.Y[:R]
    for j, m in enumerate(models):
        Y[j] = m.y
    ok = np.isfinite(B).all(axis=1)
    running = np.flatnonzero(ok)
    for _ in range(100):
        r = running.size
        if not r:
            break
        beta = B[running]
        # the running rows' counts, gathered into W_p, which this loop leaves
        # free ("clip" writes them there directly; "raise" would buffer them)
        counts = Y if r == R else np.take(Y, running, axis=0, out=ws.w_p[:r], mode="clip")
        # At phi = 0 the variance mu + 0 * mu**1 is mu itself, bit for bit.
        mu, _, resid, _, good = _block_mean_terms(models[0], counts, beta, ws)
        beta_new = beta - _solve_rows(_block_sens_beta(X, mu, mu, ws),
                                      _psi_beta(X, None, mu, resid, mu, ws.scratch1[:r]), good)
        good &= np.isfinite(beta_new).all(axis=1)
        done = np.abs(beta_new - beta).max(axis=1) < 1e-10
        B[running] = beta_new
        ok[running[~good]] = False
        running = running[good & ~done]

    p0 = 1.5  # initialize's start for a free power
    mu = ws.mu[:R]
    np.exp(models[0].linear_predictor(B, out=mu), out=mu)
    dev = ws.scratch1[:R]
    np.subtract(np.square(np.subtract(Y, mu, out=dev), out=dev), mu, out=dev)
    mu_p = np.power(mu, p0, out=ws.scratch2[:R])
    phi0 = (np.add.reduce(dev, axis=1) / np.add.reduce(mu_p, axis=1)).tolist()
    mu_p = np.power(mu, 1.0 - p0, out=mu_p)
    phi_floor = (-0.9 * np.minimum.reduce(mu_p, axis=1)).tolist()
    for i in np.flatnonzero(ok).tolist():
        phi = max(phi0[i], phi_floor[i])  # Python's max, as initialize's
        if math.isfinite(phi):
            starts[i] = Theta(B[i].copy(), phi, p0)
    return starts


def _lockstep(X, models):
    """``_fit_block`` on one chunk of models, in one workspace."""
    ws = _Workspace(len(models), *X.shape)
    starts = _block_starts(X, models, ws)
    resumes = [None if start is None else (start, []) for start in starts]
    running = [resume for resume in resumes if resume is not None]  # one per row
    if not running:
        return resumes
    ws.compact([start is not None for start in starts], (ws.Y,))
    B = np.array([start.beta for start, _ in running])
    phi = np.array([start.phi for start, _ in running])
    p = np.array([start.p for start, _ in running])
    traces = [trace for _, trace in running]
    r, q = len(traces), X.shape[1]

    # The state fit holds before its first iteration.
    mu, _, resid, _, ok = _block_mean_terms(models[0], ws.Y[:r], B, ws)
    C = _variance(mu, phi[:, None], p[:, None], out=(ws.mu_p[:r], ws.C[:r]))[1]
    ok &= ~(np.fmin.reduce(C, axis=1, initial=math.inf) <= 0)
    psi_beta = _psi_beta(X, None, mu, resid, C, ws.scratch1[:r])
    current = np.concatenate([B, phi[:, None], p[:, None]], axis=1)

    for _ in range(_MAX_ITER):
        if not ok.all():
            if not ok.any():
                break
            traces = [trace for trace, kept in zip(traces, ok.tolist()) if kept]
            B, phi, p = B[ok], phi[ok], p[ok]
            psi_beta, current = psi_beta[ok], current[ok]
            ws.compact(ok, (ws.Y, ws.mu, ws.C))  # mu and C feed S_beta
            ok = ok[ok]
            r = len(traces)

        B_new = B - _solve_rows(_block_sens_beta(X, ws.mu[:r], ws.C[:r], ws), psi_beta, ok)
        ok &= np.isfinite(B_new).all(axis=1)
        mu, log_mu, resid, resid2, finite = _block_mean_terms(models[0], ws.Y[:r], B_new, ws)
        ok &= finite
        mu_p, C = _variance(mu, phi[:, None], p[:, None], out=(ws.mu_p[:r], ws.C[:r]))
        ok &= ~(np.fmin.reduce(C, axis=1, initial=math.inf) <= 0)
        w = (ws.w_phi[:r], ws.w_p[:r])
        w_phi, w_p = _lambda_weights(mu_p, C, log_mu, phi[:, None], out=w)
        scratch = (ws.scratch1[:r], ws.scratch2[:r])
        psi_l = np.empty((r, 2))
        psi_l[:, 0], psi_l[:, 1] = _psi_lambda(None, resid2, C, w_phi, w_p, out=scratch)
        delta = _ALPHA * _solve_rows(_block_sens_lambda(C, w_phi, w_p, ws), psi_l, ok)
        phi_new, p_new = phi - delta[:, 0], p - delta[:, 1]
        mu_p, C = _variance(mu, phi_new[:, None], p_new[:, None], out=(mu_p, C))
        # Where _halve would not take the first trial point, it runs on the row.
        first = (~(p_new < P_FLOOR) & np.isfinite(phi_new) & np.isfinite(p_new)
                 & (np.minimum.reduce(C, axis=1, initial=math.inf) > 0)
                 & (np.maximum.reduce(C, axis=1, initial=-math.inf) < math.inf))
        for j in np.flatnonzero(ok & ~first).tolist():
            try:
                phi_new[j], p_new[j], mu_p[j], C[j] = _halve(
                    phi[j], p[j], delta[j].copy(), mu[j], "any", P_FLOOR)
            except PtwError:
                ok[j] = False
        for fast in _FAST_POWERS:
            ok &= p_new != fast
        w_phi, w_p = _lambda_weights(mu_p, C, log_mu, phi_new[:, None], out=w)
        psi_beta = _psi_beta(X, None, mu, resid, C, scratch[0])
        score = np.empty((r, q + 2))
        score[:, :q] = psi_beta
        score[:, q], score[:, q + 1] = _psi_lambda(None, resid2, C, w_phi, w_p, out=scratch)
        norm = np.abs(score, out=score).max(axis=1)
        new = np.concatenate([B_new, phi_new[:, None], p_new[:, None]], axis=1)
        ok &= np.isfinite(norm)
        # Each iteration run as fit runs it is committed; a row stops once it
        # converges, and the budget ends with the loop.
        for j, norm_j in zip(np.flatnonzero(ok).tolist(), norm[ok].tolist()):
            traces[j].append((new[j], norm_j))
        ok &= ~((norm < _TOL) & (np.abs(new - current).max(axis=1) < _TOL))
        B, phi, p, current = B_new, phi_new, p_new, new
    return resumes
