"""COM-Poisson and Gamma-Count generators, and the moment mapping.

Both families produce genuinely underdispersed counts and serve as data
generators for benchmarking the extended (negative-dispersion) model.  The
moment mapping translates generator parameters (lambda0, lambda1, nu) into
the implied (beta0, beta1, phi, p): it reads exact means and variances off
the cached CDF tables over a covariate grid and fits the two nonlinear
moment models E(Y) = exp(beta0 + beta1 x1) and Var(Y) = E(Y) + phi E(Y)**p.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import gammainc, gammaln

from .errors import InvalidParameterError, NonConvergenceError
from .numcore import RngStream, _sample_size, solve_linear

_SERIES_TOL = 1e-12
_CDF_TAIL = 1e-12
# Cells of a pmf or CDF table, rows y = 0..Y* by one column per lambda:
# every study scenario and moment mapping needs under 10^6 (compoisson-nu2,
# 880 rows by 1,000 columns, is the largest), and 10^7 cells is 80 MB.
_MAX_TABLE_CELLS = 10**7
# Sampling compares the uniforms with the CDF table in blocks of draws of
# about this many cells, so its memory does not grow with the draw count.
_BLOCK_CELLS = 2**22


@dataclass(frozen=True)
class _LamNu:
    """A generator's (lambda, nu), both finite and positive.

    Each family subclasses it; the dataclass equality compares classes, so
    equal parameters of different families stay unequal.
    """

    lam: float
    nu: float

    def __post_init__(self):
        for name, value in (("lambda", self.lam), ("nu", self.nu)):
            if not (np.isfinite(value) and value > 0):
                raise InvalidParameterError(f"{name} must be positive, got {value}")


class ComPoissonParams(_LamNu):
    """COM-Poisson CP(lambda, nu): pmf proportional to lambda**y / (y!)**nu."""


class GammaCountParams(_LamNu):
    """Gamma-Count GC(lambda, nu): counts of gamma(nu, nu*lambda) arrivals."""


def _table_rows(y_max: float, columns: int) -> int:
    """Y* as an int, refused before any allocation when a table of Y* rows
    by ``columns`` would pass ``_MAX_TABLE_CELLS`` cells."""
    limit = _MAX_TABLE_CELLS / columns
    if not y_max < limit:
        at = f" at {columns} columns" if columns > 1 else ""
        raise InvalidParameterError(
            f"lambda and nu need a table of {y_max:.3g} rows, above the limit of "
            f"{limit:.3g}{at}"
        )
    return int(y_max)


def _compoisson_log_weights(lam: np.ndarray, nu: float) -> np.ndarray:
    """Unnormalized log pmf table, rows y = 0..Y*, one column per lambda.

    Y* is grown until the next term is below 1e-12 of every column's
    partial sum (checked past the mode, where terms are decreasing).
    """
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    log_lam = np.log(lam)
    with np.errstate(over="ignore"):  # an infinite mode is refused below
        mode = np.max(lam) ** (1.0 / nu)
    y_max = _table_rows(mode + 30.0 * np.sqrt(mode / nu + 1.0) + 50.0, lam.size)
    while True:
        y = np.arange(y_max + 1)
        logw = y[:, None] * log_lam[None, :] - nu * gammaln(y + 1)[:, None]
        top = np.max(logw, axis=0)
        total = top + np.log(np.sum(np.exp(logw - top), axis=0))
        if np.all(logw[-1] < total + np.log(_SERIES_TOL)):
            return logw - total
        y_max = _table_rows(2 * y_max, lam.size)


def compoisson_pmf(params: ComPoissonParams, y) -> np.ndarray | float:
    """Exact pmf, normalized by the truncated series; 0 outside the counts
    0..Y*."""
    logw = _compoisson_log_weights(np.array([params.lam]), params.nu)[:, 0]
    y = np.asarray(y)
    inside = (y >= 0) & (y <= len(logw) - 1) & (y == np.floor(y))
    out = np.where(inside, np.exp(logw[np.where(inside, y, 0).astype(int)]), 0.0)
    return out if out.ndim else float(out)


def _cached_table(build):
    """Turn ``build(uniq, nu) -> cdf``, a (Y*+1) x n_unique CDF table over
    sorted unique lambdas, into ``table(lam.tobytes(), nu) -> (cdf, inv)``
    memoized by the content of the lambda vector, with ``inv`` mapping each
    entry of ``lam`` to its column.

    Every replicate of a study cell has the same lambda vector, so its table
    is built once.  The compact table is cached, not the table expanded to
    one column per draw, and both arrays are read-only.
    """

    @lru_cache(maxsize=16)
    def table(key: bytes, nu: float) -> tuple[np.ndarray, np.ndarray]:
        uniq, inv = np.unique(np.frombuffer(key), return_inverse=True)
        cdf = build(uniq, nu)
        cdf.setflags(write=False)
        inv.setflags(write=False)
        return cdf, inv

    return table


@_cached_table
def _compoisson_table(uniq: np.ndarray, nu: float) -> np.ndarray:
    return np.cumsum(np.exp(_compoisson_log_weights(uniq, nu)), axis=0)


def _sample_lam(table, lam, nu: float, gen) -> np.ndarray:
    """One draw per entry of ``lam`` by inverting ``table``'s CDF columns."""
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    if lam.size == 0:  # no lambdas to build a table over
        return np.zeros(0, dtype=np.int64)
    cdf, inv = table(lam.tobytes(), nu)
    u = gen.random(lam.shape[0])
    # Each count sums the same comparisons, whatever the blocks.
    step = max(1, _BLOCK_CELLS // cdf.shape[0])
    counts = np.concatenate([
        np.sum(cdf[:, inv[i:i + step]] < u[None, i:i + step], axis=0)
        for i in range(0, u.size, step)
    ])
    return np.minimum(counts, cdf.shape[0] - 1)


def _sample_iid(sample_lam, params: _LamNu, n: int, rng: RngStream) -> np.ndarray:
    """n i.i.d. draws at ``params`` from a ``*_sample_lam`` sampler."""
    return sample_lam(np.full(_sample_size(n), params.lam), params.nu, rng.generator())


def compoisson_sample_lam(lam, nu: float, gen) -> np.ndarray:
    """One CP(lam_i, nu) draw per entry of ``lam`` by CDF inversion."""
    return _sample_lam(_compoisson_table, lam, nu, gen)


def compoisson_sample(params: ComPoissonParams, n: int, rng: RngStream) -> np.ndarray:
    """n i.i.d. COM-Poisson counts."""
    return _sample_iid(compoisson_sample_lam, params, n, rng)


def gammacount_pmf(params: GammaCountParams, y) -> np.ndarray | float:
    """P(Y = y) = G(y nu, nu lambda) - G((y+1) nu, nu lambda), with the
    regularized lower incomplete gamma G and the G(0, .) = 1 convention;
    0 at a y that is not a count."""
    y = np.asarray(y, dtype=float)
    t = params.nu * params.lam
    out = gammainc(np.maximum(y * params.nu, 0.0), t) - gammainc((y + 1) * params.nu, t)
    # gammainc(0, t) = 1 covers y = 0 automatically
    out = np.where((y >= 0) & (y == np.floor(y)), out, 0.0)
    return out if out.ndim else float(out)


@_cached_table
def _gammacount_table(uniq: np.ndarray, nu: float) -> np.ndarray:
    """The CDF telescopes: P(Y <= y) = 1 - G((y+1) nu, nu lambda)."""
    t = nu * uniq
    y_max = _table_rows(uniq.max() + 30.0 * np.sqrt(uniq.max() / nu + 1.0) + 30.0, uniq.size)
    while (gammainc((y_max + 1) * nu, t) >= _CDF_TAIL).any():
        y_max = _table_rows(2 * y_max, uniq.size)
    y = np.arange(y_max + 1)
    return 1.0 - gammainc((y[:, None] + 1) * nu, t[None, :])


def gammacount_sample_lam(lam, nu: float, gen) -> np.ndarray:
    """One GC(lam_i, nu) draw per entry of ``lam`` by CDF inversion."""
    return _sample_lam(_gammacount_table, lam, nu, gen)


def gammacount_sample(params: GammaCountParams, n: int, rng: RngStream) -> np.ndarray:
    """n i.i.d. Gamma-Count counts."""
    return _sample_iid(gammacount_sample_lam, params, n, rng)


@dataclass(frozen=True)
class MomentMap:
    """Implied moment parameters of a generator, with NLS fit diagnostics."""

    beta0: float
    beta1: float
    phi: float
    p: float
    mean_resid_norm: float
    var_resid_norm: float


def _gauss_newton(model_fn, jac_fn, target, x0, max_iter=100, tol=1e-10):
    """Minimize ||target - model(x)||^2 by Gauss-Newton with step halving."""
    x = np.asarray(x0, dtype=float)
    resid = target - model_fn(x)
    sse = float(resid @ resid)
    for _ in range(max_iter):
        jac = jac_fn(x)
        delta = solve_linear(jac.T @ jac, jac.T @ resid)
        step = 1.0
        for _ in range(31):
            x_new = x + step * delta
            resid_new = target - model_fn(x_new)
            sse_new = float(resid_new @ resid_new)
            if np.isfinite(sse_new) and sse_new <= sse:
                break
            step /= 2.0
        else:
            raise NonConvergenceError("Gauss-Newton step halving failed")
        moved = float(np.max(np.abs(x_new - x)))
        x, resid, sse = x_new, resid_new, sse_new
        if moved < tol * max(1.0, float(np.max(np.abs(x)))):
            return x, float(np.sqrt(sse))
    raise NonConvergenceError(f"Gauss-Newton did not converge in {max_iter} iterations")


_GRID_LENGTH = 1000
_TABLES = {"com-poisson": _compoisson_table, "gamma-count": _gammacount_table}


def _table_moments(table, lam: np.ndarray, nu: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact mean and variance for each entry of ``lam`` from a cached CDF table."""
    cdf, inv = table(lam.tobytes(), nu)
    _table_rows(cdf.shape[0] - 1, lam.size)  # the pmf below has a column per lambda
    pmf = np.diff(cdf, axis=0, prepend=0.0)[:, inv]
    y = np.arange(cdf.shape[0], dtype=float)[:, None]
    means = np.sum(y * pmf, axis=0)
    return means, np.sum((y - means) ** 2 * pmf, axis=0)


def moment_map(family: str, lambda0: float, lambda1: float, nu: float) -> MomentMap:
    """Map generator parameters to the implied (beta0, beta1, phi, p).

    On an equally spaced grid of 1,000 x1 values in [-1, 1], with
    lambda_i = exp(lambda0 + lambda1 x1), takes each point's exact mean and
    variance from the generator's CDF table, then fits
    E(Y) = exp(beta0 + beta1 x1) followed by Var(Y) - E(Y) = phi E(Y)**p
    on the fitted means, both by Gauss-Newton least squares.

    When every excess Var(Y) - E(Y) is at rounding level (nu = 1, where both
    families are Poisson) the variance fit is singular; phi is then 0 and p
    is reported as 1, since at phi = 0 the variance is E(Y) for every p.
    """
    if family not in _TABLES:
        raise InvalidParameterError(
            f"family must be one of {sorted(_TABLES)}, got {family!r}"
        )
    x1 = np.linspace(-1.0, 1.0, _GRID_LENGTH)
    lam = np.exp(lambda0 + lambda1 * x1)
    means, variances = _table_moments(_TABLES[family], lam, nu)

    design_mat = np.column_stack([np.ones_like(x1), x1])

    def mean_model(b):
        return np.exp(design_mat @ b)

    def mean_jac(b):
        return mean_model(b)[:, None] * design_mat

    b0 = np.linalg.lstsq(design_mat, np.log(np.maximum(means, 1e-12)), rcond=None)[0]
    beta, mean_resid = _gauss_newton(mean_model, mean_jac, means, b0)

    fitted = mean_model(beta)
    log_fitted = np.log(fitted)
    excess = variances - fitted

    def var_model(x):
        phi, p = x
        return phi * fitted**p

    def var_jac(x):
        phi, p = x
        m_p = fitted**p
        return np.column_stack([m_p, phi * m_p * log_fitted])

    if np.all(np.abs(excess) <= 1e-9 * fitted):
        phi, p = 0.0, 1.0
        var_resid = float(np.linalg.norm(excess))
    else:
        (phi, p), var_resid = _gauss_newton(
            var_model, var_jac, excess, np.array([-0.5, 1.1])
        )

    return MomentMap(
        beta0=float(beta[0]),
        beta1=float(beta[1]),
        phi=float(phi),
        p=float(p),
        mean_resid_norm=mean_resid,
        var_resid_norm=var_resid,
    )
