"""The Poisson-Tweedie distribution: Y | Z ~ Poisson(Z), Z ~ Tw_p(mu, phi).

Sampling, pmf evaluation (exact where a closed form or lattice sum exists,
Gauss-Laguerre or Monte Carlo otherwise), the zero probability through the
mixing Laplace transform, the dispersion / zero-inflation / heavy-tail
indices, and the Monte Carlo log-likelihood with a delta-method standard
error.  The moment convention is E(Y) = mu, Var(Y) = C = mu + phi * mu**p;
phi may be negative at the moment level (underdispersion) but no pmf exists
there and probability operations refuse.
"""

from __future__ import annotations

import hashlib
import struct
import warnings
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.special import gammaln
from scipy.stats import poisson as _poisson_dist

from .errors import (
    InvalidParameterError,
    NoDistributionError,
    NonpositivePmfError,
    UnreliableEstimateError,
    VarianceNonpositiveError,
)
from .numcore import RngStream, gauss_laguerre
from .tweedie import TweedieParams, sample_tweedie_mu, tweedie_density, tweedie_laplace

# With phi * mu**p at or below this, the mixing distribution is numerically
# degenerate at mu and the pmf is Poisson to more digits than MC can resolve.
_POISSON_LIMIT = 1e-6
# Order of the Gauss-Laguerre rule used at p = 3.
_QUAD_NODES = 128
# Poisson tail mass of the mixing lattice left out of the p = 1 sum.
_LATTICE_TOL = 1e-12


@dataclass(frozen=True)
class PtwParams:
    """Poisson-Tweedie parameters: mean mu, dispersion phi, power p.

    Probabilistic operations (sampling, pmf, indices built on probabilities)
    require phi > 0 and p >= 1.  Moment-level quantities only require the
    variance constraint mu + phi * mu**p > 0, i.e. phi > -mu**(1-p).
    """

    mu: float
    phi: float
    p: float

    def __post_init__(self):
        if not (np.isfinite(self.mu) and self.mu > 0):
            raise InvalidParameterError(f"mu must be positive, got {self.mu}")
        if not (np.isfinite(self.phi) and np.isfinite(self.p)):
            raise InvalidParameterError("phi and p must be finite")

    def variance(self) -> float:
        """Var(Y) = mu + phi * mu**p, checked positive."""
        c = self.mu + self.phi * self.mu**self.p
        if c <= 0:
            raise VarianceNonpositiveError(
                f"mu + phi*mu^p = {c:.6g} <= 0 at (mu={self.mu}, phi={self.phi}, p={self.p})"
            )
        return c


@dataclass(frozen=True)
class PmfEstimate:
    """A pmf value with its Monte Carlo standard error (0 for exact methods)."""

    value: float
    mc_stderr: float
    method: str  # monte-carlo | gauss-laguerre | exact-sum | closed-form


@dataclass(frozen=True)
class PmfConfig:
    """Evaluation budget: Monte Carlo draw count and random stream."""

    mc_draws: int = 100_000
    rng: RngStream = field(default=RngStream(0))


def _check_probabilistic(params: PtwParams) -> None:
    if params.phi < 0:
        raise NoDistributionError(
            f"no probability mass function exists for phi = {params.phi} < 0"
        )
    if params.p < 1:
        raise InvalidParameterError(f"pmf evaluation requires p >= 1, got {params.p}")


def ptw_sample(params: PtwParams, n: int, rng: RngStream) -> np.ndarray:
    """n Poisson-Tweedie draws via Z ~ Tw_p(mu, phi), then Y | Z ~ Poisson(Z)."""
    _check_probabilistic(params)
    if params.phi == 0:
        raise InvalidParameterError("sampling requires phi > 0 (phi = 0 is Poisson)")
    gen = rng.generator()
    return sample_ptw_mu(np.full(int(n), params.mu), params.phi, params.p, gen)


def sample_ptw_mu(mu, phi: float, p: float, gen) -> np.ndarray:
    """One count per entry of ``mu``: vectorized Poisson-Tweedie sampling core."""
    z = sample_tweedie_mu(mu, phi, p, gen)
    return gen.poisson(z)


@lru_cache(maxsize=32)
def _mixing_draws(mu: float, phi: float, p: float, m: int, rng: RngStream) -> np.ndarray:
    """Common random numbers: M mixing draws shared across every y for a
    given parameter set, so pmf curves are smooth and consecutive-probability
    ratios are valid.

    Each parameter set draws from its own substream (indexed by a hash of
    the parameters), so estimates for different parameter sets are
    independent and their MC variances add — which is exactly what the
    aggregate log-likelihood standard error assumes.
    """
    digest = hashlib.blake2s(
        struct.pack("<ddd", mu, phi, p), digest_size=8
    ).digest()
    gen = rng.substream(int.from_bytes(digest, "little")).generator()
    z = sample_tweedie_mu(np.full(m, mu), phi, p, gen)
    z.setflags(write=False)
    return z


def _poisson_logpmf(y: int, z: np.ndarray) -> np.ndarray:
    """log Poisson(y; z) over a vector of intensities, z = 0 handled exactly."""
    with np.errstate(divide="ignore", invalid="ignore"):
        logp = y * np.log(z) - z - gammaln(y + 1)
    if y == 0:
        logp = np.where(z == 0, 0.0, logp)
    else:
        logp = np.where(z == 0, -np.inf, logp)
    return logp


def _pmf_closed_poisson(mu: float, y: int) -> PmfEstimate:
    logp = y * np.log(mu) - mu - gammaln(y + 1)
    return PmfEstimate(float(np.exp(logp)), 0.0, "closed-form")


def _pmf_closed_nb(params: PtwParams, y: int) -> PmfEstimate:
    # Poisson-gamma mixture: size r = 1/phi, success probability 1/(1 + phi*mu)
    r = 1.0 / params.phi
    q = params.phi * params.mu  # odds of failure
    logp = (
        gammaln(y + r)
        - gammaln(r)
        - gammaln(y + 1)
        - r * np.log1p(q)
        + y * (np.log(q) - np.log1p(q))
    )
    return PmfEstimate(float(np.exp(logp)), 0.0, "closed-form")


def _pmf_lattice_p1(params: PtwParams, y: int) -> PmfEstimate:
    """Exact lattice sum at p = 1, where Z = phi * N with N ~ Poisson(mu/phi):
    P(Y=y) = sum_k Poisson(y; phi*k) Poisson(k; mu/phi), truncated once the
    Poisson tail mass of N beyond the last term is below ``_LATTICE_TOL``."""
    lam = params.mu / params.phi
    k_max = int(_poisson_dist.ppf(1.0 - _LATTICE_TOL, lam)) + 10
    k = np.arange(k_max + 1)
    log_prior = k * np.log(lam) - lam - gammaln(k + 1)
    z = params.phi * k
    log_lik = _poisson_logpmf(y, z)
    value = float(np.sum(np.exp(log_prior + log_lik)))
    return PmfEstimate(min(value, 1.0), 0.0, "exact-sum")


@lru_cache(maxsize=1)
def _gl_rule():
    return gauss_laguerre(_QUAD_NODES)


def _pmf_quadrature_p3(params: PtwParams, y: int) -> PmfEstimate | None:
    """Gauss-Laguerre evaluation of the p = 3 mixture integral
    f(y) = int_0^inf Poisson(y; z) IG(z; mu, 1/phi) dz.

    Returns None when the rule cannot resolve the integrand (y beyond half
    the node range, mixing density narrower than the local node spacing, or
    a non-finite / out-of-range result), signalling the Monte Carlo fallback.
    """
    rule = _gl_rule()
    x, w = rule.nodes, rule.weights
    if y > 0.5 * x[-1]:
        return None
    sd = np.sqrt(params.phi * params.mu**3)
    idx = int(np.searchsorted(x, params.mu))
    if idx <= 0 or idx >= len(x):
        return None
    if sd < 2.0 * (x[idx] - x[idx - 1]):
        return None
    # Gauss-Laguerre absorbs e^{-z}: integrand/e^{-z} = z^y/y! * IG(z)
    with np.errstate(divide="ignore"):
        logg = y * np.log(x) - gammaln(y + 1) + np.log(tweedie_density(params_as_tweedie(params), x))
    value = float(np.sum(w * np.exp(logg)))
    if not np.isfinite(value) or value <= 0.0 or value > 1.0 + 1e-9:
        return None
    return PmfEstimate(min(value, 1.0), 0.0, "gauss-laguerre")


def params_as_tweedie(params: PtwParams) -> TweedieParams:
    """The mixing-distribution parameters of a Poisson-Tweedie law."""
    return TweedieParams(params.mu, params.phi, params.p)


def _pmf_monte_carlo(params: PtwParams, y: int, budget: PmfConfig) -> PmfEstimate:
    z = _mixing_draws(params.mu, params.phi, params.p, budget.mc_draws, budget.rng)
    probs = np.exp(_poisson_logpmf(y, z))
    value = float(np.mean(probs))
    stderr = float(np.std(probs, ddof=1) / np.sqrt(len(probs)))
    return PmfEstimate(min(value, 1.0), stderr, "monte-carlo")


def ptw_pmf(params: PtwParams, y: int, budget: PmfConfig | None = None) -> PmfEstimate:
    """P(Y = y) with method dispatch.

    p = 2 uses the negative-binomial closed form; p = 1 the exact lattice
    sum over the scaled-Poisson mixing distribution; p = 3 Gauss-Laguerre
    quadrature with a Monte Carlo fallback; every other power averages the
    Poisson pmf over mixing draws that are shared across y (common random
    numbers), reporting the Monte Carlo standard error.  phi * mu**p below
    1e-6 short-circuits to the exact Poisson pmf.
    """
    budget = budget or PmfConfig()
    _check_probabilistic(params)
    y = _check_count(y)
    est = _pmf_exact(params, y)
    if est is not None:
        return est
    if params.p == 3.0:
        warnings.warn(
            f"Gauss-Laguerre rule ({_QUAD_NODES} nodes) cannot resolve "
            f"(mu={params.mu}, phi={params.phi}, y={y}); falling back to Monte Carlo",
            stacklevel=2,
        )
    return _pmf_monte_carlo(params, y, budget)


def _pmf_exact(params: PtwParams, y: int) -> PmfEstimate | None:
    """The exact (non-Monte Carlo) route for checked (params, y), or None
    where Monte Carlo is needed.  At p = 3, None means the Gauss-Laguerre
    rule could not resolve the integrand; callers warn about that fallback."""
    if params.phi * params.mu**params.p <= _POISSON_LIMIT:
        return _pmf_closed_poisson(params.mu, y)
    if params.p == 2.0:
        return _pmf_closed_nb(params, y)
    if params.p == 1.0:
        return _pmf_lattice_p1(params, y)
    if params.p == 3.0:
        return _pmf_quadrature_p3(params, y)
    return None


def ptw_pmf_curve(params: PtwParams, ys, budget: PmfConfig | None = None) -> list[PmfEstimate]:
    """pmf estimates over a y grid, sharing one set of mixing draws."""
    return [ptw_pmf(params, y, budget) for y in ys]


def _check_count(y) -> int:
    try:
        count = int(y)
    except (ValueError, OverflowError):  # nan, inf
        count = None
    if count is None or y != count or count < 0:
        raise InvalidParameterError(f"y must be a non-negative integer, got {y}")
    return count


def ptw_pzero(params: PtwParams) -> float:
    """P(Y = 0) = E[exp(-Z)]: the mixing Laplace transform at s = 1."""
    _check_probabilistic(params)
    if params.phi == 0 or params.phi * params.mu**params.p <= _POISSON_LIMIT:
        return float(np.exp(-params.mu))
    return float(tweedie_laplace(params_as_tweedie(params), 1.0))


def dispersion_index(params: PtwParams) -> float:
    """DI = Var(Y)/E(Y) = 1 + phi * mu**(p-1); valid for negative phi too."""
    params.variance()
    return 1.0 + params.phi * params.mu ** (params.p - 1.0)


def zero_inflation_index(params: PtwParams) -> float:
    """ZI = 1 + log P(Y=0) / mu; zero for Poisson, positive under zero-inflation."""
    return 1.0 + np.log(ptw_pzero(params)) / params.mu


def heavy_tail_index(params: PtwParams, y: int, budget: PmfConfig | None = None) -> float:
    """HT(y) = P(Y = y+1)/P(Y = y): the consecutive-probability ratio.

    The denominator estimate must exceed 10x its Monte Carlo standard error;
    otherwise the ratio is numerically meaningless and an
    UnreliableEstimateError is raised.  The index is reported at finite y
    only — no limit is extrapolated.
    """
    y = _check_count(y)
    den = ptw_pmf(params, y, budget)
    _check_ratio_denominator(y, den)
    num = ptw_pmf(params, y + 1, budget)
    return num.value / den.value


def _check_ratio_denominator(y: int, den: PmfEstimate) -> None:
    """Refuse a consecutive-probability ratio whose denominator pmf(y) is
    zero or not above 10x its Monte Carlo standard error."""
    if den.value <= 10.0 * den.mc_stderr or den.value == 0.0:
        raise UnreliableEstimateError(
            f"pmf({y}) = {den.value:.3e} (MC s.e. {den.mc_stderr:.3e}) is too noisy "
            "for a consecutive-probability ratio; raise the MC budget"
        )


@dataclass(frozen=True)
class LoglikResult:
    """Log-likelihood value with aggregate Monte Carlo standard error."""

    value: float
    mc_stderr: float
    method: str


def ptw_loglik(mu, phi, p, y, budget: PmfConfig | None = None) -> LoglikResult:
    """sum_i log P(Y = y_i) at per-observation parameters (mu_i, phi_i, p_i).

    Each of ``mu``, ``phi`` and ``p`` is a scalar or an array of ``y``'s
    shape; ``y`` holds non-negative integer counts.  Every unique
    (mu, phi, p, y) combination is evaluated once, with its multiplicity,
    and the parameter sets are visited in order of first occurrence (the
    counts of a set likewise), so the floating-point sums have a fixed order.
    A count with no exact route goes straight to the Monte Carlo aggregate
    below; p = 3 counts that the Gauss-Laguerre rule cannot resolve go there
    too, with one warning per call that says how many (mu, y) pairs did.
    For Monte Carlo groups the standard error accounts for the draws being
    shared across counts within a parameter set: with f_hat(y) the MC
    pmf and n_y the multiplicity, the delta method gives
    Var(sum n_y log f_hat(y)) = Var_k(g_k)/M per parameter set, where
    g_k = sum_y (n_y / f_hat(y)) P(y; Z_k).

    Raises
    ------
    InvalidParameterError
        If a shape does not match ``y``, a count is not a non-negative
        integer, mu is not finite and positive, phi or p is not finite, or
        p < 1.
    NoDistributionError
        If phi < 0.
    NonpositivePmfError
        If any pmf estimate is exactly zero (for Monte Carlo, raise the budget).
    """
    budget = budget or PmfConfig()
    y = np.asarray(y, dtype=float)
    columns = []
    for name, values in (("mu", mu), ("phi", phi), ("p", p)):
        values = np.asarray(values, dtype=float)
        if values.ndim and values.shape != y.shape:
            raise InvalidParameterError(
                f"{name} has shape {values.shape}; expected a scalar or y's shape {y.shape}"
            )
        columns.append(np.broadcast_to(values, y.shape).ravel())
    mu, phi, p = columns
    y = y.ravel()
    bad = ~np.isfinite(y) | (y < 0) | (y != np.floor(y))
    if np.any(bad):
        raise InvalidParameterError(f"y must be a non-negative integer, got {y[bad][0]}")

    n = y.size
    if n == 0:
        return LoglikResult(0.0, 0.0, "closed-form")
    # Sort rows by (mu, phi, p, y); lexsort is stable, so the first row of
    # each run of equal keys is that combination's first occurrence.
    order = np.lexsort((y, p, phi, mu))
    new_set = np.ones(n, dtype=bool)
    new_set[1:] = np.any([col[order][1:] != col[order][:-1] for col in (mu, phi, p)], axis=0)
    new_y = new_set.copy()
    new_y[1:] |= y[order][1:] != y[order][:-1]
    starts = np.flatnonzero(new_y)
    first = order[starts]
    counts = np.diff(np.append(starts, n))
    set_id = np.cumsum(new_set)[starts] - 1
    set_first = np.minimum.reduceat(first, np.flatnonzero(new_set[starts]))
    visit = np.lexsort((first, set_first[set_id]))

    total = 0.0
    var_total = 0.0
    methods = set()
    gl_fallbacks = 0
    for runs in np.split(visit, np.flatnonzero(np.diff(set_id[visit])) + 1):
        i = first[runs[0]]
        params = PtwParams(float(mu[i]), float(phi[i]), float(p[i]))
        _check_probabilistic(params)
        mc_counts = []
        for j in runs:
            yi, n_y = int(y[first[j]]), int(counts[j])
            est = _pmf_exact(params, yi)
            if est is None:
                mc_counts.append((yi, n_y))
                if params.p == 3.0:  # the Gauss-Laguerre rule fell back
                    gl_fallbacks += 1
                continue
            if est.value <= 0.0:
                raise NonpositivePmfError(
                    f"pmf({yi}) = 0 at (mu={params.mu}, phi={params.phi}, p={params.p})"
                )
            total += n_y * np.log(est.value)
            methods.add(est.method)
        if not mc_counts:
            continue
        # Monte Carlo counts of this parameter set share one set of mixing
        # draws, so their log-pmf errors are correlated; propagate through
        # the per-draw aggregate g_k rather than summing per-y variances.
        methods.add("monte-carlo")
        z = _mixing_draws(params.mu, params.phi, params.p, budget.mc_draws, budget.rng)
        m = len(z)
        g = np.zeros(m)
        for yi, n_y in mc_counts:
            probs = np.exp(_poisson_logpmf(yi, z))
            f_hat = float(np.mean(probs))
            if f_hat <= 0.0:
                raise NonpositivePmfError(
                    f"Monte Carlo pmf({yi}) = 0 at (mu={params.mu}, phi={params.phi}, "
                    f"p={params.p}); raise mc_draws above {budget.mc_draws}"
                )
            total += n_y * np.log(f_hat)
            g += (n_y / f_hat) * probs
        var_total += float(np.var(g, ddof=1) / m)

    if gl_fallbacks:
        warnings.warn(
            f"Gauss-Laguerre rule ({_QUAD_NODES} nodes) cannot resolve "
            f"{gl_fallbacks} (mu, y) pair(s) at p = 3; falling back to Monte Carlo",
            stacklevel=2,
        )
    if not methods:
        methods.add("closed-form")
    method = methods.pop() if len(methods) == 1 else "mixed"
    return LoglikResult(float(total), float(np.sqrt(var_total)), method)
