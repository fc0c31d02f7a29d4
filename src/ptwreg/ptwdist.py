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

import contextvars
import hashlib
import os
import struct
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import lru_cache, partial

import numpy as np
from scipy.special import gammaln, pdtr, pdtrik

from .errors import (
    InvalidParameterError,
    NoDistributionError,
    NonpositivePmfError,
    PtwError,
    UnreliableEstimateError,
    UnsupportedPowerError,
    VarianceNonpositiveError,
)
from .numcore import (
    RngStream,
    _require_finite_power,
    _require_poisson_rates,
    _sample_size,
    gauss_laguerre,
)
from .tweedie import TweedieParams, sample_tweedie_mu, tweedie_density, tweedie_laplace

# With phi * mu**p at or below this, the mixing distribution is numerically
# degenerate at mu and the pmf is Poisson to more digits than MC can resolve.
_POISSON_LIMIT = 1e-6
# Order of the Gauss-Laguerre rule used at p = 3.
_QUAD_NODES = 128
# Poisson tail mass of the mixing lattice left out of the p = 1 sum.
_LATTICE_TOL = 1e-12
# The largest Monte Carlo budget, ten times what the tests use, refused
# before any array is made.  At it, _MC_BUFFER_BYTES keeps both Monte Carlo
# paths to one thread: a pmf call holds 4 arrays of 800 MB (3.2 GB) and a
# log-likelihood mean 5 (4 GB).
_MAX_MC_DRAWS = 10**8
# What the jobs that ``_run_in_order`` runs at once may hold together: a
# pmf count's 8 x mc_draws bytes or a log-likelihood mean's 5 x 8 x
# mc_draws.  One job always runs, and no more at once than fit in this
# (335 pmf counts and 67 means at the default 100,000 draws, 3 and 0 at
# 10^7).
_MC_BUFFER_BYTES = 2**28


@dataclass(frozen=True)
class PtwParams:
    """Poisson-Tweedie parameters: mean mu, dispersion phi, power p.

    Probabilistic operations (pmf, indices built on probabilities) require
    phi >= 0, and p >= 1 unless phi = 0; sampling phi > 0.  Moment-level
    quantities only require mu + phi * mu**p > 0, i.e. phi > -mu**(1-p).
    Every operation needs a finite mu**p, so a (mu, p) whose power
    overflows is refused here.
    """

    mu: float
    phi: float
    p: float

    def __post_init__(self):
        if not (np.isfinite(self.mu) and self.mu > 0):
            raise InvalidParameterError(f"mu must be positive, got {self.mu}")
        if not (np.isfinite(self.phi) and np.isfinite(self.p)):
            raise InvalidParameterError("phi and p must be finite")
        _require_finite_power(self.mu, self.p)

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
    """Evaluation budget: Monte Carlo draw count (2 to ``_MAX_MC_DRAWS``)
    and random stream."""

    mc_draws: int = 100_000
    rng: RngStream = field(default=RngStream(0))

    def __post_init__(self):
        if not isinstance(self.mc_draws, (int, np.integer)) or self.mc_draws < 2:
            raise InvalidParameterError(f"mc_draws must be an integer >= 2, got {self.mc_draws!r}")
        if self.mc_draws > _MAX_MC_DRAWS:
            raise InvalidParameterError(
                f"mc_draws must be at most {_MAX_MC_DRAWS}, got {self.mc_draws!r}"
            )


def _check_probabilistic(params: PtwParams) -> None:
    if params.phi < 0:
        raise NoDistributionError("dispersion is negative: no probability distribution exists")
    if params.p < 1 and params.phi != 0:  # phi = 0 is the Poisson law at every power
        raise NoDistributionError("power is below 1: no probability distribution exists")


def ptw_sample(params: PtwParams, n: int, rng: RngStream) -> np.ndarray:
    """n Poisson-Tweedie draws via Z ~ Tw_p(mu, phi), then Y | Z ~ Poisson(Z)."""
    _check_probabilistic(params)
    if params.phi == 0:
        raise InvalidParameterError("sampling requires phi > 0 (phi = 0 is Poisson)")
    gen = rng.generator()
    return sample_ptw_mu(params.mu, params.phi, params.p, gen, _sample_size(n))


def sample_ptw_mu(mu, phi: float, p: float, gen, size=None) -> np.ndarray:
    """Poisson-Tweedie counts: ``size`` of them, by default one per entry of
    ``mu``; the vectorized sampling core.

    As in :func:`~ptwreg.tweedie.sample_tweedie_mu`, ``mu`` is a scalar or
    an array that broadcasts to ``size``, and a scalar mean with a count
    draws the same bits as a vector of its copies."""
    z = sample_tweedie_mu(mu, phi, p, gen, size)
    _require_poisson_rates(z)
    return gen.poisson(z)


@lru_cache(maxsize=1)
def _mixing_draws(mu: float, phi: float, p: float, m: int, rng: RngStream) -> np.ndarray:
    """Common random numbers: M mixing draws shared across every y for a
    given parameter set, so pmf curves are smooth and consecutive-probability
    ratios are valid.

    Only the last set is kept: consecutive calls at one set (a curve, then
    its heavy-tail ratios) read it again, and no caller returns to an older
    set, so a deeper cache would only hold 800 KB per set that no one reads.
    The pmf estimates taken from the set are kept apart, by
    ``_mc_estimates`` under the same key, so such a call reads the set only
    for counts it has not yet seen.

    Each parameter set draws from its own substream (indexed by a hash of
    the parameters), so estimates for different parameter sets are
    independent and their MC variances add — which is exactly what the
    aggregate log-likelihood standard error assumes.
    """
    digest = hashlib.blake2s(
        struct.pack("<ddd", mu, phi, p), digest_size=8
    ).digest()
    gen = rng.substream(int.from_bytes(digest, "little")).generator()
    z = sample_tweedie_mu(mu, phi, p, gen, m)
    z.setflags(write=False)
    return z


def _log_intensities(z: np.ndarray) -> np.ndarray:
    """log z, taken once per vector of intensities, with log 0 read as 0:
    an -inf lane would send numpy's vectorized exp and log down their slow
    path, and ``_poisson_pmf`` zeroes those lanes itself."""
    log_z = z + (z == 0)
    return np.log(log_z, out=log_z)


def _positive(z: np.ndarray) -> np.ndarray:
    """The mask z > 0 as 1.0 / 0.0, the form ``_poisson_pmf`` multiplies by."""
    return np.greater(z, 0.0, out=np.empty(z.size))


def _poisson_pmf(
    y: int, z: np.ndarray, log_z: np.ndarray, positive: np.ndarray, out: np.ndarray,
    log_weight: np.ndarray | None = None,
) -> np.ndarray:
    """Write Poisson(y; z) into ``out``, a buffer of z's size that the caller
    owns and reuses across counts, given ``log_z`` from ``_log_intensities``
    and ``positive`` from ``_positive``; ``log_weight``, when given, is added
    to the log before it is exponentiated.  Returns ``out``.

    z = 0 is exact: its lanes exponentiate the finite -log y!, which the mask
    turns into 0 for y > 0, and at y = 0 they hold exp(0) = 1.  Every other
    lane has the bits of exp(y log z - z - log y!)."""
    np.multiply(log_z, y, out=out)
    out -= z
    out -= gammaln(y + 1)
    if log_weight is not None:
        out += log_weight
    np.exp(out, out=out)
    if y > 0:
        out *= positive
    return out


def _pmf_closed_poisson(mu: float, ys: list[int]) -> list[PmfEstimate]:
    log_mu = np.log(mu)
    return [
        PmfEstimate(float(np.exp(y * log_mu - mu - gammaln(y + 1))), 0.0, "closed-form")
        for y in ys
    ]


def _pmf_closed_nb(params: PtwParams, ys: list[int]) -> list[PmfEstimate]:
    # Poisson-gamma mixture: size r = 1/phi, success probability 1/(1 + phi*mu)
    r = 1.0 / params.phi
    q = params.phi * params.mu  # odds of failure
    log_norm = gammaln(r)
    log_size = r * np.log1p(q)
    log_odds = np.log(q) - np.log1p(q)
    out = []
    for y in ys:
        logp = gammaln(y + r) - log_norm - gammaln(y + 1) - log_size + y * log_odds
        out.append(PmfEstimate(float(np.exp(logp)), 0.0, "closed-form"))
    return out


def _pmf_lattice_p1(params: PtwParams, ys: list[int]) -> list[PmfEstimate]:
    """Exact lattice sum at p = 1, where Z = phi * N with N ~ Poisson(mu/phi):
    P(Y=y) = sum_k Poisson(y; phi*k) Poisson(k; mu/phi), truncated once the
    Poisson tail mass of N beyond the last term is below ``_LATTICE_TOL``."""
    lam = params.mu / params.phi
    k_max = _poisson_quantile(1.0 - _LATTICE_TOL, lam) + 10
    k = np.arange(k_max + 1)
    log_prior = k * np.log(lam) - lam - gammaln(k + 1)
    z = params.phi * k
    log_z, positive = _log_intensities(z), _positive(z)
    terms = np.empty(z.size)
    out = []
    for y in ys:
        value = float(np.sum(_poisson_pmf(y, z, log_z, positive, terms, log_prior)))
        out.append(PmfEstimate(min(value, 1.0), 0.0, "exact-sum"))
    return out


def _poisson_quantile(q: float, lam: float) -> int:
    """The least k with Poisson(lam) CDF at k >= q, for 0 < q < 1: the rule
    of scipy.stats.poisson.ppf, without importing scipy.stats."""
    k = int(np.ceil(pdtrik(q, lam)))
    return k - 1 if k > 0 and pdtr(k - 1, lam) >= q else k


@lru_cache(maxsize=1)
def _gl_rule():
    return gauss_laguerre(_QUAD_NODES)


def _gl_log_density(params: PtwParams) -> np.ndarray | None:
    """log of the p = 3 mixing density at the Gauss-Laguerre nodes, or None
    where mu lies outside the nodes or the density is narrower than the
    local node spacing, so that no count of this set can be resolved."""
    x = _gl_rule().nodes
    sd = np.sqrt(params.phi * params.mu**3)
    idx = int(np.searchsorted(x, params.mu))
    if idx <= 0 or idx >= len(x) or sd < 2.0 * (x[idx] - x[idx - 1]):
        return None
    with np.errstate(divide="ignore"):
        return np.log(tweedie_density(params_as_tweedie(params), x))


def _pmf_quadrature_p3(log_density: np.ndarray | None, y: int) -> PmfEstimate | None:
    """Gauss-Laguerre evaluation of the p = 3 mixture integral
    f(y) = int_0^inf Poisson(y; z) IG(z; mu, 1/phi) dz, given the log mixing
    density at the nodes from ``_gl_log_density``.

    Returns None when the rule cannot resolve the integrand (no density, y
    beyond half the node range, or a non-finite / out-of-range result),
    signalling the Monte Carlo fallback.
    """
    rule = _gl_rule()
    x, w = rule.nodes, rule.weights
    if log_density is None or y > 0.5 * x[-1]:
        return None
    # Gauss-Laguerre absorbs e^{-z}: integrand/e^{-z} = z^y/y! * IG(z)
    logg = y * np.log(x) - gammaln(y + 1) + log_density
    value = float(np.sum(w * np.exp(logg)))
    if not np.isfinite(value) or value <= 0.0 or value > 1.0 + 1e-9:
        return None
    return PmfEstimate(min(value, 1.0), 0.0, "gauss-laguerre")


def params_as_tweedie(params: PtwParams) -> TweedieParams:
    """The mixing-distribution parameters of a Poisson-Tweedie law."""
    return TweedieParams(params.mu, params.phi, params.p)


@lru_cache(maxsize=1)
def _mc_estimates(mu: float, phi: float, p: float, m: int, rng: RngStream) -> dict:
    """count -> PmfEstimate: the Monte Carlo estimates taken so far from
    ``_mixing_draws``' set under the same key.  An estimate depends only on
    its key and count, so it stays valid when the draws are evicted; like
    them, only the last set's estimates are kept."""
    return {}


def _pmf_monte_carlo(params: PtwParams, ys: list[int], budget: PmfConfig) -> list[PmfEstimate]:
    """Monte Carlo estimates at ``ys``, each count evaluated once per draw
    set: counts already estimated are read from ``_mc_estimates``, and each
    new one is one ``_run_in_order`` job with a buffer of the draws' size.
    Every estimate has the same bits on any thread."""
    key = (params.mu, params.phi, params.p, budget.mc_draws, budget.rng)
    known = _mc_estimates(*key)
    new = list(dict.fromkeys(y for y in ys if y not in known))
    if new:
        z = _mixing_draws(*key)
        log_z, positive = _log_intensities(z), _positive(z)
        jobs = [partial(_mc_estimate, y, z, log_z, positive) for y in new]
        known.update(zip(new, _run_in_order(jobs, z.nbytes)))
    return [known[y] for y in ys]


def _mc_estimate(y: int, z: np.ndarray, log_z: np.ndarray, positive: np.ndarray) -> PmfEstimate:
    """The Monte Carlo estimate at ``y``, in one buffer of the draws' size
    that holds the Poisson terms and then their squared deviations."""
    m = len(z)
    probs = _poisson_pmf(y, z, log_z, positive, np.empty(m))
    value = float(np.mean(probs))
    probs -= value  # np.std(probs, ddof=1), reusing the mean
    probs *= probs
    stderr = float(np.sqrt(np.sum(probs) / (m - 1)) / np.sqrt(m))
    return PmfEstimate(min(value, 1.0), stderr, "monte-carlo")


def _pmf_exact(params: PtwParams, ys: list[int]) -> list[PmfEstimate | None]:
    """The route dispatcher, and so the evaluable domain: one estimate per
    checked count, None where Monte Carlo is needed (at p = 3, where the
    Gauss-Laguerre rule could not resolve it; callers warn).  A power with no
    route raises UnsupportedPowerError, before any mixing draws are taken."""
    if params.phi * params.mu**params.p <= _POISSON_LIMIT:
        return _pmf_closed_poisson(params.mu, ys)
    if params.p == 2.0:
        return _pmf_closed_nb(params, ys)
    if params.p == 1.0:
        return _pmf_lattice_p1(params, ys)
    if params.p == 3.0:
        log_density = _gl_log_density(params)
        return [_pmf_quadrature_p3(log_density, y) for y in ys]
    if 1.0 < params.p < 2.0:  # Monte Carlo over the mixing sampler
        return [None] * len(ys)
    raise UnsupportedPowerError(
        "power is outside the evaluable family {1} U (1, 2] U {3}: pmf evaluation is not available"
    )


def _pmf_set(params: PtwParams, ys, budget: PmfConfig | None) -> list[PmfEstimate]:
    """pmf estimates of one parameter set over counts ``ys``: the set's work
    (lattice grid, mixing density at the nodes, log of the mixing draws) is
    done once, each count's own work once per count.  The p = 3 counts the
    Gauss-Laguerre rule cannot resolve raise one warning per call, attributed
    to the caller of the public function that called this one."""
    budget = budget or PmfConfig()
    _check_probabilistic(params)
    ys = [_check_count(y) for y in ys]
    estimates = _pmf_exact(params, ys)
    mc_ys = [y for y, est in zip(ys, estimates) if est is None]
    if not mc_ys:
        return estimates
    if params.p == 3.0:
        lost = sorted(set(mc_ys))
        ys_lost = f"{len(lost)} counts in y={lost[0]}..{lost[-1]}" if lost[1:] else f"y={lost[0]}"
        warnings.warn(
            f"Gauss-Laguerre rule ({_QUAD_NODES} nodes) cannot resolve "
            f"(mu={params.mu}, phi={params.phi}, {ys_lost}); falling back to Monte Carlo",
            stacklevel=3,
        )
    mc = iter(_pmf_monte_carlo(params, mc_ys, budget))
    return [next(mc) if est is None else est for est in estimates]


def ptw_pmf(params: PtwParams, y: int, budget: PmfConfig | None = None) -> PmfEstimate:
    """P(Y = y) with method dispatch.

    p = 2 uses the negative-binomial closed form; p = 1 the exact lattice
    sum over the scaled-Poisson mixing distribution; p = 3 Gauss-Laguerre
    quadrature with a Monte Carlo fallback; 1 < p < 2 averages the Poisson
    pmf over mixing draws shared across y (common random numbers), with the
    Monte Carlo standard error.  phi * mu**p <= 1e-6 (phi = 0 at any power)
    is the exact Poisson pmf; other powers raise UnsupportedPowerError.
    """
    return _pmf_set(params, [y], budget)[0]


def ptw_pmf_curve(params: PtwParams, ys, budget: PmfConfig | None = None) -> list[PmfEstimate]:
    """pmf estimates over a y grid, sharing one set of mixing draws; equal,
    count by count, to ``ptw_pmf`` at each y.

    A Monte Carlo count is evaluated once per draw set: a repeated count,
    or one an earlier call at the same set and budget took, is read back.
    Each other Monte Carlo count is one job with a buffer of the draws'
    size, run on as many threads as ``_run_in_order`` allows (no more than
    one per CPU, nor than their buffers fit in ``_MC_BUFFER_BYTES``); each
    count does the same arithmetic on any thread."""
    return _pmf_set(params, ys, budget)


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
    return _heavy_tail_ratio(y, *_pmf_set(params, [y, y + 1], budget))[0]


def _heavy_tail_ratio(y: int, den: PmfEstimate, num: PmfEstimate) -> tuple[float, float]:
    """HT(y) = num/den with its delta-method Monte Carlo s.e.; refused when
    pmf(y) = ``den`` is zero or not above 10x its Monte Carlo s.e."""
    if den.value <= 10.0 * den.mc_stderr or den.value == 0.0:
        raise UnreliableEstimateError(
            f"pmf({y}) = {den.value:.3e} (MC s.e. {den.mc_stderr:.3e}) is too noisy "
            "for a consecutive-probability ratio; raise the MC budget"
        )
    value = num.value / den.value
    rel = 0.0
    if num.value > 0:
        rel = (num.mc_stderr / num.value) ** 2 + (den.mc_stderr / den.value) ** 2
    return value, abs(value) * rel**0.5


@dataclass(frozen=True)
class LoglikResult:
    """Log-likelihood value with aggregate Monte Carlo standard error."""

    value: float
    mc_stderr: float
    method: str


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _run_in_order(jobs: list, job_bytes: int) -> list:
    """The results of ``jobs``, callables with no arguments that each hold
    up to ``job_bytes`` while they run, in order; raises the first error in
    that order.  The one place a Monte Carlo thread count is decided: the
    jobs run on min(jobs, CPUs, ``_MC_BUFFER_BYTES`` // ``job_bytes``)
    threads (numpy's samplers and ufuncs release the interpreter lock),
    each in a copy of the caller's context so that numpy's error state
    carries over; where that is 1 or less, one after another on the
    calling thread.  Each thread takes the next job in order until none is
    left or one has failed, so no job starts after an error, and every job
    before a failed one has started; every thread has ended when this
    returns."""
    workers = min(len(jobs), _usable_cpus(), _MC_BUFFER_BYTES // job_bytes)
    if workers <= 1:
        return [job() for job in jobs]
    results = [None] * len(jobs)
    errors = {}
    queue = enumerate(jobs)
    lock = threading.Lock()

    def take_jobs():
        while True:
            with lock:
                index, job = (None, None) if errors else next(queue, (None, None))
            if job is None:
                return
            try:
                results[index] = job()
            except BaseException as exc:
                with lock:
                    errors[index] = exc

    with ThreadPoolExecutor(workers, thread_name_prefix="ptw_loglik") as pool:
        for _ in range(workers):
            pool.submit(contextvars.copy_context().run, take_jobs)
    if errors:
        raise errors[min(errors)]
    return results


def _monte_carlo_terms(
    params: PtwParams, mc_counts: list[tuple[int, float]], budget: PmfConfig
) -> tuple[list[float], float]:
    """One Monte Carlo mean of ``ptw_loglik``: f_hat(y) for each (y, n_y) in
    ``mc_counts``, in order, and Var_k(g_k)/M.  The counts share one set of
    mixing draws, so their log-pmf errors are correlated; the aggregate g_k
    carries that, where summing per-count variances would not.

    The kernel's buffers serve every count of the mean and are freed with
    it: kept for a thread's next mean, they would be held while it samples,
    which is when a thread's memory peaks."""
    z = _mixing_draws(params.mu, params.phi, params.p, budget.mc_draws, budget.rng)
    m = len(z)
    log_z, positive = _log_intensities(z), _positive(z)
    probs, g = np.empty(m), np.zeros(m)
    f_hats = []
    for yi, n_y in mc_counts:
        f_hat = float(np.mean(_poisson_pmf(yi, z, log_z, positive, probs)))
        if f_hat <= 0.0:
            raise NonpositivePmfError(
                f"Monte Carlo pmf({yi}) = 0 at (mu={params.mu}, phi={params.phi}, "
                f"p={params.p}); raise mc_draws above {budget.mc_draws}"
            )
        f_hats.append(f_hat)
        probs *= n_y / f_hat
        g += probs
    return f_hats, float(np.var(g, ddof=1) / m)


def ptw_loglik(mu, phi, p, y, budget: PmfConfig | None = None, weights=None) -> LoglikResult:
    """sum_i w_i log P(Y = y_i) at per-observation means mu_i and one (phi, p).

    ``mu`` is a scalar or an array of ``y``'s shape; ``y`` holds
    non-negative integer counts and ``weights``, when given, positive integer
    frequencies of ``y``'s shape (row i stands for w_i observations).  Every
    unique (mu, y) pair is evaluated once, with its summed weight as
    multiplicity, and the means are visited in order of first occurrence
    (the counts of a mean likewise), so the floating-point sums have a fixed
    order and a weighted call equals the call on its rows repeated.
    A count with no exact route goes straight to the Monte Carlo aggregate
    below; p = 3 counts that the Gauss-Laguerre rule cannot resolve go there
    too, with one warning per call that says how many (mu, y) pairs did.
    For Monte Carlo groups the standard error accounts for the draws being
    shared across counts within a mean: with f_hat(y) the MC pmf and n_y
    the multiplicity, the delta method gives
    Var(sum n_y log f_hat(y)) = Var_k(g_k)/M per mean, where
    g_k = sum_y (n_y / f_hat(y)) P(y; Z_k).
    The Monte Carlo means run on up to one thread per CPU that the process
    may run on, and no more than their arrays (5 x 8 x ``mc_draws`` bytes
    each) fit in ``_MC_BUFFER_BYTES``.  Each mean draws from its own substream and its terms join
    the sums in the order above, so neither the value, its standard error
    nor the error raised depends on the number of threads.

    Raises
    ------
    InvalidParameterError
        If phi or p is an array, a shape does not match ``y``, a count is
        not a non-negative integer or a weight a positive one, mu is not
        finite and positive, phi or p is not finite, or mu**p overflows.
    NoDistributionError, UnsupportedPowerError
        As ``ptw_pmf`` refuses (phi, p), at any mean.
    NonpositivePmfError
        If any pmf estimate is exactly zero (for Monte Carlo, raise the budget).
    """
    budget = budget or PmfConfig()
    if np.ndim(phi) or np.ndim(p):
        raise InvalidParameterError("phi and p must be scalars")
    phi, p = float(phi), float(p)
    y = np.asarray(y, dtype=float)
    mu = np.asarray(mu, dtype=float)
    w = np.ones(y.shape) if weights is None else np.asarray(weights, dtype=float)
    if (mu.ndim and mu.shape != y.shape) or w.shape != y.shape:
        raise InvalidParameterError(f"mu {mu.shape} and weights {w.shape} need y's shape {y.shape}")
    mu, y, w = np.broadcast_to(mu, y.shape).ravel(), y.ravel(), w.ravel()
    for name, values, low in (("y", y, 0), ("weights", w, 1)):
        bad = ~np.isfinite(values) | (values < low) | (values != np.floor(values))
        if np.any(bad):
            raise InvalidParameterError(f"{name} must be integers >= {low}, got {values[bad][0]}")

    # mean -> {count -> summed weight}; dicts keep insertion order, so both
    # levels are visited in order of first occurrence.
    groups: dict[float, dict[float, float]] = {}
    for mu_i, yi, wi in zip(mu.tolist(), y.tolist(), w.tolist()):
        counts = groups.setdefault(mu_i, {})
        counts[yi] = counts.get(yi, 0.0) + wi

    # Plan: the exact routes of every mean, in order, up to the first refusal,
    # which is raised once the means before it are accounted for.
    plan = []
    refusal = None
    try:
        for mu_i, counts in groups.items():
            params = PtwParams(mu_i, phi, p)
            _check_probabilistic(params)
            ys = [int(yi) for yi in counts]
            exact, mc_counts = [], []
            for yi, n_y, est in zip(ys, counts.values(), _pmf_exact(params, ys)):
                if est is None:
                    mc_counts.append((yi, n_y))
                elif est.value <= 0.0:
                    raise NonpositivePmfError(
                        f"pmf({yi}) = 0 at (mu={params.mu}, phi={params.phi}, p={params.p})"
                    )
                else:
                    exact.append((n_y, est))
            plan.append((params, exact, mc_counts))
    except PtwError as exc:
        refusal = exc

    # The Monte Carlo means run in plan order, so an error in a mean before
    # the refusal is raised first, as a serial visit would; their terms join
    # the sums in that visit's order, whatever the number of threads.
    # A job holds its draws, log z, the mask, the Poisson terms and g.
    mc_terms = iter(_run_in_order([
        partial(_monte_carlo_terms, params, mc_counts, budget)
        for params, _, mc_counts in plan if mc_counts
    ], 5 * 8 * budget.mc_draws))
    if refusal is not None:
        raise refusal
    total = 0.0
    var_total = 0.0
    methods = set()
    for _, exact, mc_counts in plan:
        for n_y, est in exact:
            total += n_y * np.log(est.value)
            methods.add(est.method)
        if mc_counts:
            methods.add("monte-carlo")
            f_hats, var_g = next(mc_terms)
            for (_, n_y), f_hat in zip(mc_counts, f_hats):
                total += n_y * np.log(f_hat)
            var_total += var_g

    # at p = 3 every Monte Carlo count is one the Gauss-Laguerre rule fell back on
    gl_fallbacks = sum(len(mc_counts) for _, _, mc_counts in plan) if p == 3.0 else 0
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
