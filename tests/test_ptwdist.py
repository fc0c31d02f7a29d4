import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from functools import partial

import numpy as np
import pytest
from scipy.stats import poisson

from scipy.special import gammaln

from oracles import cpg_pmf, nb_pmf, neyman_pmf
from ptwreg.errors import (
    InvalidParameterError,
    NoDistributionError,
    NonpositivePmfError,
    UnreliableEstimateError,
    UnsupportedPowerError,
    VarianceNonpositiveError,
)
import ptwreg.ptwdist as ptwdist
from ptwreg.numcore import RngStream
from ptwreg.tweedie import tweedie_density
from ptwreg.ptwdist import (
    PmfConfig,
    PtwParams,
    _mixing_draws,
    _gl_rule,
    _pmf_monte_carlo,
    dispersion_index,
    heavy_tail_index,
    params_as_tweedie,
    ptw_loglik,
    ptw_pmf,
    ptw_pmf_curve,
    ptw_pzero,
    ptw_sample,
    zero_inflation_index,
)


def budget(seed=0, draws=100_000):
    return PmfConfig(mc_draws=draws, rng=RngStream(seed))


@pytest.mark.parametrize("draws", [1, 0, -1, 2.5, True, None])
def test_pmf_config_needs_two_draws(draws):
    # one draw has no Monte Carlo standard error; fewer are no sample at all
    with pytest.raises(InvalidParameterError, match="mc_draws"):
        PmfConfig(mc_draws=draws)
    assert PmfConfig(mc_draws=np.int64(2)).mc_draws == 2


@pytest.mark.parametrize("draws", [10**8 + 1, 2**62, np.int64(2**62)])
def test_pmf_config_refuses_more_draws_than_the_bound(draws):
    # 2**62 draws would ask numpy for an array it refuses to make
    with pytest.raises(InvalidParameterError, match=r"mc_draws must be at most 100000000, got"):
        PmfConfig(mc_draws=draws)
    assert PmfConfig(mc_draws=ptwdist._MAX_MC_DRAWS).mc_draws == 10**8


# ------------------------------------------------------------------ sampling


def test_sample_poisson_limit():
    y = ptw_sample(PtwParams(10.0, 1e-8, 2.0), 1_000_000, RngStream(0))
    assert abs(y.mean() - 10.0) < 0.02
    assert abs(y.var(ddof=1) - 10.0) < 0.1


def test_sample_dispersion_index_two():
    y = ptw_sample(PtwParams(10.0, 0.1, 2.0), 1_000_000, RngStream(1))
    assert abs(y.var(ddof=1) / y.mean() - 2.0) < 0.05


def test_sample_p3_variance():
    n = 1_000_000
    y = ptw_sample(PtwParams(10.0, 0.01, 3.0), n, RngStream(2))
    m4 = np.mean((y - y.mean()) ** 4)
    se_var = np.sqrt((m4 - 20.0**2) / n)
    assert abs(y.var(ddof=1) - 20.0) < 4 * se_var


def test_sample_requires_distribution():
    with pytest.raises(NoDistributionError):
        ptw_sample(PtwParams(10.0, -0.05, 2.0), 10, RngStream(0))


# ----------------------------------------------------------------------- pmf


def test_pmf_nb_closed_form():
    params = PtwParams(10.0, 0.1, 2.0)
    est = ptw_pmf(params, 0)
    assert est.method == "closed-form" and est.mc_stderr == 0.0
    assert abs(est.value - 2.0**-10) < 1e-15
    for y in (1, 5, 17, 40):
        assert abs(ptw_pmf(params, y).value - nb_pmf(10.0, 0.1, y)) < 1e-12


def test_pmf_poisson_degenerate_mixing():
    est = ptw_pmf(PtwParams(10.0, 1e-10, 1.7), 10)
    assert est.method == "closed-form"
    assert abs(est.value - poisson.pmf(10, 10.0)) < 1e-6


def test_pmf_lattice_p1_vs_oracle():
    params = PtwParams(10.0, 0.7, 1.0)
    for y in (0, 3, 10, 25):
        est = ptw_pmf(params, y)
        assert est.method == "exact-sum" and est.mc_stderr == 0.0
        assert abs(est.value - neyman_pmf(10.0, 0.7, y)) < 1e-10


def test_pmf_quadrature_p3_vs_mc():
    params = PtwParams(10.0, 0.05, 3.0)
    for y in (0, 5, 10, 20):
        exact = ptw_pmf(params, y)
        assert exact.method == "gauss-laguerre"
        mc = _pmf_monte_carlo(params, [y], budget(seed=5))[0]
        assert abs(exact.value - mc.value) < 3 * mc.mc_stderr + 1e-9


def test_pmf_mc_vs_exact_series():
    # Monte Carlo route against the analytic compound-Poisson-gamma series
    params = PtwParams(10.0, 1.0, 1.5)
    b = budget(seed=7)
    for y in (0, 2, 8, 15, 30):
        est = ptw_pmf(params, y, b)
        assert est.method == "monte-carlo"
        assert abs(est.value - cpg_pmf(10.0, 1.0, 1.5, y)) < 3 * est.mc_stderr + 1e-12


def test_pmf_common_random_numbers():
    # same budget/seed: curve evaluation reuses one set of mixing draws,
    # so repeated calls are bit-identical
    params = PtwParams(7.0, 0.4, 1.3)
    a = [e.value for e in ptw_pmf_curve(params, range(12), budget())]
    b = [e.value for e in ptw_pmf_curve(params, range(12), budget())]
    assert a == b


def test_pmf_normalization_p15():
    params = PtwParams(10.0, 1.0, 1.5)
    b = budget(seed=11)
    estimates = ptw_pmf_curve(params, range(61), b)
    total = sum(e.value for e in estimates)
    se = np.sqrt(sum(e.mc_stderr**2 for e in estimates))
    assert 1.0 - total < 3 * se + 1e-6
    assert total <= 1.0 + 3 * se


def test_pmf_moment_match():
    params = PtwParams(10.0, 1.0, 1.5)
    b = budget(seed=13)
    ys = np.arange(80)
    pmf = np.array([e.value for e in ptw_pmf_curve(params, ys, b)])
    mean = float(ys @ pmf)
    var = float((ys**2) @ pmf) - mean**2
    assert abs(mean - 10.0) < 0.05
    assert abs(var - (10.0 + 1.0 * 10.0**1.5)) < 0.6


def test_pmf_rejects_bad_inputs():
    with pytest.raises(NoDistributionError):
        ptw_pmf(PtwParams(10.0, -0.05, 2.0), 0)
    with pytest.raises(InvalidParameterError):
        ptw_pmf(PtwParams(10.0, 0.1, 2.0), -1)


@pytest.mark.parametrize("mu, p", [(1e200, 2.0), (1e-300, -2.0)])
def test_overflowing_mu_power_is_invalid(mu, p):
    # mu**p must be finite for every operation: refused once, at construction
    with pytest.raises(InvalidParameterError, match="overflows"):
        PtwParams(mu, 0.5, p)
    assert PtwParams(1e200, 0.5, 1.5).mu == 1e200


@pytest.mark.parametrize("y", [np.nan, np.inf, -np.inf])
def test_non_finite_counts_are_invalid(y):
    params = PtwParams(5.0, 0.5, 2.0)
    with pytest.raises(InvalidParameterError):
        ptw_pmf(params, y)
    with pytest.raises(InvalidParameterError):
        heavy_tail_index(params, y)


def test_pmf_curve_rejects_fractional_counts():
    # no silent truncation: 2.5 is refused, as by ptw_pmf itself
    params = PtwParams(5.0, 0.5, 2.0)
    with pytest.raises(InvalidParameterError):
        ptw_pmf_curve(params, [2.5])
    assert ptw_pmf_curve(params, [2.0]) == [ptw_pmf(params, 2)]


def _reference_poisson_logpmf(y, z):
    """log Poisson(y; z) taking log z afresh for every count."""
    with np.errstate(divide="ignore", invalid="ignore"):
        logp = y * np.log(z) - z - gammaln(y + 1)
    if y == 0:
        logp = np.where(z == 0, 0.0, logp)
    else:
        logp = np.where(z == 0, -np.inf, logp)
    return logp


def _reference_exact(params, y):
    """The per-count exact routes that the per-set evaluator replaced, with
    their arithmetic as it was; None where Monte Carlo is needed."""
    mu, phi, p = params.mu, params.phi, params.p
    if phi * mu**p <= 1e-6:
        logp = y * np.log(mu) - mu - gammaln(y + 1)
        return ptwdist.PmfEstimate(float(np.exp(logp)), 0.0, "closed-form")
    if p == 2.0:
        r, q = 1.0 / phi, phi * mu
        logp = (
            gammaln(y + r) - gammaln(r) - gammaln(y + 1) - r * np.log1p(q)
            + y * (np.log(q) - np.log1p(q))
        )
        return ptwdist.PmfEstimate(float(np.exp(logp)), 0.0, "closed-form")
    if p == 1.0:
        lam = mu / phi
        k = np.arange(int(poisson.ppf(1.0 - 1e-12, lam)) + 10 + 1)
        log_prior = k * np.log(lam) - lam - gammaln(k + 1)
        value = float(np.sum(np.exp(log_prior + _reference_poisson_logpmf(y, phi * k))))
        return ptwdist.PmfEstimate(min(value, 1.0), 0.0, "exact-sum")
    if p == 3.0:
        x, w = _gl_rule().nodes, _gl_rule().weights
        idx = int(np.searchsorted(x, mu))
        if y > 0.5 * x[-1] or idx <= 0 or idx >= len(x):
            return None
        if np.sqrt(phi * mu**3) < 2.0 * (x[idx] - x[idx - 1]):
            return None
        with np.errstate(divide="ignore"):
            logg = (y * np.log(x) - gammaln(y + 1)
                    + np.log(tweedie_density(params_as_tweedie(params), x)))
        value = float(np.sum(w * np.exp(logg)))
        if not np.isfinite(value) or value <= 0.0 or value > 1.0 + 1e-9:
            return None
        return ptwdist.PmfEstimate(min(value, 1.0), 0.0, "gauss-laguerre")
    return None


def _reference_pmf(params, y, b):
    """One pmf per call, as ``ptw_pmf`` evaluated it before the per-set
    evaluator: the Monte Carlo route recomputes log z for every count."""
    est = _reference_exact(params, y)
    if est is not None:
        return est
    z = _mixing_draws(params.mu, params.phi, params.p, b.mc_draws, b.rng).z
    probs = np.exp(_reference_poisson_logpmf(y, z))
    stderr = float(np.std(probs, ddof=1) / np.sqrt(len(probs)))
    return ptwdist.PmfEstimate(min(float(np.mean(probs)), 1.0), stderr, "monte-carlo")


# (params, ys, methods) for every route, counts out of order and repeated:
# Poisson limit, negative binomial, lattice, Gauss-Laguerre, Gauss-Laguerre
# falling back past half the node range, Gauss-Laguerre with a mixing density
# narrower than the node spacing, Monte Carlo with and without zero draws,
# and the lattice at small and large lam = mu/phi, whose truncation point
# the reference takes from scipy.stats.poisson.ppf
_CURVE_CASES = [
    ((10.0, 1e-9, 1.5), [*range(30, -1, -1), 3, 0], {"closed-form"}),
    ((6.0, 0.3, 2.0), [*range(60, -1, -1), 5, 52], {"closed-form"}),
    ((6.0, 1.5, 1.0), [*range(40, -1, -1), 9, 0], {"exact-sum"}),
    ((20.0, 0.5, 3.0), [*range(60, -1, -1), 240, 40, 3], {"gauss-laguerre"}),
    ((20.0, 0.5, 3.0), [244, 5, 250, 244, 0, 243, 242], {"gauss-laguerre", "monte-carlo"}),
    ((60.0, 1e-5, 3.0), [61, 55, 61, 0], {"monte-carlo"}),
    ((6.0, 0.5, 1.5), [*range(25, -1, -1), 4, 0], {"monte-carlo"}),
    ((0.5, 2.0, 1.3), [0, 2, 0, 9, 1], {"monte-carlo"}),
    ((0.03, 2.0, 1.0), [*range(12, -1, -1), 2, 0], {"exact-sum"}),
    ((400.0, 0.25, 1.0), [*range(460, 340, -7), 400, 0], {"exact-sum"}),
]


@pytest.mark.parametrize(
    # 90.095... and 7935.8... need scipy's step down from ceil(pdtrik(q, lam))
    "lam", [1e-6, 0.015, 3.0, 90.09533826348168, 1600.0, 7935.82006751583, 1e6]
)
def test_lattice_truncation_follows_scipy_poisson_ppf(lam):
    q = 1.0 - ptwdist._LATTICE_TOL
    assert ptwdist._poisson_quantile(q, lam) == int(poisson.ppf(q, lam))


@pytest.mark.parametrize("args, ys, methods", _CURVE_CASES)
def test_pmf_curve_matches_per_count_reference_exactly(args, ys, methods):
    params = PtwParams(*args)
    b = budget(seed=4, draws=5_000)
    reference = [_reference_pmf(params, y, b) for y in ys]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        curve = ptw_pmf_curve(params, ys, b)
    # one warning per call, naming how many distinct counts fell back
    fell_back = sorted({y for y in ys if args[2] == 3.0 and _reference_exact(params, y) is None})
    expected = []
    if fell_back:
        expected = [
            f"Gauss-Laguerre rule (128 nodes) cannot resolve (mu={params.mu}, "
            f"phi={params.phi}, {len(fell_back)} counts in y={fell_back[0]}..{fell_back[-1]}); "
            "falling back to Monte Carlo"
        ]
    assert [str(w.message) for w in caught] == expected
    assert {est.method for est in curve} == methods
    assert [(e.value, e.mc_stderr, e.method) for e in curve] == [
        (e.value, e.mc_stderr, e.method) for e in reference
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert [ptw_pmf(params, y, b) for y in ys] == curve


def _cold(function, *args):
    """``function(*args)`` with no mixing draws or Monte Carlo estimates kept."""
    _mixing_draws.cache_clear()
    return function(*args)


@pytest.mark.filterwarnings("ignore:Gauss-Laguerre rule")
@pytest.mark.parametrize("workers", [1, 2, 3])
def test_pmf_curve_equals_cold_per_count_calls_on_any_number_of_threads(workers, monkeypatch):
    # the Monte Carlo cases above: unsorted and repeated counts, zero draws,
    # and the p = 3 Gauss-Laguerre fallback; each count of the reference is
    # evaluated alone, from fresh draws, on the calling thread
    monkeypatch.setattr(ptwdist, "_usable_cpus", lambda: workers)
    b = budget(seed=4, draws=5_000)
    for args, ys, methods in _CURVE_CASES:
        if "monte-carlo" in methods:
            params = PtwParams(*args)
            reference = [_cold(ptw_pmf, params, y, b) for y in ys]
            assert _cold(ptw_pmf_curve, params, ys, b) == reference


def _record_pools(monkeypatch) -> list:
    """The thread counts of the pools ``_run_in_order`` makes."""
    pools = []

    def recording_pool(*args, **kwargs):
        pools.append(args)
        return ThreadPoolExecutor(*args, **kwargs)

    monkeypatch.setattr(ptwdist, "ThreadPoolExecutor", recording_pool)
    return pools


def test_pmf_curve_starts_threads_only_for_two_monte_carlo_counts(monkeypatch):
    monkeypatch.setattr(ptwdist, "_usable_cpus", lambda: 2)
    pools = _record_pools(monkeypatch)
    b = budget(seed=3, draws=5_000)
    before = threading.active_count()
    assert _cold(ptw_pmf, PtwParams(6.0, 0.5, 1.5), 4, b).method == "monte-carlo"
    exact = _cold(ptw_pmf_curve, PtwParams(20.0, 0.5, 3.0), range(30), b)
    assert {est.method for est in exact} == {"gauss-laguerre"}
    assert pools == []
    assert _cold(ptw_pmf_curve, PtwParams(6.0, 0.5, 1.5), [4, 5], b)[0].method == "monte-carlo"
    assert pools == [(2,)]
    assert threading.active_count() == before


def test_pmf_curve_threads_fit_their_buffers_in_the_bound(monkeypatch):
    # 8 CPUs, but room for three 5,000-draw buffers: three threads; room for
    # less than one: the calling thread alone, with the same estimates
    monkeypatch.setattr(ptwdist, "_usable_cpus", lambda: 8)
    pools = _record_pools(monkeypatch)
    params, b = PtwParams(6.0, 0.5, 1.5), budget(seed=3, draws=5_000)
    reference = _cold(ptw_pmf_curve, params, range(20), b)
    assert pools == [(8,)]
    for room, threads in ((4 * 8 * 5_000 - 1, [(3,)]), (8 * 5_000 - 1, [])):
        pools.clear()
        monkeypatch.setattr(ptwdist, "_MC_BUFFER_BYTES", room)
        assert _cold(ptw_pmf_curve, params, range(20), b) == reference
        assert pools == threads


def test_loglik_threads_fit_their_arrays_in_the_bound(monkeypatch):
    # five Monte Carlo means at 5,000 draws, each holding 5 arrays of the
    # draws' size, on 8 CPUs: room for two means makes two threads, room
    # for less than one the calling thread alone, with the 1-CPU result
    mu, y = [0.5, 1.5, 2.5, 4.0, 6.0], [0, 1, 2, 3, 4]
    b = budget(seed=3, draws=5_000)
    monkeypatch.setattr(ptwdist, "_usable_cpus", lambda: 1)
    reference = ptw_loglik(mu, 0.6, 1.3, y, b)
    assert reference.method == "monte-carlo"
    monkeypatch.setattr(ptwdist, "_usable_cpus", lambda: 8)
    pools = _record_pools(monkeypatch)
    for room, threads in ((2 * 5 * 8 * 5_000, [(2,)]), (5 * 8 * 5_000 - 1, [])):
        pools.clear()
        monkeypatch.setattr(ptwdist, "_MC_BUFFER_BYTES", room)
        assert ptw_loglik(mu, 0.6, 1.3, y, b) == reference
        assert pools == threads


def test_pmf_curve_holds_one_draw_set(monkeypatch):
    # a 100,000-draw curve on two threads keeps its draws and its estimates;
    # log z and the threads' buffers are gone once it returns
    monkeypatch.setattr(ptwdist, "_usable_cpus", lambda: 2)
    params = PtwParams(6.0, 0.5, 1.5)
    ptw_pmf_curve(params, range(30), budget(seed=1))  # warm every one-time cache
    _mixing_draws.cache_clear()
    tracemalloc.start()
    try:
        ptw_pmf_curve(params, range(30), budget(seed=2))
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(_mixing_draws(6.0, 0.5, 1.5, 100_000, RngStream(2)).estimates) == 30
    assert held <= 100_000 * 8 + 64 * 1024, held


# -------------------------------------------------------------------- domain

_NO_ROUTE = (
    "power is outside the evaluable family {1} U (1, 2] U {3}: "
    "pmf evaluation is not available"
)


def _every_pmf_function(params, b):
    """ptw_pmf, ptw_pmf_curve, heavy_tail_index and ptw_loglik at ``params``."""
    mu, phi, p = params.mu, params.phi, params.p
    return [
        lambda: ptw_pmf(params, 2, b),
        lambda: ptw_pmf_curve(params, [3, 0, 2], b),
        lambda: heavy_tail_index(params, 1, b),
        lambda: ptw_loglik([mu, mu, 2.0 * mu], phi, p, [1, 4, 1], b),
    ]


@pytest.mark.parametrize("p", [2.5, 4.0])
def test_unsupported_power_is_refused_before_mixing_draws(p, monkeypatch):
    draws = []

    def counting(*args):
        draws.append(args)
        return _mixing_draws(*args)

    monkeypatch.setattr(ptwdist, "_mixing_draws", counting)
    for call in _every_pmf_function(PtwParams(4.0, 0.3, p), budget(draws=2_000)):
        with pytest.raises(UnsupportedPowerError) as info:
            call()
        assert str(info.value) == _NO_ROUTE
    assert draws == []


@pytest.mark.parametrize("phi, p", [(1e-9, 2.5), (0.0, 2.5), (0.0, 4.0), (0.0, 0.5)])
def test_poisson_limit_is_evaluable_at_any_power(phi, p):
    # phi * mu**p <= 1e-6 is the Poisson law, phi = 0 at every power
    mu = 4.0
    f = [float(poisson.pmf(y, mu)) for y in range(5)]
    pmf, curve, tail, loglik = (
        call() for call in _every_pmf_function(PtwParams(mu, phi, p), budget())
    )
    assert (pmf.value, pmf.method) == (pytest.approx(f[2], rel=1e-13), "closed-form")
    assert [(e.value, e.method) for e in curve] == [
        (pytest.approx(f[y], rel=1e-13), "closed-form") for y in (3, 0, 2)
    ]
    assert tail == pytest.approx(f[2] / f[1], rel=1e-13)
    want = np.log(f[1]) + np.log(f[4]) + float(poisson.logpmf(1, 2.0 * mu))
    assert (loglik.value, loglik.mc_stderr, loglik.method) == (
        pytest.approx(want, rel=1e-13), 0.0, "closed-form"
    )


@pytest.mark.parametrize(
    "phi, p, reason",
    [
        (-0.1, 1.5, "dispersion is negative: no probability distribution exists"),
        (-0.1, 0.5, "dispersion is negative: no probability distribution exists"),
        (0.1, 0.5, "power is below 1: no probability distribution exists"),
    ],
)
def test_no_distribution_refusals(phi, p, reason):
    for call in _every_pmf_function(PtwParams(4.0, phi, p), budget()):
        with pytest.raises(NoDistributionError) as info:
            call()
        assert str(info.value) == reason
        assert isinstance(info.value, InvalidParameterError)


# --------------------------------------------------------------------- pzero


def test_pzero_closed_forms():
    assert abs(ptw_pzero(PtwParams(10.0, 0.1, 2.0)) - 2.0**-10) < 1e-12
    assert ptw_pzero(PtwParams(1e-8, 0.1, 2.0)) > 0.999999


def test_pzero_vs_mc():
    params = PtwParams(10.0, 1.0, 1.5)
    est = _pmf_monte_carlo(params, [0], budget(seed=19))[0]
    assert abs(ptw_pzero(params) - est.value) < 3 * est.mc_stderr


# ------------------------------------------------------------------- indices


def test_dispersion_index_values():
    assert dispersion_index(PtwParams(10.0, 0.1, 2.0)) == pytest.approx(2.0)
    assert dispersion_index(PtwParams(10.0, 0.0, 2.0)) == pytest.approx(1.0)
    assert dispersion_index(PtwParams(10.0, -0.5, 1.0)) == pytest.approx(0.5)
    with pytest.raises(VarianceNonpositiveError):
        dispersion_index(PtwParams(10.0, -1.5, 1.0))


def test_zero_inflation_values():
    # Poisson: ZI = 0
    assert abs(zero_inflation_index(PtwParams(10.0, 1e-12, 2.0))) < 1e-6
    # NB: ZI = 1 + log(2^-10)/10 = 1 - log 2
    assert zero_inflation_index(PtwParams(10.0, 0.1, 2.0)) == pytest.approx(
        1.0 - np.log(2.0), abs=1e-10
    )
    assert zero_inflation_index(PtwParams(10.0, 0.8, 1.1)) > 0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "mu, phi, p, want",
    [
        (800.0, 0.0, 1.0, 0.0),  # Poisson: P(0) = exp(-800) is 0
        (3000.0, 0.001, 2.0, 1.0 - np.log1p(3.0) / 3.0),  # NB: P(0) = 4^-1000
        (2000.0, 0.5, 1.0, 1.0 + np.expm1(-0.5) / 0.5),  # Neyman type A
    ],
)
def test_zero_inflation_where_p0_underflows(mu, phi, p, want):
    # log P(0) is taken from its exponent, not from the 0 exp leaves
    params = PtwParams(mu, phi, p)
    assert ptw_pzero(params) == 0.0
    assert zero_inflation_index(params) == pytest.approx(want, rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("mu", [1e-8, 1e-12, 1e-17, 1e-300])
@pytest.mark.parametrize("phi, p", [(0.0, 1.5), (0.5, 1.5), (2.0, 3.0)])
def test_zero_inflation_is_exactly_zero_on_the_poisson_route(mu, phi, p):
    # log P(0) = -mu; the log of its exponential read 1.0 at mu = 1e-300
    params = PtwParams(mu, phi, p)
    assert ptwdist._poisson_limit(params)
    assert zero_inflation_index(params) == 0.0


@pytest.mark.parametrize("mu", [0.05, 0.5, 6.0])
@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
def test_zero_inflation_reads_the_laplace_exponent(mu, p):
    params = PtwParams(mu, 0.5, p)
    assert not ptwdist._poisson_limit(params)
    assert zero_inflation_index(params) == 1.0 + ptwdist._log_pzero(params) / mu


def test_heavy_tail_values():
    # Poisson limit: exact ratio mu/(y+1)
    ht = heavy_tail_index(PtwParams(10.0, 1e-10, 2.0), 100)
    assert ht == pytest.approx(10.0 / 101.0, rel=1e-9)
    # NB ratio is exactly (y + 1/phi)/(y+1) * phi*mu/(1+phi*mu), approaching
    # the geometric limit phi*mu/(1+phi*mu) = 5/6 from above
    params = PtwParams(10.0, 0.5, 2.0)
    assert heavy_tail_index(params, 120) == pytest.approx(
        (122.0 / 121.0) * (5.0 / 6.0), rel=1e-9
    )
    gaps = [abs(heavy_tail_index(params, y) - 5.0 / 6.0) for y in (120, 500, 3000)]
    assert np.all(np.diff(gaps) < 0) and gaps[-1] < 5e-4
    # p=3 tail ratios approach 1 from below
    params = PtwParams(5.0, 0.9, 3.0)
    ratios = [heavy_tail_index(params, y) for y in (10, 25, 50, 90)]
    assert all(r < 1 for r in ratios)
    assert np.all(np.diff(ratios) > 0)


def test_heavy_tail_unreliable():
    # far tail with a tiny MC budget: denominator fails the 10x s.e. rule
    with pytest.raises(UnreliableEstimateError):
        heavy_tail_index(PtwParams(5.0, 0.8, 1.5), 70, budget(seed=3, draws=2_000))


def test_index_regimes_match_family_shape():
    # at matched DI = 5 (mu = 10), small p puts the overdispersion into
    # zero inflation while p = 3 puts it into the tail
    zi_small_p = zero_inflation_index(PtwParams(10.0, 3.2, 1.1))
    zi_p3 = zero_inflation_index(PtwParams(10.0, 0.04, 3.0))
    assert zi_small_p > zi_p3 + 0.1
    ht_small_p = heavy_tail_index(PtwParams(10.0, 3.2, 1.1), 40, budget(seed=29, draws=400_000))
    ht_p3 = heavy_tail_index(PtwParams(10.0, 0.04, 3.0), 40)
    assert ht_p3 > ht_small_p + 0.05
    # DI increases in mu for p > 1
    dis = [dispersion_index(PtwParams(m, 0.3, 1.6)) for m in (1.0, 3.0, 10.0, 30.0)]
    assert np.all(np.diff(dis) > 0)


def test_params_as_tweedie_roundtrip():
    tw = params_as_tweedie(PtwParams(10.0, 0.1, 2.0))
    assert (tw.mu, tw.phi, tw.p) == (10.0, 0.1, 2.0)


# ------------------------------------------------------------------- loglik


def test_loglik_single_obs_closed_form():
    res = ptw_loglik([10.0], 0.1, 2.0, [3])
    assert res.method == "closed-form" and res.mc_stderr == 0.0
    assert res.value == pytest.approx(np.log(nb_pmf(10.0, 0.1, 3)), abs=1e-12)


def test_loglik_mixed_methods_and_caching():
    # at mu = 1e-7, phi * mu**p is below the Poisson limit (closed form);
    # at mu = 4 the pmf is Monte Carlo, with one set of draws for both counts
    mu = [1e-7, 1e-7, 4.0, 4.0]
    y = [0, 0, 1, 6]
    res = ptw_loglik(mu, 0.6, 1.4, y, budget(seed=31))
    assert res.method == "mixed"  # one closed-form group, one MC group
    exact = (
        2 * poisson.logpmf(0, 1e-7)
        + np.log(cpg_pmf(4.0, 0.6, 1.4, 1))
        + np.log(cpg_pmf(4.0, 0.6, 1.4, 6))
    )
    assert abs(res.value - exact) < 3 * res.mc_stderr + 1e-10


def test_loglik_se_calibration():
    # the delta-method s.e. should match the seed-to-seed spread
    mu = [3.0, 3.0, 7.0, 7.0, 12.0]
    y = [2, 5, 6, 9, 14]
    values, ses = [], []
    for seed in range(12):
        res = ptw_loglik(mu, 0.8, 1.3, y, budget(seed=seed, draws=20_000))
        values.append(res.value)
        ses.append(res.mc_stderr)
    ratio = np.std(values, ddof=1) / np.mean(ses)
    assert 0.4 < ratio < 2.5


def test_loglik_zero_estimate_raises():
    # y far outside the reachable range with a tiny budget -> zero MC pmf
    with pytest.raises(NonpositivePmfError):
        # log pmf ~ -2000 underflows exp() to an exact MC zero
        ptw_loglik([2.0], 0.5, 1.5, [600], budget(seed=2, draws=500))


def test_loglik_length_mismatch():
    with pytest.raises(InvalidParameterError):
        ptw_loglik([2.0], 0.5, 1.5, [1, 2])


def _loglik_reference(mu, phi, p, y, budget):
    """The per-observation dict loop that ``ptw_loglik`` replaced: group by
    mu then y in order of first occurrence, one pmf per count."""
    groups = {}
    for mu_i, yi in zip(mu, y):
        counts = groups.setdefault(mu_i, {})
        counts[int(yi)] = counts.get(int(yi), 0) + 1
    total, var_total, methods = 0.0, 0.0, set()
    for mu_i, counts in groups.items():
        params = PtwParams(mu_i, phi, p)
        mc_counts = {}
        for yi, n_y in counts.items():
            est = _reference_pmf(params, yi, budget)
            if est.method == "monte-carlo":
                mc_counts[yi] = n_y
                continue
            total += n_y * np.log(est.value)
            methods.add(est.method)
        if not mc_counts:
            continue
        methods.add("monte-carlo")
        z = _mixing_draws(mu_i, phi, p, budget.mc_draws, budget.rng).z
        g = np.zeros(len(z))
        for yi, n_y in mc_counts.items():
            probs = np.exp(_reference_poisson_logpmf(yi, z))
            f_hat = float(np.mean(probs))
            total += n_y * np.log(f_hat)
            g += (n_y / f_hat) * probs
        var_total += float(np.var(g, ddof=1) / len(z))
    method = methods.pop() if len(methods) == 1 else "mixed"
    return float(total), float(np.sqrt(var_total)), method


# (phi, p, means) per call, covering every route: Poisson limit, NB, lattice,
# quadrature beside a Poisson-limit mean, quadrature with a Monte Carlo
# fallback (mu = 60 is narrower than the node spacing) beside a Poisson-limit
# mean, Monte Carlo beside a Poisson-limit mean, Monte Carlo alone
_ROUTE_SETS = [
    (1e-9, 1.5, (10.0, 4.0)),
    (0.3, 2.0, (4.0, 9.0)),
    (0.7, 1.0, (3.0, 5.0)),
    (0.05, 3.0, (5.0, 1e-3)),
    (1e-5, 3.0, (60.0, 1e-2)),
    (0.8, 1.3, (6.0, 1e-5)),
    (0.4, 1.7, (2.5, 7.0)),
]
_ROUTE_METHODS = [
    "closed-form", "closed-form", "exact-sum", "mixed", "mixed", "mixed", "monte-carlo",
]


def _route_rows(gen, means, size):
    mu = np.array(means)[gen.integers(len(means), size=size)]
    return mu, gen.poisson(mu * gen.gamma(2.0, 0.5, size=size)).astype(float)


def test_loglik_matches_dict_loop_reference_exactly():
    gen = np.random.default_rng(5)
    b = budget(seed=17, draws=5_000)
    for (phi, p, means), method in zip(_ROUTE_SETS, _ROUTE_METHODS):
        mu, y = _route_rows(gen, means, 60)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res = ptw_loglik(mu, phi, p, y, b)
        fell_back = [w for w in caught if "falling back to Monte Carlo" in str(w.message)]
        assert len(fell_back) == (phi == 1e-5)
        assert res.method == method
        assert (res.value, res.mc_stderr, res.method) == _loglik_reference(mu, phi, p, y, b)


@pytest.mark.filterwarnings("ignore:Gauss-Laguerre rule")
def test_loglik_weighted_matches_expanded():
    # frequency weights give the same sum, in the same order, as their rows
    # repeated, with duplicate (mu, y) pairs among the weighted rows
    gen = np.random.default_rng(7)
    b = budget(seed=17, draws=5_000)
    for phi, p, means in _ROUTE_SETS:
        mu, y = _route_rows(gen, means, 40)
        w = gen.integers(1, 5, size=y.size)
        assert len(set(zip(mu, y))) < y.size
        weighted = ptw_loglik(mu, phi, p, y, b, w)
        assert weighted == ptw_loglik(np.repeat(mu, w), phi, p, np.repeat(y, w), b)
        assert weighted == ptw_loglik(mu, phi, p, y, b, w.astype(float))
        assert ptw_loglik(mu, phi, p, y, b, np.ones(y.size)) == ptw_loglik(mu, phi, p, y, b)


def test_loglik_of_no_rows_is_zero():
    for weights in (None, []):
        res = ptw_loglik([], 0.5, 1.5, [], weights=weights)
        assert (res.value, res.mc_stderr, res.method) == (0.0, 0.0, "closed-form")


@pytest.mark.filterwarnings("ignore:Gauss-Laguerre rule")
@pytest.mark.parametrize(
    "mu, phi, p, y",
    [
        # Monte Carlo at both means
        ([5.0, 2.0, 5.0, 2.0, 5.0], 0.6, 1.4, [4, 1, 0, 4, 4]),
        # mu = 60 is narrower than the node spacing: Gauss-Laguerre falls back
        ([60.0, 5.0, 60.0, 5.0, 60.0], 1e-5, 3.0, [64, 1, 55, 4, 64]),
    ],
)
def test_loglik_visits_in_first_occurrence_order(mu, phi, p, y):
    # means and counts both come first in an order other than sorted; with
    # these draws a sorted visit changes the sum in its last bits
    w = np.array([1, 3, 2, 1, 2])
    assert list(dict.fromkeys(mu)) != sorted(set(mu))
    b = budget(seed=1, draws=5_000)
    res = ptw_loglik(mu, phi, p, y, b, w)
    reference = _loglik_reference(np.repeat(mu, w), phi, p, np.repeat(y, w), b)
    assert (res.value, res.mc_stderr, res.method) == reference


def test_pmf_gauss_laguerre_fallback_warns_per_call():
    # a direct pmf call names its own (mu, phi, y); the log-likelihood
    # counts its fallbacks in one warning
    params = PtwParams(60.0, 1e-5, 3.0)
    with pytest.warns(UserWarning, match=r"\(mu=60.0, phi=1e-05, y=55\); falling back"):
        est = ptw_pmf(params, 55, budget(seed=2, draws=2_000))
    assert est.method == "monte-carlo"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ptw_loglik([60.0] * 4, 1e-5, 3.0, [55, 58, 55, 61], budget(seed=2, draws=2_000))
    assert [str(w.message) for w in caught] == [
        "Gauss-Laguerre rule (128 nodes) cannot resolve 3 (mu, y) pair(s) at p = 3; "
        "falling back to Monte Carlo"
    ]


def test_loglik_evaluates_no_monte_carlo_pmf(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return _pmf_monte_carlo(*args, **kwargs)

    monkeypatch.setattr(ptwdist, "_pmf_monte_carlo", counting)
    res = ptw_loglik([4.0, 4.0, 4.0, 9.0], 0.6, 1.4, [1, 6, 1, 9], budget(seed=3, draws=2_000))
    assert res.method == "monte-carlo" and res.mc_stderr > 0
    assert calls == []
    ptw_pmf(PtwParams(4.0, 0.6, 1.4), 1, budget(seed=3, draws=2_000))
    assert len(calls) == 1


# ------------------------------------------------------------ draw memory


def test_loglik_holds_one_draw_set():
    # five Monte Carlo means at 100,000 draws: the cache keeps only the last
    # set, and the call's buffers are gone once it returns
    mu, y = [1.5, 2.5, 3.5, 4.5, 5.5], [0, 1, 2, 3, 4]
    ptw_loglik(mu, 0.6, 1.4, y, budget(seed=1))  # warm every one-time cache
    _mixing_draws.cache_clear()
    tracemalloc.start()
    try:
        ptw_loglik(mu, 0.6, 1.4, y, budget(seed=2))
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert _mixing_draws.cache_info().currsize == 1
    assert held <= 100_000 * 8 + 64 * 1024, held


def test_pmf_curve_then_heavy_tails_sample_once(monkeypatch):
    samples = []
    sampler = ptwdist.sample_tweedie_mu

    def counting(mu, phi, p, gen, size=None):
        samples.append(size)
        return sampler(mu, phi, p, gen, size)

    monkeypatch.setattr(ptwdist, "sample_tweedie_mu", counting)
    _mixing_draws.cache_clear()
    params, b = PtwParams(6.0, 0.5, 1.5), budget(seed=3, draws=5_000)
    curve = ptw_pmf_curve(params, range(8), b)
    for y in range(7):
        assert heavy_tail_index(params, y, b) == curve[y + 1].value / curve[y].value
    assert samples == [5_000]


_FRESH_HEAVY_TAILS = """
from ptwreg.numcore import RngStream
from ptwreg.ptwdist import PmfConfig, PtwParams, heavy_tail_index
b = PmfConfig(mc_draws=5_000, rng=RngStream(3))
print([heavy_tail_index(PtwParams(6.0, 0.5, 1.5), y, b).hex() for y in range(8)])
"""


def test_draw_record_goes_with_its_draws():
    # a curve at set A, a log-likelihood at set B that evicts A, then heavy
    # tails at A: they redraw A and read what a fresh process reads
    a, b = PtwParams(6.0, 0.5, 1.5), budget(seed=3, draws=5_000)
    ptw_pmf_curve(a, range(5), b)
    record = _mixing_draws(a.mu, a.phi, a.p, b.mc_draws, b.rng)
    assert sorted(record.estimates) == list(range(5))
    assert not record.z.flags.writeable
    with pytest.raises(ValueError):
        record.z[0] = 1.0
    assert ptw_loglik([2.5], 0.6, 1.4, [1], b).method == "monte-carlo"
    assert _mixing_draws.cache_info().currsize == 1
    ratios = [heavy_tail_index(a, y, b).hex() for y in range(8)]
    assert _mixing_draws.cache_info().currsize == 1
    redrawn = _mixing_draws(a.mu, a.phi, a.p, b.mc_draws, b.rng)
    assert redrawn is not record and sorted(redrawn.estimates) == list(range(9))
    assert np.array_equal(redrawn.z, record.z)
    proc = subprocess.run(
        [sys.executable, "-c", _FRESH_HEAVY_TAILS], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{ratios}\n"


# ------------------------------------------------------------ thread pool


def _record_draw_threads(monkeypatch):
    """Names of the threads that take ``ptw_loglik``'s mixing draws."""
    names = []

    def recording(*args):
        names.append(threading.current_thread().name)
        return _mixing_draws(*args)

    monkeypatch.setattr(ptwdist, "_mixing_draws", recording)
    return names


# a p = 3 call whose three narrow means all fall back to Monte Carlo, beside
# a Poisson-limit mean, and five Monte Carlo means at p = 1.3
_POOL_SETS = [*_ROUTE_SETS, (1e-5, 3.0, (60.0, 1e-2, 70.0, 80.0)),
              (0.6, 1.3, (0.5, 1.5, 2.5, 4.0, 6.0))]


@pytest.mark.filterwarnings("ignore:Gauss-Laguerre rule")
@pytest.mark.parametrize("workers", [1, 2, 3])
def test_loglik_is_the_same_on_any_number_of_threads(workers, monkeypatch):
    # the threads share the draw cache; a short switch interval interleaves
    # them often, and three threads can outnumber the cores
    monkeypatch.setattr(ptwdist, "_usable_cpus", lambda: workers)
    threads = _record_draw_threads(monkeypatch)
    gen = np.random.default_rng(5)
    b = budget(seed=17, draws=5_000)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for phi, p, means in _POOL_SETS:
            mu, y = _route_rows(gen, means, 60)
            res = ptw_loglik(mu, phi, p, y, b)
            assert (res.value, res.mc_stderr, res.method) == _loglik_reference(mu, phi, p, y, b)
    finally:
        sys.setswitchinterval(interval)
    # a call with one Monte Carlo mean runs it on the calling thread
    assert any(name.startswith("ptw_loglik") for name in threads) == (workers > 1)


def test_loglik_starts_threads_only_for_two_monte_carlo_means(monkeypatch):
    # at two CPUs, one Monte Carlo mean beside a Poisson-limit mean (phi *
    # mu**p below 1e-6) is drawn on the calling thread, and an exact-only
    # call makes no pool at all; two Monte Carlo means take both threads
    monkeypatch.setattr(ptwdist, "_usable_cpus", lambda: 2)
    threads = _record_draw_threads(monkeypatch)
    pools = []

    def recording_pool(*args, **kwargs):
        pools.append(args)
        return ThreadPoolExecutor(*args, **kwargs)

    monkeypatch.setattr(ptwdist, "ThreadPoolExecutor", recording_pool)
    b = budget(seed=3, draws=5_000)
    assert ptw_loglik([1e-6, 2.5, 1e-6], 0.6, 1.3, [0, 1, 1], b).method == "mixed"
    assert threads == [threading.current_thread().name] and pools == []
    assert ptw_loglik([1.5, 2.5, 3.5], 0.4, 2.0, [0, 1, 4], b).method == "closed-form"
    assert len(threads) == 1 and pools == []
    assert ptw_loglik([1.5, 2.5], 0.6, 1.3, [0, 1], b).method == "monte-carlo"
    assert pools == [(2,)] and len(threads) == 3
    assert all(name.startswith("ptw_loglik") for name in threads[1:])


def test_loglik_threads_raise_the_serial_error(monkeypatch):
    # mu = 2 and mu = 3 have Monte Carlo pmf 0 at these counts, and
    # mu = 1e300 overflows mu**p: the first mean's error is the one raised
    mu, y = [2.0, 5.0, 3.0, 1e300], [600, 4, 700, 1]
    b = budget(seed=2, draws=500)
    raised = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(ptwdist, "_usable_cpus", lambda: workers)
        with pytest.raises(NonpositivePmfError) as caught:
            ptw_loglik(mu, 0.5, 1.5, y, b)
        raised.append(str(caught.value))
    assert raised == [
        "Monte Carlo pmf(600) = 0 at (mu=2.0, phi=0.5, p=1.5); raise mc_draws above 500"
    ] * 3
    for workers in (1, 2):  # a refusal before any Monte Carlo error wins
        monkeypatch.setattr(ptwdist, "_usable_cpus", lambda: workers)
        with pytest.raises(InvalidParameterError, match=r"mu\*\*p overflows at \(mu=1e\+300"):
            ptw_loglik(mu[::-1], 0.5, 1.5, y[::-1], b)


@pytest.mark.parametrize("workers", [1, 2])
def test_loglik_threads_keep_the_callers_numpy_error_state(workers, monkeypatch):
    # exp(y log z - z - log y!) underflows at y = 200; the threads run in
    # the caller's numpy error state, as the calling thread would
    monkeypatch.setattr(ptwdist, "_usable_cpus", lambda: workers)
    mu, y, b = [0.5, 1.5, 2.5], [200, 30, 1], budget(seed=1, draws=5_000)
    assert np.isfinite(ptw_loglik(mu, 0.6, 1.3, y, b).value)
    with np.errstate(under="raise"), pytest.raises(FloatingPointError, match="underflow"):
        ptw_loglik(mu, 0.6, 1.3, y, b)


def test_loglik_threads_stay_quiet_on_zero_draws(monkeypatch):
    # (0.5, 2.0, 1.3) puts about half of the mixing draws at z = 0
    monkeypatch.setattr(ptwdist, "_usable_cpus", lambda: 2)
    threads = _record_draw_threads(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = ptw_loglik([0.5, 0.7, 0.5, 0.9], 2.0, 1.3, [0, 1, 3, 0], budget(seed=4, draws=20_000))
    assert res.method == "monte-carlo" and np.isfinite(res.value) and res.mc_stderr > 0
    assert all(name.startswith("ptw_loglik") for name in threads)


def test_loglik_leaves_no_threads_behind(monkeypatch):
    monkeypatch.setattr(ptwdist, "_usable_cpus", lambda: 3)
    before = threading.active_count()
    ptw_loglik([1.5, 2.5, 3.5, 4.5], 0.6, 1.4, [0, 1, 2, 3], budget(seed=2, draws=5_000))
    with pytest.raises(NonpositivePmfError):
        ptw_loglik([2.0, 3.0, 4.0], 0.5, 1.5, [600, 1, 2], budget(seed=2, draws=500))
    assert threading.active_count() == before


def test_runner_raises_the_first_error_in_order_and_starts_no_job_after_it(monkeypatch):
    # three threads: job 4 fails while jobs 2 and 3 hold the other two, and
    # these end only after it, so no thread is free before job 4's error is
    # in; job 2 fails later in wall time but first in order, and is raised
    monkeypatch.setattr(ptwdist, "_usable_cpus", lambda: 3)
    started, four_failed = [], threading.Event()

    def job(index):
        started.append(index)
        if index == 4:
            four_failed.set()
            raise ValueError("job 4")
        if index in (2, 3):
            assert four_failed.wait(10)
            time.sleep(0.2)  # time for the runner to take in job 4's error
            if index == 2:
                raise ValueError("job 2")
        return index

    before = threading.active_count()
    with pytest.raises(ValueError, match="job 2"):
        ptwdist._run_in_order([partial(job, k) for k in range(8)], 1)
    assert sorted(started) == [0, 1, 2, 3, 4]
    assert threading.active_count() == before


@pytest.mark.parametrize("y", [0, 1, 40])
def test_buffered_poisson_kernel_equals_the_expression(y):
    # (0.5, 2.0, 1.3) puts about half of the mixing draws at z = 0
    z = _mixing_draws(0.5, 2.0, 1.3, 20_000, RngStream(4)).z
    assert np.any(z == 0) and np.any(z > 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_z = np.log(z)
        expected = np.exp(y * log_z - z - gammaln(y + 1))
    if y == 0:  # 0 * log(0) is nan; Poisson(0; 0) = 1
        expected[z == 0] = 1.0
    out = np.full(z.size, np.nan)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # the kernel takes no log of 0
        kernel = ptwdist._poisson_pmf(
            y, z, ptwdist._log_intensities(z), ptwdist._positive(z), out
        )
    assert kernel is out
    assert np.array_equal(out, expected)


@pytest.mark.parametrize(
    "args, error",
    [
        (([np.nan, 2.0], 0.5, 1.5, [1, 2]), InvalidParameterError),
        (([2.0, 0.0], 0.5, 1.5, [1, 2]), InvalidParameterError),
        ((2.0, np.inf, 1.5, [1, 2]), InvalidParameterError),
        ((2.0, 0.5, np.nan, [1, 2]), InvalidParameterError),
        ((2.0, -0.1, 1.5, [1, 2]), NoDistributionError),
        ((2.0, 0.5, 0.9, [1, 2]), InvalidParameterError),
        ((2.0, 0.5, 1.5, [1, -1]), InvalidParameterError),
        ((2.0, 0.5, 1.5, [1, 2.5]), InvalidParameterError),
        ((2.0, 0.5, 1.5, [1, np.nan]), InvalidParameterError),
        ((2.0, 0.5, 1.5, [1, np.inf]), InvalidParameterError),
        (([2.0, 3.0, 4.0], 0.5, 1.5, [1, 2]), InvalidParameterError),
        (([[2.0, 3.0]], 0.5, 1.5, [1, 2]), InvalidParameterError),
        # phi and p are one scalar each; per-row arrays are refused
        ((2.0, [0.5, 0.5], 1.5, [1, 2]), InvalidParameterError),
        ((2.0, [[0.5, 0.5]], 1.5, [1, 2]), InvalidParameterError),
        ((2.0, 0.5, [1.5, 1.5], [1, 2]), InvalidParameterError),
        # frequency weights are positive integers of y's shape
        ((2.0, 0.5, 1.5, [1, 2], None, [1, 0]), InvalidParameterError),
        ((2.0, 0.5, 1.5, [1, 2], None, [1, -1]), InvalidParameterError),
        ((2.0, 0.5, 1.5, [1, 2], None, [1, 2.5]), InvalidParameterError),
        ((2.0, 0.5, 1.5, [1, 2], None, [1, np.nan]), InvalidParameterError),
        ((2.0, 0.5, 1.5, [1, 2], None, [1, 1, 1]), InvalidParameterError),
        ((2.0, 0.5, 1.5, [1, 2], None, 2), InvalidParameterError),
        (([1e200], 0.5, 2.0, [3]), InvalidParameterError),  # mu**p overflows
    ],
)
def test_loglik_array_validation(args, error):
    with pytest.raises(error):
        ptw_loglik(*args)
