import warnings

import numpy as np
import pytest
from scipy.stats import poisson

from oracles import cpg_pmf, nb_pmf, neyman_pmf
from ptwreg.errors import (
    InvalidParameterError,
    NoDistributionError,
    NonpositivePmfError,
    UnreliableEstimateError,
    VarianceNonpositiveError,
)
import ptwreg.ptwdist as ptwdist
from ptwreg.numcore import RngStream
from ptwreg.ptwdist import (
    PmfConfig,
    PtwParams,
    _mixing_draws,
    _pmf_monte_carlo,
    _poisson_logpmf,
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
        mc = _pmf_monte_carlo(params, y, budget(seed=5))
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


# --------------------------------------------------------------------- pzero


def test_pzero_closed_forms():
    assert abs(ptw_pzero(PtwParams(10.0, 0.1, 2.0)) - 2.0**-10) < 1e-12
    assert ptw_pzero(PtwParams(1e-8, 0.1, 2.0)) > 0.999999


def test_pzero_vs_mc():
    params = PtwParams(10.0, 1.0, 1.5)
    est = _pmf_monte_carlo(params, 0, budget(seed=19))
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
    mu = [10.0, 10.0, 4.0, 4.0]
    phi = [0.1, 0.1, 0.6, 0.6]
    p = [2.0, 2.0, 1.4, 1.4]
    y = [3, 3, 1, 6]
    res = ptw_loglik(mu, phi, p, y, budget(seed=31))
    assert res.method == "mixed"  # one closed-form group, one MC group
    exact = (
        2 * np.log(nb_pmf(10.0, 0.1, 3))
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
    (mu, phi, p) then y in order of first occurrence, pmf via ``ptw_pmf``."""
    groups = {}
    for key, yi in zip(zip(mu, phi, p), y):
        counts = groups.setdefault(key, {})
        counts[int(yi)] = counts.get(int(yi), 0) + 1
    total, var_total, methods = 0.0, 0.0, set()
    for key, counts in groups.items():
        params = PtwParams(*key)
        mc_counts = {}
        for yi, n_y in counts.items():
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                est = ptw_pmf(params, yi, budget)
            if est.method == "monte-carlo":
                mc_counts[yi] = n_y
                continue
            total += n_y * np.log(est.value)
            methods.add(est.method)
        if not mc_counts:
            continue
        methods.add("monte-carlo")
        z = _mixing_draws(*key, budget.mc_draws, budget.rng)
        g = np.zeros(len(z))
        for yi, n_y in mc_counts.items():
            probs = np.exp(_poisson_logpmf(yi, z))
            f_hat = float(np.mean(probs))
            total += n_y * np.log(f_hat)
            g += (n_y / f_hat) * probs
        var_total += float(np.var(g, ddof=1) / len(z))
    method = methods.pop() if len(methods) == 1 else "mixed"
    return float(total), float(np.sqrt(var_total)), method


def test_loglik_matches_dict_loop_reference_exactly():
    # every route: Poisson limit, NB, lattice, quadrature with a Monte Carlo
    # fallback (mu = 60 at p = 3 is narrower than the node spacing), MC
    gen = np.random.default_rng(5)
    sets = [(10.0, 1e-9, 1.5), (4.0, 0.3, 2.0), (3.0, 0.7, 1.0), (5.0, 0.05, 3.0),
            (60.0, 1e-5, 3.0), (6.0, 0.8, 1.3), (2.5, 0.4, 1.7)]
    rows = gen.integers(len(sets), size=300)
    mu, phi, p = (np.array([sets[k][j] for k in rows]) for j in range(3))
    y = gen.poisson(mu * gen.gamma(2.0, 0.5, size=rows.size)).astype(float)
    b = budget(seed=17, draws=5_000)
    with pytest.warns(UserWarning, match="falling back to Monte Carlo"):
        res = ptw_loglik(mu, phi, p, y, b)
    assert res.method == "mixed"
    assert (res.value, res.mc_stderr, res.method) == _loglik_reference(mu, phi, p, y, b)


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


@pytest.mark.parametrize(
    "args, error",
    [
        (([np.nan, 2.0], 0.5, 1.5, [1, 2]), InvalidParameterError),
        (([2.0, 0.0], 0.5, 1.5, [1, 2]), InvalidParameterError),
        ((2.0, [0.5, np.inf], 1.5, [1, 2]), InvalidParameterError),
        ((2.0, 0.5, [np.nan, 1.5], [1, 2]), InvalidParameterError),
        ((2.0, [0.5, -0.1], 1.5, [1, 2]), NoDistributionError),
        ((2.0, 0.5, [1.5, 0.9], [1, 2]), InvalidParameterError),
        ((2.0, 0.5, 1.5, [1, -1]), InvalidParameterError),
        ((2.0, 0.5, 1.5, [1, 2.5]), InvalidParameterError),
        ((2.0, 0.5, 1.5, [1, np.nan]), InvalidParameterError),
        ((2.0, 0.5, 1.5, [1, np.inf]), InvalidParameterError),
        (([2.0, 3.0, 4.0], 0.5, 1.5, [1, 2]), InvalidParameterError),
        ((2.0, [[0.5, 0.5]], 1.5, [1, 2]), InvalidParameterError),
    ],
)
def test_loglik_array_validation(args, error):
    with pytest.raises(error):
        ptw_loglik(*args)
