import tracemalloc

import numpy as np
import pytest
from scipy import stats
from scipy.special import gammainc

from ptwreg import refdists
from ptwreg.errors import InvalidParameterError
from ptwreg.numcore import RngStream
from ptwreg.refdists import (
    ComPoissonParams,
    GammaCountParams,
    compoisson_pmf,
    compoisson_sample,
    compoisson_sample_lam,
    gammacount_pmf,
    gammacount_sample,
    gammacount_sample_lam,
    moment_map,
)


def pmf_moments(pmf_fn, y_max=400):
    y = np.arange(y_max + 1)
    w = np.asarray(pmf_fn(y), dtype=float)
    total = w.sum()
    mean = (y * w).sum()
    var = ((y - mean) ** 2 * w).sum()
    return total, mean, var


# ------------------------------------------------------------------ parameters


def test_parameter_validation():
    for bad in (0.0, -1.0, np.inf):
        with pytest.raises(InvalidParameterError):
            ComPoissonParams(lam=bad, nu=2.0)
        with pytest.raises(InvalidParameterError):
            GammaCountParams(lam=2.0, nu=bad)


@pytest.mark.parametrize(
    "params, sample, pmf",
    [
        (ComPoissonParams(1e300, 2.0), compoisson_sample, compoisson_pmf),
        (GammaCountParams(1e300, 2.0), gammacount_sample, gammacount_pmf),
    ],
    ids=["compoisson", "gammacount"],
)
def test_tables_past_the_row_limit_are_refused(params, sample, pmf):
    # np.arange raised "Maximum allowed size exceeded"; now Y* is checked
    # against the row limit before any table is allocated
    with pytest.raises(InvalidParameterError, match="rows, above the limit"):
        sample(params, 2, RngStream(0))
    if pmf is compoisson_pmf:  # the Gamma-Count pmf needs no table
        with pytest.raises(InvalidParameterError, match="rows, above the limit"):
            pmf(params, 0)


@pytest.mark.parametrize(
    "family, lambda0, lambda1, rows",
    [
        # 1,000 distinct grid lambdas near 1e6 at nu = 1: Y* near 1.03e6 rows
        # would be about 8 GB per array; refused before the table is built
        ("com-poisson", np.log(1e6), 0.1, "1.14e+06"),
        ("gamma-count", np.log(1e6), 0.1, "1.14e+06"),
        # one distinct lambda: its table has one column, and the moments
        # would expand it to 1,000; refused before the expansion
        ("com-poisson", np.log(1e5), 0.0, "1.1e+05"),
    ],
    ids=["compoisson", "gammacount", "one-distinct-lambda"],
)
def test_moment_tables_past_the_cell_limit_are_refused(family, lambda0, lambda1, rows):
    tracemalloc.start()
    try:
        with pytest.raises(InvalidParameterError) as info:
            moment_map(family, lambda0, lambda1, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(info.value) == (f"lambda and nu need a table of {rows} rows, above the "
                               "limit of 1e+04 at 1000 columns")
    assert peak < 20e6, peak


def test_sampling_in_blocks_matches_one_comparison(monkeypatch):
    # blocks of 1,000 cells split 3,000 draws over a 25-row table into 75
    # blocks; each count sums the same comparisons as the whole table does
    lam = np.exp(1.0 + 0.5 * np.linspace(-1.0, 1.0, 3000))
    for table, sample_lam in ((refdists._compoisson_table, compoisson_sample_lam),
                              (refdists._gammacount_table, gammacount_sample_lam)):
        cdf, inv = table(lam.tobytes(), 2.0)
        u = RngStream(5).generator().random(lam.size)
        whole = np.minimum(np.sum(cdf[:, inv] < u[None, :], axis=0), cdf.shape[0] - 1)
        monkeypatch.setattr(refdists, "_BLOCK_CELLS", 1000)
        blocked = sample_lam(lam, 2.0, RngStream(5).generator())
        monkeypatch.undo()
        assert cdf.shape[0] * lam.size > 10 * 1000
        assert blocked.dtype == whole.dtype and np.array_equal(blocked, whole)


def test_parameters_of_the_two_families_stay_apart():
    assert ComPoissonParams(2.0, 3.0) != GammaCountParams(2.0, 3.0)
    assert ComPoissonParams(2.0, 3.0) == ComPoissonParams(2.0, 3.0)
    assert repr(GammaCountParams(2.0, 3.0)) == "GammaCountParams(lam=2.0, nu=3.0)"
    with pytest.raises(InvalidParameterError, match=r"^lambda must be positive, got -1.0$"):
        ComPoissonParams(-1.0, 2.0)
    with pytest.raises(InvalidParameterError, match=r"^nu must be positive, got nan$"):
        GammaCountParams(2.0, float("nan"))


# ----------------------------------------------------------- pmf exact values


@pytest.mark.parametrize("lam", [0.5, 2.0, 8.0])
def test_nu_one_reduces_to_poisson(lam):
    y = np.arange(40)
    ref = stats.poisson.pmf(y, lam)
    assert np.allclose(compoisson_pmf(ComPoissonParams(lam, 1.0), y), ref, atol=1e-13)
    assert np.allclose(gammacount_pmf(GammaCountParams(lam, 1.0), y), ref, atol=1e-13)


@pytest.mark.parametrize("nu", [0.5, 2.0, 6.0])
def test_pmfs_normalized(nu):
    t_cp, _, _ = pmf_moments(lambda y: compoisson_pmf(ComPoissonParams(8.0, nu), y))
    t_gc, _, _ = pmf_moments(lambda y: gammacount_pmf(GammaCountParams(2.0, nu), y))
    assert t_cp == pytest.approx(1.0, abs=1e-9)
    assert t_gc == pytest.approx(1.0, abs=1e-9)


def test_both_families_underdispersed_for_large_nu():
    _, m_cp, v_cp = pmf_moments(lambda y: compoisson_pmf(ComPoissonParams(8.0, 2.0), y))
    _, m_gc, v_gc = pmf_moments(lambda y: gammacount_pmf(GammaCountParams(2.0, 2.0), y))
    assert v_cp / m_cp < 0.7
    assert v_gc / m_gc < 0.8


def test_compoisson_support_collapses_as_nu_grows():
    # at nu = 50 anything beyond y = 1 has weight ~ 2^-50
    probs = compoisson_pmf(ComPoissonParams(1.0, 50.0), np.arange(10))
    assert probs[2:].sum() < 1e-6
    assert probs[:2].sum() == pytest.approx(1.0, abs=1e-6)


def test_gammacount_pmf_scalar_and_out_of_support():
    params = GammaCountParams(2.0, 3.0)
    value = gammacount_pmf(params, 2)
    assert isinstance(value, float) and 0 < value < 1
    assert gammacount_pmf(params, 500) == pytest.approx(0.0, abs=1e-300)


def test_pmfs_are_zero_at_negative_counts():
    # a negative count must not index the end of the CDF table
    assert compoisson_pmf(ComPoissonParams(3.0, 2.0), -1) == 0.0
    assert gammacount_pmf(GammaCountParams(3.0, 2.0), -1) == 0.0
    probs = compoisson_pmf(ComPoissonParams(3.0, 2.0), np.array([-2, -1, 0]))
    assert probs[0] == probs[1] == 0.0 and probs[2] > 0.0


@pytest.mark.parametrize(
    "pmf, params",
    [(compoisson_pmf, ComPoissonParams(3.0, 2.0)), (gammacount_pmf, GammaCountParams(3.0, 2.0))],
    ids=["com-poisson", "gamma-count"],
)
def test_pmfs_are_zero_off_the_counts(pmf, params):
    # the COM-Poisson pmf raised numpy's IndexError at 2.5, and the
    # Gamma-Count pmf gave 0.321 there and NaN at -2
    assert pmf(params, 2.5) == pmf(params, -2) == 0.0
    probs = pmf(params, np.array([-2.0, -1.0, 0.0, 1.5, 2.0, 2.5]))
    assert probs[0] == probs[1] == probs[3] == probs[5] == 0.0
    assert probs[2] > 0.0 and probs[4] == pmf(params, 2)


# -------------------------------------------------------------------- samplers


def _pooled_chisquare(draws, pmf_fn):
    n = len(draws)
    y_max = int(draws.max())
    probs = np.array([pmf_fn(y) for y in range(y_max + 1)])
    exp = n * np.append(probs, max(1.0 - probs.sum(), 0.0))
    obs = np.bincount(draws, minlength=y_max + 2).astype(float)
    while len(exp) > 2 and exp[-1] < 5:
        exp[-2] += exp[-1]
        obs[-2] += obs[-1]
        exp, obs = exp[:-1], obs[:-1]
    while len(exp) > 2 and exp[0] < 5:
        exp[1] += exp[0]
        obs[1] += obs[0]
        exp, obs = exp[1:], obs[1:]
    return stats.chisquare(obs, exp * obs.sum() / exp.sum()).pvalue


@pytest.mark.parametrize("nu", [2.0, 4.0, 6.0, 8.0])
def test_compoisson_sampler_matches_pmf(nu):
    params = ComPoissonParams(8.0, nu)
    draws = compoisson_sample(params, 100_000, RngStream(42))
    assert _pooled_chisquare(draws, lambda y: compoisson_pmf(params, y)) > 1e-3


@pytest.mark.parametrize("nu", [2.0, 4.0, 6.0, 8.0])
def test_gammacount_sampler_matches_pmf(nu):
    params = GammaCountParams(2.0, nu)
    draws = gammacount_sample(params, 100_000, RngStream(42))
    assert _pooled_chisquare(draws, lambda y: gammacount_pmf(params, y)) > 1e-3


def test_samplers_deterministic():
    params = ComPoissonParams(8.0, 4.0)
    a = compoisson_sample(params, 500, RngStream(11))
    b = compoisson_sample(params, 500, RngStream(11))
    assert np.array_equal(a, b)
    g = GammaCountParams(2.0, 4.0)
    assert np.array_equal(
        gammacount_sample(g, 500, RngStream(11)), gammacount_sample(g, 500, RngStream(11))
    )


def _uncached_compoisson_cdf(uniq, nu):
    return np.cumsum(np.exp(refdists._compoisson_log_weights(uniq, nu)), axis=0)


def _uncached_gammacount_cdf(uniq, nu):
    t = nu * uniq
    y_max = int(np.max(uniq) + 30.0 * np.sqrt(np.max(uniq) / nu + 1.0) + 30.0)
    while np.any(gammainc((y_max + 1) * nu, t) >= 1e-12):
        y_max *= 2
    y = np.arange(y_max + 1)
    return 1.0 - gammainc((y[:, None] + 1) * nu, t[None, :])


_SAMPLERS = {
    "com-poisson": (compoisson_sample_lam, _uncached_compoisson_cdf, (8.0, 4.0)),
    "gamma-count": (gammacount_sample_lam, _uncached_gammacount_cdf, (2.0, 1.0)),
}


def _reference_draws(family, lam, nu, seed):
    """Inverse-CDF draws against a table rebuilt from scratch."""
    uniq, inv = np.unique(lam, return_inverse=True)
    cdf = _SAMPLERS[family][1](uniq, nu)
    u = np.random.default_rng(seed).random(lam.shape[0])
    return np.minimum(np.sum(cdf[:, inv] < u[None, :], axis=0), cdf.shape[0] - 1)


@pytest.mark.parametrize("family", sorted(_SAMPLERS))
@pytest.mark.parametrize("shape", ["study-cell", "moment-map"])
def test_sampler_draws_match_uncached_reference(family, shape):
    sampler, _, (lambda0, lambda1) = _SAMPLERS[family]
    if shape == "study-cell":
        lam = np.exp(lambda0 + lambda1 * np.linspace(-1.0, 1.0, 500))
    else:
        lam = np.full(1000, np.exp(lambda0 + 0.3 * lambda1))
    ref = _reference_draws(family, lam, 4.0, 8)
    refdists._compoisson_table.cache_clear()
    refdists._gammacount_table.cache_clear()
    for _ in range(2):  # cold cache, then warm
        draws = sampler(lam, 4.0, np.random.default_rng(8))
        assert np.array_equal(draws, ref)


@pytest.mark.parametrize("family", sorted(_SAMPLERS))
def test_equal_length_lam_vectors_get_their_own_tables(family):
    sampler, _, (lambda0, lambda1) = _SAMPLERS[family]
    x = np.linspace(-1.0, 1.0, 200)
    lam_a = np.exp(lambda0 + lambda1 * x)
    lam_b = np.exp(lambda0 - 0.5 + lambda1 * x)
    for lam in (lam_a, lam_b, lam_a):
        draws = sampler(lam, 6.0, np.random.default_rng(2))
        assert np.array_equal(draws, _reference_draws(family, lam, 6.0, 2))


@pytest.mark.parametrize("table", [refdists._compoisson_table, refdists._gammacount_table])
def test_cached_tables_are_read_only(table):
    lam = np.exp(np.linspace(0.0, 2.0, 50))
    cdf, inv = table(lam.tobytes(), 4.0)
    assert not cdf.flags.writeable and not inv.flags.writeable
    with pytest.raises(ValueError):
        cdf[0, 0] = 0.5
    with pytest.raises(ValueError):
        inv[0] = 1


# ---------------------------------------------------------------- moment map


def test_moment_map_validation():
    with pytest.raises(InvalidParameterError):
        moment_map("binomial", 1.0, 0.5, 2.0)


def test_moment_map_poisson_reduction():
    # nu = 1 is exactly Poisson for both families: the mean model recovers
    # (lambda0, lambda1) and the excess variance is zero, so phi = 0 (p is
    # not identified there and is reported as 1)
    for family in ("com-poisson", "gamma-count"):
        result = moment_map(family, 1.0, 0.5, 1.0)
        assert result.beta0 == pytest.approx(1.0, abs=1e-9), family
        assert result.beta1 == pytest.approx(0.5, abs=1e-9), family
        assert result.phi == 0.0 and result.p == 1.0, family


@pytest.mark.parametrize("nu", [2.0, 4.0])
@pytest.mark.parametrize(
    "family, table, pmf_fn, lambda0, lambda1",
    [
        ("com-poisson", refdists._compoisson_table,
         lambda lam, nu, y: compoisson_pmf(ComPoissonParams(lam, nu), y), 8.0, 4.0),
        ("gamma-count", refdists._gammacount_table,
         lambda lam, nu, y: gammacount_pmf(GammaCountParams(lam, nu), y), 2.0, 1.0),
    ],
    ids=["com-poisson", "gamma-count"],
)
def test_table_moments_match_pointwise_pmfs(family, table, pmf_fn, lambda0, lambda1, nu):
    # lambdas out of order, so every column is reached through ``inv``
    lam = np.exp(lambda0 + lambda1 * np.array([0.5, -1.0, 1.0, -0.2, 0.0, -0.6, 0.9]))
    means, variances = refdists._table_moments(table, lam, nu)
    y = np.arange(3000)
    for i, lam_i in enumerate(lam):
        probs = pmf_fn(lam_i, nu, y)
        mean = np.sum(y * probs)
        var = np.sum((y - mean) ** 2 * probs)
        assert means[i] == pytest.approx(mean, rel=1e-9), (family, lam_i)
        assert variances[i] == pytest.approx(var, rel=1e-8), (family, lam_i)


def test_moment_map_compoisson_spot_values():
    result = moment_map("com-poisson", 8.0, 4.0, 4.0)
    assert result.beta0 == pytest.approx(1.941, abs=0.03)
    assert result.beta1 == pytest.approx(1.047, abs=0.03)
    assert result.phi == pytest.approx(-0.714, abs=0.05)
    assert result.p == pytest.approx(1.014, abs=0.05)


def test_moment_map_gammacount_spot_values():
    result = moment_map("gamma-count", 2.0, 1.0, 6.0)
    assert result.beta0 == pytest.approx(1.936, abs=0.03)
    assert result.beta1 == pytest.approx(1.048, abs=0.03)
    assert result.phi == pytest.approx(-0.779, abs=0.05)
    assert result.p == pytest.approx(1.019, abs=0.05)


def test_moment_map_deterministic_and_diagnosed():
    a = moment_map("gamma-count", 2.0, 1.0, 4.0)
    assert np.isfinite(a.mean_resid_norm) and a.mean_resid_norm >= 0
    assert np.isfinite(a.var_resid_norm) and a.var_resid_norm >= 0
