import numpy as np
import pytest
from scipy import integrate

from ptwreg.errors import InvalidParameterError, UnsupportedPowerError
from ptwreg.numcore import RngStream
from ptwreg.ptwdist import PtwParams, ptw_sample, sample_ptw_mu
from ptwreg.tweedie import (
    TweedieParams,
    sample_tweedie_mu,
    tweedie_density,
    tweedie_laplace,
    tweedie_sample,
)


def test_params_validation():
    with pytest.raises(InvalidParameterError):
        TweedieParams(-1.0, 1.0, 2.0)
    with pytest.raises(InvalidParameterError):
        TweedieParams(1.0, 0.0, 2.0)
    with pytest.raises(InvalidParameterError):
        TweedieParams(1.0, 1.0, 0.5)


def test_overflowing_mu_power_is_invalid():
    # each raised a bare OverflowError, or numpy's "lam value too large"
    with pytest.raises(InvalidParameterError, match="overflows"):
        tweedie_laplace(TweedieParams(1e300, 0.5, 4.0), 1.0)
    with pytest.raises(InvalidParameterError, match="overflows"):
        tweedie_density(TweedieParams(1e300, 0.5, 3.0), 1.0)
    with pytest.raises(InvalidParameterError, match="overflows"):
        tweedie_sample(TweedieParams(1e300, 0.5, 1.5), 2, RngStream(0))


@pytest.mark.parametrize("p", [1.0, 1.5])
def test_poisson_rates_numpy_cannot_draw_are_invalid(p):
    # mu**p is finite, but the Poisson rate mu/phi or mu**(2-p)/(phi(2-p))
    # is above numpy's limit: that raised numpy's "lam value too large"
    with pytest.raises(InvalidParameterError, match="beyond numpy's sampler limit"):
        tweedie_sample(TweedieParams(1e200, 0.5, p), 2, RngStream(0))


# every sampler branch: p = 1, the compound Poisson-gamma with and without
# zero draws (the dicentrics mean 0.074 draws about 80% zeros), p = 2, p = 3
_BRANCHES = [
    (6.0, 1.5, 1.0, None),
    (0.074, 0.5, 1.087, True),
    (50.0, 0.5, 1.5, False),
    (8.0, 0.5, 2.0, None),
    (8.0, 0.5, 3.0, None),
]


@pytest.mark.parametrize("mu, phi, p, zeros", _BRANCHES)
def test_scalar_mean_draws_the_bits_of_its_vector(mu, phi, p, zeros):
    m = 10_000
    scalar_gen, vector_gen = RngStream(7).generator(), RngStream(7).generator()
    scalar = sample_tweedie_mu(mu, phi, p, scalar_gen, size=m)
    vector = sample_tweedie_mu(np.full(m, mu), phi, p, vector_gen)
    assert scalar.shape == vector.shape == (m,) and scalar.dtype == vector.dtype
    assert scalar.tobytes() == vector.tobytes()
    assert scalar_gen.random() == vector_gen.random()
    if zeros is not None:
        assert bool(np.any(vector == 0)) == zeros


@pytest.mark.parametrize("mu, phi, p", [case[:3] for case in _BRANCHES])
def test_scalar_mean_ptw_sample_draws_the_bits_of_its_vector(mu, phi, p):
    n = 10_000
    counts = ptw_sample(PtwParams(mu, phi, p), n, RngStream(7))
    scalar_gen, vector_gen = RngStream(7).generator(), RngStream(7).generator()
    vector = sample_ptw_mu(np.full(n, mu), phi, p, vector_gen)
    assert counts.tobytes() == vector.tobytes()
    assert sample_ptw_mu(mu, phi, p, scalar_gen, n).tobytes() == vector.tobytes()
    assert scalar_gen.random() == vector_gen.random()


def _scatter_gamma_sample(mu, phi, p, gen, size=None):
    """The 1 < p < 2 sampler as it was: gammas drawn only at the positive
    Poisson counts and scattered into zeros."""
    mu = np.asarray(mu, dtype=float)
    lam = mu ** (2.0 - p) / (phi * (2.0 - p))
    shape = (2.0 - p) / (p - 1.0)
    scale = phi * (p - 1.0) * mu ** (p - 1.0)
    counts = gen.poisson(lam, size=mu.shape if size is None else size)
    out = np.zeros(counts.shape)
    pos = np.flatnonzero(counts)
    if pos.size:
        if np.ndim(scale):
            scale = np.broadcast_to(scale, counts.shape).ravel()[pos]
        out.ravel()[pos] = gen.gamma(counts.ravel()[pos] * shape, scale)
    return out


# a scalar mean with mostly zero counts, one with almost none, varying
# means from mostly zero to none, and no draws at all
@pytest.mark.parametrize("mu, phi, p, size, zeros", [
    (0.074, 0.5, 1.087, 20_000, (0.8, 0.85)),
    (3.0, 0.5, 1.5, 20_000, (0.0, 0.01)),
    (np.geomspace(1e-4, 30.0, 20_000), 0.7, 1.3, None, (0.5, 0.65)),
    (6.0, 0.5, 1.5, 0, None),
])
def test_gamma_sum_sampler_keeps_the_bits_of_the_scatter(mu, phi, p, size, zeros):
    gen, ref_gen = RngStream(9).generator(), RngStream(9).generator()
    got = sample_tweedie_mu(mu, phi, p, gen, size)
    want = _scatter_gamma_sample(mu, phi, p, ref_gen, size)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()
    assert gen.bit_generator.state == ref_gen.bit_generator.state
    if zeros is not None:
        assert zeros[0] < np.mean(got == 0) < zeros[1]


@pytest.mark.parametrize("p", [1.0, 1.5])
def test_scalar_mean_poisson_rate_refusal_is_the_vectors(p):
    refusals = []
    for mu, size in ((1e300, 3), (np.full(3, 1e300), None)):
        with pytest.raises(InvalidParameterError) as caught:
            sample_tweedie_mu(mu, 0.5, p, RngStream(0).generator(), size=size)
        refusals.append((type(caught.value), str(caught.value)))
    assert refusals[0] == refusals[1]
    assert "beyond numpy's sampler limit" in refusals[0][1]


def test_unsupported_power_sampling():
    with pytest.raises(UnsupportedPowerError):
        tweedie_sample(TweedieParams(1.0, 1.0, 2.5), 10, RngStream(0))


# moments of 10^6 draws must match mu and phi*mu^p within 4 s.e. of the
# corresponding sample statistic (normal-theory s.e. for the variance)
@pytest.mark.parametrize(
    "mu,phi,p",
    [(10.0, 0.1, 2.0), (10.0, 1.0, 1.0), (10.0, 1.0, 1.5), (10.0, 0.01, 3.0), (3.0, 0.5, 1.8)],
)
def test_sample_moments(mu, phi, p):
    n = 1_000_000
    z = tweedie_sample(TweedieParams(mu, phi, p), n, RngStream(99))
    assert z.shape == (n,) and np.all(z >= 0)
    target_var = phi * mu**p
    se_mean = z.std(ddof=1) / np.sqrt(n)
    assert abs(z.mean() - mu) < 4 * se_mean
    # se of the sample variance from its fourth central moment
    m4 = np.mean((z - z.mean()) ** 4)
    se_var = np.sqrt((m4 - target_var**2) / n)
    assert abs(z.var(ddof=1) - target_var) < 4 * se_var


def test_p1_is_scaled_poisson():
    # phi = 1, p = 1 is exactly Poisson; general phi gives a phi-spaced lattice
    z = tweedie_sample(TweedieParams(10.0, 1.0, 1.0), 10_000, RngStream(3))
    assert np.array_equal(z, np.round(z))
    z = tweedie_sample(TweedieParams(10.0, 0.5, 1.0), 10_000, RngStream(4))
    assert np.allclose(z / 0.5, np.round(z / 0.5))


def test_p15_zero_atom():
    # compound Poisson-gamma has P(Z=0) = exp(-mu^(2-p)/(phi(2-p)))
    mu, phi, p = 10.0, 1.0, 1.5
    n = 1_000_000
    z = tweedie_sample(TweedieParams(mu, phi, p), n, RngStream(17))
    atom = np.exp(-(mu ** (2 - p)) / (phi * (2 - p)))
    frac = np.mean(z == 0)
    se = np.sqrt(atom * (1 - atom) / n)
    assert abs(frac - atom) < 3 * se


# ------------------------------------------------------------------- density


def test_density_exponential_case():
    # p=2, mu=1, phi=1 is the unit exponential
    assert abs(tweedie_density(TweedieParams(1.0, 1.0, 2.0), 1.0) - np.exp(-1)) < 1e-12


def test_density_unsupported_power():
    with pytest.raises(UnsupportedPowerError):
        tweedie_density(TweedieParams(1.0, 1.0, 1.5), 1.0)


@pytest.mark.parametrize("mu,phi,p", [(1.0, 1.0, 3.0), (10.0, 0.1, 2.0), (2.0, 0.5, 3.0)])
def test_density_normalizes_and_first_moment(mu, phi, p):
    params = TweedieParams(mu, phi, p)
    total, _ = integrate.quad(lambda z: tweedie_density(params, z), 0, np.inf)
    assert abs(total - 1.0) < 1e-6
    first, _ = integrate.quad(lambda z: z * tweedie_density(params, z), 0, np.inf)
    assert abs(first - mu) < 1e-6 * mu


# ------------------------------------------------------------------- laplace


def test_laplace_at_zero_and_monotone():
    params = TweedieParams(10.0, 1.0, 1.5)
    assert tweedie_laplace(params, 0.0) == 1.0
    grid = np.linspace(0.0, 5.0, 40)
    values = tweedie_laplace(params, grid)
    assert np.all(np.diff(values) < 0)
    assert np.all((values > 0) & (values <= 1))


def test_laplace_gamma_closed_form():
    # p=2: E e^{-sZ} = (1 + phi*mu*s)^(-1/phi)
    mu, phi = 10.0, 0.1
    params = TweedieParams(mu, phi, 2.0)
    for s in (0.3, 1.0, 2.5):
        exact = (1 + phi * mu * s) ** (-1 / phi)
        assert abs(tweedie_laplace(params, s) - exact) < 1e-10
    assert abs(tweedie_laplace(params, 1.0) - 2.0**-10) < 1e-10


def test_laplace_invgauss_closed_form():
    # p=3: IG(mu, shape 1/phi): E e^{-sZ} = exp[(1/(phi mu))(1 - sqrt(1 + 2 phi mu^2 s))]
    mu, phi = 2.0, 0.25
    params = TweedieParams(mu, phi, 3.0)
    for s in (0.1, 1.0, 4.0):
        exact = np.exp((1 - np.sqrt(1 + 2 * phi * mu**2 * s)) / (phi * mu))
        assert abs(tweedie_laplace(params, s) - exact) < 1e-10


def test_laplace_matches_monte_carlo_p15():
    mu, phi, p = 10.0, 1.0, 1.5
    n = 1_000_000
    z = tweedie_sample(TweedieParams(mu, phi, p), n, RngStream(23))
    values = np.exp(-z)
    mc = values.mean()
    se = values.std(ddof=1) / np.sqrt(n)
    assert abs(tweedie_laplace(TweedieParams(mu, phi, p), 1.0) - mc) < 3 * se


def test_laplace_rejects_negative_s():
    # s >= 0 is validated up front, which keeps the cumulant argument inside
    # its domain for every supported power
    with pytest.raises(InvalidParameterError):
        tweedie_laplace(TweedieParams(2.0, 0.25, 3.0), -3.0)
