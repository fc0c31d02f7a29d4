"""The Tweedie exponential-dispersion family Tw_p(mu, phi).

Exact samplers for the power values with known representations
(p = 1 scaled Poisson, 1 < p < 2 compound Poisson-gamma, p = 2 gamma,
p = 3 inverse Gaussian), the closed-form densities at p in {2, 3}, and the
Laplace transform E[exp(-sZ)] through the Tweedie cumulant function.  The
mean/variance convention is E(Z) = mu, Var(Z) = phi * mu**p.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.random import Generator
from scipy.special import gammaln

from .errors import InvalidParameterError, UnsupportedPowerError
from .numcore import RngStream, _require_finite_power, _require_poisson_rates, _sample_size

# Below this relative tilt s*phi*mu**(p-1), the exact cumulant difference in
# the Laplace transform cancels catastrophically in float64; a second-order
# expansion is exact to more digits than the direct formula retains.
_SMALL_TILT = 1e-8


@dataclass(frozen=True)
class TweedieParams:
    """Parameters (mu, phi, p) of the mixing distribution Z ~ Tw_p(mu, phi).

    mu and phi must be positive; p >= 1 so that Z is non-negative and the
    Poisson mixture is well defined; mu**p must not overflow.
    """

    mu: float
    phi: float
    p: float

    def __post_init__(self):
        if not (np.isfinite(self.mu) and self.mu > 0):
            raise InvalidParameterError(f"mu must be positive, got {self.mu}")
        if not (np.isfinite(self.phi) and self.phi > 0):
            raise InvalidParameterError(f"phi must be positive, got {self.phi}")
        if not (np.isfinite(self.p) and self.p >= 1):
            raise InvalidParameterError(f"p must satisfy p >= 1, got {self.p}")
        _require_finite_power(self.mu, self.p)


def _require_supported_power(p: float) -> None:
    if not (p == 1.0 or 1.0 < p <= 2.0 or p == 3.0):
        raise UnsupportedPowerError(
            f"no exact sampler for power p = {p}; supported: 1, (1, 2], 3"
        )


def sample_tweedie_mu(mu, phi: float, p: float, gen: Generator, size=None) -> np.ndarray:
    """Draw Tw_p(mu, phi) variates: ``size`` of them, by default one per
    entry of ``mu``.

    numpy's sampler convention: ``mu`` is a scalar or an array that
    broadcasts to ``size``, so a constant mean is passed as a scalar with
    the draw count, never as a vector of copies.  Both forms draw the same
    bits and leave ``gen`` in the same state, as numpy calls one per-element
    routine whatever the parameters' shapes.  Internal vectorized core
    shared by :func:`tweedie_sample` and the Poisson-Tweedie samplers;
    ``gen`` is consumed sequentially.
    """
    mu = np.asarray(mu, dtype=float)
    if size is None:
        size = mu.shape
    _require_supported_power(p)
    if p == 1.0:
        rate = mu / phi
        _require_poisson_rates(rate)
        return phi * gen.poisson(rate, size=size).astype(float)
    if p == 2.0:
        return gen.gamma(1.0 / phi, phi * mu, size=size)
    if p == 3.0:
        return gen.wald(mu, 1.0 / phi, size=size)
    # 1 < p < 2: Poisson sum of gammas.  numpy's gamma returns 0 at shape 0
    # without drawing, so a zero count takes no variate from gen.
    lam = mu ** (2.0 - p) / (phi * (2.0 - p))
    shape = (2.0 - p) / (p - 1.0)
    scale = phi * (p - 1.0) * mu ** (p - 1.0)
    _require_poisson_rates(lam)
    counts = gen.poisson(lam, size=size)
    return gen.gamma(counts * shape, scale, size=counts.shape)


def tweedie_sample(params: TweedieParams, n: int, rng: RngStream) -> np.ndarray:
    """n i.i.d. draws from Tw_p(mu, phi).

    Dispatch: p = 1 -> phi * Poisson(mu/phi); 1 < p < 2 -> compound
    Poisson-gamma with rate mu**(2-p)/(phi(2-p)), gamma shape (2-p)/(p-1)
    and scale phi(p-1)mu**(p-1); p = 2 -> gamma(1/phi, phi*mu);
    p = 3 -> inverse Gaussian(mu, 1/phi).

    Raises
    ------
    UnsupportedPowerError
        For powers outside {1} | (1, 2] | {3}.
    """
    gen = rng.generator()
    return sample_tweedie_mu(params.mu, params.phi, params.p, gen, _sample_size(n))


def tweedie_density(params: TweedieParams, z) -> np.ndarray | float:
    """Closed-form mixing density at p = 2 (gamma) or p = 3 (inverse Gaussian).

    ``z`` may be a scalar or array of positive reals.
    """
    z = np.asarray(z, dtype=float)
    if np.any(z <= 0):
        raise InvalidParameterError("z must be positive")
    mu, phi, p = params.mu, params.phi, params.p
    if p == 2.0:
        shape = 1.0 / phi
        scale = phi * mu
        logf = (shape - 1.0) * np.log(z) - z / scale - gammaln(shape) - shape * np.log(scale)
        out = np.exp(logf)
    elif p == 3.0:
        lam = 1.0 / phi
        logf = 0.5 * (np.log(lam) - np.log(2.0 * np.pi) - 3.0 * np.log(z)) - lam * (
            z - mu
        ) ** 2 / (2.0 * mu**2 * z)
        out = np.exp(logf)
    else:
        raise UnsupportedPowerError(
            f"closed-form density exists only for p in {{2, 3}}, got p = {p}"
        )
    return out if out.ndim else float(out)


def tweedie_laplace(params: TweedieParams, s) -> np.ndarray | float:
    """Laplace transform E[exp(-s Z)] for Z ~ Tw_p(mu, phi), s >= 0.

    Uses the cumulant function k_p: with alpha = (p-2)/(p-1) and
    psi = -mu**(1-p)/(p-1), the transform is
    exp{(k_p(psi - s*phi) - k_p(psi)) / phi} where
    k_p(t) = ((alpha-1)/alpha) * (t/(alpha-1))**alpha for p not in {1, 2};
    the p = 1 and p = 2 limits use their exponential/log forms.  Small
    tilts switch to a second-order expansion for numerical stability.
    """
    out = np.exp(_log_laplace(params, s))
    return out if out.ndim else float(out)


def _log_laplace(params: TweedieParams, s) -> np.ndarray:
    """The exponent of ``tweedie_laplace``: log E[exp(-s Z)], finite where
    the transform itself underflows."""
    s = np.asarray(s, dtype=float)
    if np.any(s < 0) or not np.all(np.isfinite(s)):
        raise InvalidParameterError("s must be finite and non-negative")
    mu, phi, p = params.mu, params.phi, params.p

    tilt = s * phi * mu ** (p - 1.0)
    small = tilt < _SMALL_TILT
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if p == 1.0:
            log_lt = (mu / phi) * np.expm1(-s * phi)
        elif p == 2.0:
            log_lt = -np.log1p(phi * mu * s) / phi
        else:
            alpha = (p - 2.0) / (p - 1.0)
            psi = -(mu ** (1.0 - p)) / (p - 1.0)
            arg = psi - s * phi  # psi - s*phi < 0 and alpha < 1, so kp's base is > 0
            kp = lambda t: ((alpha - 1.0) / alpha) * (t / (alpha - 1.0)) ** alpha
            log_lt = (kp(arg) - kp(psi)) / phi
        if np.any(small):
            series = -s * mu + 0.5 * s**2 * phi * mu**p
            log_lt = np.where(small, series, log_lt)
    return log_lt
