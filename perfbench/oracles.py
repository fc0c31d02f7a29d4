"""Reference pmf and log-likelihood values used to check ptwreg's outputs.

Each family is computed here by a route independent of ptwreg's own:
closed forms from scipy.stats, and series expansions of the
Poisson-Tweedie mixture integral.  Every function works on log scale and
is vectorized over the count ``y``.
"""

from __future__ import annotations

import numpy as np
from scipy.special import gammaln, kve, logsumexp
from scipy.stats import nbinom, poisson


def _series_terms(lam: float) -> np.ndarray:
    """Mixing-count support 1..K with Poisson(lam) tail mass far below 1e-16."""
    k_max = int(lam + 40.0 * np.sqrt(lam) + 60.0)
    return np.arange(1, k_max + 1)


def poisson_logpmf(y, mu: float) -> np.ndarray:
    return poisson.logpmf(np.asarray(y), mu)


def nb_logpmf(y, mu: float, phi: float) -> np.ndarray:
    """Poisson-Tweedie at p = 2: negative binomial, size 1/phi."""
    return nbinom.logpmf(np.asarray(y), 1.0 / phi, 1.0 / (1.0 + phi * mu))


def neyman_a_logpmf(y, mu: float, phi: float) -> np.ndarray:
    """Poisson-Tweedie at p = 1: Y | N ~ Poisson(phi N), N ~ Poisson(mu / phi)."""
    y = np.atleast_1d(np.asarray(y))
    lam = mu / phi
    k = _series_terms(lam)
    terms = poisson.logpmf(k[:, None], lam) + poisson.logpmf(y[None, :], phi * k[:, None])
    zero = np.where(y == 0, -lam, -np.inf)
    return logsumexp(np.vstack([terms, zero[None, :]]), axis=0)


def cpg_logpmf(y, mu: float, phi: float, p: float) -> np.ndarray:
    """Poisson-Tweedie at 1 < p < 2: a Poisson(lam) number of gamma jumps.

    Given N = n jumps, Z is gamma(n * shape, scale) and Y is negative
    binomial, so the pmf is a Poisson-weighted series of NB terms.
    """
    y = np.atleast_1d(np.asarray(y))
    lam = mu ** (2.0 - p) / (phi * (2.0 - p))
    shape = (2.0 - p) / (p - 1.0)
    scale = phi * (p - 1.0) * mu ** (p - 1.0)
    k = _series_terms(lam)[:, None]
    r = k * shape
    nb = (
        gammaln(y[None, :] + r)
        - gammaln(r)
        - gammaln(y[None, :] + 1.0)
        - r * np.log1p(scale)
        + y[None, :] * (np.log(scale) - np.log1p(scale))
    )
    terms = poisson.logpmf(k, lam) + nb
    zero = np.where(y == 0, -lam, -np.inf)
    return logsumexp(np.vstack([terms, zero[None, :]]), axis=0)


def pig_logpmf(y, mu: float, phi: float) -> np.ndarray:
    """Poisson-Tweedie at p = 3: Poisson-inverse Gaussian through Bessel K.

    With IG shape s = 1/phi, a = 1 + s / (2 mu^2) and b = s / 2,
    P(y) = sqrt(s / 2pi) e^{s/mu} / y! * 2 (b/a)^{(y - 1/2)/2} K_{y-1/2}(2 sqrt(ab)).
    """
    y = np.atleast_1d(np.asarray(y, dtype=float))
    s = 1.0 / phi
    a = 1.0 + s / (2.0 * mu**2)
    b = s / 2.0
    x = 2.0 * np.sqrt(a * b)
    order = y - 0.5
    return (
        0.5 * np.log(s / (2.0 * np.pi))
        + s / mu
        - gammaln(y + 1.0)
        + np.log(2.0)
        + 0.5 * order * np.log(b / a)
        + np.log(kve(order, x))
        - x
    )


def ptw_logpmf(y, mu: float, phi: float, p: float) -> np.ndarray:
    """Reference log pmf for the powers the benchmark evaluates."""
    if phi == 0.0:
        return poisson_logpmf(y, mu)
    if p == 1.0:
        return neyman_a_logpmf(y, mu, phi)
    if p == 2.0:
        return nb_logpmf(y, mu, phi)
    if p == 3.0:
        return pig_logpmf(y, mu, phi)
    if 1.0 < p < 2.0:
        return cpg_logpmf(y, mu, phi, p)
    raise ValueError(f"no reference pmf for p = {p}")


def frequency_loglik(rows, beta, phi: float, p: float) -> float:
    """sum count * log P(y; mu(dose)) over (dose, y, count) frequency rows,
    with the quadratic dose model log mu = b0 + b1 dose + b2 dose^2."""
    total = 0.0
    by_dose: dict[float, list[tuple[int, int]]] = {}
    for dose, y, count in rows:
        by_dose.setdefault(dose, []).append((y, count))
    for dose, cells in by_dose.items():
        mu = float(np.exp(beta[0] + beta[1] * dose + beta[2] * dose**2))
        ys = np.array([y for y, _ in cells])
        counts = np.array([c for _, c in cells], dtype=float)
        logp = ptw_logpmf(ys, mu, phi, p)
        total += float(np.sum(np.where(counts > 0, counts * logp, 0.0)))
    return total
