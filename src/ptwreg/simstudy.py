"""Simulation-study harness: bias, standard errors, and interval coverage.

Scenarios cover overdispersed Poisson-Tweedie generators (power 1.1, 1.5, 2,
3 crossed with dispersion indices 2, 5, 10, 20 at mu = 10) and underdispersed
COM-Poisson / Gamma-Count generators (nu = 2, 4, 6, 8), each fitted with the
extended model.  Each replicate draws from its own independent RNG
substream, so a seeded study reproduces exactly.  The replicates at one
sample size share their design: ``chaser._fit_block`` runs their chaser
iterations in lockstep, and one ``fit`` call per replicate
(``_one_replicate``) finishes each from where the block handed it over,
with the same result as a fit on its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .chaser import _fit_block, fit
from .errors import InvalidParameterError, MissingBaselineError, PtwError
from .estfun import PtwModel, Theta
from .numcore import RngStream
from .ptwdist import sample_ptw_mu
from .refdists import compoisson_sample_lam, gammacount_sample_lam, moment_map

DESK_SAMPLE_SIZES = (100, 500)
DESK_REPLICATES = 200
PAPER_SAMPLE_SIZES = (100, 250, 500, 1000)
PAPER_REPLICATES = 1000

BASELINE_N = 100

# mu_i = exp{log(10) + 0.8 x1_i - 1 x2_i}
_PTW_BETA = (np.log(10.0), 0.8, -1.0)

# Dispersion values chosen so that DI = 1 + phi * 10**(p-1) hits the nominal
# index at mu = 10 (values for p = 1.1 rounded as conventionally quoted).
_PTW_PHI = {
    "1.1": {2: 0.8, 5: 3.2, 10: 7.2, 20: 15.0},
    "1.5": {di: (di - 1) / 10**0.5 for di in (2, 5, 10, 20)},
    "2": {2: 0.1, 5: 0.4, 10: 0.9, 20: 1.9},
    "3": {2: 0.01, 5: 0.04, 10: 0.09, 20: 0.19},
}

_SCALES = {
    "desk": (DESK_SAMPLE_SIZES, DESK_REPLICATES),
    "paper": (PAPER_SAMPLE_SIZES, PAPER_REPLICATES),
}


@dataclass(frozen=True)
class Scenario:
    """A named data-generating configuration for the study harness.

    ``params`` is (phi, p) for the poisson-tweedie family and
    (lambda0, lambda1, nu) for com-poisson / gamma-count.  The linear
    predictor is fixed by the family: intercept + x1 + x2 with
    beta = (log 10, 0.8, -1) for poisson-tweedie, and a lambda regression
    exp(lambda0 + lambda1 x1) for the underdispersed generators, whose
    implied (beta, phi, p) truth comes from the moment mapping.
    """

    name: str
    family: str
    params: tuple[float, ...]
    sample_sizes: tuple[int, ...]
    replicates: int

    def __post_init__(self):
        if self.family not in ("poisson-tweedie", "com-poisson", "gamma-count"):
            raise InvalidParameterError(f"unknown family {self.family!r}")
        n_expected = 2 if self.family == "poisson-tweedie" else 3
        if len(self.params) != n_expected:
            raise InvalidParameterError(
                f"{self.family} takes {n_expected} parameters, got {len(self.params)}"
            )
        if self.replicates < 50:
            raise InvalidParameterError("need at least 50 replicates")
        q = len(self.parameter_names) - 2
        if not self.sample_sizes or min(self.sample_sizes) <= q + 2:
            raise InvalidParameterError(f"every sample size must exceed {q + 2}")
        if len(set(self.sample_sizes)) != len(self.sample_sizes):  # tables are keyed by n
            raise InvalidParameterError(f"sample sizes must be distinct, got {self.sample_sizes}")

    @property
    def parameter_names(self) -> tuple[str, ...]:
        if self.family == "poisson-tweedie":
            return ("beta0", "beta1", "beta2", "phi", "p")
        return ("beta0", "beta1", "phi", "p")


@dataclass(frozen=True)
class StudyCell:
    """Summary for one (parameter, sample size) combination."""

    parameter: str
    n: int
    truth: float
    mean_bias: float
    mean_se: float
    empirical_se: float
    coverage: float


@dataclass(frozen=True)
class StudyResult:
    scenario: str
    parameter_names: tuple[str, ...]
    cells: tuple[StudyCell, ...]
    failures: tuple[tuple[int, int], ...]  # (sample size, excluded replicates)
    replicates: int


def _registry() -> dict[str, tuple[str, tuple[float, ...]]]:
    entries: dict[str, tuple[str, tuple[float, ...]]] = {}
    for p_label, by_di in _PTW_PHI.items():
        for di, phi in by_di.items():
            entries[f"ptw-p{p_label}-di{di}"] = (
                "poisson-tweedie",
                (phi, float(p_label)),
            )
    for nu in (2, 4, 6, 8):
        entries[f"compoisson-nu{nu}"] = ("com-poisson", (8.0, 4.0, float(nu)))
        entries[f"gammacount-nu{nu}"] = ("gamma-count", (2.0, 1.0, float(nu)))
    return entries


_REGISTRY = _registry()


def scenario_names() -> tuple[str, ...]:
    return tuple(_REGISTRY)


def make_scenario(
    name: str,
    scale: str = "desk",
    sample_sizes: tuple[int, ...] | None = None,
    replicates: int | None = None,
) -> Scenario:
    """Build a registered scenario at desk or paper scale.

    Explicit ``sample_sizes`` / ``replicates`` override the scale defaults.
    """
    if name not in _REGISTRY:
        raise InvalidParameterError(
            f"unknown scenario {name!r}; choose from {', '.join(_REGISTRY)}"
        )
    if scale not in _SCALES:
        raise InvalidParameterError(f"scale must be 'desk' or 'paper', got {scale!r}")
    family, params = _REGISTRY[name]
    default_sizes, default_reps = _SCALES[scale]
    return Scenario(
        name=name,
        family=family,
        params=params,
        sample_sizes=tuple(sample_sizes or default_sizes),
        replicates=replicates if replicates is not None else default_reps,
    )


@lru_cache(maxsize=None)
def _implied_truth(family: str, lambda0: float, lambda1: float, nu: float):
    m = moment_map(family, lambda0, lambda1, nu)
    return m.beta0, m.beta1, m.phi, m.p


def scenario_truth(scenario: Scenario) -> Theta:
    """True (or moment-mapped) parameter values for a scenario."""
    if scenario.family == "poisson-tweedie":
        phi, p = scenario.params
        return Theta(beta=np.array(_PTW_BETA), phi=phi, p=p)
    lambda0, lambda1, nu = scenario.params
    beta0, beta1, phi, p = _implied_truth(scenario.family, lambda0, lambda1, nu)
    return Theta(beta=np.array([beta0, beta1]), phi=phi, p=p)


def _simulate(scenario: Scenario, n: int, gen) -> tuple[np.ndarray, np.ndarray]:
    """One dataset: (design matrix, counts)."""
    x1 = np.linspace(-1.0, 1.0, n)
    if scenario.family == "poisson-tweedie":
        phi, p = scenario.params
        x2 = (np.arange(n) % 2).astype(float)
        design = np.column_stack([np.ones(n), x1, x2])
        mu = np.exp(design @ np.asarray(_PTW_BETA))
        return design, sample_ptw_mu(mu, phi, p, gen)
    lambda0, lambda1, nu = scenario.params
    design = np.column_stack([np.ones(n), x1])
    lam = np.exp(lambda0 + lambda1 * x1)
    if scenario.family == "com-poisson":
        return design, compoisson_sample_lam(lam, nu, gen).astype(float)
    return design, gammacount_sample_lam(lam, nu, gen).astype(float)


def _replicate_models(scenario: Scenario, n: int, seed: int, index: int) -> list[PtwModel]:
    """The datasets of every replicate at sample size ``n`` (the ``index``-th
    size), replicate r drawn from the substream (seed, (index, r)).  They
    share one design array, which ``_fit_block`` requires."""
    models = []
    for r in range(scenario.replicates):
        design, y = _simulate(scenario, n, RngStream(seed, (index, r)).generator())
        models.append(PtwModel(models[0].X if models else design, y))
    return models


def _one_replicate(model: PtwModel, resume):
    """Fit one simulated dataset at ``FitConfig()`` from where the lockstep
    block handed it over; None marks an excluded replicate."""
    try:
        result = fit(model, resume=resume)
    except PtwError:
        return None
    if not result.converged or not np.all(np.isfinite(result.std_errors)):
        return None
    return result.theta_hat.as_array(), result.std_errors


def _worker_count() -> int:
    """How many threads ``run_study`` fits on: one (reported among the
    machine facts of a perfbench run)."""
    return 1


def run_study(scenario: Scenario, seed: int) -> StudyResult:
    """Run every replicate of a scenario and aggregate bias/se/coverage.

    Replicate (size index i, replicate r) always draws from the substream
    (seed, (i, r)); failed fits are excluded from the summaries and counted.
    The replicates at one size share their design, so ``chaser._fit_block``
    runs their chaser iterations in lockstep; each is then finished by one
    ``fit`` call, which gives it the result of a fit on its own.
    """
    truth = scenario_truth(scenario).as_array()
    names = scenario.parameter_names
    reps = scenario.replicates

    cells: list[StudyCell] = []
    failures: list[tuple[int, int]] = []
    for i, n in enumerate(scenario.sample_sizes):
        models = _replicate_models(scenario, n, seed, i)
        resumes = _fit_block(models)
        block = [_one_replicate(m, resume) for m, resume in zip(models, resumes)]
        kept = [o for o in block if o is not None]
        failures.append((n, reps - len(kept)))
        if len(kept) < 2:
            for j, name in enumerate(names):
                cells.append(
                    StudyCell(name, n, float(truth[j]), np.nan, np.nan, np.nan, np.nan)
                )
            continue
        est = np.array([o[0] for o in kept])
        se = np.array([o[1] for o in kept])
        hit = np.abs(est - truth[None, :]) <= 1.96 * se
        for j, name in enumerate(names):
            cells.append(
                StudyCell(
                    parameter=name,
                    n=n,
                    truth=float(truth[j]),
                    mean_bias=float(np.mean(est[:, j] - truth[j])),
                    mean_se=float(np.mean(se[:, j])),
                    empirical_se=float(np.std(est[:, j], ddof=1)),
                    coverage=float(np.mean(hit[:, j])),
                )
            )
    return StudyResult(
        scenario=scenario.name,
        parameter_names=names,
        cells=tuple(cells),
        failures=tuple(failures),
        replicates=reps,
    )


def standardized_bias_table(result: StudyResult) -> tuple[dict, ...]:
    """Bias and one-standard-error limits divided by the n=100 mean s.e.

    The baseline row itself gets standardized s.e. 1 by construction.
    """
    baseline = {c.parameter: c.mean_se for c in result.cells if c.n == BASELINE_N}
    if not baseline:
        raise MissingBaselineError(
            f"standardization needs the n={BASELINE_N} row in the study result"
        )
    rows = []
    for cell in result.cells:
        base = baseline[cell.parameter]
        rows.append(
            {
                "parameter": cell.parameter,
                "n": cell.n,
                "std_bias": cell.mean_bias / base,
                "std_se": cell.mean_se / base,
                "std_lower": (cell.mean_bias - cell.mean_se) / base,
                "std_upper": (cell.mean_bias + cell.mean_se) / base,
            }
        )
    return tuple(rows)
