"""The three benchmark workloads: inputs from a seed, one call, output checks.

Each workload is a closed loop with a single caller.  ``setup`` makes the
workload ready to serve (the work a user pays once per process),
``specs`` yields the inputs of successive operations from the workload
seed, ``call`` is the timed call into ptwreg's public API, and ``check``
decides whether its output is correct.  ``check`` returns a digest of the
output so that a traced and an untraced run of the same inputs can be
compared byte for byte.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass

import numpy as np

import oracles

# Replicates per study cell: the floor that ptwreg's Scenario enforces.
STUDY_REPLICATES = 50
STUDY_SCENARIOS = ("ptw-p1.5-di5", "ptw-p2-di5", "ptw-p3-di2", "compoisson-nu4", "gammacount-nu4")
STUDY_SIZES = (100, 500, 1000)

# Outputs of the dicentrics fits by ptwreg 0.1.0 (commit cae8abe): estimates
# (beta0..2, phi, p) and sandwich standard errors (None where fixed).
FIT_VARIANTS = {
    "free": {
        "args": [],
        "estimates": [-3.126299104560212, 5.513773136937608, -2.4809008039440785,
                      0.250725659152333, 1.0873396820769747],
        "std_errors": [0.10637450601078982, 0.4078520238146711, 0.3418124879351171,
                       0.10092571364207809, 0.30002655351886054],
    },
    "poisson": {
        "args": ["--phi", "0"],
        "estimates": [-3.124997117566038, 5.508142500973904, -2.4763084650436546, 0.0, 1.5],
        "std_errors": [0.09681725720808819, 0.36934664129238637, 0.30861984155396827,
                       None, None],
    },
    "p1": {
        "args": ["--power", "1"],
        "estimates": [-3.1249971175660636, 5.508142500974015, -2.4763084650437475,
                      0.21549299360865118, 1.0],
        "std_errors": [0.10674044400808376, 0.4072024515187459, 0.34025151989567387,
                       0.06584987388228772, None],
    },
    "p2": {
        "args": ["--power", "2"],
        "estimates": [-3.1345263097837543, 5.5568476964001565, -2.518990199214266,
                      0.4985813553532642, 2.0],
        "std_errors": [0.10060068784850708, 0.3980889185820793, 0.3409413084650875,
                       0.12341776122025375, None],
    },
    "p3": {
        "args": ["--power", "3"],
        "estimates": [-3.1321926589570332, 5.549789612643281, -2.5150984835928663,
                      0.42765909391620754, 3.0],
        "std_errors": [0.09821373795311984, 0.38424200281823656, 0.32810192724774184,
                       0.13969570069055828, None],
    },
}
# Relative tolerances against the seed-commit values; acceptance criteria
# 1-2 allow 1% on coefficients and 5-15% on standard errors.
ESTIMATE_RTOL = 1e-4
STDERR_RTOL = 1e-3
# Log-likelihoods from exact routes must match the reference to this.
EXACT_LOGLIK_ATOL = 1e-6
# Monte Carlo log-likelihoods must lie within this many of their own s.e.
MC_SIGMAS = 5.0

PMF_POWERS = (1.0, 1.5, 2.0, 3.0)
PMF_METHODS = ("closed-form", "exact-sum", "gauss-laguerre", "monte-carlo")
# Pmf routes that report no Monte Carlo error, against the reference pmf.
# The 128-node Gauss-Laguerre rule is an approximation that ptwreg's own
# tests hold only to Monte Carlo agreement (about 1e-3 near the mode); its
# error reaches 1.2e-4 at P(Y=0) for mu near 2 and DI near 6.
PMF_ATOL = {"closed-form": 1e-10, "exact-sum": 1e-10, "gauss-laguerre": 1e-3}


# Additive recurrence with the plastic number: a low-discrepancy sequence
# in two dimensions (Roberts 2018).
_PLASTIC = 1.324717957244746
_R2 = (1.0 / _PLASTIC, 1.0 / _PLASTIC**2)


def derive_seed(*parts: int) -> int:
    """A 32-bit seed that depends only on ``parts``."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1, np.uint32)[0])


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


@dataclass
class Outcome:
    ok: bool
    digest: str
    detail: str = ""
    kind: str = ""  # the cell type or variant, for per-kind summaries
    excluded: int = 0


def _close(got, ref, rtol) -> bool:
    if ref is None:
        return got is None
    return got is not None and abs(got - ref) <= rtol * max(abs(ref), 1e-8)


class StudyGrid:
    """One operation: ``run_study`` on one (scenario, n) cell of 50 replicates."""

    name = "study-grid"
    code = 1
    weight = STUDY_REPLICATES

    def __init__(self, workdir: str):
        self.workdir = workdir

    def setup(self, seed: int) -> None:
        from ptwreg.simstudy import make_scenario, scenario_truth

        self.truth = {
            name: scenario_truth(make_scenario(name)).as_array() for name in STUDY_SCENARIOS
        }

    def specs(self, seed: int):
        # Cell j of a pass pairs scenario j % 5 with size j % 3; as 5 and 3
        # are coprime, every 15 consecutive cells cover the whole grid, and
        # any shorter run mixes all sizes evenly.
        k = 0
        while True:
            j = k % (len(STUDY_SCENARIOS) * len(STUDY_SIZES))
            scenario = STUDY_SCENARIOS[j % len(STUDY_SCENARIOS)]
            n = STUDY_SIZES[j % len(STUDY_SIZES)]
            yield k, (scenario, n, derive_seed(self.code, seed, k))
            k += 1

    def call(self, spec):
        from ptwreg.simstudy import make_scenario, run_study

        scenario, n, run_seed = spec
        cell = make_scenario(scenario, sample_sizes=(n,), replicates=STUDY_REPLICATES)
        return run_study(cell, run_seed)

    def check(self, spec, result) -> Outcome:
        from ptwreg.dataio import study_result_json

        scenario, n, _ = spec
        kind = f"{scenario}/n{n}"
        text = study_result_json(result)
        problems = []
        names = result.parameter_names
        if result.scenario != scenario or result.replicates != STUDY_REPLICATES:
            problems.append("scenario or replicate count differs from the request")
        if len(result.failures) != 1 or result.failures[0][0] != n:
            problems.append(f"failures {result.failures} do not name n={n} once")
        excluded = result.failures[0][1] if result.failures else -1
        if not 0 <= excluded <= STUDY_REPLICATES:
            problems.append(f"excluded count {excluded} out of range")
        cells = {(c.parameter, c.n): c for c in result.cells}
        if len(result.cells) != len(names) or set(cells) != {(p, n) for p in names}:
            problems.append("cells do not cover every parameter x n exactly once")
        kept = STUDY_REPLICATES - excluded
        for j, name in enumerate(names):
            c = cells.get((name, n))
            if c is None:
                continue
            if c.truth != float(self.truth[scenario][j]):
                problems.append(f"{name}: truth {c.truth} differs from scenario_truth")
            if kept >= 2:
                summary = (c.mean_bias, c.mean_se, c.empirical_se, c.coverage)
                if not all(math.isfinite(v) for v in summary):
                    problems.append(f"{name}: non-finite summary with {kept} kept")
                elif not (0.0 <= c.coverage <= 1.0 and c.mean_se > 0 and c.empirical_se >= 0):
                    problems.append(f"{name}: coverage or s.e. out of range")
        return Outcome(not problems, digest(text), "; ".join(problems),
                       kind=kind, excluded=max(excluded, 0))


def _consume(path: str) -> str:
    """Read an output file and delete it, so no later check can see it."""
    with open(path, encoding="utf-8", newline="") as handle:
        text = handle.read()
    os.remove(path)
    return text


def _csv_rows(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text)))


class FitReport:
    """One operation: ``ptwreg fit`` on the dicentrics data, in-process."""

    name = "fit-report"
    code = 2
    weight = 1

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.data = os.path.join(workdir, "dicentrics.csv")
        self.out = os.path.join(workdir, "fit.json")

    def setup(self, seed: int) -> None:
        from ptwreg.cli import main

        if main(["datasets", "export", "dicentrics", "--out", self.data]) != 0:
            raise RuntimeError("dataset export failed")
        with open(self.data, encoding="utf-8", newline="") as handle:
            self.rows = [(float(d), int(y), int(c)) for d, y, c in list(csv.reader(handle))[1:]]
        # Warm-up: every variant once, at a seed no operation uses.
        for variant in FIT_VARIANTS:
            spec = (variant, derive_seed(self.code, seed, 2**31))
            self.check(spec, self.call(spec))

    def specs(self, seed: int):
        variants = list(FIT_VARIANTS)
        k = 0
        while True:
            yield k, (variants[k % len(variants)], derive_seed(self.code, seed, k))
            k += 1

    def call(self, spec):
        from ptwreg.cli import main

        variant, run_seed = spec
        argv = ["fit", "--data", self.data, "--response", "y", "--terms", "dose,dose^2",
                "--seed", str(run_seed), "--out", self.out] + FIT_VARIANTS[variant]["args"]
        return main(argv)

    def check(self, spec, code) -> Outcome:
        variant, _ = spec
        if code != 0:
            return Outcome(False, "", f"exit code {code}", kind=variant)
        text = _consume(self.out)
        report = json.loads(text)
        ref = FIT_VARIANTS[variant]
        problems = []
        names = [c["name"] for c in report["coefficients"]]
        if names != ["intercept", "dose", "dose^2"]:
            problems.append(f"coefficient names {names}")
        disp = report["dispersion"]
        got = [c["estimate"] for c in report["coefficients"]] + [disp["phi"], disp["p"]]
        se = [c["std_error"] for c in report["coefficients"]]
        se += [disp["std_errors"]["phi"], disp["std_errors"]["p"]]
        for label, g, r in zip(("b0", "b1", "b2", "phi", "p"), got, ref["estimates"]):
            if not _close(g, r, ESTIMATE_RTOL):
                problems.append(f"{label} {g} vs {r}")
        for label, g, r in zip(("b0", "b1", "b2", "phi", "p"), se, ref["std_errors"]):
            if not _close(g, r, STDERR_RTOL):
                problems.append(f"se({label}) {g} vs {r}")
        loglik = report.get("loglik")
        if loglik is None or any(g is None for g in got):
            problems.append(f"no log-likelihood: {report.get('loglik_reason')}")
        else:
            reference = oracles.frequency_loglik(self.rows, got[:3], got[3], got[4])
            value, stderr = loglik["value"], loglik["mc_stderr"]
            tol = EXACT_LOGLIK_ATOL + MC_SIGMAS * stderr
            if loglik["method"] == "monte-carlo" and not stderr > 0:
                problems.append("Monte Carlo log-likelihood without a standard error")
            if abs(value - reference) > tol:
                problems.append(
                    f"loglik {value:.6f} ({loglik['method']}, s.e. {stderr:.3g}) "
                    f"vs reference {reference:.6f}"
                )
        if not report["convergence"]["iterations"] >= 1:
            problems.append("no iterations reported")
        return Outcome(not problems, digest(text), "; ".join(problems), kind=variant)


class PmfTables:
    """One operation: ``ptwreg pmf`` and ``ptwreg indices`` at p = 1, 1.5, 2, 3
    for one (mu, DI) drawn from the seed, all sharing one RNG seed."""

    name = "pmf-tables"
    code = 3
    weight = 1

    def __init__(self, workdir: str):
        self.workdir = workdir

    def setup(self, seed: int) -> None:
        spec = self._spec(seed, 2**31)
        self.check(spec, self.call(spec))

    def _spec(self, seed: int, k: int):
        # (mu, DI) follow a Kronecker sequence with offsets drawn from the
        # seed: every stretch of requests covers the parameter square evenly,
        # so latency percentiles do not hinge on a lucky or unlucky draw.
        # mu stops at 15: near mu = 20 the y = 0 heavy-tail ratio is too noisy
        # for the default 100,000 draws and ptwreg refuses it (exit 2).
        u = np.random.default_rng(derive_seed(self.code, seed)).random(2)
        mu = 2.0 + 13.0 * ((u[0] + k * _R2[0]) % 1.0)
        di = 1.5 + 4.5 * ((u[1] + k * _R2[1]) % 1.0)
        return float(mu), float(di), derive_seed(self.code, seed, k, 1)

    def specs(self, seed: int):
        k = 0
        while True:
            yield k, self._spec(seed, k)
            k += 1

    def _paths(self, p: float) -> tuple[str, str]:
        return (os.path.join(self.workdir, f"pmf-{p}.csv"),
                os.path.join(self.workdir, f"indices-{p}.csv"))

    def call(self, spec):
        from ptwreg.cli import main

        mu, di, run_seed = spec
        codes = []
        for p in PMF_POWERS:
            phi = (di - 1.0) / mu ** (p - 1.0)
            y_max = math.ceil(mu + 4.0 * math.sqrt(mu * di))
            common = ["--mu", repr(mu), "--phi", repr(phi), "--power", repr(p),
                      "--seed", str(run_seed)]
            pmf_path, idx_path = self._paths(p)
            codes.append(main(["pmf", *common, "--y-max", str(y_max), "--out", pmf_path]))
            codes.append(main(["indices", *common, "--out", idx_path]))
        return codes

    def check(self, spec, codes) -> Outcome:
        mu, di, _ = spec
        if any(codes):
            return Outcome(False, "", f"exit codes {codes}", kind="table")
        problems = []
        texts = []
        for p in PMF_POWERS:
            phi = (di - 1.0) / mu ** (p - 1.0)
            pmf_text, idx_text = (_consume(path) for path in self._paths(p))
            texts += [pmf_text, idx_text]
            rows, idx_rows = _csv_rows(pmf_text), _csv_rows(idx_text)
            problems += self._check_pmf(rows, mu, phi, p)
            problems += self._check_indices(idx_rows, mu, phi, p, di)
        return Outcome(not problems, digest("".join(texts)), "; ".join(problems[:5]),
                       kind="table")

    @staticmethod
    def _check_pmf(rows, mu, phi, p) -> list[str]:
        if rows[0] != ["y", "pmf", "mc_stderr", "method"]:
            return [f"p={p}: pmf header {rows[0]}"]
        ys = np.array([int(r[0]) for r in rows[1:]])
        values = np.array([float(r[1]) for r in rows[1:]])
        stderr = np.array([float(r[2]) for r in rows[1:]])
        methods = [r[3] for r in rows[1:]]
        problems = []
        if not np.array_equal(ys, np.arange(len(ys))):
            problems.append(f"p={p}: y column is not 0..{len(ys) - 1}")
        if not (np.all(np.isfinite(values)) and np.all(values >= 0) and np.all(values <= 1)):
            problems.append(f"p={p}: pmf value outside [0, 1]")
        if not (np.all(np.isfinite(stderr)) and np.all(stderr >= 0)):
            problems.append(f"p={p}: negative or non-finite Monte Carlo s.e.")
        if float(np.sum(values)) > 1.0 + 1e-9:
            problems.append(f"p={p}: table sums to {np.sum(values):.12f} > 1")
        if any(m not in PMF_METHODS for m in methods):
            problems.append(f"p={p}: unknown method tag")
        reference = np.exp(oracles.ptw_logpmf(ys, mu, phi, p))
        if p == 2.0 and not np.allclose(values, reference, rtol=1e-9, atol=1e-12):
            problems.append("p=2: table differs from scipy.stats.nbinom")
        for m, atol in PMF_ATOL.items():
            sel = np.array([x == m for x in methods])
            if np.any(sel) and np.max(np.abs(values[sel] - reference[sel])) > atol:
                problems.append(f"p={p}: {m} values differ from the reference pmf")
        return problems

    @staticmethod
    def _check_indices(rows, mu, phi, p, di) -> list[str]:
        if rows[0] != ["index", "y", "value", "mc_stderr"]:
            return [f"p={p}: indices header {rows[0]}"]
        problems = []
        by_name: dict[str, list] = {}
        for name, y, value, stderr in rows[1:]:
            by_name.setdefault(name, []).append((y, float(value), float(stderr)))
        dispersion = by_name.get("dispersion", [(None, math.nan, 0.0)])[0][1]
        if not math.isclose(dispersion, di, rel_tol=1e-9):
            problems.append(f"p={p}: dispersion index {dispersion} vs {di}")
        zero_infl = by_name.get("zero-inflation", [(None, math.nan, 0.0)])[0][1]
        if not math.isfinite(zero_infl):
            problems.append(f"p={p}: zero-inflation index not finite")
        tail = by_name.get("heavy-tail", [])
        if not tail or not all(math.isfinite(v) and v > 0 and s >= 0 for _, v, s in tail):
            problems.append(f"p={p}: heavy-tail ratios missing or not positive")
        elif p == 2.0:
            ys = np.array([int(y) for y, _, _ in tail])
            ratio = np.exp(oracles.nb_logpmf(ys + 1, mu, phi) - oracles.nb_logpmf(ys, mu, phi))
            if not np.allclose([v for _, v, _ in tail], ratio, rtol=1e-9):
                problems.append("p=2: heavy-tail ratios differ from scipy.stats.nbinom")
        return problems


WORKLOADS = {cls.name: cls for cls in (StudyGrid, FitReport, PmfTables)}
