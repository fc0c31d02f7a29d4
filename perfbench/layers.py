"""Per-layer metrics from the spans of one traced run.

Layer names are ``<module>.<function>`` for the modules under src/ptwreg;
``busy_s`` is self time (see tracer.py).  Counts repeat exactly at a fixed
seed because the traced run does a fixed number of operations.
"""

from __future__ import annotations

from collections import defaultdict

from tracer import layer_summary, top_level_seconds

PMF_ROUTES = ("closed-form", "exact-sum", "gauss-laguerre", "monte-carlo")
# Why a study replicate was excluded: the exception class that left
# chaser.fit, else the convergence flag, else non-finite standard errors.
EXCLUSION_REASONS = (
    "VarianceNonpositiveError",
    "SingularMatrixError",
    "RankDeficiencyError",
    "BoundaryTrapError",
    "InvalidParameterError",
    "other",
    "nonconverged",
    "nonfinite_se",
)

# Layers reported as calls and busy_s, or busy_s alone.
CALLS_AND_BUSY = (
    "numcore.solve_linear", "numcore.gauss_laguerre", "tweedie.sample_tweedie_mu",
    "ptwdist.ptw_pmf", "ptwdist.mixing_draws", "ptwdist.ptw_loglik",
    "estfun.estfun_state", "estfun.scores", "estfun.sensitivity", "estfun.sandwich",
    "chaser.fit", "chaser.beta_step", "chaser.step_control", "refdists.sampler",
    "simstudy.run_study", "cli.main",
) + tuple(f"ptwdist.ptw_pmf.{route}" for route in PMF_ROUTES)
BUSY_ONLY = (
    "tweedie.tweedie_density", "tweedie.tweedie_laplace", "ptwdist.ptw_pmf_curve",
    "ptwdist.heavy_tail_index", "ptwdist.zero_inflation_index", "ptwdist.sample_ptw_mu",
    "chaser.initialize", "refdists.moment_map", "simstudy.replicate",
    "dataio.load_csv", "dataio.build_design", "dataio.fit_table", "dataio.loglik_at_fit",
    "dataio.fit_result_dict", "dataio.fit_result_json", "dataio.write_csv",
    "datasets.dicentrics_csv",
)


def _reason(span) -> str | None:
    exc = span[7]
    if exc is not None:
        return exc if exc in EXCLUSION_REASONS else "other"
    iterations, converged, finite_se = span[8]
    if not converged:
        return "nonconverged"
    if not finite_se:
        return "nonfinite_se"
    return None


def per_layer(spans: list[tuple], ops: list[dict], tracer) -> tuple[dict, dict]:
    """Metrics named as in BENCHMARK.json, plus the exclusion census.

    The census maps each operation kind (a study cell "scenario/n<size>")
    to its exclusion counts by reason, with the excluded count the program
    itself reported, so the two can be compared.
    """
    summary = layer_summary(spans)
    metrics: dict[str, float] = {}
    for layer in CALLS_AND_BUSY:
        metrics[f"{layer}.calls"] = summary[layer]["calls"] if layer in summary else 0
    for layer in CALLS_AND_BUSY + BUSY_ONLY:
        metrics[f"{layer}.busy_s"] = summary[layer]["busy_s"] if layer in summary else 0.0

    def exceptions(layer, name):
        return summary[layer]["exceptions"].get(name, 0) if layer in summary else 0

    metrics["numcore.solve_linear.singular"] = exceptions(
        "numcore.solve_linear", "SingularMatrixError")
    metrics["estfun.estfun_state.variance_nonpositive"] = exceptions(
        "estfun.estfun_state", "VarianceNonpositiveError")

    by_layer = defaultdict(list)
    for s in spans:
        by_layer[s[1]].append(s)
    metrics["tweedie.sample_tweedie_mu.draws"] = sum(
        s[8] for s in by_layer["tweedie.sample_tweedie_mu"] if s[8] is not None)
    metrics["chaser.step_control.shrunk"] = sum(
        1 for s in by_layer["chaser.step_control"] if s[8])
    metrics["ptwdist.gl_fallbacks"] = sum(
        1 for s in by_layer["ptwdist.ptw_pmf.gauss-laguerre"] if s[8] == "fallback")
    # A mixing-draw call that sampled is a cache miss.
    sampled = {s[4] for s in by_layer["tweedie.sample_tweedie_mu"]}
    metrics["ptwdist.mixing_draws.misses"] = sum(
        1 for s in by_layer["ptwdist.mixing_draws"] if s[0] in sampled)

    fits = [s for s in by_layer["chaser.fit"] if s[7] is None]
    iterations = sum(s[8][0] for s in fits)
    metrics["chaser.iterations"] = iterations
    metrics["chaser.fit.us_per_iter"] = (
        1e6 * sum(s[3] - s[2] for s in fits) / iterations if iterations else 0.0)

    # Study cells are the operations that stand for several fits.
    cells = {op["k"]: op for op in ops if op["weight"] > 1}
    census: dict[str, dict] = {}
    for op in cells.values():
        row = census.setdefault(op["kind"], {"reported": 0, **dict.fromkeys(EXCLUSION_REASONS, 0)})
        row["reported"] += op["excluded"]
    totals = dict.fromkeys(EXCLUSION_REASONS, 0)
    for s in by_layer["chaser.fit"]:
        reason = _reason(s)
        if reason is not None and s[6] in cells:
            totals[reason] += 1
            census[cells[s[6]]["kind"]][reason] += 1
    for reason, count in totals.items():
        metrics[f"chaser.excluded.{reason}"] = count

    attempted = sum(op["weight"] for op in cells.values())
    metrics["simstudy.excluded_frac"] = (
        sum(op["excluded"] for op in cells.values()) / attempted if attempted else 0.0)

    op_wall = sum(op["wall"] for op in ops)
    covered = top_level_seconds([s for s in spans if s[6] >= 0], tracer.main_thread)
    metrics["trace.spans"] = len(spans)
    metrics["trace.untraced_s"] = op_wall - covered
    metrics["trace.untraced_frac"] = (op_wall - covered) / op_wall if op_wall else 0.0
    metrics["trace.gl_fallback_warnings"] = tracer.gl_warnings.count
    return metrics, census
