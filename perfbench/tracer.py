"""Outside-in tracing of ptwreg: wrap public functions, record spans.

The tracer replaces each traced function by a wrapper under every name
that binds it in a ``ptwreg`` module (``ptwreg.cli.ptw_pmf`` as well as
``ptwreg.ptwdist.ptw_pmf``), so calls made through any import path are
recorded.  Nothing inside the program changes: wrappers pass arguments and
results through untouched and re-raise exceptions unchanged.

A span is (id, layer, start, end, parent, thread, request, exception,
info).  Spans stay in per-thread lists in memory until :meth:`Tracer.dump`.
Self time ("busy") is a span's duration minus the durations of its child
spans on the same thread; a span opened on a worker thread with no open
span of its own gets the request's outermost main-thread span as its
parent, but is not subtracted from it.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict

import numpy as np


def _size_of_first(args, kwargs, result):
    return int(np.size(args[0])) if args else 0


def _pmf_method(args, kwargs, result):
    return result.method


def _gl_outcome(args, kwargs, result):
    return "fallback" if result is None else "ok"


def _fit_outcome(args, kwargs, result):
    finite = bool(np.all(np.isfinite(result.std_errors)))
    return (int(result.iterations), bool(result.converged), finite)


def _step_shrunk(args, kwargs, result):
    theta, delta = args[0], np.asarray(args[1], dtype=float)
    return bool(result.phi != theta.phi - delta[0] or result.p != theta.p - delta[1])


# (module, attribute) -> (layer name, optional info extractor).  Several
# functions may share a layer name; their spans are then summed together.
TRACED = {
    ("ptwreg.numcore", "solve_linear"): ("numcore.solve_linear", None),
    ("ptwreg.numcore", "gauss_laguerre"): ("numcore.gauss_laguerre", None),
    ("ptwreg.tweedie", "sample_tweedie_mu"): ("tweedie.sample_tweedie_mu", _size_of_first),
    ("ptwreg.tweedie", "tweedie_density"): ("tweedie.tweedie_density", None),
    ("ptwreg.tweedie", "tweedie_laplace"): ("tweedie.tweedie_laplace", None),
    ("ptwreg.ptwdist", "ptw_pmf"): ("ptwdist.ptw_pmf", _pmf_method),
    ("ptwreg.ptwdist", "_pmf_closed_poisson"): ("ptwdist.ptw_pmf.closed-form", None),
    ("ptwreg.ptwdist", "_pmf_closed_nb"): ("ptwdist.ptw_pmf.closed-form", None),
    ("ptwreg.ptwdist", "_pmf_lattice_p1"): ("ptwdist.ptw_pmf.exact-sum", None),
    ("ptwreg.ptwdist", "_pmf_quadrature_p3"): ("ptwdist.ptw_pmf.gauss-laguerre", _gl_outcome),
    ("ptwreg.ptwdist", "_pmf_monte_carlo"): ("ptwdist.ptw_pmf.monte-carlo", None),
    ("ptwreg.ptwdist", "_mixing_draws"): ("ptwdist.mixing_draws", None),
    ("ptwreg.ptwdist", "ptw_pmf_curve"): ("ptwdist.ptw_pmf_curve", None),
    ("ptwreg.ptwdist", "heavy_tail_index"): ("ptwdist.heavy_tail_index", None),
    ("ptwreg.ptwdist", "zero_inflation_index"): ("ptwdist.zero_inflation_index", None),
    ("ptwreg.ptwdist", "ptw_loglik"): ("ptwdist.ptw_loglik", None),
    ("ptwreg.ptwdist", "sample_ptw_mu"): ("ptwdist.sample_ptw_mu", None),
    ("ptwreg.estfun", "estfun_state"): ("estfun.estfun_state", None),
    ("ptwreg.estfun", "quasi_score"): ("estfun.scores", None),
    ("ptwreg.estfun", "pearson_score"): ("estfun.scores", None),
    ("ptwreg.estfun", "sensitivity"): ("estfun.sensitivity", None),
    ("ptwreg.estfun", "variability"): ("estfun.sandwich", None),
    ("ptwreg.estfun", "godambe_covariance"): ("estfun.sandwich", None),
    ("ptwreg.chaser", "fit"): ("chaser.fit", _fit_outcome),
    ("ptwreg.chaser", "initialize"): ("chaser.initialize", None),
    ("ptwreg.chaser", "_beta_step"): ("chaser.beta_step", None),
    ("ptwreg.chaser", "step_control"): ("chaser.step_control", _step_shrunk),
    ("ptwreg.refdists", "compoisson_sample_lam"): ("refdists.sampler", None),
    ("ptwreg.refdists", "gammacount_sample_lam"): ("refdists.sampler", None),
    ("ptwreg.refdists", "moment_map"): ("refdists.moment_map", None),
    ("ptwreg.simstudy", "run_study"): ("simstudy.run_study", None),
    ("ptwreg.simstudy", "_one_replicate"): ("simstudy.replicate", None),
    ("ptwreg.dataio", "load_csv"): ("dataio.load_csv", None),
    ("ptwreg.dataio", "build_design"): ("dataio.build_design", None),
    ("ptwreg.dataio", "fit_table"): ("dataio.fit_table", None),
    ("ptwreg.dataio", "loglik_at_fit"): ("dataio.loglik_at_fit", None),
    ("ptwreg.dataio", "fit_result_dict"): ("dataio.fit_result_dict", None),
    ("ptwreg.dataio", "fit_result_json"): ("dataio.fit_result_json", None),
    ("ptwreg.dataio", "_write_csv"): ("dataio.write_csv", None),
    ("ptwreg.datasets", "dicentrics_csv"): ("datasets.dicentrics_csv", None),
    ("ptwreg.cli", "main"): ("cli.main", None),
}


class _Counter:
    """Counts calls of ``warnings.warn`` made from one module, then delegates."""

    def __init__(self, module):
        self._module = module
        self.count = 0

    def warn(self, *args, **kwargs):
        self.count += 1
        kwargs["stacklevel"] = kwargs.get("stacklevel", 1) + 1
        return self._module.warn(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    """Installs wrappers and holds every span recorded since installation."""

    def __init__(self):
        self._ids = itertools.count()
        self._local = threading.local()
        self._buffers: list[list] = []
        self._lock = threading.Lock()
        self.main_thread = threading.get_ident()
        self._root = -1  # outermost open main-thread span
        self._restore: list = []
        self.request = -1
        self.gl_warnings: _Counter | None = None

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        for mod_name, _ in TRACED:
            importlib.import_module(mod_name)
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "ptwreg"]
        for (mod_name, attr), (layer, info) in TRACED.items():
            original = getattr(sys.modules[mod_name], attr)
            wrapper = self._wrap(original, layer, info)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, name, original))
                        setattr(module, name, wrapper)
        ptwdist = sys.modules["ptwreg.ptwdist"]
        self.gl_warnings = _Counter(ptwdist.warnings)
        self._restore.append((ptwdist, "warnings", ptwdist.warnings))
        ptwdist.warnings = self.gl_warnings

    def uninstall(self) -> None:
        for module, name, original in reversed(self._restore):
            setattr(module, name, original)
        self._restore.clear()

    def _buffer(self) -> list:
        local = self._local
        if not hasattr(local, "spans"):
            local.spans, local.stack = [], []
            with self._lock:
                self._buffers.append(local.spans)
        return local.spans

    def _wrap(self, func, layer, info):
        tracer = self
        clock = time.perf_counter

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            spans = tracer._buffer()
            stack = tracer._local.stack
            span_id = next(tracer._ids)
            thread = threading.get_ident()
            if stack:
                parent = stack[-1]
            elif thread == tracer.main_thread:
                parent = -1
                tracer._root = span_id
            else:
                parent = tracer._root
            stack.append(span_id)
            start = clock()
            try:
                result = func(*args, **kwargs)
            except BaseException as exc:
                end = clock()
                stack.pop()
                spans.append((span_id, layer, start, end, parent, thread, tracer.request,
                              type(exc).__name__, None))
                raise
            end = clock()
            stack.pop()
            detail = info(args, kwargs, result) if info is not None else None
            spans.append((span_id, layer, start, end, parent, thread, tracer.request,
                          None, detail))
            return result

        wrapper.__perfbench_layer__ = layer
        return wrapper

    # -- results -------------------------------------------------------------

    def spans(self) -> list[tuple]:
        with self._lock:
            merged = [s for buf in self._buffers for s in buf]
        merged.sort(key=lambda s: s[0])
        return merged

    def dump(self, path: str, extra: dict) -> None:
        """Write every span plus ``extra`` as one JSON document."""
        payload = dict(extra)
        payload["span_fields"] = [
            "id", "layer", "start", "end", "parent", "thread", "request", "exception", "info",
        ]
        payload["spans"] = [list(s) for s in self.spans()]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)


def layer_summary(spans: list[tuple]) -> dict[str, dict]:
    """Per layer: calls, self seconds and exceptions by class."""
    by_id = {s[0]: s for s in spans}
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        parent = by_id.get(s[4])
        if parent is not None and parent[5] == s[5]:
            child_time[s[4]] += s[3] - s[2]
    out: dict[str, dict] = defaultdict(
        lambda: {"calls": 0, "busy_s": 0.0, "exceptions": defaultdict(int)}
    )
    for s in spans:
        row = out[s[1]]
        row["calls"] += 1
        row["busy_s"] += s[3] - s[2] - child_time[s[0]]
        if s[7] is not None:
            row["exceptions"][s[7]] += 1
    return out


def top_level_seconds(spans: list[tuple], main_thread: int) -> float:
    """Time covered by main-thread spans that have no parent."""
    return sum(s[3] - s[2] for s in spans if s[4] == -1 and s[5] == main_thread)
