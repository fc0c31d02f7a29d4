"""CSV ingestion, design-matrix building, and result serialization.

Tables are small, typed, immutable column collections.  The term grammar is
deliberately tiny: a term is ``col``, ``col^2``, ``a:b`` or ``a:b^2``.  Bare
categorical columns expand to treatment-coded indicators with the
alphabetically first level as baseline; a categorical crossed with a numeric
column yields one slope per level (all levels, no baseline drop).
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from dataclasses import dataclass

import numpy as np
from scipy.special import erfc

from .chaser import FitConfig, FitResult, fit
from .errors import (
    CsvParseError,
    InvalidParameterError,
    NonpositivePmfError,
    RankDeficiencyError,
)
from .estfun import PtwModel
from .ptwdist import LoglikResult, PmfConfig, ptw_loglik
from .simstudy import StudyResult

COLUMN_KINDS = ("real", "integer", "categorical")

_INT_RE = re.compile(r"[+-]?\d+$")

INTERCEPT = "intercept"


@dataclass(frozen=True)
class Column:
    """One named, typed column; values are floats, ints, or strings."""

    name: str
    kind: str
    values: tuple

    def __post_init__(self):
        if self.kind not in COLUMN_KINDS:
            raise InvalidParameterError(
                f"column kind must be one of {COLUMN_KINDS}, got {self.kind!r}"
            )


@dataclass(frozen=True)
class DatasetTable:
    """A rectangular table of typed columns."""

    columns: tuple[Column, ...]

    def __post_init__(self):
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise InvalidParameterError(f"duplicate column names in {names}")
        lengths = {len(c.values) for c in self.columns}
        if len(lengths) > 1:
            raise InvalidParameterError("columns have unequal lengths")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.columns)

    @property
    def n_rows(self) -> int:
        return len(self.columns[0].values) if self.columns else 0

    def column(self, name: str) -> Column:
        for col in self.columns:
            if col.name == name:
                return col
        raise InvalidParameterError(
            f"column {name!r} not in table (available: {', '.join(self.names)})"
        )

    def numeric(self, name: str) -> np.ndarray:
        col = self.column(name)
        if col.kind == "categorical":
            raise InvalidParameterError(f"column {name!r} is categorical, not numeric")
        return np.asarray(col.values, dtype=float)

    def drop(self, name: str) -> "DatasetTable":
        self.column(name)
        return DatasetTable(tuple(c for c in self.columns if c.name != name))


def _parse_typed(raw: list[str], name: str, kind: str) -> Column:
    """Parse one raw string column into the requested kind."""
    if kind == "categorical":
        return Column(name, kind, tuple(raw))
    values = []
    for row_idx, text in enumerate(raw):
        text = text.strip()
        try:
            values.append(int(text) if kind == "integer" else float(text))
        except ValueError:
            raise CsvParseError(
                f"row {row_idx + 2}, column {name!r}: "
                f"{text!r} is not {'an integer' if kind == 'integer' else 'a number'}"
            ) from None
    return Column(name, kind, tuple(values))


def _infer_kind(raw: list[str]) -> str:
    stripped = [v.strip() for v in raw]
    if all(_INT_RE.match(v) for v in stripped):
        return "integer"
    try:
        for v in stripped:
            float(v)
        return "real"
    except ValueError:
        return "categorical"


def _frequencies(table: DatasetTable, count: str) -> np.ndarray:
    """The frequency column as integers, checked non-negative."""
    col = table.column(count)
    if col.kind != "integer":
        raise CsvParseError(f"column {count!r} must contain non-negative integers")
    for row_idx, v in enumerate(col.values):
        if v < 0:
            raise CsvParseError(
                f"row {row_idx + 2}, column {count!r}: negative frequency {v}"
            )
    return np.asarray(col.values, dtype=int)


def _take_rows(table: DatasetTable, idx: np.ndarray, drop: str) -> DatasetTable:
    """Rows ``idx`` of every column except ``drop``."""
    return DatasetTable(tuple(
        Column(c.name, c.kind, tuple(np.asarray(c.values, dtype=object)[idx]))
        for c in table.columns
        if c.name != drop
    ))


def expand_count_column(table: DatasetTable, count: str = "count") -> DatasetTable:
    """Repeat each row by its frequency and drop the frequency column."""
    reps = _frequencies(table, count)
    return _take_rows(table, np.repeat(np.arange(table.n_rows), reps), count)


def _collapse_counts(table: DatasetTable, count: str = "count") -> tuple[DatasetTable, np.ndarray]:
    """The rows with a positive frequency, without the frequency column,
    and those frequencies: the weighted form of ``expand_count_column``."""
    freq = _frequencies(table, count)
    keep = np.flatnonzero(freq)
    return _take_rows(table, keep, count), freq[keep]


def load_csv(path, schema: dict[str, str] | None = None) -> DatasetTable:
    """Load a UTF-8, comma-delimited, header-first CSV into a typed table.

    Column types are inferred (integer, then real, else categorical) unless
    overridden by ``schema``.  A column named ``count`` is checked to hold
    non-negative integers and kept: ``build_design`` fits it as frequency
    weights, so it cannot be modelled as an ordinary response, term or
    offset.
    """
    schema = schema or {}
    with open(path, encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    if not rows or not any(rows):
        raise CsvParseError(f"{path}: empty file, expected a header row")
    header = [h.strip() for h in rows[0]]
    if len(set(header)) != len(header):
        raise CsvParseError(f"{path}: duplicate column names in header")
    for name in schema:
        if name not in header:
            raise CsvParseError(f"{path}: schema names unknown column {name!r}")
    body = rows[1:]
    if not body:
        raise CsvParseError(f"{path}: no data rows after the header")
    for i, row in enumerate(body):
        if len(row) != len(header):
            raise CsvParseError(
                f"{path}: row {i + 2}: expected {len(header)} fields, got {len(row)}"
            )
    columns = []
    for j, name in enumerate(header):
        raw = [row[j] for row in body]
        kind = schema.get(name) or _infer_kind(raw)
        columns.append(_parse_typed(raw, name, kind))
    table = DatasetTable(tuple(columns))
    if "count" in header:
        _frequencies(table, "count")
    return table


# --------------------------------------------------------------------------
# model specification and design building
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ModelSpecConfig:
    """Everything needed to turn a table into a fitted-model JSON report."""

    response: str
    terms: tuple[str, ...] = ()
    offset: str | None = None
    offset_log: bool = True  # apply log() to the offset column (raw exposures)
    fit: FitConfig = FitConfig()  # the chaser: power mode, dispersion sign or pin, budget
    pmf: PmfConfig = PmfConfig()  # the log-likelihood's Monte Carlo draws and stream

    def __post_init__(self):
        if not self.response:
            raise InvalidParameterError("response column name must be non-empty")


def _levels(col: Column) -> list:
    return sorted(set(col.values))


def _level_label(value) -> str:
    return str(value)


def _single_column(table: DatasetTable, name: str, power: int):
    col = table.column(name)
    if col.kind == "categorical":
        if power != 1:
            raise InvalidParameterError(f"cannot square categorical column {name!r}")
        values = np.asarray(col.values, dtype=object)
        levels = _levels(col)
        return [
            (f"{name}[{_level_label(lev)}]", (values == lev).astype(float))
            for lev in levels[1:]  # first level (alphabetical) is the baseline
        ]
    data = table.numeric(name) ** power
    return [(name if power == 1 else f"{name}^2", data)]


def _interaction(table: DatasetTable, left: str, right: str, power: int):
    lcol, rcol = table.column(left), table.column(right)
    if lcol.kind == "categorical" and rcol.kind == "categorical":
        raise InvalidParameterError(
            f"interaction of two categorical columns ({left}:{right}) is not supported"
        )
    if rcol.kind == "categorical":  # put the factor on the left
        lcol, rcol = rcol, lcol
        left, right = right, left
    rdata = table.numeric(right) ** power
    rname = right if power == 1 else f"{right}^2"
    if lcol.kind == "categorical":
        values = np.asarray(lcol.values, dtype=object)
        return [
            (f"{left}[{_level_label(lev)}]:{rname}", (values == lev) * rdata)
            for lev in _levels(lcol)  # all levels: one slope per level
        ]
    ldata = table.numeric(left)
    return [(f"{left}:{rname}", ldata * rdata)]


def _term_columns(table: DatasetTable, term: str):
    core = term.strip()
    if not core:
        raise InvalidParameterError("empty model term")
    power = 1
    if core.endswith("^2"):
        core, power = core[:-2].strip(), 2
    if "^" in core:
        raise InvalidParameterError(f"unsupported power in term {term!r}; only ^2")
    if ":" in core:
        left, _, right = (s.strip() for s in core.partition(":"))
        if not left or not right or ":" in right:
            raise InvalidParameterError(f"malformed interaction term {term!r}")
        return _interaction(table, left, right, power)
    return _single_column(table, core, power)


def build_design(
    table: DatasetTable, config: ModelSpecConfig
) -> tuple[PtwModel, tuple[str, ...]]:
    """Assemble the regression model: intercept first, then terms in order.

    Returns the model plus the design column names (for reporting).  The
    offset column, when named, enters additively on the log scale.  A
    ``count`` column holds frequencies: it becomes the model's weights,
    rows with frequency 0 are dropped, and like the expanded table the
    design has no ``count`` column to name as response, term or offset.
    """
    weights = None
    if "count" in table.names:
        table, weights = _collapse_counts(table)
    y = table.numeric(config.response)
    names = [INTERCEPT]
    columns = [np.ones(table.n_rows)]
    for term in config.terms:
        for name, data in _term_columns(table, term):
            names.append(name)
            columns.append(data)
    design = np.column_stack(columns)
    rank = np.linalg.matrix_rank(design)
    if rank < design.shape[1]:
        raise RankDeficiencyError(
            f"design matrix has rank {rank} < {design.shape[1]} columns; "
            "the terms are collinear"
        )
    offset = None
    if config.offset is not None:
        raw = table.numeric(config.offset)
        if config.offset_log:
            if np.any(raw <= 0):
                raise InvalidParameterError(
                    f"offset column {config.offset!r} must be positive to take logs"
                )
            offset = np.log(raw)
        else:
            offset = raw
    return PtwModel(design, y, offset=offset, weights=weights), tuple(names)


# --------------------------------------------------------------------------
# fitting pipeline and serialization
# --------------------------------------------------------------------------


def _clean(x):
    """JSON-safe float: non-finite values become null."""
    if x is None:
        return None
    x = float(x)
    return x if math.isfinite(x) else None


def _wald(estimate: float, se: float):
    if se is None or not math.isfinite(se) or se <= 0:
        return None, None
    z = estimate / se
    return _clean(z), _clean(erfc(abs(z) / math.sqrt(2.0)))


def loglik_at_fit(
    result: FitResult, model: PtwModel, config: ModelSpecConfig
) -> tuple[LoglikResult | None, str | None]:
    """Log-likelihood at the fitted parameters, or a reason it is undefined."""
    theta = result.theta_hat
    if theta.phi < 0:
        return None, "dispersion is negative: no probability distribution exists"
    if theta.p < 1:
        return None, "power is below 1: no probability distribution exists"
    if theta.p > 2 and theta.p != 3:
        return None, (
            "power is outside the evaluable family {1} U (1, 2] U {3}: "
            "pmf evaluation is not available"
        )
    mu = np.exp(model.linear_predictor(theta.beta))
    try:
        return ptw_loglik(mu, theta.phi, theta.p, model.y, config.pmf, model.weights), None
    except NonpositivePmfError as exc:
        return None, str(exc)


def fit_result_dict(
    result: FitResult,
    coef_names: tuple[str, ...],
    loglik: LoglikResult | None = None,
    loglik_reason: str | None = None,
) -> dict:
    """FitResult as a JSON-ready dictionary with stable key order."""
    theta = result.theta_hat
    q = len(theta.beta)
    layout = result.covariance_layout
    if len(coef_names) != q:
        raise InvalidParameterError(
            f"{q} coefficients but {len(coef_names)} names supplied"
        )

    coefficients = []
    for j, name in enumerate(coef_names):
        est = float(theta.beta[j])
        se = float(result.std_errors[j])
        z, p_value = _wald(est, se)
        coefficients.append(
            {
                "name": name,
                "estimate": _clean(est),
                "std_error": _clean(se),
                "z": z,
                "p_value": p_value,
            }
        )

    se_by_name = {name: float(result.std_errors[i]) for i, name in enumerate(layout)}
    dispersion = {
        "phi": _clean(theta.phi),
        "p": _clean(theta.p),
        "std_errors": {
            "phi": _clean(se_by_name.get("phi")),
            "p": _clean(se_by_name.get("p")),
        },
        "fixed": {"phi": "phi" not in layout, "p": "p" not in layout},
    }

    display = list(coef_names) + [name for name in layout[q:]]
    vcov = {
        "names": display,
        "values": [[_clean(v) for v in row] for row in result.covariance.tolist()],
    }

    out = {
        "coefficients": coefficients,
        "dispersion": dispersion,
        "vcov": vcov,
    }
    if loglik is not None:
        out["loglik"] = {
            "value": _clean(loglik.value),
            "mc_stderr": _clean(loglik.mc_stderr),
            "method": loglik.method,
        }
    else:
        out["loglik_reason"] = loglik_reason or "log-likelihood unavailable"
    out["convergence"] = {
        "iterations": result.iterations,
        "score_norm": _clean(result.trace[-1][1]) if result.trace else None,
        "warnings": list(result.warnings),
    }
    return out


def fit_result_json(payload: dict) -> str:
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def fit_table(table: DatasetTable, config: ModelSpecConfig) -> dict:
    """The full pipeline: build design, fit, evaluate loglik, serialize."""
    model, names = build_design(table, config)
    result = fit(model, config.fit)
    loglik, reason = loglik_at_fit(result, model, config)
    return fit_result_dict(result, names, loglik, reason)


# --------------------------------------------------------------------------
# CSV emitters (deterministic byte output)
# --------------------------------------------------------------------------


def _write_csv(header: list[str], rows: list[list]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    # repr(float(...)) gives the shortest round-trippable decimal and
    # normalizes numpy scalars, whose own repr is not plain-CSV friendly.
    writer.writerows(
        [repr(float(cell)) if isinstance(cell, float) else cell for cell in row]
        for row in rows
    )
    return buffer.getvalue()


def counts_csv(values) -> str:
    return _write_csv(["y"], [[int(v)] for v in np.asarray(values)])


def table_csv(table: DatasetTable) -> str:
    rows = [
        [table.columns[j].values[i] for j in range(len(table.columns))]
        for i in range(table.n_rows)
    ]
    return _write_csv(list(table.names), rows)


def study_result_dict(result: StudyResult) -> dict:
    return {
        "scenario": result.scenario,
        "replicates": result.replicates,
        "cells": [
            {
                "parameter": c.parameter,
                "n": c.n,
                "truth": _clean(c.truth),
                "mean_bias": _clean(c.mean_bias),
                "mean_se": _clean(c.mean_se),
                "empirical_se": _clean(c.empirical_se),
                "coverage": _clean(c.coverage),
            }
            for c in result.cells
        ],
        "failures": [{"n": n, "excluded": k} for n, k in result.failures],
    }


def study_result_json(result: StudyResult) -> str:
    return json.dumps(study_result_dict(result), indent=2, allow_nan=False) + "\n"


def study_result_csv(result: StudyResult) -> str:
    excluded = dict(result.failures)
    rows = [
        [
            result.scenario,
            c.parameter,
            c.n,
            c.truth,
            c.mean_bias,
            c.mean_se,
            c.empirical_se,
            c.coverage,
            excluded[c.n],
        ]
        for c in result.cells
    ]
    header = [
        "scenario",
        "parameter",
        "n",
        "truth",
        "mean_bias",
        "mean_se",
        "empirical_se",
        "coverage",
        "excluded",
    ]
    return _write_csv(header, rows)
