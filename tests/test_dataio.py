import csv
import io
import json
import math
import warnings

import numpy as np
import pytest

from ptwreg.dataio import (
    Column,
    DatasetTable,
    ModelSpecConfig,
    build_design,
    counts_csv,
    expand_count_column,
    fit_result_dict,
    fit_result_json,
    fit_table,
    load_csv,
    loglik_at_fit,
    study_result_csv,
    study_result_json,
    table_csv,
)
from ptwreg.chaser import FitConfig, FitResult, fit
from ptwreg.datasets import DATASET_NAMES, dataset_table, dicentrics_csv
from ptwreg.errors import CsvParseError, InvalidParameterError, RankDeficiencyError
from ptwreg.estfun import Theta
from ptwreg.numcore import RngStream
from ptwreg.ptwdist import PmfConfig
from ptwreg.refdists import gammacount_sample_lam
from ptwreg.simstudy import make_scenario, run_study


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


# ------------------------------------------------------------------- load_csv


def test_load_csv_infers_kinds(tmp_path):
    path = write(tmp_path, "n,x,group\n1,0.5,a\n2,1.5,b\n-3,2,a\n")
    table = load_csv(path)
    assert table.names == ("n", "x", "group")
    assert [c.kind for c in table.columns] == ["integer", "real", "categorical"]
    assert table.column("n").values == (1, 2, -3)
    assert table.column("x").values == (0.5, 1.5, 2.0)
    assert table.column("group").values == ("a", "b", "a")


def test_load_csv_schema_override(tmp_path):
    path = write(tmp_path, "y,label\n1,07\n2,11\n")
    table = load_csv(path, schema={"y": "real", "label": "categorical"})
    assert table.column("y").kind == "real"
    assert table.column("label").values == ("07", "11")


def test_load_csv_schema_unknown_column(tmp_path):
    path = write(tmp_path, "y\n1\n")
    with pytest.raises(CsvParseError, match="'z'"):
        load_csv(path, schema={"z": "real"})


def test_load_csv_duplicate_header(tmp_path):
    path = write(tmp_path, "y,y\n1,2\n")
    with pytest.raises(CsvParseError, match="duplicate column names"):
        load_csv(path)


def test_load_csv_ragged_row(tmp_path):
    path = write(tmp_path, "y,x\n1,2\n3\n")
    with pytest.raises(CsvParseError, match="row 3"):
        load_csv(path)


def test_load_csv_empty_and_headerless(tmp_path):
    with pytest.raises(CsvParseError, match="empty file"):
        load_csv(write(tmp_path, ""))
    with pytest.raises(CsvParseError, match="no data rows"):
        load_csv(write(tmp_path, "y,x\n", name="h.csv"))


def test_load_csv_typed_parse_error_names_cell(tmp_path):
    path = write(tmp_path, "y,x\n1,2\nfoo,3\n")
    with pytest.raises(CsvParseError, match="row 3, column 'y'"):
        load_csv(path, schema={"y": "integer"})


# ------------------------------------------------------------ count expansion


def test_count_expansion_repeats_rows(tmp_path):
    path = write(tmp_path, "dose,y,count\n0.1,0,3\n0.1,1,0\n0.2,2,2\n")
    table = expand_count_column(load_csv(path))
    assert table.names == ("dose", "y")
    assert table.column("dose").values == (0.1, 0.1, 0.1, 0.2, 0.2)
    assert table.column("y").values == (0, 0, 0, 2, 2)


def test_count_expansion_opt_out(tmp_path):
    # loading never expands: the count column stays for build_design to weight
    path = write(tmp_path, "y,count\n1,3\n")
    table = load_csv(path)
    assert table.names == ("y", "count")
    assert table.n_rows == 1


def test_count_all_ones_is_identity():
    base = DatasetTable(
        (
            Column("y", "integer", (1, 2, 3)),
            Column("count", "integer", (1, 1, 1)),
        )
    )
    expanded = expand_count_column(base)
    assert expanded.names == ("y",)
    assert expanded.column("y").values == (1, 2, 3)


def test_count_expansion_rejects_bad_frequencies(tmp_path):
    with pytest.raises(CsvParseError, match="negative frequency"):
        load_csv(write(tmp_path, "y,count\n1,-2\n"))
    with pytest.raises(CsvParseError, match="non-negative integers"):
        load_csv(write(tmp_path, "y,count\n1,2.5\n", name="real.csv"))


def test_dicentrics_expansion_size():
    assert dataset_table("dicentrics").n_rows == 40
    expanded = expand_count_column(dataset_table("dicentrics"))
    assert expanded.n_rows == 5232
    assert expanded.names == ("dose", "y")
    assert sorted(set(expanded.column("dose").values)) == [0.1, 0.3, 0.5, 0.7, 1.0]


# ----------------------------------------------------------------- the table


def test_table_validation_and_access():
    with pytest.raises(InvalidParameterError, match="duplicate"):
        DatasetTable((Column("a", "real", (1.0,)), Column("a", "real", (2.0,))))
    with pytest.raises(InvalidParameterError, match="unequal"):
        DatasetTable((Column("a", "real", (1.0,)), Column("b", "real", (1.0, 2.0))))
    table = DatasetTable((Column("a", "real", (1.0,)), Column("g", "categorical", ("x",))))
    with pytest.raises(InvalidParameterError, match="'missing'"):
        table.column("missing")
    with pytest.raises(InvalidParameterError, match="categorical"):
        table.numeric("g")
    assert table.drop("g").names == ("a",)
    with pytest.raises(InvalidParameterError):
        Column("a", "complex", (1.0,))


# --------------------------------------------------------------- build_design


@pytest.fixture()
def mixed_table():
    return DatasetTable(
        (
            Column("y", "integer", (3, 1, 4, 1, 5, 9)),
            Column("x", "real", (0.5, 1.0, 1.5, 2.0, 2.5, 3.0)),
            Column("z", "real", (1.0, -1.0, 1.0, -1.0, 1.0, -1.0)),
            Column("group", "categorical", ("b", "a", "c", "a", "b", "c")),
            Column("exposure", "real", (2.0, 4.0, 2.0, 4.0, 2.0, 4.0)),
        )
    )


def test_design_intercept_and_order(mixed_table):
    model, names = build_design(
        mixed_table, ModelSpecConfig(response="y", terms=("x", "x^2"))
    )
    assert names == ("intercept", "x", "x^2")
    assert np.array_equal(model.X[:, 0], np.ones(6))
    assert np.array_equal(model.X[:, 1], mixed_table.numeric("x"))
    assert np.array_equal(model.X[:, 2], mixed_table.numeric("x") ** 2)
    assert np.array_equal(model.y, np.array([3, 1, 4, 1, 5, 9], dtype=float))


def test_design_categorical_baseline(mixed_table):
    _, names = build_design(mixed_table, ModelSpecConfig(response="y", terms=("group",)))
    # alphabetically first level "a" is the baseline
    assert names == ("intercept", "group[b]", "group[c]")


def test_design_factor_by_covariate_keeps_all_levels(mixed_table):
    model, names = build_design(
        mixed_table, ModelSpecConfig(response="y", terms=("group:x",))
    )
    assert names == ("intercept", "group[a]:x", "group[b]:x", "group[c]:x")
    x = mixed_table.numeric("x")
    grp = np.array(mixed_table.column("group").values)
    assert np.array_equal(model.X[:, 1], (grp == "a") * x)
    # covariate on the left works the same way
    _, names2 = build_design(mixed_table, ModelSpecConfig(response="y", terms=("x:group",)))
    assert names2 == names


def test_design_products_and_powers(mixed_table):
    model, names = build_design(
        mixed_table, ModelSpecConfig(response="y", terms=("x:z", "x:z^2"))
    )
    assert names == ("intercept", "x:z", "x:z^2")
    x, z = mixed_table.numeric("x"), mixed_table.numeric("z")
    assert np.array_equal(model.X[:, 1], x * z)
    assert np.array_equal(model.X[:, 2], x * z**2)


def test_design_term_grammar_errors(mixed_table):
    bad_terms = ("group:group", "group^2", "x^3", "", "x:y:z", ":x")
    for term in bad_terms:
        with pytest.raises(InvalidParameterError):
            build_design(mixed_table, ModelSpecConfig(response="y", terms=(term,)))


def test_design_collinearity(mixed_table):
    with pytest.raises(RankDeficiencyError, match="collinear"):
        build_design(mixed_table, ModelSpecConfig(response="y", terms=("x", "x")))


def test_design_offset(mixed_table):
    model, _ = build_design(
        mixed_table, ModelSpecConfig(response="y", terms=("x",), offset="exposure")
    )
    assert np.allclose(model.offset, np.log(mixed_table.numeric("exposure")))
    raw, _ = build_design(
        mixed_table,
        ModelSpecConfig(response="y", terms=("x",), offset="exposure", offset_log=False),
    )
    assert np.array_equal(raw.offset, mixed_table.numeric("exposure"))


def test_design_offset_must_be_positive():
    table = DatasetTable(
        (
            Column("y", "integer", (1, 2)),
            Column("t", "real", (0.0, 1.0)),
        )
    )
    with pytest.raises(InvalidParameterError, match="positive"):
        build_design(table, ModelSpecConfig(response="y", offset="t"))


def test_design_reads_count_as_frequency_weights():
    table = DatasetTable(
        (
            Column("x", "real", (0.1, 0.2, 0.3, 0.4)),
            Column("y", "integer", (0, 1, 2, 3)),
            Column("count", "integer", (3, 0, 1, 2)),
        )
    )
    model, names = build_design(table, ModelSpecConfig(response="y", terms=("x",)))
    assert names == ("intercept", "x")
    assert np.array_equal(model.X[:, 1], [0.1, 0.3, 0.4])  # the zero-count row is gone
    assert np.array_equal(model.y, [0, 2, 3])
    assert np.array_equal(model.weights, [3, 1, 2])
    assert model.n_obs == 6
    plain, _ = build_design(table.drop("count"), ModelSpecConfig(response="y", terms=("x",)))
    assert plain.weights is None and plain.n_obs == 4
    # as in the expanded table, there is no count column to model
    for spec in (
        ModelSpecConfig(response="count"),
        ModelSpecConfig(response="y", terms=("count",)),
        ModelSpecConfig(response="y", terms=("x:count",)),
        ModelSpecConfig(response="y", offset="count"),
    ):
        with pytest.raises(InvalidParameterError, match="'count' not in table"):
            build_design(table, spec)
    bad = DatasetTable((Column("y", "integer", (1,)), Column("count", "integer", (-1,))))
    with pytest.raises(CsvParseError, match="negative frequency"):
        build_design(bad, ModelSpecConfig(response="y"))


_VARIANTS = {
    "free": {},
    "phi 0": {"phi_fixed": 0.0},
    "p1": {"power_mode": 1.0},
    "p2": {"power_mode": 2.0},
    "p3": {"power_mode": 3.0},
}


@pytest.mark.parametrize("overrides", _VARIANTS.values(), ids=list(_VARIANTS))
@pytest.mark.filterwarnings("ignore:Gauss-Laguerre rule")
def test_weighted_dicentrics_fit_matches_expanded(overrides):
    config = ModelSpecConfig(response="y", terms=("dose", "dose^2"), fit=FitConfig(**overrides))
    weighted, _ = build_design(dataset_table("dicentrics"), config)
    expanded, _ = build_design(expand_count_column(dataset_table("dicentrics")), config)
    assert weighted.X.shape == (26, 3) and expanded.X.shape == (5232, 3)
    assert weighted.n_obs == expanded.n_obs
    got, want = fit(weighted, config.fit), fit(expanded, config.fit)
    assert got.iterations == want.iterations
    assert got.converged == want.converged
    assert got.warnings == want.warnings
    assert got.covariance_layout == want.covariance_layout
    assert got.theta_hat.as_array() == pytest.approx(want.theta_hat.as_array(), rel=1e-10)
    assert got.std_errors == pytest.approx(want.std_errors, rel=1e-10)
    # at one shared mu vector, the repeated rows are the expanded rows, so the
    # log-likelihood is the same sum in the same order on every pmf route
    reps = weighted.weights.astype(int)
    beta = want.theta_hat.beta
    assert np.array_equal(
        np.repeat(np.exp(weighted.linear_predictor(beta)), reps),
        np.exp(expanded.linear_predictor(beta)),
    )
    assert loglik_at_fit(want, weighted, config) == loglik_at_fit(want, expanded, config)


def test_model_spec_validation():
    with pytest.raises(InvalidParameterError):
        ModelSpecConfig(response="")
    with pytest.raises(InvalidParameterError):
        ModelSpecConfig(response="y", pmf=PmfConfig(mc_draws=1))


# -------------------------------------------------------- result serialization


@pytest.fixture(scope="module")
def poisson_payload():
    table = expand_count_column(dataset_table("dicentrics"))
    config = ModelSpecConfig(response="y", terms=("dose", "dose^2"), fit=FitConfig(phi_fixed=0.0))
    return fit_table(table, config)


def test_fit_payload_structure(poisson_payload):
    payload = poisson_payload
    assert list(payload) == [
        "coefficients",
        "dispersion",
        "vcov",
        "loglik",
        "convergence",
    ]
    names = [c["name"] for c in payload["coefficients"]]
    assert names == ["intercept", "dose", "dose^2"]
    for c in payload["coefficients"]:
        assert c["z"] == pytest.approx(c["estimate"] / c["std_error"])
        assert c["p_value"] == pytest.approx(
            math.erfc(abs(c["z"]) / math.sqrt(2.0)), rel=1e-12
        )
    assert payload["dispersion"]["phi"] == 0.0
    assert payload["dispersion"]["fixed"] == {"phi": True, "p": True}
    assert payload["dispersion"]["std_errors"] == {"phi": None, "p": None}
    assert payload["vcov"]["names"] == ["intercept", "dose", "dose^2"]
    assert len(payload["vcov"]["values"]) == 3
    assert payload["loglik"]["value"] == pytest.approx(-2995.389, abs=1e-3)
    assert payload["loglik"]["method"] == "closed-form"
    assert payload["convergence"]["warnings"] == []


def test_fit_payload_values(poisson_payload):
    estimates = [c["estimate"] for c in poisson_payload["coefficients"]]
    assert estimates == pytest.approx([-3.125, 5.5081, -2.4763], rel=1e-3)
    ses = [c["std_error"] for c in poisson_payload["coefficients"]]
    assert ses == pytest.approx([0.0968, 0.3693, 0.3086], rel=1e-2)


def test_fit_json_round_trip(poisson_payload):
    text = fit_result_json(poisson_payload)
    assert text.endswith("\n")
    assert json.loads(text) == poisson_payload
    table = expand_count_column(dataset_table("dicentrics"))
    config = ModelSpecConfig(response="y", terms=("dose", "dose^2"), fit=FitConfig(phi_fixed=0.0))
    assert fit_result_json(fit_table(table, config)) == text


def test_underdispersed_fit_reports_loglik_reason():
    gen = RngStream(2).generator()
    n = 400
    x = np.linspace(0.0, 1.0, n)
    y = gammacount_sample_lam(np.exp(0.8 + 0.7 * x), 8.0, gen)
    table = DatasetTable(
        (
            Column("y", "integer", tuple(int(v) for v in y)),
            Column("x", "real", tuple(x)),
        )
    )
    payload = fit_table(
        table, ModelSpecConfig(response="y", terms=("x",), fit=FitConfig(power_mode=1.0))
    )
    assert "loglik" not in payload
    assert "no probability distribution" in payload["loglik_reason"]
    assert payload["dispersion"]["phi"] < 0
    assert payload["dispersion"]["fixed"] == {"phi": False, "p": True}


def test_fit_table_passes_the_fit_config_through():
    # the iteration budget set on the spec's FitConfig reaches the chaser
    table = expand_count_column(dataset_table("dicentrics"))
    config = ModelSpecConfig(
        response="y", terms=("dose", "dose^2"), fit=FitConfig(max_iter=2)
    )
    convergence = fit_table(table, config)["convergence"]
    assert convergence["iterations"] == 2
    assert any("did not converge in 2 iterations" in w for w in convergence["warnings"])


def test_loglik_reasons_for_unreachable_powers():
    model, _ = build_design(
        DatasetTable((Column("y", "integer", (1, 2, 3, 4)),)),
        ModelSpecConfig(response="y"),
    )
    config = ModelSpecConfig(response="y")

    def result_at(phi, p):
        return FitResult(
            theta_hat=Theta(np.array([1.0]), phi, p),
            covariance=np.eye(1),
            std_errors=np.ones(1),
            covariance_layout=("beta0",),
            iterations=1,
            trace=[],
            converged=True,
        )

    _, why_neg = loglik_at_fit(result_at(-0.2, 1.5), model, config)
    assert "dispersion is negative" in why_neg
    _, why_low = loglik_at_fit(result_at(0.2, 0.5), model, config)
    assert "below 1" in why_low
    _, why_gap = loglik_at_fit(result_at(0.2, 2.5), model, config)
    assert "not available" in why_gap
    value, why = loglik_at_fit(result_at(0.2, 3.0), model, config)
    assert why is None and np.isfinite(value.value)


@pytest.mark.parametrize(
    "variant, overrides, value, method",
    [
        ("free", {}, -2950.702314822744, "monte-carlo"),
        ("phi 0", {"phi_fixed": 0.0}, -2995.3886213289434, "closed-form"),
        ("p1", {"power_mode": 1.0}, -2950.4186916695644, "exact-sum"),
        ("p2", {"power_mode": 2.0}, -2968.4692770473675, "closed-form"),
        ("p3", {"power_mode": 3.0}, -2983.337094374588, "mixed"),
    ],
)
@pytest.mark.filterwarnings("ignore:Gauss-Laguerre rule")
def test_dicentrics_loglik_is_bit_stable(variant, overrides, value, method):
    # recorded from the per-observation dict loop at seed 0; the grouped
    # evaluation sums in the same order, so the values are exactly equal
    table = expand_count_column(dataset_table("dicentrics"))
    config = ModelSpecConfig(
        response="y", terms=("dose", "dose^2"), pmf=PmfConfig(rng=RngStream(0)),
        fit=FitConfig(**overrides)
    )
    loglik = fit_table(table, config)["loglik"]
    assert (loglik["value"], loglik["method"]) == (value, method)


def test_dicentrics_p3_loglik_warns_once():
    # 20 (mu, y) pairs fall back from Gauss-Laguerre to Monte Carlo; the
    # log-likelihood says so in one warning, not one per pair
    table = expand_count_column(dataset_table("dicentrics"))
    config = ModelSpecConfig(
        response="y", terms=("dose", "dose^2"), pmf=PmfConfig(rng=RngStream(0)),
        fit=FitConfig(power_mode=3.0)
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fit_table(table, config)
    fallbacks = [str(w.message) for w in caught if "falling back to Monte Carlo" in str(w.message)]
    assert len(fallbacks) == 1
    assert "cannot resolve 20 (mu, y) pair(s)" in fallbacks[0]


def test_nan_fields_serialize_as_null():
    result = FitResult(
        theta_hat=Theta(np.array([0.5, -0.5]), 0.2, 1.5),
        covariance=np.full((4, 4), np.nan),
        std_errors=np.full(4, np.nan),
        covariance_layout=("beta0", "beta1", "phi", "p"),
        iterations=7,
        trace=[],
        converged=False,
        warnings=["covariance unavailable: singular sensitivity"],
    )
    payload = fit_result_dict(result, ("intercept", "x"))
    for c in payload["coefficients"]:
        assert c["std_error"] is None and c["z"] is None and c["p_value"] is None
    assert payload["dispersion"]["std_errors"] == {"phi": None, "p": None}
    assert all(v is None for row in payload["vcov"]["values"] for v in row)
    assert payload["convergence"]["score_norm"] is None
    json.loads(fit_result_json(payload))  # allow_nan=False must not choke


def test_fit_result_dict_name_mismatch():
    result = FitResult(
        theta_hat=Theta(np.array([0.5]), 0.2, 1.5),
        covariance=np.eye(3),
        std_errors=np.ones(3),
        covariance_layout=("beta0", "phi", "p"),
        iterations=1,
        trace=[],
        converged=True,
    )
    with pytest.raises(InvalidParameterError, match="names"):
        fit_result_dict(result, ("intercept", "extra"))


# ----------------------------------------------------------------- CSV output


def test_counts_csv_format():
    assert counts_csv(np.array([3, 0, 1])) == "y\n3\n0\n1\n"


def test_table_csv_round_trip(tmp_path):
    text = dicentrics_csv()
    lines = text.splitlines()
    assert lines[0] == "dose,y,count"
    assert lines[1] == "0.1,0,2281"
    assert len(lines) == 41
    reloaded = load_csv(write(tmp_path, text))
    original = dataset_table("dicentrics")
    assert reloaded.names == original.names
    for name in original.names:
        assert reloaded.column(name).kind == original.column(name).kind
        assert reloaded.column(name).values == original.column(name).values


def test_study_csv_and_json_outputs():
    scenario = make_scenario("ptw-p2-di2", replicates=50, sample_sizes=(60, 120))
    result = run_study(scenario, seed=4)
    text = study_result_csv(result)
    assert "np.float64" not in text
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == [
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
    assert len(rows) == 1 + len(result.cells)
    assert rows[1][0] == "ptw-p2-di2"
    assert float(rows[1][3]) == result.cells[0].truth
    payload = json.loads(study_result_json(result))
    assert payload["scenario"] == "ptw-p2-di2"
    assert payload["failures"] == [
        {"n": n, "excluded": k} for n, k in result.failures
    ]
    assert study_result_json(run_study(scenario, seed=4)) == study_result_json(result)


def test_dataset_registry():
    assert DATASET_NAMES == ("dicentrics",)
    with pytest.raises(InvalidParameterError, match="unknown dataset"):
        dataset_table("mainframes")
