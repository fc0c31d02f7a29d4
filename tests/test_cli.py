import csv
import hashlib
import io
import json
import subprocess
import sys
import warnings

import numpy as np
import pytest

import ptwreg.cli as cli
import ptwreg.errors as errors
import ptwreg.ptwdist as ptwdist
from ptwreg.cli import main
from ptwreg.dataio import expand_count_column, table_csv
from ptwreg.datasets import dataset_table, dicentrics_csv

from oracles import nb_pmf


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def dicentrics_file(tmp_path):
    path = tmp_path / "dicentrics.csv"
    path.write_text(dicentrics_csv(), encoding="utf-8")
    return str(path)


# ------------------------------------------------------------------------ fit


def test_fit_poisson_json(dicentrics_file, capsys):
    code, out, err = run_cli(
        [
            "fit",
            "--data", dicentrics_file,
            "--response", "y",
            "--terms", "dose,dose^2",
            "--phi", "0",
        ],
        capsys,
    )
    assert code == 0 and err == ""
    payload = json.loads(out)
    estimates = [c["estimate"] for c in payload["coefficients"]]
    assert estimates == pytest.approx([-3.125, 5.5081, -2.4763], rel=1e-3)
    assert payload["loglik"]["value"] == pytest.approx(-2995.389, abs=1e-2)


def test_fit_free_power_matches_published(dicentrics_file, capsys):
    code, out, _ = run_cli(
        ["fit", "--data", dicentrics_file, "--response", "y", "--terms", "dose,dose^2"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    estimates = [c["estimate"] for c in payload["coefficients"]]
    assert estimates == pytest.approx([-3.126, 5.514, -2.481], rel=1e-3)
    assert payload["dispersion"]["phi"] == pytest.approx(0.2507, abs=1e-3)
    assert payload["dispersion"]["p"] == pytest.approx(1.0873, abs=1e-3)
    assert payload["dispersion"]["fixed"] == {"phi": False, "p": False}


@pytest.mark.parametrize("power", ["0.5", "2.5", "4"])
def test_fit_at_zero_dispersion_is_poisson_at_any_power(power, dicentrics_file, capsys):
    # phi = 0 is the Poisson law whatever the power: its log-likelihood is the
    # closed form that --phi 0 reports, not a refusal
    base = ["fit", "--data", dicentrics_file, "--response", "y", "--terms", "dose,dose^2",
            "--phi", "0"]
    reports = []
    for argv in (base, base + ["--power", power]):
        code, out, err = run_cli(argv, capsys)
        assert code == 0 and err == ""
        reports.append(json.loads(out))
    poisson, fixed = reports
    assert fixed["loglik"] == poisson["loglik"]
    assert fixed["loglik"] == {
        "value": -2995.388621328943, "mc_stderr": 0.0, "method": "closed-form"
    }
    assert "loglik_reason" not in fixed


def test_fit_frequency_file_matches_expanded_file(dicentrics_file, tmp_path, capsys):
    # the count column is fitted as frequency weights, with no expansion
    expanded_file = tmp_path / "expanded.csv"
    expanded_file.write_text(table_csv(expand_count_column(dataset_table("dicentrics"))))
    payloads = []
    for path in (dicentrics_file, str(expanded_file)):
        code, out, _ = run_cli(
            ["fit", "--data", path, "--response", "y", "--terms", "dose,dose^2",
             "--power", "2"],
            capsys,
        )
        assert code == 0
        payloads.append(json.loads(out))
    weighted, expanded = payloads
    for key in ("iterations", "warnings"):
        assert weighted["convergence"][key] == expanded["convergence"][key]
    for got, want in zip(weighted["coefficients"], expanded["coefficients"]):
        assert got["estimate"] == pytest.approx(want["estimate"], rel=1e-10)
        assert got["std_error"] == pytest.approx(want["std_error"], rel=1e-10)
    assert weighted["loglik"]["value"] == pytest.approx(expanded["loglik"]["value"], rel=1e-12)


def test_fit_unknown_column_names_it(dicentrics_file, capsys):
    code, out, err = run_cli(
        ["fit", "--data", dicentrics_file, "--response", "z"], capsys
    )
    assert code == 1
    assert out == ""
    assert "'z'" in err


def test_fit_missing_file(capsys):
    code, _, err = run_cli(
        ["fit", "--data", "/no/such/file.csv", "--response", "y"], capsys
    )
    assert code == 1
    assert "error" in err


def test_fit_collinear_terms(dicentrics_file, capsys):
    code, _, err = run_cli(
        [
            "fit",
            "--data", dicentrics_file,
            "--response", "y",
            "--terms", "dose,dose",
        ],
        capsys,
    )
    assert code == 1
    assert "collinear" in err


def test_fit_table_of_zero_frequencies_is_usage_error(tmp_path, capsys):
    path = tmp_path / "empty.csv"
    path.write_text("dose,y,count\n0.1,0,0\n0.3,1,0\n", encoding="utf-8")
    code, out, err = run_cli(
        ["fit", "--data", str(path), "--response", "y", "--terms", "dose"], capsys
    )
    assert code == 1 and out == ""
    assert "no rows remain" in err


@pytest.mark.parametrize("power", ["free", "2"])
def test_fit_negative_phi_held_nonnegative_is_usage_error(power, dicentrics_file, capsys):
    # unchecked, a free power failed in step halving (exit 2) and power 2
    # reported phi = -0.05
    code, out, err = run_cli(
        ["fit", "--data", dicentrics_file, "--response", "y", "--terms", "dose,dose^2",
         "--power", power, "--phi", "-0.05", "--phi-sign", "nonnegative"],
        capsys,
    )
    assert (code, out) == (1, "")
    assert err == "ptwreg: error: phi_fixed = -0.05 contradicts phi_sign 'nonnegative'\n"


def test_fit_out_file(dicentrics_file, tmp_path, capsys):
    out_path = tmp_path / "fit.json"
    code, out, _ = run_cli(
        [
            "fit",
            "--data", dicentrics_file,
            "--response", "y",
            "--terms", "dose,dose^2",
            "--phi", "0",
            "--out", str(out_path),
        ],
        capsys,
    )
    assert code == 0 and out == ""
    payload = json.loads(out_path.read_text(encoding="utf-8"))
    assert payload["dispersion"]["phi"] == 0.0


# ------------------------------------------------------------------- simulate


def test_simulate_deterministic(capsys):
    argv = ["simulate", "--family", "ptw", "--mu", "5", "--phi", "0.4",
            "--power", "2", "--n", "50", "--seed", "9"]
    code1, out1, _ = run_cli(argv, capsys)
    code2, out2, _ = run_cli(argv, capsys)
    assert code1 == code2 == 0
    assert out1 == out2
    lines = out1.splitlines()
    assert lines[0] == "y"
    assert len(lines) == 51
    assert all(int(v) >= 0 for v in lines[1:])
    _, out3, _ = run_cli(argv[:-1] + ["10"], capsys)
    assert out3 != out1


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--family", "ptw", "--mu", "5", "--n", "10"],
        ["simulate", "--family", "compoisson", "--lam", "8", "--n", "10"],
        ["simulate", "--family", "gammacount", "--nu", "4", "--n", "10"],
    ],
)
def test_simulate_requires_family_parameters(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 1
    assert out == ""
    assert "requires" in err


@pytest.mark.parametrize(
    "args, foreign",
    [
        ("--family gammacount --lam 2 --nu 4 --mu 5 --phi 9 --power 3", "--mu, --phi, --power"),
        ("--family compoisson --lam 8 --nu 4 --power 1", "--power"),
        ("--family ptw --mu 5 --phi 0.5 --lam 2", "--lam"),
        ("--family ptw --mu 5 --phi 0.5 --power 1.5 --nu 4 --lam 2", "--lam, --nu"),
    ],
    ids=["gammacount", "compoisson-power", "ptw-lam", "ptw-lam-nu"],
)
def test_simulate_refuses_the_flags_of_other_families(args, foreign, capsys):
    # unchecked, they were ignored and the named family's counts written
    code, out, err = run_cli(["simulate", *args.split(), "--n", "3"], capsys)
    assert (code, out) == (1, "")
    family = args.split()[1]
    assert err == f"ptwreg: error: --family {family} does not take {foreign}\n"


def test_simulate_rate_numpy_cannot_draw_is_usage_error(capsys):
    # the mixing draw Z near 1e30 is the Poisson rate of Y | Z; numpy's
    # "lam value too large" came out as a traceback
    code, out, err = run_cli(
        ["simulate", "--family", "ptw", "--mu", "1e30", "--phi", "0.5", "--power", "1.5",
         "--n", "2"], capsys
    )
    assert (code, out) == (1, "")
    assert err.startswith("ptwreg: error: Poisson rate ")
    assert err.endswith(" is beyond numpy's sampler limit of 9.223e+18\n")


@pytest.mark.parametrize(
    "family",
    [
        ["--family", "ptw", "--mu", "5", "--phi", "0.4"],
        ["--family", "compoisson", "--lam", "8", "--nu", "4"],
        ["--family", "gammacount", "--lam", "2", "--nu", "4"],
    ],
)
def test_simulate_negative_n_is_usage_error(family, capsys):
    code, out, err = run_cli(["simulate", *family, "--n", "-1"], capsys)
    assert code == 1
    assert out == ""
    assert err == "ptwreg: error: n must be non-negative\n"


@pytest.mark.parametrize(
    "family",
    [
        ["--family", "ptw", "--mu", "5", "--phi", "0.4"],
        ["--family", "compoisson", "--lam", "8", "--nu", "4"],
        ["--family", "gammacount", "--lam", "2", "--nu", "4"],
    ],
)
def test_simulate_zero_draws_is_header_only(family, capsys):
    assert run_cli(["simulate", *family, "--n", "0"], capsys) == (0, "y\n", "")


def test_simulate_reference_families(capsys):
    for family, extra in (
        ("compoisson", ["--lam", "8", "--nu", "4"]),
        ("gammacount", ["--lam", "2", "--nu", "4"]),
    ):
        code, out, _ = run_cli(
            ["simulate", "--family", family, *extra, "--n", "30"], capsys
        )
        assert code == 0
        assert len(out.splitlines()) == 31


# ------------------------------------------------------------------------ pmf


def test_pmf_closed_form_table(capsys):
    code, out, _ = run_cli(
        ["pmf", "--mu", "10", "--phi", "0.1", "--power", "2", "--y-max", "6"], capsys
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["y", "pmf", "mc_stderr", "method"]
    assert len(rows) == 8
    for y, row in enumerate(rows[1:]):
        assert row[3] == "closed-form"
        assert float(row[1]) == pytest.approx(nb_pmf(10.0, 0.1, y), rel=1e-12)
        assert float(row[2]) == 0.0


def test_pmf_infeasible_dispersion(capsys):
    code, out, err = run_cli(
        ["pmf", "--mu", "10", "--phi", "-0.5", "--power", "1", "--y-max", "3"], capsys
    )
    assert code == 1
    assert "dispersion is negative: no probability distribution exists" in err


@pytest.mark.parametrize("command", ["pmf", "indices"])
@pytest.mark.parametrize(
    "phi, power, reason",
    [
        ("-0.5", "1", "dispersion is negative: no probability distribution exists"),
        ("0.5", "0.5", "power is below 1: no probability distribution exists"),
        ("0.5", "2.5", "power is outside the evaluable family {1} U (1, 2] U {3}: "
                       "pmf evaluation is not available"),
        ("0.5", "4", "power is outside the evaluable family {1} U (1, 2] U {3}: "
                     "pmf evaluation is not available"),
    ],
    ids=["negative-phi", "p-below-1", "p-2.5", "p-4"],
)
def test_pmf_and_indices_refusals_name_the_domain(command, phi, power, reason, capsys):
    # the same reasons that a fit report gives for a missing log-likelihood
    code, out, err = run_cli(
        [command, "--mu", "10", "--phi", phi, "--power", power, "--y-max", "3"], capsys
    )
    assert (code, out, err) == (1, "", f"ptwreg: error: {reason}\n")


def test_pmf_table_warns_once_about_gauss_laguerre_fallbacks(capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _, _ = run_cli(
            ["pmf", "--mu", "20", "--phi", "0.5", "--power", "3", "--y-max", "250"], capsys
        )
    assert code == 0
    assert [str(w.message) for w in caught] == [
        "Gauss-Laguerre rule (128 nodes) cannot resolve (mu=20.0, phi=0.5, "
        "8 counts in y=243..250); falling back to Monte Carlo"
    ]


# -------------------------------------------------------------------- indices


def test_indices_table(capsys):
    code, out, _ = run_cli(
        ["indices", "--mu", "10", "--phi", "0.1", "--power", "2", "--y-max", "4"],
        capsys,
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["index", "y", "value", "mc_stderr"]
    named = {row[0] for row in rows[1:]}
    assert named == {"dispersion", "zero-inflation", "heavy-tail"}
    dispersion = next(float(r[2]) for r in rows[1:] if r[0] == "dispersion")
    assert dispersion == pytest.approx(2.0)
    tails = [float(r[2]) for r in rows[1:] if r[0] == "heavy-tail"]
    assert len(tails) == 5


def test_indices_far_tail_with_starved_budget_is_numerical_failure(capsys):
    code, out, err = run_cli(
        [
            "indices",
            "--mu", "10",
            "--phi", "0.5",
            "--power", "1.5",
            "--y-max", "70",
            "--mc-draws", "2000",
        ],
        capsys,
    )
    assert code == 2
    assert out == ""
    assert "numerical failure" in err


def test_indices_evaluates_each_pmf_once(monkeypatch, capsys):
    # the curve evaluates its Monte Carlo counts in one route call per
    # parameter set: count the ys that route sees and the draw sets sampled
    calls, samples = [], []
    route, sampler = ptwdist._pmf_monte_carlo, ptwdist.sample_tweedie_mu

    def counting_route(params, ys, budget):
        calls.append(list(ys))
        return route(params, ys, budget)

    def counting_sampler(*args):
        samples.append(args[0].size)
        return sampler(*args)

    monkeypatch.setattr(ptwdist, "_pmf_monte_carlo", counting_route)
    monkeypatch.setattr(ptwdist, "sample_tweedie_mu", counting_sampler)
    ptwdist._mixing_draws.cache_clear()
    code, _, _ = run_cli(
        ["indices", "--mu", "4", "--phi", "0.5", "--power", "1.5", "--y-max", "6",
         "--mc-draws", "5000"],
        capsys,
    )
    assert code == 0
    assert sorted(y for ys in calls for y in ys) == list(range(8))
    assert samples == [5000]


def test_pmf_then_indices_evaluate_each_count_once(monkeypatch, capsys):
    # pmf takes y = 0..6 from the draw set and indices y = 0..7: the second
    # table evaluates only y = 7, and prints what it prints from cold caches
    kernel_calls = []
    kernel = ptwdist._poisson_pmf

    def counting_kernel(y, *args):
        kernel_calls.append(y)
        return kernel(y, *args)

    table = ["--mu", "4", "--phi", "0.5", "--power", "1.5", "--y-max", "6", "--mc-draws", "5000"]
    monkeypatch.setattr(ptwdist, "_poisson_pmf", counting_kernel)
    assert run_cli(["pmf", *table], capsys)[0] == 0
    code, warm, _ = run_cli(["indices", *table], capsys)
    assert code == 0
    assert sorted(kernel_calls) == list(range(8))  # y_max + 2, not 2 y_max + 3
    ptwdist._mixing_draws.cache_clear()
    ptwdist._mc_estimates.cache_clear()
    assert run_cli(["indices", *table], capsys) == (0, warm, "")


@pytest.mark.parametrize(
    "command, args, sha256",
    [
        ("pmf", "--mu 6 --phi 1.5 --power 1 --y-max 30",
         "75655ed7034c2ac99d192d15a670a969d080ca3b5a9913c06cb4322c1eca4be8"),
        ("indices", "--mu 6 --phi 1.5 --power 1 --y-max 10",
         "2723dc15e4cb5fb344930fe34bcea58d9e1acacbe45d5d0f21cb5db607f7871c"),
        ("pmf", "--mu 6 --phi 0.5 --power 1.5 --y-max 20",
         "9e8ce84debd20c108dc578a518b9c7cabaea30f243f1693dabc39b03a3e91d59"),
        ("indices", "--mu 6 --phi 0.5 --power 1.5 --y-max 10",
         "afb686cfb575cba2e82f2340d58a233c4d6fa1368aa9a3fa894dc3d062e135bf"),
        ("pmf", "--mu 6 --phi 0.3 --power 2 --y-max 25",
         "b862009f78a12b61b295bfec35dc76e3db71bbc6888954327402a84d14a4654c"),
        ("indices", "--mu 6 --phi 0.3 --power 2 --y-max 10",
         "ee58122a2db4a137c6dd019d8bd0805ab517c8e777d79db9f7210694c3e02bf2"),
        # counts above 242 lie past half the Gauss-Laguerre node range and
        # fall back to Monte Carlo
        ("pmf", "--mu 20 --phi 0.5 --power 3 --y-max 250",
         "3272943af6b7c5114a169524c9a2ca3c36072c6a42aebf386bd0c7911f617f7a"),
        ("indices", "--mu 20 --phi 0.5 --power 3 --y-max 245",
         "1c8d823d007ec9a233e4cec561a69362871804e4e027798e9be3da074398fbc4"),
    ],
)
@pytest.mark.filterwarnings("ignore:Gauss-Laguerre rule")
def test_pmf_and_indices_csv_are_bit_stable(command, args, sha256, capsys):
    # seeded pmf and index tables are pinned byte for byte on every route
    code, out, _ = run_cli([command, *args.split(), "--seed", "3"], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == sha256


@pytest.mark.parametrize(
    "args, sha256",
    [
        ("--scenario ptw-p2-di2 --format csv",
         "49a8a3c0032630fc804e1e7ae3d73c2f1654b660a490f9bbb74fdc185c609534"),
        ("--scenario ptw-p2-di2 --standardized",
         "568061f646fc55e5eb2e039e30913d18521813b7c5b5432897ef73c6b52da574"),
        ("--scenario gammacount-nu4 --format csv",
         "cd889860cde997b179a5bcaf142b8e7d5f08b521716644e7ca62a4444cf54b37"),
        ("--scenario gammacount-nu4 --standardized",
         "142350a2adffd0270447e8695dd4eca06d2b085b493d0ddb7700fa4c2b4b5a42"),
    ],
)
def test_study_csv_tables_are_bit_stable(args, sha256, capsys):
    # the study CSV and standardized tables, header included, byte for byte
    argv = ["simstudy", *args.split(), "--replicates", "50", "--sizes", "100,200",
            "--seed", "4"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == sha256


@pytest.mark.parametrize(
    "args, sha256",
    [
        ("--family ptw --mu 5 --phi 0.8 --power 1.5",
         "919345add0b80ebe19ba8c686406076432e1b460befec09a6533fa43f0a23381"),
        ("--family compoisson --lam 8 --nu 2",
         "678cf252341941c66400956eec7c5270fab5a56fc2382e718c57c1aef05fd1e1"),
        ("--family gammacount --lam 3 --nu 4",
         "f5fc065169b8b3cb767c362935991da00e9b8cc86c2ca30a014c6ebd827c0c5e"),
    ],
    ids=["ptw", "compoisson", "gammacount"],
)
def test_simulate_csv_is_bit_stable(args, sha256, capsys):
    code, out, _ = run_cli(["simulate", *args.split(), "--n", "200", "--seed", "7"], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == sha256


@pytest.mark.parametrize("family", ["compoisson", "gammacount"])
def test_simulate_table_past_the_row_limit_is_usage_error(family, capsys):
    code, out, err = run_cli(
        ["simulate", "--family", family, "--lam", "1e300", "--nu", "2", "--n", "2"], capsys
    )
    assert (code, out) == (1, "")
    assert err.startswith("ptwreg: error: lambda and nu need a table of ")
    assert err.endswith(" rows, above the limit of 1e+07\n")


@pytest.mark.parametrize("command", ["pmf", "indices"])
def test_negative_y_max_is_usage_error(command, capsys):
    code, out, err = run_cli(
        [command, "--mu", "4", "--phi", "0.5", "--power", "2", "--y-max", "-1"], capsys
    )
    assert (code, out) == (1, "")
    assert err == "ptwreg: error: --y-max must be >= 0, got -1\n"


@pytest.mark.parametrize("command", ["pmf", "indices"])
def test_overflowing_mu_power_is_usage_error(command, capsys):
    code, out, err = run_cli(
        [command, "--mu", "1e200", "--phi", "0.5", "--power", "2", "--y-max", "2"], capsys
    )
    assert (code, out) == (1, "")
    assert err == "ptwreg: error: mu**p overflows at (mu=1e+200, p=2.0)\n"


def test_parser_is_built_once(monkeypatch, capsys):
    builds = []
    original = cli.build_parser

    def counting():
        builds.append(1)
        return original()

    monkeypatch.setattr(cli, "build_parser", counting)
    cli._parser.cache_clear()
    try:
        for _ in range(3):
            assert run_cli(["datasets", "list"], capsys)[0] == 0
    finally:
        cli._parser.cache_clear()
    assert builds == [1]


# ------------------------------------------------------------------- simstudy


def test_simstudy_json_and_thread_invariance(capsys, study_json_by_blas_threads):
    argv = [
        "simstudy",
        "--scenario", "ptw-p2-di2",
        "--replicates", "50",
        "--sizes", "60,120",
        "--seed", "4",
    ]
    code1, out1, _ = run_cli(argv, capsys)
    code2, out2, _ = run_cli(argv, capsys)
    assert code1 == code2 == 0
    assert out1 == out2
    # the same command in fresh interpreters at one and two BLAS threads
    assert study_json_by_blas_threads == {1: out1, 2: out1}
    payload = json.loads(out1)
    assert payload["scenario"] == "ptw-p2-di2"
    assert {c["n"] for c in payload["cells"]} == {60, 120}


def test_simstudy_csv_format(capsys):
    code, out, _ = run_cli(
        [
            "simstudy",
            "--scenario", "ptw-p2-di2",
            "--replicates", "50",
            "--sizes", "60",
            "--format", "csv",
        ],
        capsys,
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][0] == "scenario"
    assert "np.float64" not in out


def test_simstudy_standardized_needs_baseline(capsys):
    code, _, err = run_cli(
        [
            "simstudy",
            "--scenario", "ptw-p2-di2",
            "--replicates", "50",
            "--sizes", "60",
            "--standardized",
        ],
        capsys,
    )
    assert code == 1
    assert "n=100" in err


def test_simstudy_standardized_table(capsys):
    code, out, _ = run_cli(
        [
            "simstudy",
            "--scenario", "ptw-p2-di2",
            "--replicates", "50",
            "--sizes", "100,200",
            "--standardized",
        ],
        capsys,
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["parameter", "n", "std_bias", "std_se", "std_lower", "std_upper"]
    baseline_se = [float(r[3]) for r in rows[1:] if r[1] == "100"]
    assert baseline_se == pytest.approx([1.0] * len(baseline_se))


# unchecked, an empty list ("," or "") ran the scenario's own sizes
@pytest.mark.parametrize(
    "sizes", ["abc", "1.5", "100,x", ",", ""], ids=["abc", "1.5", "100,x", "comma", "empty"]
)
def test_simstudy_non_integer_sizes_is_usage_error(sizes, capsys):
    with pytest.raises(SystemExit) as info:
        main(["simstudy", "--scenario", "ptw-p2-di2", "--sizes", sizes])
    assert info.value.code == 1
    err = capsys.readouterr().err
    assert f"error: argument --sizes: sizes must be comma-separated integers, got '{sizes}'" in err


def test_simstudy_repeated_sizes_is_usage_error(capsys):
    code, out, err = run_cli(
        ["simstudy", "--scenario", "ptw-p3-di2", "--replicates", "50", "--sizes", "100,100"],
        capsys,
    )
    assert code == 1 and out == ""
    assert "sample sizes must be distinct" in err


def test_simstudy_unknown_scenario_is_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["simstudy", "--scenario", "ptw-p9-di2"])
    assert info.value.code == 1
    capsys.readouterr()


# ------------------------------------------------------------------- datasets


def test_datasets_list(capsys):
    code, out, _ = run_cli(["datasets", "list"], capsys)
    assert code == 0
    assert out == "dicentrics\n"


def test_datasets_export_round_trip(tmp_path, capsys):
    code, out, _ = run_cli(["datasets", "export", "dicentrics"], capsys)
    assert code == 0
    assert out == dicentrics_csv()
    out_path = tmp_path / "d.csv"
    code, piped, _ = run_cli(
        ["datasets", "export", "dicentrics", "--out", str(out_path)], capsys
    )
    assert code == 0 and piped == ""
    assert out_path.read_text(encoding="utf-8") == out


def test_datasets_unknown_name(capsys):
    with pytest.raises(SystemExit) as info:
        main(["datasets", "export", "nope"])
    assert info.value.code == 1
    capsys.readouterr()


@pytest.mark.parametrize("draws", ["0", "1", "-1"])
@pytest.mark.parametrize("command", ["pmf", "indices", "fit"])
def test_mc_draws_below_two_is_usage_error(command, draws, dicentrics_file, capsys):
    argv = {
        "pmf": ["pmf", "--mu", "5", "--phi", "0.5", "--power", "1.5"],
        "indices": ["indices", "--mu", "5", "--phi", "0.5", "--power", "1.5"],
        "fit": ["fit", "--data", dicentrics_file, "--response", "y"],
    }[command]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no nan table behind numpy warnings
        code, out, err = run_cli(argv + ["--mc-draws", draws], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("ptwreg: error: mc_draws must be an integer >= 2")


@pytest.mark.parametrize("command", ["pmf", "indices", "fit"])
def test_mc_draws_above_the_bound_is_usage_error(command, dicentrics_file, capsys):
    # 2**62 draws made numpy refuse the array with a ValueError traceback
    argv = {
        "pmf": ["pmf", "--mu", "4", "--phi", "0.5", "--power", "1.5", "--y-max", "2"],
        "indices": ["indices", "--mu", "4", "--phi", "0.5", "--power", "1.5"],
        "fit": ["fit", "--data", dicentrics_file, "--response", "y"],
    }[command]
    code, out, err = run_cli(argv + ["--mc-draws", "4611686018427387904"], capsys)
    assert (code, out) == (1, "")
    assert err == (
        "ptwreg: error: mc_draws must be at most 100000000, got 4611686018427387904\n"
    )


# ------------------------------------------------------------- parser basics


def test_usage_errors_exit_one(capsys):
    for argv in ([], ["frobnicate"], ["fit"], ["pmf", "--mu", "10"]):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 1
        capsys.readouterr()


_PTW_ERRORS = [
    cls for cls in vars(errors).values()
    if isinstance(cls, type) and issubclass(cls, errors.PtwError)
]


@pytest.mark.parametrize("cls", _PTW_ERRORS, ids=lambda cls: cls.__name__)
def test_ptw_errors_exit_one_exactly_when_value_errors(cls, monkeypatch, capsys):
    def failing():
        raise cls("boom")

    monkeypatch.setattr(cli, "dicentrics_csv", failing)
    code, out, err = run_cli(["datasets", "export", "dicentrics"], capsys)
    if issubclass(cls, ValueError):
        assert (code, out, err) == (1, "", "ptwreg: error: boom\n")
    else:
        assert (code, out, err) == (2, "", "ptwreg: numerical failure: boom\n")


def test_cli_import_leaves_out_scipy_stats():
    # scipy.stats costs about a second of start-up and ptwreg needs none of it
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, ptwreg.cli; print('scipy.stats' in sys.modules)"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "ptwreg", "datasets", "list"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "dicentrics\n"
