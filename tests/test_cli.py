import csv
import io
import json
import subprocess
import sys
import warnings

import numpy as np
import pytest

import ptwreg.cli as cli
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
    assert "no probability mass function" in err


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
    calls = []
    original = ptwdist.ptw_pmf

    def counting(params, y, budget=None):
        calls.append(y)
        return original(params, y, budget)

    monkeypatch.setattr(ptwdist, "ptw_pmf", counting)
    monkeypatch.setattr(cli, "ptw_pmf", counting, raising=False)
    code, _, _ = run_cli(
        ["indices", "--mu", "4", "--phi", "0.5", "--power", "1.5", "--y-max", "6",
         "--mc-draws", "5000"],
        capsys,
    )
    assert code == 0
    assert sorted(calls) == list(range(8))


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


def test_simstudy_json_and_thread_invariance(capsys, monkeypatch):
    argv = [
        "simstudy",
        "--scenario", "ptw-p2-di2",
        "--replicates", "50",
        "--sizes", "60,120",
        "--seed", "4",
    ]
    monkeypatch.setenv("PTW_THREADS", "1")
    code1, out1, _ = run_cli(argv, capsys)
    monkeypatch.setenv("PTW_THREADS", "3")
    code2, out2, _ = run_cli(argv, capsys)
    assert code1 == code2 == 0
    assert out1 == out2
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


# ------------------------------------------------------------- parser basics


def test_usage_errors_exit_one(capsys):
    for argv in ([], ["frobnicate"], ["fit"], ["pmf", "--mu", "10"]):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 1
        capsys.readouterr()


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "ptwreg", "datasets", "list"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "dicentrics\n"
