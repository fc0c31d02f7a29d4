"""Command-line interface.

Exit codes: 0 on success, 1 on usage errors (bad flags, malformed input,
unknown columns, collinear terms: every PtwError that is also a ValueError),
2 on the other PtwErrors, numerical failures (singular systems, boundary
traps, non-convergence, unusable Monte Carlo estimates).
All output is deterministic for a given seed: no timestamps, stable key
order, and replicate-level RNG substreams.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .chaser import FitConfig
from .dataio import (
    ModelSpecConfig,
    counts_csv,
    fit_result_json,
    fit_table,
    load_csv,
    study_result_csv,
    study_result_json,
    _write_csv,
)
from .datasets import DATASET_NAMES, dicentrics_csv
from .errors import InvalidParameterError, PtwError
from .numcore import RngStream
from .ptwdist import (
    PmfConfig,
    PtwParams,
    _heavy_tail_ratio,
    dispersion_index,
    ptw_pmf_curve,
    ptw_sample,
    zero_inflation_index,
)
from .refdists import ComPoissonParams, GammaCountParams, compoisson_sample, gammacount_sample
from .simstudy import make_scenario, run_study, scenario_names, standardized_bias_table

class _Parser(argparse.ArgumentParser):
    """argparse with usage failures remapped from exit status 2 to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _power_mode(text: str):
    if text == "free":
        return "free"
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"power must be 'free' or a number, got {text!r}"
        ) from None


def _sizes(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in _split_list(text))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"sizes must be comma-separated integers, got {text!r}"
        ) from None


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)


def _cmd_fit(args) -> int:
    schema = {name: "categorical" for name in _split_list(args.categorical)}
    table = load_csv(args.data, schema=schema or None)
    config = ModelSpecConfig(
        response=args.response,
        terms=tuple(_split_list(args.terms)),
        offset=args.offset,
        offset_log=args.offset_log,
        fit=FitConfig(power_mode=args.power, phi_sign=args.phi_sign, phi_fixed=args.phi),
        pmf=PmfConfig(mc_draws=args.mc_draws, rng=RngStream(args.seed)),
    )
    _emit(fit_result_json(fit_table(table, config)), args.out)
    return 0


def _split_list(text: str | None) -> list[str]:
    if not text:
        return []
    return [part.strip() for part in text.split(",") if part.strip()]


def _cmd_simulate(args) -> int:
    rng = RngStream(args.seed)
    if args.family == "ptw":
        if args.mu is None or args.phi is None:
            raise InvalidParameterError("--family ptw requires --mu and --phi")
        params = PtwParams(args.mu, args.phi, args.power)
        values = ptw_sample(params, args.n, rng)
    elif args.family == "compoisson":
        if args.lam is None or args.nu is None:
            raise InvalidParameterError("--family compoisson requires --lam and --nu")
        values = compoisson_sample(ComPoissonParams(args.lam, args.nu), args.n, rng)
    else:
        if args.lam is None or args.nu is None:
            raise InvalidParameterError("--family gammacount requires --lam and --nu")
        values = gammacount_sample(GammaCountParams(args.lam, args.nu), args.n, rng)
    _emit(counts_csv(values), args.out)
    return 0


def _y_max(args) -> int:
    if args.y_max < 0:
        raise InvalidParameterError(f"--y-max must be >= 0, got {args.y_max}")
    return args.y_max


def _cmd_pmf(args) -> int:
    params = PtwParams(args.mu, args.phi, args.power)
    budget = PmfConfig(mc_draws=args.mc_draws, rng=RngStream(args.seed))
    estimates = ptw_pmf_curve(params, range(_y_max(args) + 1), budget)
    rows = [
        [y, est.value, est.mc_stderr, est.method]
        for y, est in enumerate(estimates)
    ]
    _emit(_write_csv(["y", "pmf", "mc_stderr", "method"], rows), args.out)
    return 0


def _cmd_indices(args) -> int:
    y_max = _y_max(args)
    params = PtwParams(args.mu, args.phi, args.power)
    budget = PmfConfig(mc_draws=args.mc_draws, rng=RngStream(args.seed))
    rows = [
        ["dispersion", "", dispersion_index(params), 0.0],
        ["zero-inflation", "", zero_inflation_index(params), 0.0],
    ]
    estimates = ptw_pmf_curve(params, range(y_max + 2), budget)
    for y in range(y_max + 1):
        rows.append(["heavy-tail", y, *_heavy_tail_ratio(y, estimates[y], estimates[y + 1])])
    _emit(_write_csv(["index", "y", "value", "mc_stderr"], rows), args.out)
    return 0


def _cmd_simstudy(args) -> int:
    scenario = make_scenario(
        args.scenario,
        scale=args.scale,
        sample_sizes=args.sizes or None,
        replicates=args.replicates,
    )
    result = run_study(scenario, args.seed)
    if args.standardized:
        rows = [
            [r["parameter"], r["n"], r["std_bias"], r["std_se"],
             r["std_lower"], r["std_upper"]]
            for r in standardized_bias_table(result)
        ]
        text = _write_csv(
            ["parameter", "n", "std_bias", "std_se", "std_lower", "std_upper"], rows
        )
    elif args.format == "csv":
        text = study_result_csv(result)
    else:
        text = study_result_json(result)
    _emit(text, args.out)
    return 0


def _cmd_datasets(args) -> int:
    if args.dataset_action == "list":
        _emit("\n".join(DATASET_NAMES) + "\n", None)
        return 0
    if args.name == "dicentrics":
        _emit(dicentrics_csv(), args.out)
        return 0
    raise InvalidParameterError(
        f"unknown dataset {args.name!r}; available: {', '.join(DATASET_NAMES)}"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ptwreg",
        description="Extended Poisson-Tweedie count regression",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit a count regression from a CSV file")
    p_fit.add_argument("--data", required=True, help="input CSV path")
    p_fit.add_argument("--response", required=True, help="response column")
    p_fit.add_argument("--terms", default="", help="comma-separated model terms")
    p_fit.add_argument("--offset", default=None, help="offset column")
    p_fit.add_argument(
        "--offset-log",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="log-transform the offset column (default: yes)",
    )
    p_fit.add_argument(
        "--categorical", default="", help="comma-separated columns to force categorical"
    )
    p_fit.add_argument("--power", type=_power_mode, default="free",
                       help="'free' or a fixed Tweedie power")
    p_fit.add_argument("--phi", type=float, default=None,
                       help="fix the dispersion (0 gives a Poisson fit)")
    p_fit.add_argument("--phi-sign", choices=("any", "nonnegative"), default="any")
    p_fit.add_argument("--seed", type=int, default=0)
    p_fit.add_argument("--mc-draws", type=int, default=100_000)
    p_fit.add_argument("--out", default=None, help="output JSON path (default stdout)")
    p_fit.set_defaults(func=_cmd_fit)

    p_sim = sub.add_parser("simulate", help="simulate counts from a generator")
    p_sim.add_argument("--family", choices=("ptw", "compoisson", "gammacount"),
                       default="ptw")
    p_sim.add_argument("--mu", type=float, default=None)
    p_sim.add_argument("--phi", type=float, default=None)
    p_sim.add_argument("--power", type=float, default=1.0)
    p_sim.add_argument("--lam", type=float, default=None)
    p_sim.add_argument("--nu", type=float, default=None)
    p_sim.add_argument("--n", type=int, required=True)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--out", default=None)
    p_sim.set_defaults(func=_cmd_simulate)

    p_pmf = sub.add_parser("pmf", help="probability mass table with MC errors")
    p_pmf.add_argument("--mu", type=float, required=True)
    p_pmf.add_argument("--phi", type=float, required=True)
    p_pmf.add_argument("--power", type=float, required=True)
    p_pmf.add_argument("--y-max", type=int, default=20)
    p_pmf.add_argument("--mc-draws", type=int, default=100_000)
    p_pmf.add_argument("--seed", type=int, default=0)
    p_pmf.add_argument("--out", default=None)
    p_pmf.set_defaults(func=_cmd_pmf)

    p_idx = sub.add_parser("indices", help="dispersion/zero-inflation/heavy-tail table")
    p_idx.add_argument("--mu", type=float, required=True)
    p_idx.add_argument("--phi", type=float, required=True)
    p_idx.add_argument("--power", type=float, required=True)
    p_idx.add_argument("--y-max", type=int, default=10,
                       help="largest y for the heavy-tail ratio")
    p_idx.add_argument("--mc-draws", type=int, default=100_000)
    p_idx.add_argument("--seed", type=int, default=0)
    p_idx.add_argument("--out", default=None)
    p_idx.set_defaults(func=_cmd_indices)

    p_study = sub.add_parser("simstudy", help="run a simulation-study scenario")
    p_study.add_argument("--scenario", required=True, choices=scenario_names())
    p_study.add_argument("--scale", choices=("desk", "paper"), default="desk")
    p_study.add_argument("--sizes", type=_sizes, default=(),
                         help="override sample sizes, e.g. 100,500")
    p_study.add_argument("--replicates", type=int, default=None)
    p_study.add_argument("--seed", type=int, default=0)
    p_study.add_argument("--format", choices=("json", "csv"), default="json")
    p_study.add_argument("--standardized", action="store_true",
                         help="emit the standardized bias table instead")
    p_study.add_argument("--out", default=None)
    p_study.set_defaults(func=_cmd_simstudy)

    p_data = sub.add_parser("datasets", help="embedded reference datasets")
    data_sub = p_data.add_subparsers(dest="dataset_action", required=True)
    p_export = data_sub.add_parser("export", help="write a dataset as CSV")
    p_export.add_argument("name", choices=DATASET_NAMES)
    p_export.add_argument("--out", default=None)
    p_export.set_defaults(func=_cmd_datasets)
    p_list = data_sub.add_parser("list", help="list dataset names")
    p_list.set_defaults(func=_cmd_datasets)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except PtwError as exc:
        if isinstance(exc, ValueError):  # usage-type errors, as errors.py states
            print(f"ptwreg: error: {exc}", file=sys.stderr)
            return 1
        print(f"ptwreg: numerical failure: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"ptwreg: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
