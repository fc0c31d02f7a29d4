"""ptwreg benchmark: run one workload and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload study-grid --seed 0 --seconds 25 --trace 0

With ``--trace 0`` the workload runs untraced for ``--seconds`` and the
end-to-end metrics of BENCHMARK.json are reported.  With ``--trace 1`` a
fixed number of operations runs twice, untraced and then traced in a
separate process, and the per-layer metrics are reported.  Human-readable
lines come first; the last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.  Every process is started
from the checkout's own ``src`` tree; without it the benchmark exits with
status 2 and prints no result.  See perfbench/README.md for the workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOAD_NAMES = ("study-grid", "fit-report", "pmf-tables")
# Set-up-only processes started before and after the timed one, so that
# setup_s samples both ends of the run; the timed process's own set-up is
# one more sample.
SETUP_REPEATS = 2
# Operations in a traced run: one pass over the 15 study cells, or 100
# requests so that p90 has ten samples beyond it.
TRACE_OPS = {"study-grid": 15, "fit-report": 100, "pmf-tables": 100}
DEADLINE_S = 170.0
PAPER_GRID_FITS = 96_000
# Workload-specific names of the neutral throughput and latency metrics.
ALIASES = {
    "study-grid": ("fits_per_s", "fit_ms"),
    "fit-report": ("reports_per_s", "report_ms"),
    "pmf-tables": ("tables_per_s", "table_ms"),
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile, q in [0, 100]."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


class Worker:
    """A worker.py child process, timed from start to its READY line."""

    def __init__(self, root: str, args, role: str, ops: int, deadline: float):
        self.role = role
        workdir = os.path.join(root, ".perfbench_work", args.workload)
        os.makedirs(workdir, exist_ok=True)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(root, "src")
        self.log = os.path.join(workdir, f"{role}.stderr")
        cmd = [sys.executable, os.path.join(HERE, "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--role", role, "--ops", str(ops),
               "--workdir", workdir]
        self.ready_s = None
        self.result = None
        with open(self.log, "w", encoding="utf-8") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                                    stderr=err, text=True)
            timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
            timer.start()
            try:
                lines = []
                for line in proc.stdout:
                    if line.strip() == "READY" and self.ready_s is None:
                        self.ready_s = time.perf_counter() - start
                    else:
                        lines.append(line)
                proc.wait()
            finally:
                timer.cancel()
                proc.stdout.close()
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if proc.returncode != 0 or self.ready_s is None:
            raise BenchError(f"{role} process exited with status {proc.returncode}:\n"
                             + self._tail())
        if role != "setup":
            try:
                self.result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                raise BenchError(f"{role} process printed no result:\n" + self._tail())

    def _tail(self) -> str:
        with open(self.log, encoding="utf-8", errors="replace") as handle:
            return "".join(handle.readlines()[-15:])


def op_stats(workload: str, ops: list[dict]) -> dict:
    """Throughput and latency of the operations of one run.

    A study-grid operation is a cell of replicate fits: its latency is the
    cell's wall time per fit, and throughput is the rate of a grid in which
    every cell kind seen counts once (so a run that stops part-way through
    a pass is not biased towards the kinds it reached).
    """
    if workload == "study-grid":
        per_fit = [1000.0 * op["wall"] / op["weight"] for op in ops]
        by_kind: dict[str, list[float]] = {}
        for op, ms in zip(ops, per_fit):
            by_kind.setdefault(op["kind"], []).append(ms)
        grid_ms = sum(statistics.mean(v) for v in by_kind.values())
        ops_per_s = 1000.0 * len(by_kind) / grid_ms
    else:
        per_fit = [1000.0 * op["wall"] for op in ops]
        ops_per_s = len(ops) / sum(op["wall"] for op in ops)
    return {
        "ops_per_s": ops_per_s,
        "op_ms.p50": percentile(per_fit, 50),
        "op_ms.p90": percentile(per_fit, 90),
        "samples": len(per_fit),
    }


def emit(name: str, value: float, unit: str, note: str) -> None:
    print(f"metric {name} = {value:.6g} {unit}  ({note})")


def end_to_end(args, root: str, deadline: float) -> tuple[dict, dict]:
    setups = [Worker(root, args, "setup", 0, deadline).ready_s for _ in range(SETUP_REPEATS)]
    run = Worker(root, args, "run", 0, deadline)
    setups.append(run.ready_s)
    setups += [Worker(root, args, "setup", 0, deadline).ready_s for _ in range(SETUP_REPEATS)]
    res = run.result
    ops = res["ops"]
    if not ops:
        raise BenchError("no operation completed")
    if res["wrapped"]:
        raise BenchError(f"the timed process has wrappers installed: {res['wrapped']}")
    stats = op_stats(args.workload, ops)
    unit_name = "fits" if args.workload == "study-grid" else "requests"
    attempted = sum(op["weight"] for op in ops)
    failed = sum(op["weight"] for op in ops if not op["ok"])
    excluded = sum(op["excluded"] for op in ops)

    print(f"machine {json.dumps(res['machine'], sort_keys=True)}")
    throughput, latency = ALIASES[args.workload]
    emit("setup_s", statistics.median(setups), "s",
         f"median of {len(setups)} set-ups: " + ", ".join(f"{s:.3f}" for s in setups))
    emit("peak_rss_mb", res["peak_rss_mb"], "MB", "peak resident memory of the timed process")
    emit(f"ops_per_s = {throughput}", stats["ops_per_s"], "1/s",
         f"{attempted} {unit_name} in {len(ops)} operations, {res['loop_s']:.1f} s")
    for q in ("p50", "p90"):
        emit(f"op_ms.{q} = {latency}.{q}", stats[f"op_ms.{q}"], "ms",
             f"n={stats['samples']}")
    if args.workload == "study-grid":
        emit("failed_frac", (failed + excluded) / attempted, "fraction",
             f"{excluded} replicate fits excluded by run_study and {failed} in cells that "
             f"failed checks, of {attempted}")
        print(f"derived paper_grid_s = {PAPER_GRID_FITS / stats['ops_per_s']:.1f} s "
              f"({PAPER_GRID_FITS} fits at ops_per_s; not gated)")
        cpu = sum(op["cpu"] for op in ops) / sum(op["wall"] for op in ops)
        print(f"derived cpu_util = {cpu:.3f} (process CPU s per wall s in run_study)")
    else:
        emit("failed_frac", failed / attempted, "fraction", f"{failed} of {attempted} failed")
    for op in ops:
        if not op["ok"]:
            print(f"failed operation {op['k']} ({op['kind']}): {op['detail']}")

    metrics = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": res["peak_rss_mb"],
        "ops_per_s": stats["ops_per_s"],
        "op_ms.p50": stats["op_ms.p50"],
        "op_ms.p90": stats["op_ms.p90"],
    }
    summary = {"correct": failed == 0, "attempted": attempted, "failed": failed}
    return metrics, summary


def traced(args, root: str, deadline: float) -> tuple[dict, dict]:
    n_ops = TRACE_OPS[args.workload]
    plain = Worker(root, args, "run", n_ops, deadline).result
    trace = Worker(root, args, "trace", n_ops, deadline).result
    metrics = dict(trace["layers"])
    problems = []
    if plain["wrapped"]:
        problems.append(f"untraced process has wrappers installed: {plain['wrapped']}")
    if not trace["wrapped"]:
        problems.append("traced process installed no wrappers")
    mismatched = [a["k"] for a, b in zip(plain["ops"], trace["ops"]) if a["digest"] != b["digest"]]
    if mismatched or len(plain["ops"]) != len(trace["ops"]):
        problems.append(f"traced outputs differ from untraced outputs at operations {mismatched}")
    for kind, row in trace["census"].items():
        counted = sum(v for k, v in row.items() if k != "reported")
        if counted != row["reported"]:
            problems.append(f"{kind}: census counts {counted} exclusions, run_study reported "
                            f"{row['reported']}")
    for role, run in (("untraced", plain), ("traced", trace)):
        for op in run["ops"]:
            if not op["ok"]:
                problems.append(f"{role} operation {op['k']} ({op['kind']}) failed: "
                                f"{op['detail']}")
    ops = plain["ops"] + trace["ops"]
    failed_ops = [op for op in ops if not op["ok"]]

    # Study-layer figures come from the untraced twin, which runs the same cells.
    study = [op for op in plain["ops"] if op["weight"] > 1]
    for n in (100, 500, 1000):
        cells = [op for op in study if op["kind"].endswith(f"/n{n}")]
        wall = sum(op["wall"] for op in cells)
        metrics[f"simstudy.fits_per_s.n{n}"] = sum(op["weight"] for op in cells) / wall if wall else 0.0
    wall = sum(op["wall"] for op in study)
    metrics["simstudy.cpu_util"] = sum(op["cpu"] for op in study) / wall if wall else 0.0
    before, after = op_stats(args.workload, plain["ops"]), op_stats(args.workload, trace["ops"])
    metrics["trace.overhead_frac"] = (
        sum(op["wall"] for op in trace["ops"]) / sum(op["wall"] for op in plain["ops"]) - 1.0)
    metrics["trace.overhead_op_ms_p50"] = after["op_ms.p50"] - before["op_ms.p50"]

    print(f"machine {json.dumps(trace['machine'], sort_keys=True)}")
    print(f"traced {len(trace['ops'])} operations; spans written to {trace['span_file']}")
    for kind, row in sorted(trace["census"].items()):
        reasons = ", ".join(f"{k}={v}" for k, v in row.items() if v and k != "reported")
        print(f"census {kind}: excluded {row['reported']} ({reasons or 'none'})")
    for problem in problems:
        print(f"problem: {problem}")
    attempted = sum(op["weight"] for op in ops)
    failed = sum(op["weight"] for op in failed_ops)
    return metrics, {"correct": not problems, "attempted": attempted, "failed": failed}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    root = os.getcwd()
    try:
        if not os.path.isfile(os.path.join(root, "src", "ptwreg", "__init__.py")):
            raise BenchError(f"no ptwreg source tree at {os.path.join(root, 'src')}")
        with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as handle:
            spec = json.load(handle)
        listed = spec["per_layer"] if args.trace else spec["end_to_end"]
        print(f"# ptwreg benchmark: workload {args.workload}, seed {args.seed}, "
              f"{args.seconds:g} s, trace {args.trace}")
        measure = traced if args.trace else end_to_end
        values, summary = measure(args, root, deadline)
        missing = [m["name"] for m in listed if m["name"] not in values]
        if missing:
            raise BenchError(f"metrics not measured: {missing}")
        if args.trace:
            for m in listed:
                print(f"layer {m['name']} = {values[m['name']]:.6g} {m['unit']}")
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    summary["metrics"] = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                          for m in listed}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
