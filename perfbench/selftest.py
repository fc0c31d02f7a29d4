"""Self-tests of the benchmark itself.  Run from the root of a checkout:

    python3 perfbench/selftest.py

They take about five minutes on two cores and print one PASS/FAIL line each:

- every workload's smoke run prints each BENCHMARK.json metric with its unit,
  untraced and traced, and its last line has exactly the keys correct,
  attempted, failed and metrics;
- the timed process never installs a wrapper, and the traced one does;
- a traced and an untraced study cell give byte-identical study_result_json;
- two traced runs at one seed give identical counts;
- in a directory holding only BENCHMARK.json and perfbench/, the benchmark
  exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
WORK = os.path.join(ROOT, ".perfbench_work", "selftest")
WORKLOADS = ("study-grid", "fit-report", "pmf-tables")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}

results: list[bool] = []


def report(name: str, ok: bool, detail: str = "") -> None:
    results.append(ok)
    print(f"{'PASS' if ok else 'FAIL'} {name}" + (f": {detail}" if detail and not ok else ""),
          flush=True)


def bench(workload: str, trace: int, cwd: str = ROOT, seconds: int = 2):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", "0", "--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=200)


def smoke(spec: dict) -> dict:
    """Smoke runs of every workload; returns the traced metrics by workload."""
    traced = {}
    for workload in WORKLOADS:
        for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            proc = bench(workload, trace)
            lines = proc.stdout.strip().splitlines()
            name = f"smoke {workload} --trace {trace}"
            if proc.returncode != 0 or not lines:
                report(name, False, proc.stderr[-800:])
                continue
            last = json.loads(lines[-1])
            problems = []
            if set(last) != RESULT_KEYS:
                problems.append(f"result keys {sorted(last)}")
            if not last.get("correct") or last.get("failed") != 0:
                problems.append("run reported incorrect or failed operations")
            got = last.get("metrics", {})
            if set(got) != {m["name"] for m in listed}:
                problems.append("metric names differ from BENCHMARK.json")
            human = "\n".join(lines[:-1])
            for m in listed:
                if got.get(m["name"], {}).get("unit") != m["unit"]:
                    problems.append(f"{m['name']}: unit")
                if f"{m['name']} = " not in human or f" {m['unit']}" not in human:
                    problems.append(f"{m['name']}: not printed with its unit")
            report(name, not problems, "; ".join(problems[:5]))
            if trace:
                traced[workload] = got
    return traced


def wrappers() -> None:
    """The timed role leaves every ptwreg name bound to the original."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    os.makedirs(WORK, exist_ok=True)
    for role, want_wrapped in (("run", False), ("trace", True)):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), "--workload", "fit-report",
             "--seed", "0", "--seconds", "0", "--role", role, "--ops", "1", "--workdir", WORK],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=200)
        if proc.returncode != 0:
            report(f"wrappers in the {role} role", False, proc.stderr[-800:])
            continue
        wrapped = json.loads(proc.stdout.strip().splitlines()[-1])["wrapped"]
        report(f"wrappers in the {role} role: {len(wrapped)}", bool(wrapped) == want_wrapped,
               str(wrapped[:5]))


def traced_cell_identical() -> None:
    """Tracing does not change what the program computes."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    from ptwreg.dataio import study_result_json
    from ptwreg.simstudy import make_scenario, run_study
    from tracer import Tracer

    cell = make_scenario("ptw-p3-di2", sample_sizes=(100,), replicates=50)
    plain = study_result_json(run_study(cell, 7))
    tracer = Tracer()
    tracer.install()
    try:
        traced = study_result_json(run_study(cell, 7))
    finally:
        tracer.uninstall()
    fits = sum(1 for s in tracer.spans() if s[1] == "chaser.fit")
    report(f"traced study cell byte-identical ({fits} traced fits)",
           plain == traced and fits == 50)


def counts_repeat(spec: dict, first: dict) -> None:
    counts = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]
    for workload, metrics in first.items():
        proc = bench(workload, 1)
        if proc.returncode != 0:
            report(f"counts repeat on {workload}", False, proc.stderr[-800:])
            continue
        again = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
        differ = [n for n in counts if metrics[n]["value"] != again[n]["value"]]
        report(f"{len(counts)} counts repeat on {workload}", not differ, str(differ[:5]))


def empty_directory() -> None:
    empty = os.path.join(WORK, "empty")
    shutil.rmtree(empty, ignore_errors=True)
    os.makedirs(empty)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), empty)
    shutil.copytree(HERE, os.path.join(empty, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("fit-report", 0, cwd=empty)
    last = proc.stdout.strip().splitlines()[-1:] or [""]
    report("no result without the source tree",
           proc.returncode != 0 and not last[0].startswith("{"), proc.stdout[-300:])
    shutil.rmtree(empty, ignore_errors=True)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    empty_directory()
    wrappers()
    traced_cell_identical()
    counts_repeat(spec, smoke(spec))
    print(f"{sum(results)} of {len(results)} self-tests passed")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
