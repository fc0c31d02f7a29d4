"""One benchmark process: set a workload up, then run it timed or traced.

Started by run.py with ``PYTHONPATH`` pointing at the checkout's ``src``.
Prints ``READY`` once set-up is done (run.py times process start to this
line), then, unless the role is ``setup``, runs operations and prints one
JSON line with every operation's timing and check outcome.  Only the
``trace`` role installs wrappers.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import sys
import time

def machine() -> dict:
    """The hardware and software facts that move the timings."""
    import numpy
    import scipy

    import ptwreg.simstudy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {}
    for package in (numpy, scipy):
        libdir = os.path.join(os.path.dirname(os.path.dirname(package.__file__)),
                              package.__name__ + ".libs")
        for path in glob.glob(os.path.join(libdir, "*openblas*.so*")):
            lib = ctypes.CDLL(path)
            for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                           "openblas_get_num_threads64_", "openblas_get_num_threads"):
                func = getattr(lib, symbol, None)
                if func is not None:
                    func.restype = ctypes.c_int
                    threads[package.__name__] = func()
                    break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "os_cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "blas_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                  "MKL_NUM_THREADS") if k in os.environ},
        "PTW_THREADS": os.environ.get("PTW_THREADS"),
        "study_workers": ptwreg.simstudy._worker_count(),
    }


def wrapped_names() -> list[str]:
    """Every ptwreg name currently bound to a tracing wrapper."""
    import warnings

    names = []
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").split(".")[0] != "ptwreg":
            continue
        for name, value in vars(module).items():
            if hasattr(value, "__perfbench_layer__") or (
                name == "warnings" and value is not warnings
            ):
                names.append(f"{module.__name__}.{name}")
    return sorted(names)


def run_ops(workload, seed: int, seconds: float, n_ops: int, tracer=None) -> tuple[list, float]:
    """Run operations until ``seconds`` pass, or exactly ``n_ops`` if given."""
    ops = []
    start = time.perf_counter()
    for k, spec in workload.specs(seed):
        if (n_ops and k >= n_ops) or (not n_ops and time.perf_counter() - start >= seconds):
            break
        if tracer is not None:
            tracer.request = k
        cpu0, t0 = time.process_time(), time.perf_counter()
        try:
            output, error = workload.call(spec), None
        except Exception as exc:  # a raising call is a failed operation
            output, error = None, f"{type(exc).__name__}: {exc}"
        wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0
        if tracer is not None:
            tracer.request = -1
        record = {"ok": False, "digest": "", "detail": error, "weight": workload.weight,
                  "kind": "", "excluded": 0}
        if error is None:
            try:
                outcome = workload.check(spec, output)
            except Exception as exc:  # an unreadable output fails its check
                record["detail"] = f"check raised {type(exc).__name__}: {exc}"
            else:
                record.update(ok=outcome.ok, digest=outcome.digest, detail=outcome.detail,
                              kind=outcome.kind, excluded=outcome.excluded)
        record.update(k=k, wall=wall, cpu=cpu)
        ops.append(record)
    return ops, time.perf_counter() - start


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--role", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--ops", type=int, default=0, help="fixed operation count (0: timed)")
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()

    import ptwreg

    src = os.path.join(os.getcwd(), "src")
    if not os.path.abspath(ptwreg.__file__).startswith(src + os.sep):
        raise RuntimeError(f"imported ptwreg from {ptwreg.__file__}, not from {src}")

    from workloads import WORKLOADS

    tracer = None
    if args.role == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    workload = WORKLOADS[args.workload](args.workdir)
    workload.setup(args.seed)
    print("READY", flush=True)
    if args.role == "setup":
        return 0

    ops, loop_s = run_ops(workload, args.seed, args.seconds, args.ops, tracer)
    result = {
        "ops": ops,
        "loop_s": loop_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "machine": machine(),
        "wrapped": wrapped_names(),
    }
    if tracer is not None:
        from layers import per_layer

        tracer.uninstall()
        spans = tracer.spans()
        result["layers"], result["census"] = per_layer(spans, ops, tracer)
        result["span_file"] = os.path.join(args.workdir, f"spans-{args.workload}.json")
        tracer.dump(result["span_file"], {"workload": args.workload, "seed": args.seed,
                                          "census": result["census"],
                                          "machine": result["machine"]})
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
