"""Run one benchmark workload against the nlvar sources of this checkout.

    python3 perfbench/run.py --workload cv-l1 [--seed 20] [--seconds 20] [--trace 0|1]

With --trace 0 the last line of standard output is a JSON object with the
end-to-end metrics; with --trace 1 the layer entry points are wrapped and it
carries the per-layer metrics instead. The line before it is the full record
of the run: context, per-unit samples, λ grid positions and check results.
Exit code 2 means the checkout holds no nlvar sources, 1 a broken trace or a
program error; wrong outputs are reported with "correct": false.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: nlvar's canonical seed (harness.CANONICAL_SEED), repeated here because the
#: package is imported only once the import can be timed
CANONICAL_SEED = 20

#: Fresh interpreters that time `import nlvar` besides this process, before
#: and again after the timed phase, so that setup_s takes the median of
#: imports spread over the run rather than one.
IMPORT_CHILDREN = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=CANONICAL_SEED)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="nominal length of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None,
                        help="with --trace 1, write the recorded spans to this file "
                             "as JSON lines")
    parser.add_argument("--blas-scaling", action="store_true",
                        help="also run the workload in a child process with one BLAS "
                             "thread and record the run_s ratio (not gated)")
    return parser.parse_args(argv)


def timing(samples) -> dict:
    """Median and highest percentile with at least ten samples beyond it."""
    from workloads import percentile

    n = len(samples)
    record = {"n": n, "median": statistics.median(samples)}
    for q in (99.9, 99, 90):
        if n * (100 - q) / 100 >= 10:
            record[f"p{q:g}"] = percentile(samples, q)
            break
    record["max"] = max(samples)
    return record


def blas_context() -> dict:
    """BLAS vendor, version and runtime thread count of the loaded numpy."""
    import ctypes

    import numpy as np

    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
        for lib in libs:
            handle = ctypes.CDLL(lib)
            for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                           "openblas_get_num_threads"):
                if hasattr(handle, symbol):
                    threads = int(getattr(handle, symbol)())
                    break
            if threads is not None:
                break
    except OSError:
        pass
    return {"vendor": info.get("name"), "version": info.get("version"), "threads": threads}


def child_import_s(count: int) -> list:
    """Seconds of `import nlvar` (numpy and scipy included) in `count` fresh
    interpreters, one after another."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import nlvar; print(time.perf_counter() - t)")
    times = []
    for _ in range(count):
        child = subprocess.run([sys.executable, "-B", "-c", code, str(ROOT / "src")],
                               cwd=ROOT, capture_output=True, text=True, timeout=120,
                               check=True)
        times.append(float(child.stdout))
    return times


def context(seed: int) -> dict:
    import numpy as np
    import scipy

    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "blas": blas_context(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
    }


def end_to_end(tally, import_s: list) -> dict:
    if not tally.mse or not tally.tasks:
        raise RuntimeError("nothing to measure: " + "; ".join(tally.problems))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (statistics.median(import_s) + statistics.median(tally.setup_s), "s"),
        "run_s": (statistics.median(tally.run_s), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "task_ok_frac": (tally.tasks_ok / tally.tasks, "fraction"),
        "mse_ratio": (tally.mse_ratio(), "ratio"),
        "within_mass": (tally.within_mass(), "fraction"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def blas_scaling(args, run_s: float) -> dict:
    """Re-run the workload in a child limited to one BLAS thread."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
    child = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                           timeout=900, check=False)
    if child.returncode != 0:
        return {"error": f"child exited with {child.returncode}"}
    one = json.loads(child.stdout.strip().splitlines()[-1])["metrics"]["run_s"]["value"]
    return {"run_s_1_thread": one, "run_s": run_s, "ratio": one / run_s}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "nlvar" / "__init__.py").is_file():
        print(f"error: no nlvar sources under {ROOT / 'src'}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "src"))

    started = time.perf_counter()
    import nlvar  # noqa: F401  (imports numpy and scipy too)
    import_s = [time.perf_counter() - started]
    if Path(nlvar.__file__).resolve().parent != ROOT / "src" / "nlvar":
        print(f"error: imported nlvar from {nlvar.__file__}, not this checkout",
              file=sys.stderr)
        return 2
    import_s += child_import_s(IMPORT_CHILDREN)

    from tracing import LAYER_TIMES, TraceError, Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    tracer = Tracer() if args.trace else None
    try:
        if tracer is not None:
            tracer.install()
        tally = workload.run(args.seed, args.seconds, workdir, tracer)
        import_s += child_import_s(IMPORT_CHILDREN)
        if tracer is not None:
            tracer.uninstall()
            if args.spans:
                tracer.write_spans(args.spans)
            if tracer.broken:
                raise TraceError(tracer.broken[0])
            metrics = tracer.layer_metrics()
            metrics["trace.run_s"] = {"value": statistics.median(tally.run_s), "unit": "s"}
            if metrics[workload.busy]["value"] == 0:
                raise TraceError(f"{workload.busy} recorded no calls on {args.workload}")
        else:
            metrics = end_to_end(tally, import_s)
    except TraceError as exc:
        print(f"error: broken trace: {exc}", file=sys.stderr)
        return 1
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass

    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "context": context(args.seed),
        "import_s": import_s,
        "setup_s": tally.setup_s,
        "run_s": timing(tally.run_s),
        "predict_call_ms": timing(tally.call_ms) if tally.call_ms else None,
        # predict only: batch rows/s and one-row p50/p90 of each pass
        "served": tally.served,
        "served_median": {key: statistics.median(s[key] for s in tally.served)
                          for key in ("rows_per_s", "p50", "p90")} if tally.served else None,
        "tasks": {"ok": tally.tasks_ok, "checked": tally.tasks},
        "problems": tally.problems,
        "units": tally.units,
    }
    if args.trace:
        shares = {name: metrics[name]["value"] / sum(tally.run_s) for name in LAYER_TIMES}
        record["layer_share_of_run"] = shares
        record["largest_layer"] = max(shares, key=shares.get)
    if args.blas_scaling:
        record["blas_scaling"] = blas_scaling(args, statistics.median(tally.run_s))
    print(json.dumps(record, default=float))
    print(json.dumps({
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
