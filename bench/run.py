"""wmmd benchmark: time one workload end to end, check every output.

Usage, from the root of a checkout:

    python3 bench/run.py --workload {ckmeans,rates,exact} --seed N --seconds S --trace {0,1}

The run imports wmmd from ``src/`` of the checkout, builds the workload's
inputs from the seed, and repeats whole rounds of the workload's operations
until S seconds of timed rounds have passed.  Every output of every round is
checked against an independent reference.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the
calls into each wmmd module are wrapped and the per-layer metrics are printed
instead.  The result, and for a traced run the per-layer figures, are also
written under ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_REPEATS = 3
# The workloads' BLAS calls have inner dimension <= 5, where a second thread
# buys nothing measurable and adds scheduling noise on a shared machine.
BLAS_THREADS = 1


def pin_blas_threads():
    """Fix the BLAS pool size; must run before numpy is first imported."""
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the BLAS thread count was fixed")
    n = min(BLAS_THREADS, len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(n)
    return n


def blas_info():
    """(library, version, threads read back from the loaded OpenBLAS)."""
    import ctypes

    import numpy as np

    cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps") as f:
        libs = sorted({ln.split()[-1] for ln in f if "openblas" in ln.lower() and ln.rstrip().endswith(".so")})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.argtypes, fn.restype = [], ctypes.c_int
                threads = int(fn())
                break
    return cfg.get("name"), cfg.get("version"), threads


def import_wmmd():
    """Import wmmd from this checkout's src/, never from anywhere else."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "wmmd", "__init__.py")):
        raise SystemExit(f"E: no wmmd sources under {src}")
    sys.path.insert(0, src)
    import wmmd
    import wmmd.cli
    import wmmd.lab

    if not os.path.abspath(wmmd.__file__).startswith(src + os.sep):
        raise SystemExit(f"E: wmmd was imported from {wmmd.__file__}, not {src}")
    return wmmd


def time_import():
    """Seconds to import wmmd in a fresh interpreter with this environment."""
    code = (
        "import sys, time; t = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
        "import wmmd, wmmd.cli, wmmd.lab; print(time.perf_counter() - t)"
    )
    done = subprocess.run([sys.executable, "-c", code, os.path.join(ROOT, "src")],
                          capture_output=True, text=True, check=True, timeout=120)
    return float(done.stdout)


def run_round(ops, problems):
    """One timed pass over the operations; returns latencies and failures."""
    outs, lat, failed = {}, [], 0
    for op in ops:
        t0 = time.perf_counter()
        try:
            outs[op.name] = op.run(outs)
        except Exception as e:  # one failed op must not end the run
            failed += 1
            problems.setdefault(op.name, f"raised {type(e).__name__}: {e}")
            continue
        lat.append((op.name, time.perf_counter() - t0))
    return outs, lat, failed


def check_round(ops, outs, problems):
    """Check every output of a round; returns the number rejected."""
    rejected = 0
    for op in ops:
        if op.name not in outs:
            continue
        found = op.check(outs[op.name], outs)
        if found:
            rejected += 1
            problems.setdefault(op.name, "; ".join(found))
    return rejected


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=["ckmeans", "rates", "exact"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    threads = pin_blas_threads()
    wmmd = import_wmmd()
    sys.path.insert(0, HERE)
    import tracer as tracing
    import workloads

    out_dir = os.path.join(HERE, "out")
    work = os.path.join(out_dir, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        # Set-up, repeated: the import (timed in a fresh interpreter, since this
        # one has it cached), input generation and one untimed warm-up op.
        build = workloads.WORKLOADS[args.workload]
        setups = []
        for _ in range(SETUP_REPEATS):
            import_s = time_import()
            t1 = time.perf_counter()
            ops = build(wmmd, args.seed, work)
            ops[0].run({})
            setups.append(import_s + time.perf_counter() - t1)

        tr = None
        if args.trace:
            tr = tracing.Tracer()
            tracing.install(tr, wmmd)

        problems = {}
        rounds, latencies = [], []
        attempted = failed = 0
        timed = 0.0
        peak_rss_mib = None
        while timed < args.seconds:
            if tr:
                tr.active = True
            c0, w0 = time.process_time(), time.perf_counter()
            outs, lat, n_failed = run_round(ops, problems)
            wall, cpu = time.perf_counter() - w0, time.process_time() - c0
            if tr:
                tr.active = False
            if peak_rss_mib is None:  # before any check allocates
                peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            timed += wall
            rounds.append((wall, cpu))
            latencies += lat
            attempted += len(ops)
            failed += n_failed + check_round(ops, outs, problems)
        rejected = sum(1 for v in problems.values() if not v.startswith("raised "))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    blas_name, blas_version, blas_threads = blas_info()
    for name, msg in sorted(problems.items()):
        print(f"{'FAILED' if msg.startswith('raised ') else 'WRONG'} {name}: {msg}", file=sys.stderr)

    n_rounds = len(rounds)
    if tr:
        tr.restore()
        run_mean = sum(w for w, _ in rounds) / n_rounds
        values = {k: v / n_rounds for k, v in tr.self_s.items()}
        values.update({k: v // n_rounds for k, v in tr.counts.items()})
        attributed = sum(tr.self_s.values()) / n_rounds
        values["trace.run_s"] = run_mean
        values["trace.unattributed_s"] = run_mean - attributed
        metrics = {}
        for m in per_layer_metrics():
            metrics[m["name"]] = {"value": values.get(m["name"], 0), "unit": m["unit"]}
    else:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "run_s": (statistics.median(w for w, _ in rounds), "s"),
            "op_p50_ms": (1e3 * statistics.median(dt for _, dt in latencies), "ms"),
            "cpu_s": (statistics.median(c for _, c in rounds), "s"),
            "peak_rss_mib": (peak_rss_mib, "MiB"),
        }
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}

    result = {"correct": rejected == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "rounds": n_rounds, "ops_per_round": len(ops), "setup_runs_s": setups,
        "round_wall_s": [w for w, _ in rounds], "round_cpu_s": [c for _, c in rounds],
        "blas": blas_name, "blas_version": blas_version, "blas_threads_requested": threads,
        "blas_threads": blas_threads, "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0], "numpy": sys.modules["numpy"].__version__,
        "scipy": sys.modules["scipy"].__version__, "problems": problems,
        "op_median_ms": {op.name: 1e3 * statistics.median(dt for name, dt in latencies if name == op.name)
                         for op in ops if any(name == op.name for name, _ in latencies)},
    }
    stem = f"{args.workload}-s{args.seed}-t{args.trace}"
    with open(os.path.join(out_dir, f"result-{stem}.json"), "w") as f:
        json.dump({**result, "info": info}, f, indent=1)
        f.write("\n")
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


def per_layer_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)["per_layer"]


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
