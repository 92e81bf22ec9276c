"""Command-line front end: deterministic experiment dispatch and I/O.

Exit codes: 0 on success/pass, 2 when an experiment detects a bound
violation, 1 on usage or I/O errors.  All error messages go to stderr with
the machine-parseable prefix "E:".
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import sys

import numpy as np

from .measures import DiscreteMeasure, GaussianMixture, RegularizerSpec, load_dataset, stream_rng
from .kernels import KernelSpec, kernel_from_json, sphere_directions
from .discrepancy import mmd, mmd_discrete, mmd_sliced, mmd_rate
from .transport import w1d, w_exact, w_rate, wasserstein
from .sketch import (
    draw_features,
    sketch_samples,
    merge,
    load_sketch,
    save_sketch,
)
from .tasks import TaskSpec, task_metric_probe, task_constant, decode_diracs, excess_risk_report
from . import lab
from .reporting import Report, emit_report

__all__ = ["main", "dispatch"]


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Reports argument errors as UsageError, so they end as one E: line."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


class BoundViolation(Exception):
    pass


def _openblas_fns(name):
    """OpenBLAS's `name` function from every OpenBLAS mapped into this process.

    numpy and scipy may each load their own copy, and the environment
    variables are read only when a copy loads, so a running process is capped
    through these functions instead.
    """
    try:
        with open("/proc/self/maps") as f:
            paths = sorted(
                {ln.split()[-1] for ln in f if "openblas" in ln.lower() and ln.rstrip().endswith(".so")}
            )
    except OSError:
        return []
    fns = []
    for path in paths:
        lib = ctypes.CDLL(path)
        for sym in (f"scipy_openblas_{name}64_", f"scipy_openblas_{name}", f"openblas_{name}64_", f"openblas_{name}"):
            if hasattr(lib, sym):
                fns.append(getattr(lib, sym))
                break
    return fns


def blas_threads():
    """Thread count of every loaded OpenBLAS, read back from the library."""
    counts = []
    for fn in _openblas_fns("get_num_threads"):
        fn.argtypes, fn.restype = [], ctypes.c_int
        counts.append(int(fn()))
    return counts


def set_blas_threads(n):
    """Set the thread count of every loaded OpenBLAS to n."""
    for fn in _openblas_fns("set_num_threads"):
        fn.argtypes, fn.restype = [ctypes.c_int], None
        fn(int(n))


def _parse_kernel(text, d):
    """Kernel from JSON, or from a bare family name with default parameters in dimension d.

    No text means the Gaussian kernel with sigma 1.
    """
    text = (text or "gaussian").strip()
    if text.startswith("{"):
        return kernel_from_json(text)
    if text == "gaussian":
        return KernelSpec.gaussian(1.0, d)
    if text == "laplacian":
        return KernelSpec.laplacian(1.0, d)
    if text == "matern":
        return KernelSpec.matern(0.5, 1.0, d)
    raise UsageError(f"cannot parse kernel {text!r}")


def _empirical(path):
    X = load_dataset(path)
    return DiscreteMeasure(X, np.ones(X.shape[0]))


def _decode_domain(s, center_text, radius):
    """Centre and radius of the ball `decode` searches.

    Defaults come from the data box [lo, hi] stored in the sketch: its midpoint
    and 1.5 times its half diagonal, the margin `excess_risk_report` uses.
    Sketch files without the box default to the origin and radius 10.
    """
    d = s.feature_map.d
    if center_text is not None:
        try:
            center = np.array([float(t) for t in center_text.split(",")])
        except ValueError:
            raise UsageError(f"--center {center_text!r} is not a comma-separated list of numbers")
        if center.shape != (d,) or not np.all(np.isfinite(center)):
            raise UsageError(f"--center needs {d} finite coordinates")
    elif s.lo is not None:
        center = 0.5 * (s.lo + s.hi)
    else:
        center = np.zeros(d)
    if radius is None:
        radius = 1.5 * 0.5 * float(np.linalg.norm(s.hi - s.lo)) if s.lo is not None else 10.0
        if radius == 0:
            raise UsageError("the sketched rows are one point; give --radius")
    elif not (radius > 0 and np.isfinite(radius)):
        raise UsageError("--radius must be positive and finite")
    return center, radius


def _build_parser():
    ap = _Parser(prog="wmmd", description=__doc__)
    ap.add_argument(
        "--threads",
        type=int,
        default=None,
        help="cap BLAS worker threads (falls back to the WMMD_THREADS env var)",
    )
    sub = ap.add_subparsers(dest="command")

    p = sub.add_parser("sketch", help="sketch a dataset into m generalized moments")
    p.add_argument("input")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--kernel", default=None)

    p = sub.add_parser("merge", help="merge sketches sharing one feature map")
    p.add_argument("inputs", nargs="+")
    p.add_argument("-o", "--output", required=True)

    p = sub.add_parser("decode", help="decode a sketch into K centroids")
    p.add_argument("input")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--center", default=None, help="domain centre x0,x1,... (default: middle of the data box)")
    p.add_argument("--radius", type=float, default=None)

    p = sub.add_parser("mmd", help="MMD between two datasets")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--kernel", required=True)

    p = sub.add_parser("wass", help="Wasserstein distance between two datasets")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--p", type=float, default=2.0)

    p = sub.add_parser("ckmeans", help="end-to-end compressive K-means report")
    p.add_argument("input")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--m", type=int, default=1024)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--kernel", default=None)

    p = sub.add_parser("lab", help="bound-verification experiments")
    p.add_argument(
        "experiment",
        choices=[
            "counterexample",
            "rates",
            "fourier-bound",
            "smoothing",
            "dominance",
            "sliced",
            "embeddability",
            "learnability",
        ],
    )
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--k", type=int, default=4)
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--p", type=float, default=2.0)
    p.add_argument("--kernel", default=None)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--which", default="mmd", choices=["mmd", "w"])
    return ap


# ---------------------------------------------------------------------------
# Lab experiment drivers (modest default scales; flags can raise them).


def _trials(args, default):
    """`--trials`, or the experiment's default when it is not given."""
    if args.trials is None:
        return default
    if args.trials < 1:
        raise UsageError("--trials must be >= 1")
    return args.trials


def _lab_counterexample(args):
    k = args.k
    kernel = _parse_kernel(args.kernel, 1)
    cons = lab.BinomialDiracs(k=k, x0=(0.0,), radius=100.0, direction=(1.0,))
    eps_grid = [2.0**-j for j in range(1, 7)]
    rep = Report("counterexample", ["eps", "mmd", "w1", "ratio_delta1"])
    rows = []
    for eps in eps_grid:
        mu, nu = lab.dirac_pair(cons, eps)
        m = mmd_discrete(kernel, mu, nu)
        w = w1d(1, mu, nu)
        rep.add_row(eps, m, w, w / m)
        rows.append((eps, m, w))
    fit_m = lab.scaling_exponent([(e, m) for e, m, _ in rows])
    fit_w = lab.scaling_exponent([(e, w) for e, _, w in rows])
    ratios = [w / m for _, m, w in rows]
    growth = ratios[0] / ratios[-1]  # eps decreasing along the grid
    ok = (
        abs(fit_m.slope - k / 2.0) <= 0.05
        and abs(fit_w.slope - 1.0) <= 1e-6
        and growth >= 10.0
    )
    rep.summary = {
        "experiment": "counterexample",
        "seed": args.seed,
        "k": k,
        "slope_mmd": fit_m.slope,
        "slope_w": fit_w.slope,
        "divergence_ratio": growth,
        "pass": bool(ok),
    }
    return rep


def _lab_rates(args):
    trials = _trials(args, 10)
    rep = Report("rates", ["n", "mean_value"])
    if args.which == "mmd":
        pi = GaussianMixture([1.0], np.zeros((1, args.d)), [1.0])
        kernel = KernelSpec.gaussian(1.0, args.d)
        fit = mmd_rate(pi, kernel, [2**j for j in range(6, 12)], trials, args.seed)
        target, tol = -0.5, 0.05
    else:
        def sampler(n, rng):
            return rng.uniform(0.0, 1.0, size=(n, args.d))

        grid = [2**j for j in range(6, 12)] if args.d == 1 else [2**j for j in range(5, 11)]
        fit = w_rate(sampler, 1, grid, trials, args.seed)
        target, tol = -1.0 / args.d, 0.07
    for lx, ly in fit.grid:
        rep.add_row(float(np.exp(lx)), float(np.exp(ly)))
    rep.summary = {
        "experiment": "rates",
        "seed": args.seed,
        "which": args.which,
        "d": args.d,
        "slope": fit.slope,
        "target": target,
        "pass": bool(abs(fit.slope - target) <= tol),
    }
    return rep


def _lab_fourier_bound(args):
    trials = _trials(args, 20)
    kernel = _parse_kernel(args.kernel or "matern", 1)
    rep = Report("fourier-bound", ["index", "w2", "rhs"])
    ok = True
    for t in range(trials):
        rng = stream_rng(args.seed, t)
        mu, nu = _same_mean_gmm_pair(rng)
        try:
            w2, rhs = lab.fourier_bound_1d(kernel, mu, nu)
        except AssertionError:
            ok = False
            w2, rhs = float("nan"), float("nan")
        rep.add_row(t, w2, rhs)
    rep.summary = {
        "experiment": "fourier-bound",
        "seed": args.seed,
        "trials": trials,
        "pass": bool(ok),
    }
    return rep


def _same_mean_gmm_pair(rng, sigma_min=0.5, K=2):
    def one():
        w = rng.uniform(0.2, 1.0, K)
        w /= w.sum()
        c = rng.uniform(-2.0, 2.0, K)
        c -= w @ c  # center so the mean is exactly zero
        s = rng.uniform(sigma_min, 2.0, K)
        return GaussianMixture(w, c[:, None], s)

    return one(), one()


def _lab_smoothing(args):
    s_mom, M, p = 4, 4.0, 1
    d = 3
    rng = stream_rng(args.seed, 0)
    pts1 = rng.uniform(-1, 1, size=(8, d)) / np.sqrt(d)
    pts2 = rng.uniform(-1, 1, size=(8, d)) / np.sqrt(d)
    mu = DiscreteMeasure(pts1, np.full(8, 1 / 8))
    nu = DiscreteMeasure(pts2, np.full(8, 1 / 8))
    rep = Report("smoothing", ["sigma", "w_p", "rhs", "rhs_error"])
    oks, errs, sigmas = [], [], [0.1, 0.2, 0.4]
    for sg in sigmas:
        sub = lab.smoothing_bound(RegularizerSpec(sg), p, mu, nu, s_mom, M)
        vals = {row[0]: row[1] for row in sub.rows}
        rep.add_row(sg, vals["w_p"], vals["rhs"], vals["rhs_error"])
        oks.append(sub.summary["pass"])
        errs.append(vals["rhs_error"])
    lin = all(
        abs(errs[i] / errs[0] - sigmas[i] / sigmas[0]) <= 0.05 * sigmas[i] / sigmas[0]
        for i in range(len(sigmas))
    )
    rep.summary = {
        "experiment": "smoothing",
        "seed": args.seed,
        "error_linear_in_sigma": bool(lin),
        "pass": bool(all(oks) and lin),
    }
    return rep


def _lab_dominance(args):
    trials = _trials(args, 200)
    rng = stream_rng(args.seed, 0)
    pairs = []
    for _ in range(trials):
        n1, n2 = rng.integers(2, 6, size=2)
        pairs.append(
            (
                DiscreteMeasure(rng.normal(size=(n1, 2)), rng.uniform(0.1, 1, n1)),
                DiscreteMeasure(rng.normal(size=(n2, 2)), rng.uniform(0.1, 1, n2)),
            )
        )
    return lab.mmd_dominance_check(_parse_kernel(args.kernel, 2), pairs, p=args.p)


def _lab_sliced(args):
    trials = _trials(args, 50)
    rng = stream_rng(args.seed, 0)
    d = max(args.d, 2)
    theta = sphere_directions(32, d, seed=args.seed)
    base = KernelSpec.gaussian(1.0, 1)
    ker_sliced = KernelSpec.sliced(base, theta)
    rep = Report("sliced", ["index", "direct", "sliced", "gap"])
    worst = 0.0
    for t in range(trials):
        n1, n2 = rng.integers(2, 6, size=2)
        mu = DiscreteMeasure(rng.normal(size=(n1, d)), rng.uniform(0.1, 1, n1))
        nu = DiscreteMeasure(rng.normal(size=(n2, d)), rng.uniform(0.1, 1, n2))
        direct = mmd_discrete(ker_sliced, mu, nu)
        sliced = mmd_sliced(base, theta, mu, nu)
        gap = abs(direct - sliced)
        worst = max(worst, gap)
        rep.add_row(t, direct, sliced, gap)
    rep.summary = {
        "experiment": "sliced",
        "seed": args.seed,
        "worst_gap": worst,
        "pass": bool(worst <= 1e-10),
    }
    return rep


def _lab_embeddability(args):
    trials = _trials(args, 60)
    kernel = _parse_kernel(args.kernel or "matern", 1)

    def sampler(rng):
        return _same_mean_gmm_pair(rng)

    rng = stream_rng(args.seed, 0)
    return lab.embeddability_probe(sampler, kernel, 2, 0.5, trials, rng)


def _lab_learnability(args):
    trials = _trials(args, 40)
    rng = stream_rng(args.seed, 0)
    rep = Report("learnability", ["index", "task", "probe", "bound"])
    ok = True
    for t in range(trials):
        n1, n2 = rng.integers(2, 6, size=2)
        Z1 = rng.normal(size=(n1, 3))
        Z2 = rng.normal(size=(n2, 3))
        mu = DiscreteMeasure(Z1, rng.uniform(0.1, 1, n1))
        nu = DiscreteMeasure(Z2, rng.uniform(0.1, 1, n2))
        task = TaskSpec("linreg", R=2.0)
        probe = task_metric_probe(task, mu, nu, 24, rng)
        wv, _ = w_exact(2, mu, nu)
        bound = task_constant(task) * wv
        if probe > bound + 1e-9:
            ok = False
        rep.add_row(t, "linreg", probe, bound)
    rep.summary = {
        "experiment": "learnability",
        "seed": args.seed,
        "pass": bool(ok),
    }
    return rep


_LAB_DRIVERS = {
    "counterexample": _lab_counterexample,
    "rates": _lab_rates,
    "fourier-bound": _lab_fourier_bound,
    "smoothing": _lab_smoothing,
    "dominance": _lab_dominance,
    "sliced": _lab_sliced,
    "embeddability": _lab_embeddability,
    "learnability": _lab_learnability,
}


def dispatch(argv):
    """Run one command; returns the process exit code."""
    try:
        args = _build_parser().parse_args(argv)
        if args.command is None:
            raise UsageError("no command given (see wmmd -h)")
    except UsageError as e:
        print(f"E: {e}", file=sys.stderr)
        return 1
    except SystemExit as e:  # -h prints help and exits 0
        return 1 if e.code not in (0, None) else 0
    threads = args.threads
    if threads is None and os.environ.get("WMMD_THREADS"):
        try:
            threads = int(os.environ["WMMD_THREADS"])
        except ValueError:
            print("E: WMMD_THREADS is not an integer", file=sys.stderr)
            return 1
    if threads is not None:
        if threads < 1:
            print("E: --threads must be >= 1", file=sys.stderr)
            return 1
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ[var] = str(threads)
        set_blas_threads(threads)
    try:
        return _run(args)
    except (UsageError, OSError, ValueError, TypeError, RuntimeError) as e:
        print(f"E: {e}", file=sys.stderr)
        return 1
    except BoundViolation as e:
        print(f"E: {e}", file=sys.stderr)
        return 2


def _run(args):
    cmd = args.command
    if cmd == "sketch":
        X = load_dataset(args.input)
        F = draw_features(_parse_kernel(args.kernel, X.shape[1]), args.m, args.seed)
        s = sketch_samples(F, X)
        save_sketch(s, args.output)
        return 0
    if cmd == "merge":
        sketches = [load_sketch(p) for p in args.inputs]
        save_sketch(merge(sketches), args.output)
        return 0
    if cmd == "decode":
        s = load_sketch(args.input)
        center, radius = _decode_domain(s, args.center, args.radius)
        dec = decode_diracs(s, args.k, (center, radius), {"seed": args.seed})
        with open(args.output, "w") as f:
            f.write(",".join([f"x{i}" for i in range(dec.d)] + ["weight"]) + "\n")
            for pt, w in zip(dec.points, dec.weights):
                f.write(",".join(f"{v:.17g}" for v in pt) + f",{w:.17g}\n")
        return 0
    if cmd == "mmd":
        mu, nu = _empirical(args.a), _empirical(args.b)
        print(f"{mmd(_parse_kernel(args.kernel, mu.d), mu, nu):.17g}")
        return 0
    if cmd == "wass":
        mu, nu = _empirical(args.a), _empirical(args.b)
        print(f"{wasserstein(args.p, mu, nu):.17g}")
        return 0
    if cmd == "ckmeans":
        X = load_dataset(args.input)
        opts = {"kernel": _parse_kernel(args.kernel, X.shape[1]), "m": args.m, "seed": args.seed}
        rep = excess_risk_report(X, TaskSpec("kmeans", K=args.k), opts)
        emit_report(rep, args.output)
        return 0 if rep.passed else 2
    if cmd == "lab":
        rep = _LAB_DRIVERS[args.experiment](args)
        out = args.output or f"wmmd-lab-{args.experiment}.csv"
        emit_report(rep, out)
        print(json.dumps(rep.summary, sort_keys=True, default=float))
        return 0 if rep.passed else 2
    raise UsageError(f"unknown command {cmd!r}")


def main():
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
