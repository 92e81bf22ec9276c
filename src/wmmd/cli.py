"""Command-line front end: parses arguments, calls wmmd and prints the result.

Exit codes: 0 on success/pass, 2 when an experiment detects a bound
violation, 1 on usage or I/O errors.  All error messages go to stderr with
the machine-parseable prefix "E:".
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .measures import DiscreteMeasure, _seed64, load_dataset
from .runtime import cap_threads
from .kernels import kernel_from_text
from .discrepancy import mmd
from .transport import wasserstein
from .sketch import (
    draw_features,
    sketch_samples,
    merge,
    load_sketch,
    save_sketch,
)
from .tasks import TaskSpec, decode_diracs
from . import lab

__all__ = ["main", "dispatch"]


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Reports argument errors as UsageError, so they end as one E: line."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _empirical(path):
    X = load_dataset(path)
    return DiscreteMeasure(X, np.ones(X.shape[0]))


def _decode_domain(s, center_text, radius):
    """Centre and radius of the ball `decode`'s ascent searches; the refinement
    keeps atoms in the ball's bounding box.

    Defaults come from the data box [lo, hi] stored in the sketch: its midpoint
    and 1.5 times its half diagonal, the margin `lab.excess_risk_report` uses.
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
        help="cap BLAS's threads, and those of the Gaussian MMD and sketch sums (by default one per CPU in the affinity mask), at N; N above the CPU count reads as the CPU count",
    )
    sub = ap.add_subparsers(dest="command")

    p = sub.add_parser("sketch", help="sketch a dataset into m generalized moments")
    p.add_argument("input")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--kernel", default="gaussian")

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
    p.add_argument("--kernel", default="gaussian")

    p = sub.add_parser("lab", help="bound-verification experiments")
    p.add_argument("experiment", choices=list(lab.EXPERIMENTS))
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--seed", type=int, default=0)
    # No defaults: each experiment's own are in lab.EXPERIMENTS.
    p.add_argument("--k", type=int)
    p.add_argument("--d", type=int)
    p.add_argument("--p", type=float)
    p.add_argument("--kernel")
    p.add_argument("--trials", type=int)
    p.add_argument("--which", choices=["mmd", "w"])
    return ap


def _lab_settings(args, defaults):
    """The experiment's settings: its defaults, overridden by the flags given."""
    names = {name for _, settings in lab.EXPERIMENTS.values() for name in settings}
    given = {name: getattr(args, name) for name in sorted(names) if getattr(args, name) is not None}
    unread = [f"--{name}" for name in given if name not in defaults]
    if unread:
        raise UsageError(f"lab {args.experiment} does not read {', '.join(unread)}")
    if given.get("trials", 1) < 1:
        raise UsageError("--trials must be >= 1")
    return {**defaults, **given}


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
    if args.threads is not None:
        if args.threads < 1:
            print("E: --threads must be >= 1", file=sys.stderr)
            return 1
        cap_threads(args.threads)
    try:
        return _run(args)
    except (UsageError, OSError, ValueError, TypeError, RuntimeError) as e:
        print(f"E: {e}", file=sys.stderr)
        return 1


def _run(args):
    cmd = args.command
    if cmd == "sketch":
        X = load_dataset(args.input)
        F = draw_features(kernel_from_text(args.kernel, X.shape[1]), args.m, args.seed)
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
        print(f"{mmd(kernel_from_text(args.kernel, mu.d), mu, nu):.17g}")
        return 0
    if cmd == "wass":
        mu, nu = _empirical(args.a), _empirical(args.b)
        print(f"{wasserstein(args.p, mu, nu):.17g}")
        return 0
    if cmd == "ckmeans":
        X = load_dataset(args.input)
        opts = {"kernel": kernel_from_text(args.kernel, X.shape[1]), "m": args.m, "seed": args.seed}
        rep = lab.excess_risk_report(X, TaskSpec("kmeans", K=args.k), opts)
        lab.emit_report(rep, args.output)
        return 0 if rep.passed else 2
    if cmd == "lab":
        run, defaults = lab.EXPERIMENTS[args.experiment]
        rep = run(_seed64(args.seed), **_lab_settings(args, defaults))
        out = args.output or f"wmmd-lab-{args.experiment}.csv"
        lab.emit_report(rep, out)
        print(json.dumps(rep.summary, sort_keys=True, default=float))
        return 0 if rep.passed else 2
    raise UsageError(f"unknown command {cmd!r}")


def main():
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
