"""The experiment layer: constructions and experiments probing Wasserstein <-> MMD controls.

Each experiment returns a Report whose pass/fail is derivable from its rows
alone; `emit_report` writes it as CSV plus a JSON summary sidecar.
Constants that the underlying bounds leave existential are treated as
empirical sup-ratios with a stability criterion; exponents are checked by
log-log slope fits (`scaling_exponent`), sampling rates among them
(`sampling_rate`, `mmd_rate`, `w_rate`).  `excess_risk_report` runs
compressive K-means end to end.  `EXPERIMENTS` holds the `wmmd lab`
experiments, each a function of a seed and the settings it reads.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .measures import DiscreteMeasure, GaussianMixture, RegularizerSpec, _tanh_sinh, sample, stream_rng
from .kernels import KernelSpec, kernel_from_text, sphere_directions
from .discrepancy import mmd, mmd_discrete, mmd_gaussian_kernel, mmd_sliced, mmd_spectral_1d
from .transport import w1d, w_exact, wasserstein, _dist_matrix
from .sketch import draw_features, sketch_distance, sketch_measure, sketch_samples
from .tasks import Hypothesis, TaskSpec, decode_diracs, lloyd, risk, task_constant, task_metric_probe

__all__ = [
    "SlopeFit",
    "DegenerateZero",
    "scaling_exponent",
    "sampling_rate",
    "mmd_rate",
    "w_rate",
    "Report",
    "emit_report",
    "BinomialDiracs",
    "binomial_construction",
    "dirac_pair",
    "disjoint_segment",
    "embeddability_probe",
    "fourier_bound_1d",
    "smoothing_bound",
    "mmd_dominance_check",
    "excess_risk_report",
    "EXPERIMENTS",
]


# ---------------------------------------------------------------------------
# Slope fits, sampling rates and reports.


class DegenerateZero(ValueError):
    """All measurements vanish; a log-log slope is undefined."""


@dataclass(frozen=True)
class SlopeFit:
    """Ordinary least squares fit of log(measurement) against log(scale)."""

    slope: float
    stderr: float
    r2: float
    grid: tuple  # the (scale, measurement) pairs as given: the fit is recomputable from them

    def __post_init__(self):
        assert self.stderr >= 0.0


def scaling_exponent(values):
    """Fit a power law y = c * x^slope through (scale, measurement) pairs.

    values: iterable of (x, y), both strictly positive, at least 4 pairs.
    Returns a SlopeFit with the OLS slope, its standard error and r^2.
    """
    pairs = [(float(x), float(y)) for x, y in values]
    if len(pairs) < 4:
        raise ValueError("need at least 4 (scale, measurement) pairs")
    if all(abs(y) <= 1e-300 for _, y in pairs):
        raise DegenerateZero("all measurements are zero")
    if any(x <= 0 or y <= 0 for x, y in pairs):
        raise ValueError("scales and measurements must be positive")
    lx = np.log([x for x, _ in pairs])
    ly = np.log([y for _, y in pairs])
    n = len(pairs)
    A = np.vstack([lx, np.ones(n)]).T
    coef, *_ = np.linalg.lstsq(A, ly, rcond=None)
    resid = ly - A @ coef
    sxx = np.sum((lx - lx.mean()) ** 2)
    dof = max(n - 2, 1)
    stderr = math.sqrt(float(resid @ resid) / dof / sxx) if sxx > 0 else 0.0
    syy = np.sum((ly - ly.mean()) ** 2)
    r2 = 1.0 - float(resid @ resid) / float(syy) if syy > 0 else 1.0
    return SlopeFit(slope=float(coef[0]), stderr=float(stderr), r2=float(r2), grid=tuple(pairs))


def sampling_rate(distance, n_grid, trials, seed):
    """scaling_exponent of the mean of distance(n, rng) over `trials` draws, against n.

    Trial t at grid point gi draws from stream_rng(seed, gi, t); the grid
    needs at least 5 sizes.
    """
    n_grid = [int(n) for n in n_grid]
    if len(n_grid) < 5:
        raise ValueError("n_grid needs at least 5 points")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    pairs = []
    for gi, n in enumerate(n_grid):
        acc = 0.0
        for t in range(trials):
            acc += distance(n, stream_rng(seed, gi, t))
        pairs.append((n, acc / trials))
    return scaling_exponent(pairs)


def mmd_rate(measure, kernel, n_grid, trials, seed):
    """Fitted slope of log E||pi - pi_n||_kappa against log n.

    The population-vs-empirical MMD is computed in closed form (Gaussian
    kernel), so the only randomness is the sample draw.
    """
    return sampling_rate(
        lambda n, rng: mmd_gaussian_kernel(kernel, measure, sample(measure, n, rng)), n_grid, trials, seed
    )


def _uniform(points):
    return DiscreteMeasure(points, np.full(points.shape[0], 1.0 / points.shape[0]))


def w_rate(measure, p, n_grid, trials, seed):
    """Fitted log-log slope of E W_p(pi, pi_n) against n.

    `measure` is a measure object or a callable (n, rng) -> points sampler.
    In 1-D the empirical measure is compared against a 64x oversampled
    reference draw (upward-biased stand-in for the population measure; the
    bias is negligible at this oversampling).  In higher dimension the
    population distance is estimated by the distance between two fresh
    same-size samples, which obeys the same n^(-1/d) law and keeps the exact
    assignment solver applicable.  A discrete `measure` is compared with its
    samples directly.  `wasserstein` picks the route.
    """
    draw = measure if callable(measure) else lambda n, rng: sample(measure, n, rng).points

    def distance(n, rng):
        emp = _uniform(draw(n, rng))
        if isinstance(measure, DiscreteMeasure):
            return wasserstein(p, measure, emp)
        return wasserstein(p, emp, _uniform(draw(64 * n if emp.d == 1 else n, rng)))

    return sampling_rate(distance, n_grid, trials, seed)


@dataclass
class Report:
    """Tabular experiment output plus a machine-readable summary."""

    name: str
    columns: list
    rows: list = field(default_factory=list)
    summary: dict = field(default_factory=dict)

    def add_row(self, *vals):
        if len(vals) != len(self.columns):
            raise ValueError("row width mismatch")
        self.rows.append(list(vals))

    @property
    def passed(self):
        return bool(self.summary.get("pass", True))


def emit_report(report, path):
    """Write the report as CSV, floats to 17 significant digits, plus a `<path>.summary.json` sidecar."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(report.columns)
        w.writerows([f"{v:.17g}" if isinstance(v, float) else str(v) for v in row] for row in report.rows)
    summary = dict(report.summary)
    summary.setdefault("experiment", report.name)
    summary.setdefault("version", f"wmmd-{__version__}")
    with open(str(path) + ".summary.json", "w") as f:
        json.dump(summary, f, indent=2, sort_keys=True, default=float)
        f.write("\n")


# ---------------------------------------------------------------------------
# Binomial Dirac construction: signed combination with vanishing moments.


def binomial_construction(k):
    """Integer nodes alpha_i = i and signed weights beta_i = (-1)^(i-1) C(k, i-1).

    The k+1 weights alternate binomial coefficients, so sum_i beta_i alpha_i^s
    vanishes exactly for s = 0..k-1 (finite-difference identity); verified in
    exact integer arithmetic before returning.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    alpha = [i for i in range(1, k + 2)]
    beta = [(-1) ** i * math.comb(k, i) for i in range(k + 1)]
    for s in range(k):
        assert sum(b * a**s for a, b in zip(alpha, beta)) == 0
    return alpha, beta


@dataclass(frozen=True)
class BinomialDiracs:
    """Parameters of the two-measure Dirac construction along a direction."""

    k: int
    x0: tuple
    radius: float
    direction: tuple

    def __post_init__(self):
        if self.k < 1 or self.radius <= 0:
            raise ValueError("need k >= 1, radius > 0")


def dirac_pair(construction, eps):
    """Split the signed combination into a pair of probability measures.

    Atoms sit at x0 + eps * alpha_i * u; positive-beta atoms go to the first
    measure, negative to the second, both renormalized by the same mass rho.
    """
    k = construction.k
    alpha, beta = binomial_construction(k)
    x0 = np.asarray(construction.x0, dtype=float)
    u = np.asarray(construction.direction, dtype=float)
    amax = max(alpha)
    if not 0 < eps < construction.radius / (amax * np.linalg.norm(u)):
        raise ValueError("eps out of range for the stated radius")
    rho = sum(b for b in beta if b > 0)
    pos_pts = [x0 + eps * a * u for a, b in zip(alpha, beta) if b > 0]
    pos_w = [b / rho for b in beta if b > 0]
    neg_pts = [x0 + eps * a * u for a, b in zip(alpha, beta) if b < 0]
    neg_w = [-b / rho for b in beta if b < 0]
    return (
        DiscreteMeasure(np.array(pos_pts), np.array(pos_w)),
        DiscreteMeasure(np.array(neg_pts), np.array(neg_w)),
    )


def disjoint_segment(pi0, pi1, lam):
    """(pi_lam, pi'_lam) interpolation between two disjointly supported measures.

    pi_lam  = ((1+lam) pi0 + (1-lam) pi1) / 2,
    pi'_lam = ((1-lam) pi0 + (1+lam) pi1) / 2.
    The kernel embedding difference is exactly lam times the pi0/pi1 one.
    """
    if not 0.0 <= lam <= 1.0:
        raise ValueError("lambda must lie in [0, 1]")
    D = _dist_matrix(pi0.points, pi1.points)
    if D.min() < 1e-9:
        raise ValueError("supports must be disjoint")
    pts = np.vstack([pi0.points, pi1.points])
    w_a = np.concatenate([(1 + lam) * pi0.weights, (1 - lam) * pi1.weights]) / 2.0
    w_b = np.concatenate([(1 - lam) * pi0.weights, (1 + lam) * pi1.weights]) / 2.0
    keep_a = w_a > 0
    keep_b = w_b > 0
    return (
        DiscreteMeasure(pts[keep_a], w_a[keep_a]),
        DiscreteMeasure(pts[keep_b], w_b[keep_b]),
    )


# ---------------------------------------------------------------------------
# Experiments.


def embeddability_probe(model_sampler, kernel, p, delta, trials, rng):
    """Empirical sup of W_p / MMD^delta over model-set pairs.

    Draws `trials` pairs from model_sampler(rng) and reports the sup plus a
    stability flag (sup over all trials within 1.5x of the sup over the first
    half).
    """
    if trials < 10:
        raise ValueError("need at least 10 trials")
    pairs = [model_sampler(rng) for _ in range(trials)]
    rep = Report("embeddability", ["index", "w", "mmd", "ratio"])
    ratios = []
    ws = wasserstein(p, [mu for mu, _ in pairs], [nu for _, nu in pairs])
    for i, ((mu, nu), w) in enumerate(zip(pairs, ws)):
        m = mmd(kernel, mu, nu)
        ratio = w / m**delta if m > 0 else float("inf")
        rep.add_row(i, w, m, ratio)
        ratios.append(ratio)
    sup = float(np.max(ratios))
    half = max(np.max(ratios[: max(trials // 2, 1)]), 1e-300)
    stable = bool(sup / half < 1.5)
    rep.summary = {"experiment": "embeddability", "delta": delta, "sup": sup, "stable": stable, "pass": stable}
    return rep


def fourier_bound_1d(kernel, mu, nu):
    """Same-mean 1-D bound between two mixtures: (W_2, rhs), AssertionError if W_2 > rhs + 0.1%."""
    w2, rhs, holds = _fourier_sides(kernel, mu, nu)
    if not holds:
        raise AssertionError(f"bound violated: W2={w2} > rhs={rhs}")
    return w2, rhs


def _fourier_sides(kernel, mu, nu):
    """(W_2, rhs, whether W_2 <= rhs to 0.1%) of `fourier_bound_1d`.

    rhs = (2 pi)^(-1/4) * (int |mu_hat - nu_hat|^2 / (w^4 kappa0_hat(w)) dw)^(1/4)
          * MMD^(1/2).
    The integrand tends to a constant at 0 because matching means make the
    characteristic-function difference O(w^2); `_tanh_sinh` integrates from
    w = 1e-6, below which that difference cancels to round-off.
    """
    if mu.d != 1 or nu.d != 1 or kernel.d != 1:
        raise ValueError("1-D only")
    if not (isinstance(mu, GaussianMixture) and isinstance(nu, GaussianMixture)):
        raise ValueError("fourier_bound_1d takes two Gaussian mixtures")
    if abs(float(mu.mean()[0] - nu.mean()[0])) > 1e-9:
        raise ValueError("means must match")

    diff = lambda om: mu.char_fn(om[:, None]) - nu.char_fn(om[:, None])
    quotient = lambda om: np.abs(diff(om)) ** 2 / (om**4 * kernel.fourier_kappa0(om))
    total = 2.0 * _tanh_sinh(quotient, [1e-6, np.inf])  # even integrand
    mmd = mmd_spectral_1d(kernel, mu, nu)
    rhs = (2.0 * np.pi) ** (-0.25) * total**0.25 * np.sqrt(mmd)
    w2 = w1d(2, mu, nu)
    return w2, rhs, bool(w2 <= rhs * (1.0 + 1e-3))


def unit_ball_volume_literal(d):
    """V_d = pi^(d/2) * Gamma(d/2 + 1), as used by the smoothing constant."""
    return float(np.pi ** (d / 2) * math.gamma(d / 2 + 1))


def smoothing_constant(d, s, p):
    """C_{d,s,p} = 2^(1/p + 1 - 1/s) * V_d^((s-p)/((d+2s)p))."""
    return float(
        2.0 ** (1.0 / p + 1.0 - 1.0 / s)
        * unit_ball_volume_literal(d) ** ((s - p) / ((d + 2.0 * s) * p))
    )


def smoothing_bound(alpha, p, mu, nu, s, M):
    """Check the smoothing chain bound on a pair with bounded s-th moment.

    W_p(mu, nu) <= C_{d,s,p} (M + int ||z||^s alpha)^((2p+d)/((d+2s)p))
                   * MMD_{alpha*alpha}^(2(s-p)/((d+2s)p))  +  2 (int ||z||^p alpha)^(1/p)
    For the Gaussian regularizer the additive error term is also reported in
    its simplified 2*sigma*sqrt(d) form.
    """
    d = mu.d
    if mu.moment_s(s) > M + 1e-9 or nu.moment_s(s) > M + 1e-9:
        raise ValueError("moment precondition violated")
    kernel = KernelSpec.conv_root(alpha, d)
    mmd = mmd_gaussian_kernel(kernel, mu, nu)
    w = wasserstein(p, mu, nu)
    ms = alpha.moment_p(s, d)
    mp = alpha.moment_p(p, d)
    e_main = (2.0 * p + d) / ((d + 2.0 * s) * p)
    e_mmd = 2.0 * (s - p) / ((d + 2.0 * s) * p)
    main = smoothing_constant(d, s, p) * (M + ms) ** e_main * mmd**e_mmd
    err = 2.0 * mp ** (1.0 / p)
    err_rbf = 2.0 * alpha.sigma * np.sqrt(d)
    rhs = main + err
    rep = Report("smoothing-bound", ["quantity", "value"])
    rep.add_row("w_p", w)
    rep.add_row("mmd", mmd)
    rep.add_row("rhs_main", main)
    rep.add_row("rhs_error", err)
    rep.add_row("rhs_error_rbf", err_rbf)
    rep.add_row("rhs", rhs)
    rep.summary = {
        "experiment": "smoothing-bound",
        "sigma": alpha.sigma,
        "w_p": w,
        "rhs": rhs,
        "margin": rhs - w,
        "pass": bool(w <= rhs * (1.0 + 1e-9)),
    }
    return rep


def mmd_dominance_check(kernel, pairs, p=2):
    """MMD <= C * W_p with the curvature constant C, over explicit pairs.

    Also checks the pointwise condition
    kappa(x,x) + kappa(y,y) - 2 kappa(x,y) <= C^2 ||x - y||^2 on a grid.
    """
    C = kernel.hessian_constant()
    rep = Report("mmd-dominance", ["index", "mmd", "w", "bound", "ok"])
    worst = -np.inf
    pairs = list(pairs)
    ws = wasserstein(p, [mu for mu, _ in pairs], [nu for _, nu in pairs])
    for i, ((mu, nu), w) in enumerate(zip(pairs, ws)):
        m = mmd(kernel, mu, nu)
        bound = C * w
        ok = m <= bound + 1e-9
        worst = max(worst, m - bound)
        rep.add_row(i, m, w, bound, ok)
    zs = np.linspace(-4.0, 4.0, 81)
    Z = np.zeros((1 + zs.size, kernel.d))  # the origin, then the grid along the first axis
    Z[1:, 0] = zs
    g = kernel.gram(Z[:1], Z)[0]  # kappa0(0), then kappa0 on the grid
    grid_ok = not np.any(2.0 * (g[0] - g[1:]) > C**2 * zs**2 + 1e-9)
    rep.summary = {
        "experiment": "mmd-dominance",
        "constant": float(C),
        "worst_margin": float(worst),
        "grid_condition": bool(grid_ok),
        "pass": bool(worst <= 1e-9 and grid_ok),
    }
    return rep


def excess_risk_report(pi_samples, task, sketch_opts):
    """End-to-end compressive K-means: sketch, decode, compare against Lloyd.

    pi_samples: n x d training array.  task: a kmeans TaskSpec.  sketch_opts:
    dict with exactly the keys kernel, m and seed.  The decoder's ascent
    searches the ball around the data mean of 1.5 times the largest distance
    from it; Lloyd takes the best of 5 runs.  Reports both risks on the
    training measure, the sketch distance between the decoded measure's
    sketch and the data sketch, and the risk ratio, which passes at <= 1.2.
    """
    if task.variant != "kmeans":
        raise ValueError("excess_risk_report supports the kmeans task")
    given, keys = set(sketch_opts), {"kernel", "m", "seed"}
    if given != keys:
        raise ValueError(f"sketch_opts: missing {sorted(keys - given)}, unknown {sorted(given - keys)}")
    X = np.atleast_2d(np.asarray(pi_samples, dtype=float))
    n, d = X.shape
    emp = DiscreteMeasure(X, np.full(n, 1.0 / n))
    seed = int(sketch_opts["seed"])
    F = draw_features(sketch_opts["kernel"], int(sketch_opts["m"]), seed)
    s = sketch_samples(F, X)
    center = X.mean(axis=0)
    radius = float(1.5 * np.max(np.linalg.norm(X - center, axis=1)))
    dec = decode_diracs(s, task.bound, (center, radius), {"seed": seed})
    h_sketch = Hypothesis("kmeans", dec.points)
    rng = stream_rng(seed, 0x11)
    h_lloyd = lloyd(emp, task.bound, 5, rng)
    r_sketch = risk(task, emp, h_sketch)
    r_lloyd = risk(task, emp, h_lloyd)
    dist = sketch_distance(sketch_measure(F, dec), s)
    rep = Report("compressive-kmeans", ["quantity", "value"])
    rep.add_row("risk_sketch", r_sketch)
    rep.add_row("risk_lloyd", r_lloyd)
    rep.add_row("sketch_residual", dist)
    ratio = r_sketch / r_lloyd if r_lloyd > 0 else float("inf") if r_sketch > 0 else 1.0
    rep.add_row("ratio", ratio)
    rep.summary = {
        "experiment": "compressive-kmeans",
        "seed": seed,
        "risk_sketch": r_sketch,
        "risk_lloyd": r_lloyd,
        "sketch_residual": dist,
        "ratio": ratio,
        "pass": bool(ratio <= 1.2),
    }
    return rep


# ---------------------------------------------------------------------------
# The `wmmd lab` experiments, at modest default scales.


def _same_mean_gmm_pair(rng, sigma_min=0.5, K=2):
    def one():
        w = rng.uniform(0.2, 1.0, K)
        w /= w.sum()
        c = rng.uniform(-2.0, 2.0, K)
        c -= w @ c  # center so the mean is exactly zero
        s = rng.uniform(sigma_min, 2.0, K)
        return GaussianMixture(w, c[:, None], s)

    return one(), one()


def _random_pair(rng, d):
    """Two discrete measures of 2-5 N(0, I_d) atoms with U(0.1, 1) weights."""
    n1, n2 = rng.integers(2, 6, size=2)
    return (
        DiscreteMeasure(rng.normal(size=(n1, d)), rng.uniform(0.1, 1, n1)),
        DiscreteMeasure(rng.normal(size=(n2, d)), rng.uniform(0.1, 1, n2)),
    )


def counterexample(seed, k, kernel):
    """MMD and W_1 along the binomial Dirac path; W/MMD grows as eps shrinks."""
    kernel = kernel_from_text(kernel, 1)
    cons = BinomialDiracs(k=k, x0=(0.0,), radius=100.0, direction=(1.0,))
    rep = Report("counterexample", ["eps", "mmd", "w1", "ratio_delta1"])
    k0 = kernel.gram(np.zeros((1, 1)), np.zeros((1, 1)))[0, 0]
    for eps in [2.0**-j for j in range(1, 7)]:
        mu, nu = dirac_pair(cons, eps)
        m = mmd_discrete(kernel, mu, nu)
        # The double sum's round-off is about (atoms) * eps_mach * 2 kappa0(0); below it is no signal.
        if not m**2 > (mu.n + nu.n) * np.finfo(float).eps * 2.0 * k0:
            raise RuntimeError(f"the MMD double sum reads {m} at eps = {eps:g}: k = {k} cancels below round-off")
        w = w1d(1, mu, nu)
        rep.add_row(eps, m, w, w / m)
    fit_m = scaling_exponent([(eps, m) for eps, m, _, _ in rep.rows])
    fit_w = scaling_exponent([(eps, w) for eps, _, w, _ in rep.rows])
    growth = rep.rows[-1][3] / rep.rows[0][3]  # eps decreasing along the grid
    ok = abs(fit_m.slope - k / 2.0) <= 0.05 and abs(fit_w.slope - 1.0) <= 1e-6 and growth >= 10.0
    rep.summary = {
        "experiment": "counterexample",
        "seed": seed,
        "k": k,
        "slope_mmd": fit_m.slope,
        "slope_w": fit_w.slope,
        "divergence_ratio": growth,
        "pass": bool(ok),
    }
    return rep


def rates(seed, trials, which, d):
    """Sampling-rate slope of the Gaussian MMD (target -1/2) or of W_1 (target -1/d)."""
    rep = Report("rates", ["n", "mean_value"])
    if which == "mmd":
        pi = GaussianMixture([1.0], np.zeros((1, d)), [1.0])
        fit = mmd_rate(pi, KernelSpec.gaussian(1.0, d), [2**j for j in range(6, 12)], trials, seed)
        target, tol = -0.5, 0.05
    else:
        grid = [2**j for j in range(6, 12)] if d == 1 else [2**j for j in range(5, 11)]
        fit = w_rate(lambda n, rng: rng.uniform(0.0, 1.0, size=(n, d)), 1, grid, trials, seed)
        target, tol = -1.0 / d, 0.07
    for n, value in fit.grid:
        rep.add_row(n, value)
    rep.summary = {
        "experiment": "rates",
        "seed": seed,
        "which": which,
        "d": d,
        "slope": fit.slope,
        "target": target,
        "pass": bool(abs(fit.slope - target) <= tol),
    }
    return rep


def fourier_bound(seed, trials, kernel):
    """`fourier_bound_1d`'s two sides on same-mean two-component mixture pairs."""
    kernel = kernel_from_text(kernel, 1)
    rep = Report("fourier-bound", ["index", "w2", "rhs"])
    ok = True
    for t in range(trials):
        w2, rhs, holds = _fourier_sides(kernel, *_same_mean_gmm_pair(stream_rng(seed, t)))
        ok = ok and holds
        rep.add_row(t, w2, rhs)
    rep.summary = {"experiment": "fourier-bound", "seed": seed, "trials": trials, "pass": bool(ok)}
    return rep


def smoothing(seed):
    """`smoothing_bound` at three Gaussian widths; its error term must be linear in sigma."""
    rng = stream_rng(seed, 0)
    mu = DiscreteMeasure(rng.uniform(-1, 1, size=(8, 3)) / np.sqrt(3), np.full(8, 1 / 8))
    nu = DiscreteMeasure(rng.uniform(-1, 1, size=(8, 3)) / np.sqrt(3), np.full(8, 1 / 8))
    rep = Report("smoothing", ["sigma", "w_p", "rhs", "rhs_error"])
    oks, errs, sigmas = [], [], [0.1, 0.2, 0.4]
    for sg in sigmas:
        sub = smoothing_bound(RegularizerSpec(sg), 1, mu, nu, s=4, M=4.0)
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
        "seed": seed,
        "error_linear_in_sigma": bool(lin),
        "pass": bool(all(oks) and lin),
    }
    return rep


def dominance(seed, trials, kernel, p):
    """`mmd_dominance_check` on random pairs of 2-D discrete measures."""
    rng = stream_rng(seed, 0)
    pairs = [_random_pair(rng, 2) for _ in range(trials)]
    return mmd_dominance_check(kernel_from_text(kernel, 2), pairs, p=p)


def sliced(seed, trials, d):
    """The sliced kernel's MMD against the average of its 1-D MMDs (d >= 2; d = 1 runs as 2)."""
    if d < 1:
        raise ValueError(f"d must be an integer >= 1, got {d!r}")
    rng = stream_rng(seed, 0)
    d = max(d, 2)
    theta = sphere_directions(32, d, seed=seed)
    base = KernelSpec.gaussian(1.0, 1)
    ker_sliced = KernelSpec.sliced(base, theta)
    rep = Report("sliced", ["index", "direct", "sliced", "gap"])
    worst = 0.0
    for t in range(trials):
        mu, nu = _random_pair(rng, d)
        direct = mmd_discrete(ker_sliced, mu, nu)
        via_slices = mmd_sliced(base, theta, mu, nu)
        gap = abs(direct - via_slices)
        worst = max(worst, gap)
        rep.add_row(t, direct, via_slices, gap)
    rep.summary = {"experiment": "sliced", "seed": seed, "worst_gap": worst, "pass": bool(worst <= 1e-10)}
    return rep


def embeddability(seed, trials, kernel):
    """`embeddability_probe` of W_2 / MMD^(1/2) on same-mean mixture pairs."""
    kernel = kernel_from_text(kernel, 1)
    return embeddability_probe(_same_mean_gmm_pair, kernel, 2, 0.5, trials, stream_rng(seed, 0))


def learnability(seed, trials):
    """The linear-regression task metric against its Lipschitz constant times W_2."""
    rng = stream_rng(seed, 0)
    rep = Report("learnability", ["index", "task", "probe", "bound"])
    ok = True
    task = TaskSpec("linreg", R=2.0)
    for t in range(trials):
        n1, n2 = rng.integers(2, 6, size=2)
        Z1, Z2 = rng.normal(size=(n1, 3)), rng.normal(size=(n2, 3))
        mu = DiscreteMeasure(Z1, rng.uniform(0.1, 1, n1))
        nu = DiscreteMeasure(Z2, rng.uniform(0.1, 1, n2))
        probe = task_metric_probe(task, mu, nu, 24, rng)
        bound = task_constant(task) * w_exact(2, mu, nu)[0]
        if probe > bound + 1e-9:
            ok = False
        rep.add_row(t, "linreg", probe, bound)
    rep.summary = {"experiment": "learnability", "seed": seed, "pass": bool(ok)}
    return rep


# name -> (function of (seed, **settings), the settings it reads with their defaults)
EXPERIMENTS = {
    "counterexample": (counterexample, {"k": 4, "kernel": "gaussian"}),
    "rates": (rates, {"trials": 10, "which": "mmd", "d": 1}),
    "fourier-bound": (fourier_bound, {"trials": 20, "kernel": "matern"}),
    "smoothing": (smoothing, {}),
    "dominance": (dominance, {"trials": 200, "kernel": "gaussian", "p": 2.0}),
    "sliced": (sliced, {"trials": 50, "d": 2}),
    "embeddability": (embeddability, {"trials": 60, "kernel": "matern"}),
    "learnability": (learnability, {"trials": 40}),
}
