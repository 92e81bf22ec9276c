"""Learning tasks, risks, the greedy Dirac-mixture decoder, and k-means.

Supported tasks: K-means (p=2) and K-medians (p=1) compression, linear and
multi-output regression with norm-bounded hypotheses, and binary
classification with a bounded-Lipschitz tanh classifier under the hinge loss.
Regression/classification measures live on the joint sample space: the last
coordinate(s) of each atom hold the response.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import nnls

from .measures import DiscreteMeasure, stream_rng
from .sketch import Sketch, _cos_sin, sketch_measure
from .reporting import Report

__all__ = [
    "TaskSpec",
    "Hypothesis",
    "risk",
    "kmeans_project",
    "task_metric_probe",
    "decode_diracs",
    "lloyd",
    "excess_risk_report",
    "task_constant",
]


class TaskSpec:
    """Task descriptor; `p` is the loss exponent used by W_p comparisons."""

    def __init__(self, variant, **params):
        self.variant = variant
        self.params = dict(params)
        if variant in ("kmeans", "kmedians"):
            if params["K"] < 1:
                raise ValueError("K must be >= 1")
            self.p = 2 if variant == "kmeans" else 1
        elif variant in ("linreg", "multireg"):
            if params["R"] <= 0:
                raise ValueError("R must be positive")
            self.p = 2
        elif variant == "binclass":
            if params["L"] <= 0:
                raise ValueError("L must be positive")
            self.p = 1
        else:
            raise ValueError(f"unknown task variant {variant!r}")

    def __getattr__(self, name):
        try:
            return self.params[name]
        except KeyError:
            raise AttributeError(name)


class Hypothesis:
    """Task-dependent payload with a constraint check."""

    def __init__(self, variant, payload):
        self.variant = variant
        self.payload = payload

    def check(self, task, tol=1e-9):
        if task.variant in ("kmeans", "kmedians"):
            C = np.atleast_2d(self.payload)
            if C.shape[0] < 1:
                raise ValueError("empty centroid list")
        elif task.variant == "linreg":
            theta = np.asarray(self.payload, float)
            if np.linalg.norm(theta) > task.R + tol:
                raise ValueError("theta violates the norm bound")
        elif task.variant == "multireg":
            M = np.atleast_2d(self.payload)
            if np.linalg.norm(M, 2) > task.R + tol:
                raise ValueError("matrix violates the operator-norm bound")
        elif task.variant == "binclass":
            w, b = self.payload
            if np.linalg.norm(w) > task.L + tol:
                raise ValueError("classifier violates the Lipschitz bound")
        return self


def task_constant(task):
    """Wasserstein-learnability constant C with probe <= C * W_p."""
    if task.variant in ("kmeans", "kmedians"):
        return 1.0
    if task.variant in ("linreg", "multireg"):
        return float(np.sqrt(task.R**2 + 1.0))
    if task.variant == "binclass":
        return max(task.L, 1.0)  # hinge loss is 1-Lipschitz
    raise ValueError(task.variant)


def _losses(task, measure, h):
    X = measure.points
    if task.variant in ("kmeans", "kmedians"):
        C = np.atleast_2d(np.asarray(h.payload, float))
        sq = (
            np.sum(X**2, axis=1)[:, None]
            + np.sum(C**2, axis=1)[None, :]
            - 2.0 * (X @ C.T)
        )
        np.maximum(sq, 0.0, out=sq)
        dmin = np.sqrt(np.min(sq, axis=1))
        return dmin**2 if task.variant == "kmeans" else dmin
    if task.variant == "linreg":
        theta = np.asarray(h.payload, float)
        z, y = X[:, :-1], X[:, -1]
        return (y - z @ theta) ** 2
    if task.variant == "multireg":
        M = np.atleast_2d(h.payload)
        k_out = M.shape[0]
        z, y = X[:, :-k_out], X[:, -k_out:]
        return np.sum((y - z @ M.T) ** 2, axis=1)
    if task.variant == "binclass":
        w, b = h.payload
        z, y = X[:, :-1], X[:, -1]
        scores = np.tanh(z @ np.asarray(w, float) + b)
        return np.maximum(0.0, 1.0 - y * scores)
    raise ValueError(task.variant)


def risk(task, measure, h):
    """Expected loss of hypothesis h under the measure (exact weighted sum)."""
    h.check(task)
    return float(measure.weights @ _losses(task, measure, h))


def kmeans_project(h, measure):
    """Pushforward of each atom to its nearest centroid (ties: lowest index)."""
    C = np.atleast_2d(np.asarray(h.payload, float))
    if C.shape[0] < 1:
        raise ValueError("empty centroid list")
    X = measure.points
    sq = (
        np.sum(X**2, axis=1)[:, None]
        + np.sum(C**2, axis=1)[None, :]
        - 2.0 * (X @ C.T)
    )
    labels = np.argmin(sq, axis=1)  # argmin takes the lowest index on ties
    wts = np.zeros(C.shape[0])
    np.add.at(wts, labels, measure.weights)
    keep = wts > 0
    return DiscreteMeasure(C[keep], wts[keep])


def _random_hypothesis(task, box_lo, box_hi, rng):
    d = box_lo.shape[0]
    if task.variant in ("kmeans", "kmedians"):
        C = rng.uniform(box_lo, box_hi, size=(task.K, d))
        return Hypothesis(task.variant, C)
    if task.variant == "linreg":
        v = rng.standard_normal(d - 1)
        v *= rng.uniform(0, task.R) / max(np.linalg.norm(v), 1e-300)
        return Hypothesis("linreg", v)
    if task.variant == "multireg":
        M = rng.standard_normal((task.K_out, d - task.K_out))
        op = np.linalg.norm(M, 2)
        M *= rng.uniform(0, task.R) / max(op, 1e-300)
        return Hypothesis("multireg", M)
    if task.variant == "binclass":
        w = rng.standard_normal(d - 1)
        w *= rng.uniform(0, task.L) / max(np.linalg.norm(w), 1e-300)
        b = rng.uniform(-2.0, 2.0)
        return Hypothesis("binclass", (w, b))
    raise ValueError(task.variant)


def _perturb(task, h, scale, rng):
    if task.variant in ("kmeans", "kmedians"):
        return Hypothesis(task.variant, h.payload + scale * rng.standard_normal(h.payload.shape))
    if task.variant == "linreg":
        v = h.payload + scale * rng.standard_normal(h.payload.shape)
        nv = np.linalg.norm(v)
        if nv > task.R:
            v *= task.R / nv
        return Hypothesis("linreg", v)
    if task.variant == "multireg":
        M = h.payload + scale * rng.standard_normal(h.payload.shape)
        op = np.linalg.norm(M, 2)
        if op > task.R:
            M *= task.R / op
        return Hypothesis("multireg", M)
    if task.variant == "binclass":
        w, b = h.payload
        w = w + scale * rng.standard_normal(w.shape)
        nw = np.linalg.norm(w)
        if nw > task.L:
            w *= task.L / nw
        return Hypothesis("binclass", (w, b + scale * rng.standard_normal()))
    raise ValueError(task.variant)


def task_metric_probe(task, mu, nu, n_hypotheses, rng):
    """Lower bound on sup_h |R^(1/p)(mu,h) - R^(1/p)(nu,h)|.

    Random hypothesis draws plus stochastic local refinement of the best one.
    Being a maximum over a finite set, the value never exceeds the true sup,
    so it sits on the conservative side of every <= comparison.
    """
    if n_hypotheses < 1:
        raise ValueError("n_hypotheses must be >= 1")
    pts = np.vstack([mu.points, nu.points])
    lo, hi = pts.min(axis=0) - 1.0, pts.max(axis=0) + 1.0
    p = task.p

    def gap(h):
        return abs(risk(task, mu, h) ** (1.0 / p) - risk(task, nu, h) ** (1.0 / p))

    best, best_h = 0.0, None
    for _ in range(n_hypotheses):
        h = _random_hypothesis(task, lo, hi, rng)
        g = gap(h)
        if g >= best:
            best, best_h = g, h
    if best_h is not None:
        scale = float(np.max(hi - lo)) / 4.0
        for _ in range(12):
            improved = False
            for _ in range(8):
                h = _perturb(task, best_h, scale, rng)
                g = gap(h)
                if g > best:
                    best, best_h, improved = g, h, True
            if not improved:
                scale /= 2.0
    return best


# ---------------------------------------------------------------------------
# Greedy Dirac-mixture decoder.


def _phi_single(F, theta):
    """Phi(theta) for one atom.

    The decoder builds its atom matrices with one F.phi call; this name stays
    because bench/tracer.py looks it up.
    """
    return F.phi(theta)[0]


def _atom_objective_grad(F, r, theta):
    """f = Re<r, Phi(theta)> and its gradient in theta, in real arithmetic.

    With r = a + ib and Phi_j = (cos t_j - i sin t_j)/sqrt(m), t = omega theta:
    f = sum_j (a_j cos t_j - b_j sin t_j)/sqrt(m), and its gradient is
    -omega^T (a sin t + b cos t)/sqrt(m).
    """
    c, s = _cos_sin(F.omega @ theta)
    a, b = r.real, r.imag
    scale = 1.0 / math.sqrt(F.m)
    f = float(a @ c - b @ s) * scale
    s *= a  # s <- a sin t + b cos t, in place
    c *= b
    s += c
    return f, (s @ F.omega) * -scale


def _clamp_ball(theta, center, radius):
    v = theta - center
    nv = np.linalg.norm(v)
    if nv > radius:
        return center + v * (radius / nv)
    return theta


def _ascend_atom(F, r, theta0, center, radius, iters):
    """Maximize |Re<r, Phi(theta)>| by sign-fixed projected gradient ascent."""
    theta = _clamp_ball(np.array(theta0, float), center, radius)
    f, g = _atom_objective_grad(F, r, theta)
    sgn = 1.0 if f >= 0 else -1.0
    step = radius / 4.0
    val = sgn * f
    for _ in range(iters):
        cand = _clamp_ball(theta + step * sgn * g, center, radius)
        fc, gc = _atom_objective_grad(F, r, cand)
        if sgn * fc > val:
            theta, val, g = cand, sgn * fc, gc
            step *= 1.5
        else:
            step /= 2.0
            if step < 1e-12 * radius:
                break
    return theta, val


def _residual(F, s_vals, atoms, weights):
    return weights @ F.phi(atoms) - s_vals


def _nnls_weights(F, s_vals, atoms):
    A = F.phi(atoms).T  # (m, K)
    M = np.vstack([A.real, A.imag])
    y = np.concatenate([s_vals.real, s_vals.imag])
    w, _ = nnls(M, y)
    return w


def decode_diracs(s, K, domain, opts=None):
    """Greedy decoding of a sketch into a K-atom probability measure.

    domain: (center, radius) ball the atoms must lie in.
    opts: dict with optional keys seed, n_starts, atom_iters, refine_iters.

    Atom-by-atom greedy selection against the residual, nonnegative least
    squares for the weights, and joint projected-gradient refinement of atoms
    and (normalized) weights after every greedy stage.  The returned measure
    is the best stage overall, so the residual is non-increasing in K: stage
    k of a K-atom run reproduces the full k-atom run exactly.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    center = np.asarray(domain[0], dtype=float).ravel()
    radius = float(domain[1])
    if radius <= 0:
        raise ValueError("degenerate domain")
    opts = dict(opts or {})
    seed = int(opts.get("seed", 0))
    n_starts = int(opts.get("n_starts", 16))
    atom_iters = int(opts.get("atom_iters", 200))
    refine_iters = int(opts.get("refine_iters", 500))
    F = s.feature_map
    s_vals = s.values

    def objective(thetas, v):
        w = v / v.sum()
        r = _residual(F, s_vals, thetas, w)
        return float(np.sum(np.abs(r) ** 2)), r, w

    def refine(thetas, v):
        """Joint projected-gradient descent with simplex-normalized weights."""
        obj, r, w = objective(thetas, v)
        step = radius / 8.0
        for _ in range(refine_iters):
            A = F.phi(thetas)  # (k, m)
            # d obj / d theta_k = 2 w_k sum_j Im(conj(r_j) A_kj) omega_j
            gth = 2.0 * w[:, None] * ((np.conj(r)[None, :] * A).imag @ F.omega)
            re_rA = (np.conj(r)[None, :] * A).real.sum(axis=1)
            re_rAw = float(w @ re_rA)
            gv = (2.0 / v.sum()) * (re_rA - re_rAw)
            cand_t = np.array(
                [_clamp_ball(th - step * g, center, radius) for th, g in zip(thetas, gth)]
            )
            cand_v = np.maximum(v - step * gv, 0.0)
            if cand_v.sum() <= 0:
                cand_v = v
            cobj, cr, cw = objective(cand_t, cand_v)
            if cobj < obj:
                rel = (obj - cobj) / max(obj, 1e-300)
                thetas, v, obj, r, w = cand_t, cand_v, cobj, cr, cw
                step *= 1.3
                if rel < 1e-10:
                    break
            else:
                step /= 2.0
                if step < 1e-14 * radius:
                    break
        return thetas, v, obj, w

    atoms = []
    best = None  # (objective, thetas, weights)
    for stage in range(K):
        w_cur = (
            _nnls_weights(F, s_vals, atoms) if atoms else np.array([])
        )
        r = s_vals - (w_cur @ F.phi(atoms) if atoms else 0.0)
        best_theta, best_val = None, -np.inf
        for j in range(n_starts):
            rng = stream_rng(seed, stage, j)
            theta0 = center + rng.uniform(-1, 1, size=center.shape[0]) * radius / np.sqrt(
                center.shape[0]
            )
            theta, val = _ascend_atom(F, r, theta0, center, radius, atom_iters)
            if val > best_val:
                best_theta, best_val = theta, val
        atoms.append(best_theta)
        v = np.maximum(_nnls_weights(F, s_vals, atoms), 1e-12)
        thetas, v, obj, w = refine(np.array(atoms), v)
        if best is None or obj < best[0]:
            best = (obj, thetas, w)
        atoms = [th for th in thetas]
    _, thetas, w = best
    keep = w > 0
    return DiscreteMeasure(thetas[keep], w[keep])


# ---------------------------------------------------------------------------
# Lloyd's algorithm and the end-to-end compressive K-means report.


def _kmeanspp_init(X, wts, K, rng):
    idx = rng.choice(X.shape[0], p=wts)
    centers = [X[idx]]
    for _ in range(1, K):
        sq = np.min(
            [np.sum((X - c) ** 2, axis=1) for c in centers], axis=0
        )
        probs = wts * sq
        if probs.sum() <= 0:
            idx = rng.choice(X.shape[0], p=wts)
        else:
            idx = rng.choice(X.shape[0], p=probs / probs.sum())
        centers.append(X[idx])
    return np.array(centers)


def lloyd(measure, K, inits, rng):
    """Best of `inits` k-means++ runs of Lloyd's algorithm on a discrete measure."""
    X, wts = measure.points, measure.weights
    if K > np.unique(X, axis=0).shape[0]:
        raise ValueError("K exceeds the number of distinct atoms")
    task = TaskSpec("kmeans", K=K)
    best_h, best_r = None, np.inf
    for _ in range(inits):
        C = _kmeanspp_init(X, wts, K, rng)
        for _ in range(500):
            sq = (
                np.sum(X**2, axis=1)[:, None]
                + np.sum(C**2, axis=1)[None, :]
                - 2.0 * (X @ C.T)
            )
            labels = np.argmin(sq, axis=1)
            newC = C.copy()
            for k in range(K):
                mask = labels == k
                if wts[mask].sum() > 0:
                    newC[k] = wts[mask] @ X[mask] / wts[mask].sum()
            shift = float(np.max(np.linalg.norm(newC - C, axis=1)))
            C = newC
            if shift < 1e-9:
                break
        h = Hypothesis("kmeans", C)
        rsk = risk(task, measure, h)
        if rsk < best_r:
            best_h, best_r = h, rsk
    return best_h


def excess_risk_report(pi_samples, task, sketch_opts):
    """End-to-end compressive K-means: sketch, decode, compare against Lloyd.

    pi_samples: n x d training array.  task: a kmeans TaskSpec.  sketch_opts:
    dict with kernel, m, seed, and optional domain=(center, radius),
    lloyd_inits, decode options.
    Reports both risks on the training measure, the sketch distance between
    the decoded measure's sketch and the data sketch, and the risk ratio.
    """
    from .sketch import draw_features, sketch_samples, sketch_distance

    if task.variant != "kmeans":
        raise ValueError("excess_risk_report supports the kmeans task")
    X = np.atleast_2d(np.asarray(pi_samples, dtype=float))
    n, d = X.shape
    emp = DiscreteMeasure(X, np.full(n, 1.0 / n))
    kernel = sketch_opts["kernel"]
    m = int(sketch_opts["m"])
    seed = int(sketch_opts["seed"])
    F = draw_features(kernel, m, seed)
    s = sketch_samples(F, X)
    center = sketch_opts.get("center")
    radius = sketch_opts.get("radius")
    if center is None:
        center = X.mean(axis=0)
    if radius is None:
        radius = float(1.5 * np.max(np.linalg.norm(X - center, axis=1)))
    dec = decode_diracs(
        s, task.K, (center, radius), {"seed": seed, **sketch_opts.get("decode", {})}
    )
    h_sketch = Hypothesis("kmeans", dec.points)
    rng = stream_rng(seed, 0x11)
    h_lloyd = lloyd(emp, task.K, int(sketch_opts.get("lloyd_inits", 5)), rng)
    r_sketch = risk(task, emp, h_sketch)
    r_lloyd = risk(task, emp, h_lloyd)
    dist = sketch_distance(sketch_measure(F, dec), s)
    rep = Report(
        "compressive-kmeans",
        ["quantity", "value"],
    )
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
        "pass": bool(ratio <= sketch_opts.get("ratio_bound", 1.2)),
    }
    return rep
