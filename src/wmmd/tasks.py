"""Learning tasks, risks, the greedy Dirac-mixture decoder, and k-means.

Supported tasks, one `_VARIANTS` entry each: K-means (p=2) and K-medians
(p=1) compression, linear regression with a norm-bounded vector (p=2), and
binary classification with a bounded-Lipschitz tanh classifier under the
hinge loss (p=1).  Regression and classification share one norm-ball path
for their draws, perturbations and checks.  Their measures live on the
joint sample space: the last coordinate of each atom holds the response.
The end-to-end compressive K-means report built from these parts is
`lab.excess_risk_report`.
"""

from __future__ import annotations

import math

import numpy as np

from .kernels import _sq_dists
from .measures import DiscreteMeasure, _scipy, _seed64, stream_rng
from .sketch import _cos_sin

minimize, nnls = _scipy("optimize", "minimize"), _scipy("optimize", "nnls")

__all__ = [
    "TaskSpec",
    "Hypothesis",
    "risk",
    "kmeans_project",
    "task_metric_probe",
    "decode_diracs",
    "lloyd",
    "task_constant",
]


# variant -> (loss exponent p, the parameter that bounds its hypotheses).  K
# counts centroids; R and L are the radii of the norm ball that holds the
# regression vector theta and the classifier's weights w.
_VARIANTS = {"kmeans": (2, "K"), "kmedians": (1, "K"), "linreg": (2, "R"), "binclass": (1, "L")}
_BOUND_TOL = 1e-9  # slack of Hypothesis.check's norm bound


class TaskSpec:
    """Task descriptor: `p` is the loss exponent used by W_p comparisons, `bound` its K, R or L."""

    def __init__(self, variant, **params):
        if variant not in _VARIANTS:
            raise ValueError(f"unknown task variant {variant!r}")
        self.variant = variant
        self.p, name = _VARIANTS[variant]
        given = set(params)
        if given != {name}:
            raise ValueError(f"{variant} task: missing {sorted({name} - given)}, unknown {sorted(given - {name})}")
        self.bound = params[name]
        self.centroids = name == "K"
        if self.centroids and self.bound < 1:
            raise ValueError("K must be >= 1")
        if not self.centroids and self.bound <= 0:
            raise ValueError(f"{name} must be positive")


class Hypothesis:
    """Centroids (K, d), linreg's theta or binclass's (w, b), with a constraint check."""

    def __init__(self, variant, payload):
        self.variant = variant
        self.payload = payload

    def check(self, task):
        if self.variant != task.variant:
            raise ValueError(f"a {self.variant} hypothesis does not fit a {task.variant} task")
        if task.centroids:
            if np.atleast_2d(self.payload).shape[0] < 1:
                raise ValueError("empty centroid list")
        elif np.linalg.norm(_split(task, self.payload)[0]) > task.bound + _BOUND_TOL:
            raise ValueError(f"hypothesis violates the norm bound {task.bound}")
        return self


def _split(task, payload):
    """(w, b) of a norm-ball payload; linreg's theta is w, with b None."""
    if task.variant == "binclass":
        w, b = payload
        return np.asarray(w, float), b
    return np.asarray(payload, float), None


def task_constant(task):
    """Wasserstein-learnability constant C with probe <= C * W_p."""
    if task.centroids:
        return 1.0
    if task.variant == "linreg":
        return float(np.sqrt(task.bound**2 + 1.0))
    return max(task.bound, 1.0)  # hinge loss is 1-Lipschitz


def _losses(task, measure, h):
    X = measure.points
    if task.centroids:
        sq = _sq_dists(X, np.asarray(h.payload, float))
        return np.sqrt(np.min(sq, axis=1)) ** task.p
    w, b = _split(task, h.payload)
    z, y = X[:, :-1], X[:, -1]
    if b is None:
        return (y - z @ w) ** 2
    return np.maximum(0.0, 1.0 - y * np.tanh(z @ w + b))


def risk(task, measure, h):
    """Expected loss of hypothesis h under the measure (exact weighted sum)."""
    h.check(task)
    return float(measure.weights @ _losses(task, measure, h))


def kmeans_project(h, measure):
    """Pushforward of each atom to its nearest centroid (ties: lowest index)."""
    C = np.atleast_2d(np.asarray(h.payload, float))
    if C.shape[0] < 1:
        raise ValueError("empty centroid list")
    # argmin takes the lowest index on ties
    labels = np.argmin(_sq_dists(measure.points, C), axis=1)
    wts = np.zeros(C.shape[0])
    np.add.at(wts, labels, measure.weights)
    keep = wts > 0
    return DiscreteMeasure(C[keep], wts[keep])


def _random_hypothesis(task, box_lo, box_hi, rng):
    """Centroids uniform in the box; else w of uniform norm in the ball, b uniform in [-2, 2]."""
    d = box_lo.shape[0]
    if task.centroids:
        return Hypothesis(task.variant, rng.uniform(box_lo, box_hi, size=(task.bound, d)))
    w = rng.standard_normal(d - 1)
    w *= rng.uniform(0, task.bound) / max(np.linalg.norm(w), 1e-300)
    if task.variant == "binclass":
        return Hypothesis("binclass", (w, rng.uniform(-2.0, 2.0)))
    return Hypothesis("linreg", w)


def _perturb(task, h, scale, rng):
    """h plus N(0, scale^2) noise, with w pulled back radially into the ball."""
    if task.centroids:
        return Hypothesis(task.variant, h.payload + scale * rng.standard_normal(h.payload.shape))
    w, b = _split(task, h.payload)
    w = w + scale * rng.standard_normal(w.shape)
    nw = np.linalg.norm(w)
    if nw > task.bound:
        w *= task.bound / nw
    if b is None:
        return Hypothesis("linreg", w)
    return Hypothesis("binclass", (w, b + scale * rng.standard_normal()))


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


def _atom_objective_grad(F, r, thetas, work):
    """f = Re<r, Phi(theta)> and its gradient for each row theta of thetas.

    With r = a + ib and Phi_j = (cos t_j - i sin t_j)/sqrt(m), t = omega theta:
    f = sum_j (a_j cos t_j - b_j sin t_j)/sqrt(m), and its gradient is
    -omega^T (a sin t + b cos t)/sqrt(m); the arithmetic is real.  `work` is a
    (3, S, m) array with S >= len(thetas) that holds the half-angle matrix and
    its cos/sin scratch, so repeated calls allocate no (k x m) array.  The
    sine comes halved (`_cos_sin`) and meets 2a and 2b, the real and
    imaginary views of 2r, so every product keeps its bits.  Returns f of
    shape (k,) and the gradients as a (k, d) array.
    """
    U, c, den = work[:, : thetas.shape[0]]
    np.matmul(thetas, F.half_omega.T, out=U)
    c, h = _cos_sin(U, c, den)  # h = sin(t) / 2
    r2 = r + r
    scale = 1.0 / math.sqrt(F.m)
    f = (c @ r.real - h @ r2.imag) * scale
    h *= r2.real  # h <- a sin t + b cos t, in place
    c *= r.imag
    h += c
    return f, (h @ F.omega) * -scale


def _clamp_ball(thetas, center, radius):
    """Each row of thetas moved radially onto the ball if it lies outside."""
    v = thetas - center
    nv = np.sqrt(np.einsum("ij,ij->i", v, v))
    out = np.array(thetas, float)
    far = nv > radius
    out[far] = center + v[far] * (radius / nv[far])[:, None]
    return out


def _ascend_atom(F, r, thetas0, center, radius, iters):
    """Maximize |Re<r, Phi(theta)>| from each start by sign-fixed projected ascent.

    thetas0 is an (S, d) array of starts.  Each start keeps its own sign, step
    size (x1.5 on a gain, /2 otherwise), stop at a step below 1e-12 * radius
    and cap of `iters` steps; the starts still moving take one step together,
    as one (active x m) phase matrix.  Returns the (S, d) atoms and their
    (S,) values.
    """
    theta = _clamp_ball(thetas0, center, radius)
    work = np.empty((3, theta.shape[0], F.m))
    f, g = _atom_objective_grad(F, r, theta, work)
    sgn = np.where(f >= 0, 1.0, -1.0)
    val = sgn * f
    step = np.full(theta.shape[0], radius / 4.0)
    out_theta, out_val = theta.copy(), val.copy()
    live = np.arange(theta.shape[0])  # original index of each active start
    for _ in range(iters):
        cand = _clamp_ball(theta + (step * sgn)[:, None] * g, center, radius)
        fc, gc = _atom_objective_grad(F, r, cand, work)
        vc = sgn * fc
        up = vc > val
        theta[up], val[up], g[up] = cand[up], vc[up], gc[up]
        step = np.where(up, step * 1.5, step / 2.0)
        done = ~up & (step < 1e-12 * radius)
        if done.any():
            out_theta[live[done]], out_val[live[done]] = theta[done], val[done]
            keep = ~done
            theta, val, g, step, sgn, live = (
                theta[keep], val[keep], g[keep], step[keep], sgn[keep], live[keep]
            )
            if live.size == 0:
                break
    out_theta[live], out_val[live] = theta, val
    return out_theta, out_val


def _nnls_weights(F, s_vals, atoms):
    A = F.phi(atoms).T  # (m, K)
    M = np.vstack([A.real, A.imag])
    y = np.concatenate([s_vals.real, s_vals.imag])
    w, _ = nnls(M, y)
    return w


def _refine(F, s_vals, thetas, w, center, radius):
    """Joint L-BFGS-B descent of ||w Phi(thetas) - s||^2 from weights w on the simplex.

    w = v / sum(v) with v >= _WEIGHT_FLOOR, and atoms stay in the ball's bounding box.
    The term (sum(v) - 1)^2 pins the scale of v, which the residual ignores and
    quasi-Newton steps would drive onto the floor, where the gradient (~1 / sum(v))
    blows up.  Returns the atoms, weights and residual where L-BFGS-B's own test stops.
    """
    k, d = thetas.shape

    def objective_grad(x):
        th, v = x[: k * d].reshape(k, d), x[k * d :]
        total = v.sum()
        w = v / total
        A = F.phi(th)  # (k, m)
        r = w @ A - s_vals
        rA = np.conj(r)[None, :] * A
        # d obj / d theta_k = 2 w_k sum_j Im(conj(r_j) A_kj) omega_j
        gth = 2.0 * w[:, None] * (rA.imag @ F.omega)
        re_rA = rA.real.sum(axis=1)
        gv = (2.0 / total) * (re_rA - w @ re_rA) + 2.0 * (total - 1.0)
        return float(np.sum(np.abs(r) ** 2) + (total - 1.0) ** 2), np.concatenate([gth.ravel(), gv])

    bounds = [(c - radius, c + radius) for c in center] * k + [(_WEIGHT_FLOOR, None)] * k
    res = minimize(objective_grad, np.concatenate([thetas.ravel(), w]), jac=True, method="L-BFGS-B", bounds=bounds)
    # after a failed line search res.x is the last good iterate but res.fun the last value tried
    thetas, v = res.x[: k * d].reshape(k, d), res.x[k * d :]
    w = v / v.sum()
    return thetas, w, float(np.sum(np.abs(w @ F.phi(thetas) - s_vals) ** 2))


# Step cap of the per-atom ascent; the floor of the unnormalised weights.
_ATOM_ITERS = 200
_WEIGHT_FLOOR = 1e-12


def decode_diracs(s, K, domain, opts=None):
    """Greedy decoding of a sketch into a K-atom probability measure.

    domain: (center, radius) ball the ascent searches.
    opts: dict with optional keys seed, an integer in [0, 2^64) (default 0),
    and n_starts (default 16); any other key is refused.

    Each greedy stage runs `n_starts` seeded projected-gradient ascents in the
    ball against the residual as one batch (see `_ascend_atom`) and adds the
    atom of the best start, the first one on ties.  Nonnegative least squares
    gives the weights, and joint L-BFGS-B refinement of atoms (kept in the
    ball's bounding box) and normalised weights follows every stage, to its
    own stopping test.  The returned measure is the best stage overall, so the
    residual is non-increasing in K: stage k of a K-atom run reproduces the
    full k-atom run exactly.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    center = np.asarray(domain[0], dtype=float).ravel()
    radius = float(domain[1])
    if radius <= 0:
        raise ValueError("degenerate domain")
    opts = dict(opts or {})
    if set(opts) - {"seed", "n_starts"}:
        raise ValueError(f"unknown decoder option(s) {sorted(set(opts) - {'seed', 'n_starts'})}")
    seed = _seed64(opts.get("seed", 0))
    n_starts = int(opts.get("n_starts", 16))
    if n_starts < 1:
        raise ValueError("n_starts must be >= 1")
    F = s.feature_map
    s_vals = s.values
    d = center.shape[0]

    atoms = []
    best = None  # (objective, thetas, weights)
    for stage in range(K):
        r = s_vals - (_nnls_weights(F, s_vals, atoms) @ F.phi(atoms) if atoms else 0.0)
        starts = np.array([
            center + stream_rng(seed, stage, j).uniform(-1, 1, size=d) * radius / np.sqrt(d)
            for j in range(n_starts)
        ])
        thetas, vals = _ascend_atom(F, r, starts, center, radius, _ATOM_ITERS)
        atoms.append(thetas[np.argmax(vals)])  # argmax: the first best start
        v = np.maximum(_nnls_weights(F, s_vals, atoms), _WEIGHT_FLOOR)
        thetas, w, obj = _refine(F, s_vals, np.array(atoms), v / v.sum(), center, radius)
        if best is None or obj < best[0]:
            best = (obj, thetas, w)
        atoms = [th for th in thetas]
    _, thetas, w = best
    return DiscreteMeasure(thetas, w)


# ---------------------------------------------------------------------------
# Lloyd's algorithm and the end-to-end compressive K-means report.


def _kmeanspp_init(X, wts, K, rng):
    centers = [X[rng.choice(X.shape[0], p=wts)]]
    sq = np.full(X.shape[0], np.inf)  # squared distance to the nearest centre
    for _ in range(1, K):
        np.minimum(sq, _sq_dists(X, centers[-1])[:, 0], out=sq)
        probs = wts * sq
        if probs.sum() <= 0:
            idx = rng.choice(X.shape[0], p=wts)
        else:
            idx = rng.choice(X.shape[0], p=probs / probs.sum())
        centers.append(X[idx])
    return np.array(centers)


def _has_distinct_rows(X, K):
    """Whether X has at least K distinct rows, equal by float == as np.unique has them.

    Rows go into a set in chunks of doubling length, so the scan stops soon
    after the K-th distinct row; 0.0 and -0.0 are one float, and one hash.
    """
    seen, lo, step = set(), 0, K
    while len(seen) < K and lo < X.shape[0]:
        seen.update(map(tuple, X[lo : lo + step].tolist()))
        lo, step = lo + step, 2 * step
    return len(seen) >= K


def lloyd(measure, K, inits, rng):
    """Best of `inits` k-means++ runs of Lloyd's algorithm on a discrete measure."""
    X, wts = measure.points, measure.weights
    if not _has_distinct_rows(X, K):
        raise ValueError("K exceeds the number of distinct atoms")
    task = TaskSpec("kmeans", K=K)
    best_h, best_r = None, np.inf
    for _ in range(inits):
        C = _kmeanspp_init(X, wts, K, rng)
        for _ in range(500):
            labels = np.argmin(_sq_dists(X, C), axis=1)
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
