"""Reference computations and output checks for the benchmark.

Nothing here imports wmmd: every reference is computed from the generated
inputs with numpy and scipy alone, so a fault in the program cannot cancel
against the same fault in its check.  Each ``check_*`` function returns a list
of problems, empty when the output is accepted.
"""

from __future__ import annotations

import json

import numpy as np
from scipy.optimize import brentq, linear_sum_assignment, linprog
from scipy.integrate import quad
from scipy.sparse import identity, kron, vstack
from scipy.special import ndtr

# Tolerances, relative unless named otherwise.  Each sits well above the error
# measured on today's code (README, "Checks") and well below a 1e-6 change of
# the checked value, except where the program's own accuracy target is looser.
W1D_DISCRETE_RTOL = 1e-12
W1D_MIXTURE_RTOL = 1e-5  # the mixture route stops when extrapolants agree to 1e-6
MMD_SQ_ATOL = 1e-12  # on MMD^2, per unit of the O(1) self-similarity terms
SPECTRAL_SQ_ATOL = 1e-10  # quad targets 1.5e-8 relative per term; measured <1e-16
ASSIGN_RTOL = 1e-12
LP_RTOL = 1e-7  # HiGHS feasibility and optimality tolerances
SKETCH_ATOL = 1e-12
PLAN_ATOL = 1e-9


def _rel_gap(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


def _sq_dists(X, Y):
    """Pairwise squared distances by explicit differences (no expansion)."""
    return np.sum((X[:, None, :] - Y[None, :, :]) ** 2, axis=2)


# ---------------------------------------------------------------------------
# One-dimensional transport.


def w1d_sorted_repeat(x, y, p):
    """W_p between n uniform atoms x and r*n uniform atoms y.

    With equal atom masses the quantile coupling sends the i-th smallest x to
    the r consecutive y's of rank r*i .. r*i + r - 1.
    """
    x, y = np.sort(np.ravel(x)), np.sort(np.ravel(y))
    r, rem = divmod(y.size, x.size)
    if rem:
        raise ValueError("y must hold a whole multiple of the x atoms")
    return float(np.mean(np.abs(np.repeat(x, r) - y) ** p) ** (1.0 / p))


def wp_quantile_1d(x, a, y, b, p):
    """W_p between weighted 1-D point sets from merged cumulative weights."""
    ix, iy = np.argsort(x), np.argsort(y)
    xs, ys = np.asarray(x)[ix], np.asarray(y)[iy]
    ca = np.cumsum(np.asarray(a)[ix] / np.sum(a))
    cb = np.cumsum(np.asarray(b)[iy] / np.sum(b))
    ca[-1] = cb[-1] = 1.0
    qs = np.union1d(ca, cb)
    lo = np.concatenate([[0.0], qs[:-1]])
    mid = 0.5 * (lo + qs)
    xi = np.minimum(np.searchsorted(ca, mid), xs.size - 1)
    yi = np.minimum(np.searchsorted(cb, mid), ys.size - 1)
    return float(np.sum((qs - lo) * np.abs(xs[xi] - ys[yi]) ** p) ** (1.0 / p))


def mixture_cdf(mix, x):
    w, m, s = mix
    x = np.asarray(x, dtype=float)
    return ndtr((x[..., None] - m) / s) @ w


def cdf_l1(mix_a, mix_b):
    """W_1 between 1-D Gaussian mixtures as the integral of |F - G|.

    F - G is smooth, so it is integrated piecewise between its sign changes.
    """
    lo = min(np.min(mix_a[1] - 14 * mix_a[2]), np.min(mix_b[1] - 14 * mix_b[2]))
    hi = max(np.max(mix_a[1] + 14 * mix_a[2]), np.max(mix_b[1] + 14 * mix_b[2]))

    def diff(t):
        return float(mixture_cdf(mix_a, t) - mixture_cdf(mix_b, t))

    grid = np.linspace(lo, hi, 4001)
    vals = mixture_cdf(mix_a, grid) - mixture_cdf(mix_b, grid)
    knots = [lo]
    for i in np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]:
        knots.append(brentq(diff, grid[i], grid[i + 1], xtol=1e-15))
    knots.append(hi)
    total = 0.0
    for u, v in zip(knots[:-1], knots[1:]):
        piece, _ = quad(diff, u, v, epsabs=1e-15, epsrel=1e-13, limit=200)
        total += abs(piece)
    return total


def w2_gaussians(m1, s1, m2, s2):
    """Closed-form W_2 between N(m1, s1^2) and N(m2, s2^2)."""
    return float(np.hypot(m1 - m2, s1 - s2))


# ---------------------------------------------------------------------------
# MMD under the Gaussian kernel exp(-|x - y|^2 / (2 sigma^2)).


def gauss_mmd_sq_normal_vs_sample(y, sigma):
    """MMD^2 between N(0, 1) and the uniform empirical measure on 1-D y.

    Returns (mmd^2, scale) where scale is the sum of the two self terms, the
    size the round-off of the difference is measured against.
    """
    y = np.ravel(np.asarray(y, dtype=float))
    s2 = sigma**2
    pop = sigma / np.sqrt(s2 + 2.0)
    cross = sigma / np.sqrt(s2 + 1.0) * np.mean(np.exp(-(y**2) / (2.0 * (s2 + 1.0))))
    self_sum = 0.0
    for i0 in range(0, y.size, 256):
        d = y[i0 : i0 + 256, None] - y[None, :]
        self_sum += float(np.sum(np.exp(-(d**2) / (2.0 * s2))))
    emp = self_sum / y.size**2
    return pop - 2.0 * cross + emp, pop + emp


def gauss_mmd_sq_mixtures(mix_a, mix_b, sigma):
    """MMD^2 between 1-D Gaussian mixtures (w, m, s) by Gaussian integrals."""
    w = np.concatenate([mix_a[0], -np.asarray(mix_b[0])])
    m = np.concatenate([mix_a[1], mix_b[1]])
    s = np.concatenate([mix_a[2], mix_b[2]])
    var = sigma**2 + s[:, None] ** 2 + s[None, :] ** 2
    K = sigma / np.sqrt(var) * np.exp(-((m[:, None] - m[None, :]) ** 2) / (2.0 * var))
    return float(w @ K @ w), float(np.abs(w) @ K @ np.abs(w))


def gauss_mmd_discrete(X, a, Y, b, sigma):
    """MMD between weighted point sets by the Gram double sums."""
    a, b = np.asarray(a) / np.sum(a), np.asarray(b) / np.sum(b)
    g = lambda P, Q: np.exp(-_sq_dists(P, Q) / (2.0 * sigma**2))
    sq = a @ g(X, X) @ a + b @ g(Y, Y) @ b - 2.0 * (a @ g(X, Y) @ b)
    return float(np.sqrt(max(sq, 0.0)))


# ---------------------------------------------------------------------------
# Exact transport in d >= 1.


def wp_assignment(X, Y, p):
    """W_p between equal-size uniform point sets by an assignment."""
    C = np.sqrt(_sq_dists(X, Y)) ** p
    r, c = linear_sum_assignment(C)
    return float((C[r, c].sum() / X.shape[0]) ** (1.0 / p))


def w2_sq_lp(X, a, Y, b):
    """Optimal W_2^2 from an LP assembled here with Kronecker products."""
    n, m = X.shape[0], Y.shape[0]
    A = vstack([kron(identity(n), np.ones((1, m))), kron(np.ones((1, n)), identity(m))])
    rhs = np.concatenate([np.asarray(a) / np.sum(a), np.asarray(b) / np.sum(b)])
    res = linprog(_sq_dists(X, Y).ravel(), A_eq=A.tocsr(), b_eq=rhs, bounds=(0, None), method="highs")
    if not res.success:
        raise RuntimeError(f"reference LP failed: {res.message}")
    return float(res.fun)


def mean_gap(X, a, Y, b):
    a, b = np.asarray(a) / np.sum(a), np.asarray(b) / np.sum(b)
    return float(np.linalg.norm(a @ X - b @ Y))


# ---------------------------------------------------------------------------
# Sketches.


def draw_frequencies(seed, rows, d, sigma):
    """Gaussian-kernel frequencies w_j ~ N(0, I / sigma^2), one Philox stream per j."""
    out = []
    for j in rows:
        bg = np.random.Philox(key=[int(seed) % 2**64, 0], counter=[0, int(j), 0, 0])
        out.append(np.random.Generator(bg).standard_normal(d) / sigma)
    return np.array(out)


def sketch_direct(X, omega_rows, m):
    """Mean of e^{-i<x, w>} / sqrt(m) over the rows of X, one value per w."""
    return np.mean(np.exp(-1j * (X @ omega_rows.T)), axis=0) / np.sqrt(m)


def read_sketch_file(path):
    """(omega, values, n_samples) from a JSON sketch file."""
    with open(path) as f:
        obj = json.load(f)
    vals = np.array(obj["re"], dtype=float) + 1j * np.array(obj["im"], dtype=float)
    return np.array(obj["omega"], dtype=float), vals, int(obj["n_samples"])


def kmeans_risk(X, C):
    return float(np.mean(np.min(_sq_dists(X, np.atleast_2d(C)), axis=1)))


# ---------------------------------------------------------------------------
# Checks.


def check_close(name, got, ref, rtol):
    if not np.isfinite(got) or _rel_gap(got, ref) > rtol:
        return [f"{name}: {got!r} differs from reference {ref!r} by more than {rtol:g} relative"]
    return []


def check_mmd_sq(name, got, ref_sq, scale, atol):
    if not np.isfinite(got) or abs(got**2 - ref_sq) > atol * scale:
        return [f"{name}: MMD^2 {got**2!r} differs from reference {ref_sq!r} by more than {atol:g}*{scale:.3g}"]
    return []


def check_plan(name, plan, a, b):
    """A coupling with the right marginals and no negative mass."""
    g = np.asarray(plan)
    a, b = np.asarray(a) / np.sum(a), np.asarray(b) / np.sum(b)
    if g.min() < -PLAN_ATOL or np.max(np.abs(g.sum(1) - a)) > PLAN_ATOL or np.max(np.abs(g.sum(0) - b)) > PLAN_ATOL:
        return [f"{name}: plan marginals do not match the input weights"]
    return []


def w2_lp_references(X, a, Y, b):
    """(mean gap, centred W2^2 from an independent LP, 1-D quantile W2 or None)."""
    ca, cb = np.asarray(a) / np.sum(a), np.asarray(b) / np.sum(b)
    centred = w2_sq_lp(X - ca @ X, a, Y - cb @ Y, b)
    quantile = wp_quantile_1d(X[:, 0], a, Y[:, 0], b, 2) if X.shape[1] == 1 else None
    return mean_gap(X, a, Y, b), centred, quantile


def check_w2_lp(name, got, refs):
    """Translation split, Jensen's lower bound, and the 1-D quantile formula."""
    gap, centred, quantile = refs
    problems = check_close(f"{name} W2^2 vs centred W2^2 + gap^2", got**2, centred + gap**2, LP_RTOL)
    if got < gap * (1.0 - LP_RTOL):
        problems.append(f"{name}: W2 {got!r} is below the mean gap {gap!r}")
    if quantile is not None:
        problems += check_close(f"{name} vs quantile formula", got, quantile, LP_RTOL)
    return problems


def check_dominance_rows(name, rows, pairs, sigma, passed):
    """MMD <= W_2 / sigma on every pair; MMD values match the Gram sums."""
    problems = [] if passed else [f"{name}: report summary says the bound failed"]
    if len(rows) != len(pairs):
        return problems + [f"{name}: {len(rows)} rows for {len(pairs)} pairs"]
    for row, (X, a, Y, b) in zip(rows, pairs):
        m, w = float(row[1]), float(row[2])
        if m > w / sigma + 1e-12:
            problems.append(f"{name} row {row[0]}: MMD {m!r} exceeds W2/sigma {w / sigma!r}")
        ref = gauss_mmd_discrete(X, a, Y, b, sigma)
        if abs(m - ref) > 1e-12 + 1e-9 * ref:
            problems.append(f"{name} row {row[0]}: MMD {m!r} differs from reference {ref!r}")
        if w < mean_gap(X, a, Y, b) * (1.0 - 1e-9):
            problems.append(f"{name} row {row[0]}: W2 {w!r} is below the mean gap")
    return problems


def check_sketch_values(name, values, ref_values, atol=SKETCH_ATOL):
    err = float(np.max(np.abs(np.asarray(values) - ref_values)))
    if not err <= atol:
        return [f"{name}: sketch differs from reference by {err:.3g} (> {atol:g})"]
    return []


def check_centroids(name, centroids, centres, width):
    """Every generating centre has a centroid within one cluster width."""
    C = np.atleast_2d(centroids)
    far = [i for i, c in enumerate(centres) if np.min(np.linalg.norm(C - c, axis=1)) > width]
    if far:
        return [f"{name}: no centroid within {width:g} of generating centre(s) {far}"]
    return []


def check_risk_ratio(name, X, centroids, reference_centroids, bound=1.2):
    r, r_ref = kmeans_risk(X, centroids), kmeans_risk(X, reference_centroids)
    if not r <= bound * r_ref:
        return [f"{name}: k-means risk {r:.6g} exceeds {bound:g} x reference {r_ref:.6g}"]
    return []
