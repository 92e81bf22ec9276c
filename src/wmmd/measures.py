"""Probability measures on R^d: weighted point clouds and isotropic Gaussian mixtures.

Discrete measures are immutable weighted point clouds; Gaussian mixtures are
restricted to isotropic components, which is all the closed forms downstream
need.  Both expose means, moments (of mixtures in 1-D only), projections
onto directions, Gaussian smoothing and deterministic sampling.
"""

from __future__ import annotations

import numpy as np
from scipy.special import gamma as _gamma, ndtr

__all__ = [
    "DiscreteMeasure",
    "GaussianMixture",
    "RegularizerSpec",
    "project",
    "smooth",
    "gmm_quantile",
    "sample",
    "stream_rng",
    "load_dataset",
    "save_dataset",
]

_MASS_TOL = 1e-12
_SQRT_2PI = float(np.sqrt(2.0 * np.pi))


def stream_rng(seed, *stream):
    """Deterministic RNG for a (seed, stream-id...) pair.

    Uses a counter-based bit generator so independent streams can be derived
    without coordination and results do not depend on draw order elsewhere.
    """
    if len(stream) > 3:
        raise ValueError("at most 3 stream levels")
    # Each stream id occupies its own 64-bit counter word, leaving the low
    # word free for the generator to advance through 2^64 blocks.  The words
    # are uint64 arrays: a Python list holding a value >= 2^63 would become
    # float64 and alias neighbouring seeds.
    counter = np.zeros(4, dtype=np.uint64)
    for i, s in enumerate(stream):
        counter[i + 1] = int(s) % 2**64
    key = np.array([int(seed) % 2**64, 0], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key, counter=counter))


def _seed64(seed):
    """int(seed), which must lie in [0, 2^64); ValueError otherwise."""
    seed = int(seed)
    if not 0 <= seed < 2**64:
        raise ValueError("seed must be an integer in [0, 2^64)")
    return seed


class DiscreteMeasure:
    """Weighted point cloud sum_i w_i * delta_{x_i} with weights summing to 1.

    Duplicate atoms are allowed; every downstream formula is weight-linear so
    merging duplicates is only an optional normalization pass.
    """

    __slots__ = ("points", "weights")

    def __init__(self, points, weights):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        weights = np.asarray(weights, dtype=float).ravel()
        if points.ndim != 2 or points.shape[0] < 1:
            raise ValueError("need at least one atom")
        if weights.shape[0] != points.shape[0]:
            raise ValueError("points/weights length mismatch")
        if not (np.isfinite(points).all() and np.isfinite(weights).all()):
            raise ValueError("points and weights must be finite")
        if np.any(weights < 0):
            raise ValueError("NegativeWeight: weights must be nonnegative")
        total = weights.sum()
        if not total > 0:
            raise ValueError("weights must have positive total mass")
        weights = weights / total
        self.points = points
        self.weights = weights
        self.points.setflags(write=False)
        self.weights.setflags(write=False)
        assert abs(self.weights.sum() - 1.0) <= _MASS_TOL

    @property
    def n(self):
        return self.points.shape[0]

    @property
    def d(self):
        return self.points.shape[1]

    def mean(self):
        return self.weights @ self.points

    def moment_s(self, s):
        """E ||x||_2^s, exact weighted sum."""
        if s < 1:
            raise ValueError("s must be >= 1")
        norms = np.linalg.norm(self.points, axis=1)
        return float(self.weights @ norms**s)

    def centered(self):
        return DiscreteMeasure(self.points - self.mean(), self.weights)

    def __repr__(self):
        return f"DiscreteMeasure(n={self.n}, d={self.d})"


class GaussianMixture:
    """Isotropic-component Gaussian mixture sum_k alpha_k N(c_k, sigma_k^2 I)."""

    __slots__ = ("weights", "means", "sigmas")

    def __init__(self, weights, means, sigmas):
        weights = np.asarray(weights, dtype=float).ravel()
        means = np.atleast_2d(np.asarray(means, dtype=float))
        sigmas = np.asarray(sigmas, dtype=float).ravel()
        if means.shape[0] != weights.shape[0] or sigmas.shape[0] != weights.shape[0]:
            raise ValueError("component count mismatch")
        if np.any(weights < 0):
            raise ValueError("NegativeWeight: weights must be nonnegative")
        if np.any(sigmas <= 0):
            raise ValueError("sigmas must be positive")
        total = weights.sum()
        if not total > 0:
            raise ValueError("weights must have positive total mass")
        self.weights = weights / total
        self.means = means
        self.sigmas = sigmas
        for a in (self.weights, self.means, self.sigmas):
            a.setflags(write=False)
        assert abs(self.weights.sum() - 1.0) <= _MASS_TOL

    @property
    def K(self):
        return self.weights.shape[0]

    @property
    def d(self):
        return self.means.shape[1]

    def mean(self):
        return self.weights @ self.means

    def char_fn(self, omega):
        """Characteristic function E[e^{-i <omega, x>}] at rows of `omega`."""
        omega = np.atleast_2d(np.asarray(omega, dtype=float))
        sq = np.sum(omega**2, axis=1)
        phase = omega @ self.means.T  # (n_omega, K)
        vals = np.exp(-1j * phase - 0.5 * sq[:, None] * self.sigmas[None, :] ** 2)
        return vals @ self.weights

    def cdf(self, x):
        """CDF, d=1 only."""
        if self.d != 1:
            raise ValueError("cdf defined for d=1 only")
        x = np.asarray(x, dtype=float)
        z = (x[..., None] - self.means[:, 0]) / self.sigmas
        return ndtr(z) @ self.weights

    def pdf(self, x):
        """Density, d=1 only."""
        if self.d != 1:
            raise ValueError("pdf defined for d=1 only")
        x = np.asarray(x, dtype=float)
        e = x[..., None] - self.means[:, 0]
        e /= self.sigmas
        e *= e
        e *= -0.5
        np.exp(e, out=e)
        return e @ (self.weights / (_SQRT_2PI * self.sigmas))

    def moment_s(self, s):
        """E |x|^s, d=1 only: 201-node Gauss-Hermite per component."""
        if self.d != 1:
            raise ValueError("moment_s defined for d=1 only")
        if s < 1:
            raise ValueError("s must be >= 1")
        nodes, wts = np.polynomial.hermite_e.hermegauss(201)
        vals = 0.0
        for ak, ck, sk in zip(self.weights, self.means[:, 0], self.sigmas):
            x = ck + sk * nodes
            vals += ak * np.sum(wts * np.abs(x) ** s) / np.sqrt(2 * np.pi)
        return float(vals)

    def __repr__(self):
        return f"GaussianMixture(K={self.K}, d={self.d})"


class RegularizerSpec:
    """Even smoothing density; only the Gaussian family is supported.

    density: (2 pi sigma^2)^(-d/2) exp(-||z||^2 / (2 sigma^2)).
    """

    __slots__ = ("family", "sigma")

    def __init__(self, sigma, family="Gaussian"):
        if family != "Gaussian":
            raise ValueError("unsupported regularizer family")
        if not 0 < sigma < np.inf:
            raise ValueError(f"sigma must be positive and finite, got {sigma!r}")
        self.family = family
        self.sigma = float(sigma)

    def moment_p(self, p, d):
        """Integral of ||z||^p against the density on R^d (closed form)."""
        s = self.sigma
        return float(s**p * 2 ** (p / 2) * _gamma((p + d) / 2) / _gamma(d / 2))

    def __repr__(self):
        return f"RegularizerSpec(Gaussian, sigma={self.sigma})"


def project(mu, theta):
    """Pushforward of a discrete measure under x -> <x, theta>, theta unit."""
    theta = np.asarray(theta, dtype=float).ravel()
    if abs(np.linalg.norm(theta) - 1.0) > 1e-9:
        raise ValueError("theta must be a unit vector")
    pts = (mu.points @ theta)[:, None]
    return DiscreteMeasure(pts, mu.weights)


def smooth(mu, alpha):
    """Gaussian smoothing: one mixture component per atom of `mu`."""
    if not isinstance(alpha, RegularizerSpec):
        raise TypeError("alpha must be a RegularizerSpec")
    sig = np.full(mu.n, alpha.sigma)
    return GaussianMixture(mu.weights, mu.points, sig)


def gmm_quantile(g, q):
    """Quantile of a 1-D Gaussian mixture at one level q in (0, 1)."""
    return float(gmm_quantiles(g, np.array([q], dtype=float))[0])


_TABLE_POINTS = 257
_NEWTON_CAP = 200


def gmm_quantiles(g, qs):
    """Quantiles of a 1-D Gaussian mixture at every level in `qs` (all in (0, 1)).

    A CDF table on a span that covers every level gives each point a bracket
    and a linearly interpolated start; safeguarded Newton with the closed-form
    density then finishes each point.  A point stops when |F(x) - q| reaches
    F's rounding level 4 eps q, or when its step or bracket shrinks to 2 ulp of
    max(1, |x|).  A Newton step that leaves the bracket, is not finite, or
    fails to halve the step before last is replaced by the bracket midpoint.
    Raises RuntimeError if a point is still running after `_NEWTON_CAP` steps.
    """
    if g.d != 1:
        raise ValueError("gmm_quantiles needs d=1")
    qs = np.asarray(qs, dtype=float)
    flat = qs.ravel()
    if flat.size == 0:
        return np.empty(qs.shape)
    if not (np.all(flat > 0.0) and np.all(flat < 1.0)):
        raise ValueError("q must lie in (0,1)")
    span = 12.0 * float(np.max(g.sigmas)) + float(np.max(np.abs(g.means)))
    lo, hi = -span, span
    while g.cdf(np.array(lo)) > flat.min():
        lo *= 2.0
    while g.cdf(np.array(hi)) < flat.max():
        hi *= 2.0
    t = np.linspace(lo, hi, _TABLE_POINTS)
    F = np.maximum.accumulate(g.cdf(t))
    # F[k-1] < q <= F[k]; the clip covers q == F[0] exactly.
    k = np.clip(np.searchsorted(F, flat, side="left"), 1, _TABLE_POINTS - 1)
    a, b = t[k - 1], t[k]
    x = a + (flat - F[k - 1]) / (F[k] - F[k - 1]) * (b - a)
    out = np.empty_like(flat)
    idx = np.arange(flat.size)
    q = flat
    fit_tol = 4.0 * np.finfo(float).eps * q
    step_old = b - a  # the step before last, for the halving test
    step = step_old
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(_NEWTON_CAP):
            f = g.cdf(x) - q
            below = f < 0.0
            np.copyto(a, x, where=below)
            np.copyto(b, x, where=~below)
            dx = f / g.pdf(x)
            # nan and inf steps fail both bracket comparisons.
            xn = x - dx
            newton = (xn >= a) & (xn <= b) & (np.abs(dx) <= 0.5 * np.abs(step_old))
            mid = 0.5 * (a + b)
            np.copyto(xn, mid, where=~newton)
            step_old, step = step, xn - x
            tol = 2.0 * np.spacing(np.maximum(1.0, np.abs(x)))
            fit = np.abs(f) <= fit_tol
            done = fit | (np.abs(step) <= tol) | (b - a <= tol)
            np.copyto(xn, x, where=fit)
            out[idx[done]] = xn[done]
            keep = ~done
            if not keep.any():
                return out.reshape(qs.shape)
            idx, q, fit_tol, x, a, b = idx[keep], q[keep], fit_tol[keep], xn[keep], a[keep], b[keep]
            step_old, step = step_old[keep], step[keep]
    raise RuntimeError(
        f"gmm_quantiles did not converge in {_NEWTON_CAP} steps "
        f"({idx.size} of {flat.size} points left)"
    )


def sample(measure, n, rng):
    """Empirical measure of n i.i.d. draws; deterministic given the stream.

    `rng` is either a numpy Generator or a (seed, stream...) tuple fed to
    stream_rng.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not isinstance(rng, np.random.Generator):
        rng = stream_rng(*rng) if isinstance(rng, tuple) else stream_rng(rng)
    if isinstance(measure, DiscreteMeasure):
        idx = rng.choice(measure.n, size=n, p=measure.weights)
        pts = measure.points[idx]
    elif isinstance(measure, GaussianMixture):
        idx = rng.choice(measure.K, size=n, p=measure.weights)
        pts = measure.means[idx] + measure.sigmas[idx, None] * rng.standard_normal(
            (n, measure.d)
        )
    else:
        raise TypeError("unsupported measure type")
    return DiscreteMeasure(pts, np.full(n, 1.0 / n))


# ---------------------------------------------------------------------------
# Dataset I/O: CSV (one sample per row) and raw little-endian binary.

_BINARY_MAGIC = b"WMMD1"


def load_dataset(path):
    """Load an n x d sample array from CSV or WMMD1 binary."""
    with open(path, "rb") as f:
        head = f.read(5)
    if head == _BINARY_MAGIC:
        with open(path, "rb") as f:
            f.read(5)
            n = int.from_bytes(f.read(8), "little")
            d = int.from_bytes(f.read(8), "little")
            data = np.fromfile(f, dtype="<f8", count=n * d)
        if data.size != n * d:
            raise ValueError("truncated binary dataset")
        return data.reshape(n, d)
    # CSV path: auto-detect a header by a non-numeric first row.
    with open(path, "r") as f:
        first = f.readline()
        rest = any(line.strip() and not line.lstrip().startswith("#") for line in f)
    skip = 0
    try:
        [float(tok) for tok in first.strip().split(",") if tok != ""]
    except ValueError:
        skip = 1
    if not (rest or (skip == 0 and first.strip())):
        raise ValueError(f"{path}: no data rows")
    data = np.loadtxt(path, delimiter=",", skiprows=skip, ndmin=2)
    return data


def save_dataset(path, X, binary=False):
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if binary:
        with open(path, "wb") as f:
            f.write(_BINARY_MAGIC)
            f.write(int(X.shape[0]).to_bytes(8, "little"))
            f.write(int(X.shape[1]).to_bytes(8, "little"))
            X.astype("<f8").tofile(f)
    else:
        np.savetxt(path, X, delimiter=",", fmt="%.17g")
