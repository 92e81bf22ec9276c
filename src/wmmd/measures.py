"""Probability measures on R^d: weighted point clouds and isotropic Gaussian mixtures.

Discrete measures are immutable weighted point clouds; Gaussian mixtures are
restricted to isotropic components, which is all the closed forms downstream
need.  Both expose means, moments (of mixtures in 1-D only), projections
onto directions and deterministic sampling.
"""

from __future__ import annotations

import contextvars
import ctypes
import importlib
import os

import numpy as np

__all__ = [
    "DiscreteMeasure",
    "GaussianMixture",
    "RegularizerSpec",
    "project",
    "sample",
    "stream_rng",
    "load_dataset",
    "save_dataset",
]

_MASS_TOL = 1e-12
_SQRT_2PI = float(np.sqrt(2.0 * np.pi))


def _scipy(module, name):
    """`scipy.<module>.<name>`, imported at the first call: most commands never load scipy's submodules."""
    fn = None

    def call(*args, **kwargs):
        nonlocal fn
        if fn is None:
            fn = getattr(importlib.import_module(f"scipy.{module}"), name)
        return fn(*args, **kwargs)

    return call


_gamma, ndtr = _scipy("special", "gamma"), _scipy("special", "ndtr")


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
    """Gaussian smoothing density (2 pi sigma^2)^(-d/2) exp(-||z||^2 / (2 sigma^2))."""

    __slots__ = ("sigma",)

    def __init__(self, sigma):
        if not 0 < sigma < np.inf:
            raise ValueError(f"sigma must be positive and finite, got {sigma!r}")
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
    Raises RuntimeError if a point is still running after `_NEWTON_CAP` steps,
    and ValueError for a level above F's largest value (weights summing below 1).
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
    while (top := g.cdf(np.array(hi))) < flat.max():
        if hi > np.max(g.means) + 40.0 * np.max(g.sigmas):  # every ndtr reads exactly 1
            raise ValueError(f"q = {float(flat.max())!r} lies above the mixture's largest CDF value {float(top)!r}")
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


_TS_RTOL, _TS_LEVELS, _TS_TMAX = 1e-9, 10, 6.0  # a gap of 1e-12 stalls on the Fourier quotient's ~1e-11 noise


def _tanh_sinh(f, cuts):
    """Integral of a vectorised f over the pieces between consecutive `cuts`.

    Tanh-sinh quadrature (Takahasi & Mori 1974) in u = 1 / (1 + exp(-pi sinh t)),
    mapped onto [a, b], or by a + u / (1 - u) onto [a, inf).  The step in t
    halves from 1/2, each level adding the nodes midway between the last
    level's for |t| < 6; nodes whose u or x round onto an endpoint are dropped.
    Stops when two levels' totals differ by at most `_TS_RTOL` of the total.
    RuntimeError on a non-finite sum (numpy's warnings are silenced inside)
    and when `_TS_LEVELS` levels do not converge.
    """
    a, b = np.asarray(cuts[:-1], dtype=float)[:, None], np.asarray(cuts[1:], dtype=float)[:, None]
    acc, total = 0.0, np.inf
    with np.errstate(all="ignore"):
        for level in range(_TS_LEVELS):
            h = 0.5 ** (level + 1)
            t = np.arange(h - _TS_TMAX, _TS_TMAX, h if level == 0 else 2.0 * h)  # new nodes only
            u, v = (1.0 / (1.0 + np.exp(s * np.pi * np.sinh(t))) for s in (-1.0, 1.0))  # v = 1 - u
            w = np.pi * np.cosh(t) * u * v
            x = np.where(b == np.inf, a + u / v, np.where(u < 0.5, a + (b - a) * u, b - (b - a) * v))
            dx = np.where(b == np.inf, w / v**2, (b - a) * w)
            keep = (u < 1.0) & (x > a) & (x < b)
            acc += float((f(x[keep]) * dx[keep]).sum())  # a numpy sum: its bits do not depend on BLAS threads
            if not np.isfinite(acc):
                raise RuntimeError(f"integral is not finite at step h = {h:g}")
            if abs(h * acc - total) <= _TS_RTOL * abs(h * acc):
                return h * acc
            total = h * acc
    raise RuntimeError(f"integral did not converge in {_TS_LEVELS} levels, down to step h = {h:g}")


# ---------------------------------------------------------------------------
# Row blocks on every CPU: the pool behind the Gaussian sums and the sketch sums.

# Threads for the blocks: every CPU in the affinity mask, or `cap_threads`'
# cap.  The pool starts at the first threaded sum; a forked child starts anew.
_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
_workers, _pool = _CPUS, None
os.register_at_fork(after_in_child=lambda: globals().update(_pool=None))

# Blocks per wave of a threaded sum.  A wave's values are added before the
# next wave starts, so at most this many block values (arrays, for a sketch)
# are held at once.
_WAVE = 32


def _openblas_fns(name):
    """OpenBLAS's `name` function from every OpenBLAS mapped into this process.

    numpy and scipy may each load their own copy, and a copy reads the
    environment variables only when it loads (scipy's at its first call), so
    the copies already loaded are capped through these functions.
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


def cap_threads(n):
    """Compute on at most n threads: the block sums, and every OpenBLAS.

    The OpenBLAS copies already loaded are capped at once; one that loads
    later (scipy's, at its first call) reads the cap from OMP_NUM_THREADS,
    OPENBLAS_NUM_THREADS and MKL_NUM_THREADS, which are set here.  The
    OpenBLAS count is process-wide.
    """
    global _workers
    n = max(1, int(n))
    _workers = min(n, _CPUS)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(n)
    for fn in _openblas_fns("set_num_threads"):
        fn.argtypes, fn.restype = [ctypes.c_int], None
        fn(n)


def _block_sum(block_value, starts, threaded=True):
    """Sum of block_value(i0) over the block starts, added in block order.

    Values are floats or arrays.  Threaded, the blocks go out in waves of
    _WAVE: block i of a wave goes to pool thread i mod W, which runs it in a
    copy of the caller's context (numpy's error state included).
    """
    global _pool
    w = min(_workers, len(starts)) if threaded else 1
    total = 0.0
    if w < 2:
        for i0 in starts:
            total += block_value(i0)
        return total
    from concurrent.futures import ThreadPoolExecutor, wait

    _pool = _pool or ThreadPoolExecutor(_CPUS, thread_name_prefix="wmmd-blocks")
    share = lambda part: [block_value(i0) for i0 in part]
    for lo in range(0, len(starts), _WAVE):
        wave = starts[lo : lo + _WAVE]
        futures = [_pool.submit(contextvars.copy_context().run, share, wave[k::w]) for k in range(min(w, len(wave)))]
        wait(futures)  # no block outlives the call, even when one raises
        shares = [f.result() for f in futures]
        for i in range(len(wave)):
            total += shares[i % w][i // w]
    return total


def sample(measure, n, rng):
    """Empirical measure of n i.i.d. draws from the numpy Generator `rng`."""
    if n < 1:
        raise ValueError("n must be >= 1")
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
