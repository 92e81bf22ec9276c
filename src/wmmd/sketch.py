"""Random-Fourier-feature sketching: a linear, mergeable compression of data.

The feature map is Phi(x) = (1/sqrt(m)) (e^{-i<x,w_1>}, ..., e^{-i<x,w_m>})
with frequencies drawn from the kernel's Bochner spectral distribution; the
sketch of a measure is the expectation of Phi.  Sketches of data shards merge
by count-weighted averaging, exactly.
"""

from __future__ import annotations

import json
import threading

import numpy as np

from .measures import DiscreteMeasure, GaussianMixture, _block_sum, _seed64
from .kernels import kernel_to_dict, kernel_from_dict

__all__ = [
    "FeatureMap",
    "Sketch",
    "draw_features",
    "sketch_samples",
    "sketch_measure",
    "merge",
    "sketch_distance",
    "rkhs_lipschitz",
    "save_sketch",
    "load_sketch",
]

_FORMAT_TAG = "wmmd-sketch-v1"

# Feature entries per block of rows in the blocked sums.  Small blocks stay in
# cache; the budget is fixed so that same-seed sketches are reproducible.
_BLOCK_ENTRIES = 2**15


def _cos_sin(U, c=None, den=None):
    """cos 2U and sin(2U)/2 from one tangent of the half angle U; U is overwritten.

    With u = tan U, cos 2U = (1 - u^2)/(1 + u^2) and sin(2U)/2 = u/(1 + u^2).
    A vectorised tan replaces the separate cos and sin passes; the cosine and
    twice the half sine stay within 2.2e-16 absolute of np.cos/np.sin of 2U
    for every finite U (tan of a double never reaches inf, so u^2 cannot
    overflow).  Callers form U with `FeatureMap.half_omega` and fold the
    sine's factor 2 into a later product.  Returns (c, U): the cosine goes to
    `c` and `den` is scratch, both arrays of U's shape or None to allocate;
    the operations are the same either way.
    """
    u = np.tan(U, out=U)
    den = np.multiply(u, u, out=den)
    c = np.subtract(1.0, den, out=c)
    den += 1.0
    c /= den
    u /= den
    return c, u


class FeatureMap:
    """Frozen frequency matrix with the 1/sqrt(m) complex-exponential map.

    `half_omega` is omega / 2, for the half angles of `_cos_sin`.  Above the
    subnormal range halving commutes with every rounding of a product or
    sum, so X @ half_omega.T is (X @ omega.T) / 2 bit for bit.
    """

    __slots__ = ("omega", "half_omega", "kernel", "seed")

    def __init__(self, omega, kernel, seed):
        self.omega = np.atleast_2d(np.asarray(omega, dtype=float))
        self.omega.setflags(write=False)
        self.half_omega = self.omega * 0.5
        self.half_omega.setflags(write=False)
        self.kernel = kernel
        self.seed = int(seed)

    @property
    def m(self):
        return self.omega.shape[0]

    @property
    def d(self):
        return self.omega.shape[1]

    def phi(self, X):
        """Feature matrix, one row of Phi(x) per sample row."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        c, s = _cos_sin(X @ self.half_omega.T)
        out = np.empty(c.shape, dtype=complex)
        scale = np.sqrt(self.m)
        np.divide(c, scale, out=out.real)
        np.divide(s, -0.5 * scale, out=out.imag)
        return out

    def same_as(self, other):
        return (
            self.seed == other.seed
            and self.omega.shape == other.omega.shape
            and np.array_equal(self.omega, other.omega)
        )


class Sketch:
    """m complex generalized moments of a measure, with provenance.

    `lo` and `hi` are the per-coordinate bounds of the sketched points, or
    None for a mixture, a file written without them, or a merge including one.
    """

    __slots__ = ("values", "feature_map", "n_samples", "lo", "hi")

    def __init__(self, values, feature_map, n_samples, lo=None, hi=None):
        self.values = np.asarray(values, dtype=complex)
        self.values.setflags(write=False)
        self.feature_map = feature_map
        self.n_samples = int(n_samples)
        self.lo = None if lo is None else np.asarray(lo, dtype=float)
        self.hi = None if hi is None else np.asarray(hi, dtype=float)

    @property
    def m(self):
        return self.values.shape[0]


def draw_features(kernel, m, seed):
    """Deterministic feature map for a kernel.

    Frequencies are derived per index with a counter-based generator keyed on
    (seed, index), so growing m extends the matrix without reshuffling the
    frequencies already drawn.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    seed = _seed64(seed)
    bg = np.random.Philox(key=np.array([seed, 0], dtype=np.uint64))
    rng = np.random.Generator(bg)
    # Restarting one generator at counter [0, j, 0, 0] with an empty buffer
    # draws what a fresh Philox(key, counter=[0, j, 0, 0]) would.
    state = bg.state
    counter = state["state"]["counter"]
    rows = []
    for j in range(m):
        counter[:] = (0, j, 0, 0)
        state["buffer_pos"], state["has_uint32"], state["uinteger"] = 4, 0, 0
        bg.state = state
        rows.append(kernel.spectral_sample(1, rng)[0])
    return FeatureMap(np.array(rows), kernel, seed)


def _feature_sum(F, X, weights=None):
    """Sum of Phi over the rows of X, weighted if weights are given.

    Rows are taken in blocks of about _BLOCK_ENTRIES feature entries, so the
    n x m feature matrix is never formed.  The blocks run on the block pool
    (`measures._block_sum`); each thread keeps one scratch array for all of
    its blocks, and each block's value is its sums of cos and of sin/2.
    """
    rows = max(1, _BLOCK_ENTRIES // F.m)
    local = threading.local()

    def block_value(lo):
        work = getattr(local, "work", None)
        if work is None:
            work = local.work = np.empty((3, rows, F.m))
        Xb = X[lo : lo + rows]
        U, c, den = work[:, : Xb.shape[0]]
        c, s = _cos_sin(np.matmul(Xb, F.half_omega.T, out=U), c, den)
        out = np.empty((2, F.m))
        if weights is None:
            c.sum(axis=0, out=out[0])
            s.sum(axis=0, out=out[1])
        else:
            w = weights[lo : lo + rows]
            np.matmul(w, c, out=out[0])
            np.matmul(w, s, out=out[1])
        return out

    re, im_half = _block_sum(block_value, range(0, X.shape[0], rows))
    return (re - 2j * im_half) / np.sqrt(F.m)


def sketch_samples(F, X):
    """Average of Phi over the rows of X."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[0] == 0:
        raise ValueError("empty sample set")
    if X.shape[1] != F.d:
        raise ValueError("dimension mismatch")
    if not np.all(np.isfinite(X)):
        raise ValueError("sample rows must be finite")
    vals = _feature_sum(F, X) / X.shape[0]
    return Sketch(vals, F, X.shape[0], X.min(axis=0), X.max(axis=0))


def sketch_measure(F, measure):
    """Exact expectation of Phi under a discrete measure or Gaussian mixture."""
    if isinstance(measure, DiscreteMeasure):
        X = measure.points
        return Sketch(_feature_sum(F, X, measure.weights), F, 0, X.min(axis=0), X.max(axis=0))
    if isinstance(measure, GaussianMixture):
        vals = measure.char_fn(F.omega) / np.sqrt(F.m)
        return Sketch(vals, F, 0)
    raise TypeError("unsupported measure type")


def merge(sketches, counts=None):
    """Count-weighted average of sketches sharing one feature map."""
    sketches = list(sketches)
    if not sketches:
        raise ValueError("nothing to merge")
    F = sketches[0].feature_map
    if counts is None:
        counts = [s.n_samples for s in sketches]
    if any(not s.feature_map.same_as(F) for s in sketches):
        raise ValueError("sketches use different feature maps")
    counts = np.asarray(counts, dtype=float)
    if counts.sum() <= 0:
        raise ValueError("total count must be positive")
    vals = np.zeros(F.m, dtype=complex)
    for s, c in zip(sketches, counts):
        vals += c * s.values
    vals /= counts.sum()
    lo = hi = None
    if all(s.lo is not None for s in sketches):
        lo = np.min([s.lo for s in sketches], axis=0)
        hi = np.max([s.hi for s in sketches], axis=0)
    return Sketch(vals, F, int(counts.sum()), lo, hi)


def sketch_distance(a, b):
    """Euclidean norm of the complex difference of two sketches."""
    if not a.feature_map.same_as(b.feature_map):
        raise ValueError("sketches use different feature maps")
    return float(np.linalg.norm(a.values - b.values))


def rkhs_lipschitz(F):
    """sqrt(sum_j ||w_j||^2) / sqrt(m): Lipschitz constant of Phi.

    Each component of Phi is (||w_j||/sqrt(m))-Lipschitz, so the sketching
    operator contracts W_1 by at most this factor.
    """
    return float(np.sqrt(np.sum(F.omega**2)) / np.sqrt(F.m))


# ---------------------------------------------------------------------------
# Sketch file format (JSON).


def save_sketch(s, path):
    obj = {
        "format": _FORMAT_TAG,
        "kernel": kernel_to_dict(s.feature_map.kernel),
        "d": s.feature_map.d,
        "m": s.m,
        "seed": s.feature_map.seed,
        "n_samples": s.n_samples,
        "omega": s.feature_map.omega.tolist(),
        "re": s.values.real.tolist(),
        "im": s.values.imag.tolist(),
    }
    if s.lo is not None:
        obj["lo"], obj["hi"] = s.lo.tolist(), s.hi.tolist()
    # dumps, unlike dump, runs the C encoder; the bytes are the same.
    text = json.dumps(obj, separators=(",", ":"), allow_nan=False)
    with open(path, "w") as f:
        f.write(text + "\n")


def _integer(obj, key, path, least=None):
    v = obj[key]
    if isinstance(v, bool) or not isinstance(v, int) or (least is not None and v < least):
        bound = "" if least is None else f" >= {least}"
        raise ValueError(f"{path}: {key!r} must be an integer{bound}")
    return v


def _finite_array(obj, key, path, shape):
    try:
        a = np.array(obj.get(key), dtype=float)
    except (TypeError, ValueError):
        a = None
    if a is None or a.shape != shape or not np.all(np.isfinite(a)):
        raise ValueError(f"{path}: {key!r} must be finite numbers of shape {shape}")
    return a


def load_sketch(path):
    """Read a sketch file, rejecting missing keys and inconsistent shapes."""
    with open(path) as f:
        obj = json.load(f)
    tag = obj.get("format") if isinstance(obj, dict) else None
    if tag != _FORMAT_TAG:
        raise ValueError(f"{path}: unknown sketch format tag {tag!r}")
    missing = [k for k in ("kernel", "d", "m", "seed", "n_samples", "omega", "re", "im") if k not in obj]
    if missing:
        raise ValueError(f"{path}: missing key(s) {', '.join(missing)}")
    m, d = _integer(obj, "m", path, 1), _integer(obj, "d", path, 1)
    seed, n_samples = _integer(obj, "seed", path), _integer(obj, "n_samples", path, 0)
    try:
        kernel = kernel_from_dict(obj["kernel"])
    except (TypeError, ValueError) as e:
        raise ValueError(f"{path}: bad kernel: {e}") from e
    omega = _finite_array(obj, "omega", path, (m, d))
    vals = _finite_array(obj, "re", path, (m,)) + 1j * _finite_array(obj, "im", path, (m,))
    lo = hi = None
    if "lo" in obj or "hi" in obj:
        lo, hi = _finite_array(obj, "lo", path, (d,)), _finite_array(obj, "hi", path, (d,))
        if np.any(lo > hi):
            raise ValueError(f"{path}: 'lo' exceeds 'hi'")
    return Sketch(vals, FeatureMap(omega, kernel, seed), n_samples, lo, hi)
