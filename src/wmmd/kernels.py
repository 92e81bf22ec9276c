"""Translation-invariant p.s.d. kernels with spectral samplers and transforms.

Families: Gaussian, Matern, plus sliced (average of a 1-D kernel over a fixed
direction set) and modified (additive <x,y> mean term) constructions.  Two
kernels are built as the family members they equal: the Laplacian
exp(-||z||/sigma) as the Matern kernel with nu = 1/2, and the
convolution-root kernel kappa0 = alpha*alpha of a Gaussian regularizer alpha
as a Gaussian kernel.

`KernelSpec.gram(X, Y)` is how a kernel is evaluated: the matrix
kappa(x_i, y_j) for rows of X and Y.  A single value, kappa0(0) included, is
one entry of a gram call (kappa0(0) = kappa(x, x) = gram(x, x) for any x).

Conventions.  kappa(x, y) = kappa0(x - y) for the TI families.  The Fourier
transform uses kappa0_hat(w) = int kappa0(z) e^{-i<w,z>} dz, so the spectral
probability density of Bochner's representation is
kappa0_hat(w) / ((2 pi)^d kappa0(0)).
"""

from __future__ import annotations

import json
import numpy as np

from .measures import RegularizerSpec, _gamma, _scipy, stream_rng

_kv = _scipy("special", "kv")

__all__ = ["KernelSpec", "NonSmoothAtZero", "kernel_from_text"]


class NonSmoothAtZero(ValueError):
    """kappa0 is not twice differentiable at the origin."""


def _sq_dists(X, Y):
    X = np.atleast_2d(X)
    Y = np.atleast_2d(Y)
    if X.shape[1] != Y.shape[1]:
        raise ValueError("dimension mismatch")
    # Summed squared coordinate differences: unlike the Gram form x^2 + y^2 - 2xy
    # they do not cancel away from 0, so equal rows come out exactly 0.
    sq = np.subtract.outer(X[:, 0], Y[:, 0])
    np.multiply(sq, sq, out=sq)
    for k in range(1, X.shape[1]):
        diff = np.subtract.outer(X[:, k], Y[:, k])
        sq += np.multiply(diff, diff, out=diff)
    return sq


def _dimension(d):
    if not (np.isfinite(d) and d == int(d) and d >= 1):
        raise ValueError(f"d must be an integer >= 1, got {d!r}")
    return int(d)


def _positive(**params):
    for name, v in params.items():
        if not 0 < v < np.inf:
            raise ValueError(f"{name} must be positive and finite, got {v!r}")


class KernelSpec:
    """Descriptor of a p.s.d. kernel; immutable, evaluation is pure.

    Use the classmethod constructors: gaussian, laplacian, matern, conv_root,
    sliced, modified.
    """

    def __init__(self, family, d, **params):
        self.family = family
        self.d = _dimension(d)
        self.params = params
        for k, v in params.items():
            setattr(self, k, v)

    # -- constructors -------------------------------------------------------

    @classmethod
    def gaussian(cls, sigma, d, scale=1.0):
        _positive(sigma=sigma, scale=scale)
        s = float(sigma)  # s * s rounds to 0 or inf where s**2 would raise
        if not 0 < s * s < np.inf:  # the Gaussian forms divide by sigma^2
            raise ValueError(f"sigma must be positive with a positive finite square, got {s!r}")
        return cls("gaussian", d, sigma=s, scale=float(scale))

    @classmethod
    def laplacian(cls, sigma, d):
        """kappa0(z) = exp(-||z|| / sigma): the Matern kernel with nu = 1/2 and the same sigma."""
        return cls.matern(0.5, sigma, d)

    @classmethod
    def matern(cls, nu, sigma, d):
        _positive(nu=nu, sigma=sigma)
        return cls("matern", d, nu=float(nu), sigma=float(sigma))

    @classmethod
    def conv_root(cls, alpha, d):
        """kappa0 = alpha * alpha for a Gaussian regularizer alpha.

        The convolution of two Gaussian densities with std sigma is the
        Gaussian density with variance 2 sigma^2, so
        kappa0(z) = (4 pi sigma^2)^(-d/2) exp(-||z||^2 / (4 sigma^2)): the
        Gaussian kernel of std sqrt(2) sigma and that scale.
        """
        if not isinstance(alpha, RegularizerSpec):
            raise TypeError("alpha must be a RegularizerSpec")
        s, d = float(alpha.sigma), _dimension(d)
        try:
            scale = (4.0 * np.pi * s**2) ** (-d / 2)
        except (OverflowError, ZeroDivisionError):
            scale = 0.0
        if not 0 < scale < np.inf:
            raise ValueError(f"sigma = {s!r} and d = {d} put the scale (4 pi sigma^2)^(-d/2) outside the float range")
        return cls.gaussian(np.sqrt(2.0) * s, d, scale)

    @classmethod
    def sliced(cls, base, theta_set):
        """Average of a 1-D kernel over a fixed stored direction set."""
        theta_set = np.atleast_2d(np.asarray(theta_set, dtype=float))
        if theta_set.shape[0] == 0:
            raise ValueError("theta_set must be nonempty")
        if base.d != 1:
            raise ValueError("base kernel must be 1-D")
        norms = np.linalg.norm(theta_set, axis=1)
        if not np.all(np.abs(norms - 1.0) <= 1e-9):
            raise ValueError("theta_set rows must be finite unit vectors")
        theta_set = theta_set.copy()
        theta_set.setflags(write=False)
        return cls("sliced", theta_set.shape[1], base=base, theta_set=theta_set)

    @classmethod
    def modified(cls, base, mean_weight):
        """kappa~(x, y) = base(x, y) + mean_weight * <x, y>."""
        if not (mean_weight == 1 or abs(mean_weight - 1.0 / base.d) <= 1e-15):
            raise ValueError(f"mean_weight must be 1 or 1/d, got {mean_weight!r}")
        return cls("modified", base.d, base=base, mean_weight=float(mean_weight))

    # -- evaluation ---------------------------------------------------------

    def _kappa0_r(self, r):
        if self.family == "gaussian":
            return self.scale * np.exp(-(r**2) / (2.0 * self.sigma**2))
        if self.family == "matern":
            nu, sig = self.nu, self.sigma
            if nu == 0.5:  # K_1/2(t) = sqrt(pi / (2t)) e^-t, and t = r / sigma exactly
                return np.exp(-r / sig)
            t = np.sqrt(2.0 * nu) * r / sig
            out = np.ones_like(t)
            nz = t > 0
            tt = t[nz]
            c = 2.0 ** (1.0 - nu) / _gamma(nu)  # below the normal range from nu = 151 on
            with np.errstate(over="ignore", invalid="ignore"):  # t^nu or K_nu(t) overflows at extreme t / nu
                out[nz] = c * tt**nu * _kv(nu, tt)
            if not (c >= np.finfo(float).tiny and np.isfinite(out).all()):
                raise ValueError(f"the Matern kernel with nu = {nu:g} and sigma = {sig:g} leaves the float range")
            return out
        raise ValueError(f"kappa0 undefined for family {self.family}")

    def gram(self, X, Y):
        """Matrix kappa(x_i, y_j) for rows of X and Y."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        Y = np.atleast_2d(np.asarray(Y, dtype=float))
        if X.shape[1] != self.d or Y.shape[1] != self.d:
            raise ValueError("dimension mismatch")
        if self.family == "sliced":
            pX = X @ self.theta_set.T  # (n, T)
            pY = Y @ self.theta_set.T
            T = self.theta_set.shape[0]
            acc = np.zeros((X.shape[0], Y.shape[0]))
            for t in range(T):
                acc += self.base.gram(pX[:, t : t + 1], pY[:, t : t + 1])
            return acc / T
        if self.family == "modified":
            return self.base.gram(X, Y) + self.mean_weight * (X @ Y.T)
        r = np.sqrt(_sq_dists(X, Y))
        return self._kappa0_r(r)

    # -- spectral representation -------------------------------------------

    def spectral_sample(self, m, rng):
        """m i.i.d. frequency draws from the Bochner spectral distribution."""
        if m < 1:
            raise ValueError("m must be >= 1")
        d = self.d
        if self.family == "gaussian":
            return rng.standard_normal((m, d)) / self.sigma
        if self.family == "matern":
            # multivariate Student-t: density prop. to (df/sigma^2 + ||w||^2)^-((df+d)/2)
            df = 2.0 * self.nu
            z = rng.standard_normal((m, d)) / self.sigma
            u = rng.chisquare(df, size=m)
            return z / np.sqrt(u / df)[:, None]
        raise ValueError(f"no spectral sampler for family {self.family}")

    def fourier_kappa0(self, omega):
        """Closed-form Fourier transform of kappa0 at frequencies omega."""
        omega = np.asarray(omega, dtype=float)
        if omega.ndim <= 1 and self.d == 1:
            w2 = omega**2
        else:
            w2 = np.sum(np.atleast_2d(omega) ** 2, axis=-1)
        d = self.d
        if self.family == "gaussian":
            s = self.sigma
            return self.scale * (2.0 * np.pi) ** (d / 2) * s**d * np.exp(-s**2 * w2 / 2.0)
        if self.family == "matern":
            nu, sig = np.float64(self.nu), np.float64(self.sigma)  # numpy powers overflow to inf, not OverflowError
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                c = 2.0**d * np.pi ** (d / 2) * _gamma(nu + d / 2) * (2.0 * nu) ** nu / (_gamma(nu) * sig ** (2.0 * nu))
                out = c * (2.0 * nu / sig**2 + w2) ** (-(nu + d / 2))
            if not (0.0 < c < np.inf and np.isfinite(out).all()):
                raise ValueError(f"the Matern transform with nu = {nu:g} and sigma = {sig:g} leaves the float range")
            return out
        raise ValueError(f"no closed-form transform for family {self.family}")

    def hessian_constant(self):
        """C = kappa0(0) * sqrt(lambda_max(-hess kappa0(0))).

        Analytic where the second derivative at 0 is known; Matern with
        nu <= 1 (the Laplacian among them) has a kink or unbounded curvature
        at 0 and raises NonSmoothAtZero.  Every other kernel (sliced,
        modified) raises an UnsupportedKernel ValueError.
        """
        if self.family == "gaussian":
            lam = self.scale / self.sigma**2
            return self.scale * np.sqrt(lam)
        if self.family == "matern":
            if self.nu <= 1.0:
                raise NonSmoothAtZero("Matern kappa0 is not C^2 at 0 for nu <= 1")
            lam = self.nu / ((self.nu - 1.0) * self.sigma**2)
            return np.sqrt(lam)
        raise ValueError(f"UnsupportedKernel: no curvature constant for {self.family} kernels")

    def __repr__(self):
        ps = ", ".join(f"{k}={v}" for k, v in self.params.items() if k != "theta_set")
        return f"KernelSpec({self.family}, d={self.d}, {ps})"


# ---------------------------------------------------------------------------
# JSON serialization.  `json` writes each float as its shortest round-trip
# repr, so load(dump(k)) is bit-exact.


def kernel_to_dict(k):
    """Dict form of k: the family, then its parameters in constructor order, then d."""
    out = {"family": k.family, **k.params, "d": k.d}
    if "base" in out:
        out["base"] = kernel_to_dict(k.base)
    if "theta_set" in out:
        out["theta_set"] = k.theta_set.tolist()
    return out


def kernel_from_dict(obj):
    """KernelSpec from its dict form; a missing or malformed field raises ValueError naming it."""
    if not isinstance(obj, dict):
        raise ValueError(f"kernel must be a JSON object, got {obj!r}")
    fam = obj.get("family")

    def field(name):
        if name not in obj:
            raise ValueError(f"{fam} kernel needs field {name!r}")
        return obj[name]

    if fam == "gaussian":
        return KernelSpec.gaussian(field("sigma"), field("d"), obj.get("scale", 1.0))
    if fam == "laplacian":
        return KernelSpec.laplacian(field("sigma"), field("d"))
    if fam == "matern":
        return KernelSpec.matern(field("nu"), field("sigma"), field("d"))
    if fam == "convroot":
        return KernelSpec.conv_root(RegularizerSpec(field("sigma")), field("d"))
    if fam in ("sliced", "modified"):
        base = field("base")
        if not isinstance(base, dict):
            raise ValueError(f"{fam} kernel field 'base' must be a JSON object, got {base!r}")
        base = kernel_from_dict(base)
        if fam == "sliced":
            return KernelSpec.sliced(base, np.array(field("theta_set"), dtype=float))
        return KernelSpec.modified(base, field("mean_weight"))
    raise ValueError(f"unknown kernel family {fam!r}")


def kernel_from_text(text, d):
    """Kernel from JSON, or from a bare family name with default parameters in dimension d.

    The names `gaussian` and `laplacian` mean sigma = 1, and `matern` means
    nu = 0.5, sigma = 1.
    """
    text = text.strip()
    if text.startswith("{"):
        return kernel_from_dict(json.loads(text))
    if text in ("gaussian", "laplacian"):
        return getattr(KernelSpec, text)(1.0, d)
    if text == "matern":
        return KernelSpec.matern(0.5, 1.0, d)
    raise ValueError(f"cannot parse kernel {text!r}")


def sphere_directions(T, d, seed=0):
    """Deterministic quasi-uniform unit directions on S^(d-1).

    Normalized Gaussian draws from `stream_rng(seed)`, so every seed modulo
    2^64 keys its own directions and sliced quantities are reproducible.
    """
    v = stream_rng(seed).standard_normal((T, d))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return v
