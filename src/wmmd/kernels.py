"""Translation-invariant p.s.d. kernels with spectral samplers and transforms.

Families: Gaussian, Laplacian, Matern, convolution-root (kappa0 = alpha*alpha
for a Gaussian regularizer alpha), plus sliced (average of a 1-D kernel over a
fixed direction set) and modified (additive <x,y> mean term) constructions.

Conventions.  kappa(x, y) = kappa0(x - y) for the TI families.  The Fourier
transform uses kappa0_hat(w) = int kappa0(z) e^{-i<w,z>} dz, so the spectral
probability density of Bochner's representation is
kappa0_hat(w) / ((2 pi)^d kappa0(0)).
"""

from __future__ import annotations

import json
import numpy as np

from .measures import RegularizerSpec, _gamma, _scipy

_kv = _scipy("special", "kv")

__all__ = ["KernelSpec", "NonSmoothAtZero", "kernel_to_json", "kernel_from_json", "kernel_from_text"]


class NonSmoothAtZero(ValueError):
    """kappa0 is not twice differentiable at the origin."""


def _sq_dists(X, Y):
    X = np.atleast_2d(X)
    Y = np.atleast_2d(Y)
    if X.shape[1] == Y.shape[1] == 1:
        # One rounded difference per pair: cheaper than the Gram form's k = 1
        # GEMM and three passes, and free of its cancellation far from 0.
        sq = np.subtract.outer(X[:, 0], Y[:, 0])
        return np.multiply(sq, sq, out=sq)
    sq = (
        np.sum(X**2, axis=1)[:, None]
        + np.sum(Y**2, axis=1)[None, :]
        - 2.0 * (X @ Y.T)
    )
    np.maximum(sq, 0.0, out=sq)
    return sq


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
        if not (np.isfinite(d) and d == int(d) and d >= 1):
            raise ValueError(f"d must be an integer >= 1, got {d!r}")
        self.family = family
        self.d = int(d)
        self.params = params
        for k, v in params.items():
            setattr(self, k, v)

    # -- constructors -------------------------------------------------------

    @classmethod
    def gaussian(cls, sigma, d, scale=1.0):
        _positive(sigma=sigma, scale=scale)
        return cls("gaussian", d, sigma=float(sigma), scale=float(scale))

    @classmethod
    def laplacian(cls, sigma, d):
        _positive(sigma=sigma)
        return cls("laplacian", d, sigma=float(sigma))

    @classmethod
    def matern(cls, nu, sigma, d):
        _positive(nu=nu, sigma=sigma)
        return cls("matern", d, nu=float(nu), sigma=float(sigma))

    @classmethod
    def conv_root(cls, alpha, d):
        """kappa0 = alpha * alpha for a Gaussian regularizer alpha.

        The convolution of two Gaussian densities with std sigma is the
        Gaussian density with variance 2 sigma^2, so
        kappa0(z) = (4 pi sigma^2)^(-d/2) exp(-||z||^2 / (4 sigma^2)).
        """
        if not isinstance(alpha, RegularizerSpec):
            raise TypeError("alpha must be a RegularizerSpec")
        return cls("convroot", d, sigma=float(alpha.sigma))

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

    def kappa0_0(self):
        """kappa0(0) = kappa(x, x) for TI families: the radial profile at 0."""
        if self.family == "sliced":
            return self.base.kappa0_0()
        return float(self._kappa0_r(np.zeros(1))[0])

    def kappa0(self, z):
        """kappa0 at one or many offsets z (last axis is the coordinate)."""
        z = np.asarray(z, dtype=float)
        if z.ndim == 0:
            z = z[None]
        if z.shape[-1] != self.d and self.d == 1:
            z = z[..., None]
        r = np.linalg.norm(np.atleast_2d(z.reshape(-1, self.d)), axis=1)
        out = self._kappa0_r(r)
        return out.reshape(z.shape[:-1]) if z.ndim > 1 else float(out[0])

    def _kappa0_r(self, r):
        r = np.asarray(r, dtype=float)
        if self.family == "gaussian":
            return self.scale * np.exp(-(r**2) / (2.0 * self.sigma**2))
        if self.family == "laplacian":
            return np.exp(-r / self.sigma)
        if self.family == "matern":
            nu, sig = self.nu, self.sigma
            t = np.sqrt(2.0 * nu) * r / sig
            out = np.ones_like(t)
            nz = t > 0
            tt = t[nz]
            out[nz] = (2.0 ** (1.0 - nu) / _gamma(nu)) * tt**nu * _kv(nu, tt)
            return out
        if self.family == "convroot":
            c = (4.0 * np.pi * self.sigma**2) ** (-self.d / 2)
            return c * np.exp(-(r**2) / (4.0 * self.sigma**2))
        if self.family == "sliced":
            raise ValueError("sliced kernel is not radial; use eval")
        raise ValueError(f"kappa0 undefined for family {self.family}")

    def eval(self, x, y):
        """kappa(x, y) for single points."""
        x = np.asarray(x, dtype=float).ravel()
        y = np.asarray(y, dtype=float).ravel()
        if x.shape[0] != self.d or y.shape[0] != self.d:
            raise ValueError("dimension mismatch")
        return float(self.gram(x[None, :], y[None, :])[0, 0])

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
                diff = np.abs(pX[:, t][:, None] - pY[:, t][None, :])
                acc += self.base._kappa0_r(diff)
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
        if self.family == "convroot":
            # spectrum proportional to exp(-sigma^2 ||w||^2)
            return rng.standard_normal((m, d)) / (np.sqrt(2.0) * self.sigma)
        if self.family in ("laplacian", "matern"):
            # multivariate Student-t: density prop. to (df/sigma^2 + ||w||^2)^-((df+d)/2)
            df = 1.0 if self.family == "laplacian" else 2.0 * self.nu
            z = rng.standard_normal((m, d)) / self.sigma
            u = rng.chisquare(df, size=m)
            return z / np.sqrt(u / df)[:, None]
        raise ValueError(f"no spectral sampler for family {self.family}")

    def fourier_kappa0(self, omega):
        """Closed-form Fourier transform of kappa0 at frequencies omega."""
        omega = np.asarray(omega, dtype=float)
        scalar = omega.ndim == 0
        if omega.ndim <= 1 and self.d == 1:
            w2 = np.atleast_1d(omega) ** 2
        else:
            w2 = np.sum(np.atleast_2d(omega) ** 2, axis=-1)
        d = self.d
        if self.family == "gaussian":
            out = (
                self.scale
                * (2.0 * np.pi) ** (d / 2)
                * self.sigma**d
                * np.exp(-self.sigma**2 * w2 / 2.0)
            )
        elif self.family == "laplacian":
            a = 1.0 / self.sigma
            c = 2.0**d * np.pi ** ((d - 1) / 2) * _gamma((d + 1) / 2) * a
            out = c * (a**2 + w2) ** (-(d + 1) / 2)
        elif self.family == "matern":
            nu, sig = self.nu, self.sigma
            c = (
                2.0**d
                * np.pi ** (d / 2)
                * _gamma(nu + d / 2)
                * (2.0 * nu) ** nu
                / (_gamma(nu) * sig ** (2.0 * nu))
            )
            out = c * (2.0 * nu / sig**2 + w2) ** (-(nu + d / 2))
        elif self.family == "convroot":
            out = np.exp(-self.sigma**2 * w2)
        else:
            raise ValueError(f"no closed-form transform for family {self.family}")
        return float(out[0]) if scalar else out

    def hessian_constant(self):
        """C = kappa0(0) * sqrt(lambda_max(-hess kappa0(0))).

        Analytic where the second derivative at 0 is known; Laplacian and
        Matern with nu <= 1 have a kink (or unbounded curvature) at 0 and
        raise NonSmoothAtZero.
        """
        if self.family == "gaussian":
            lam = self.scale / self.sigma**2
            return self.scale * np.sqrt(lam)
        if self.family == "convroot":
            k0 = self.kappa0_0()
            lam = k0 / (2.0 * self.sigma**2)
            return k0 * np.sqrt(lam)
        if self.family == "matern":
            if self.nu <= 1.0:
                raise NonSmoothAtZero(
                    "Matern kappa0 is not C^2 at 0 for nu <= 1"
                )
            lam = self.nu / ((self.nu - 1.0) * self.sigma**2)
            return np.sqrt(lam)
        if self.family == "laplacian":
            raise NonSmoothAtZero("Laplacian kappa0 has a kink at 0")
        raise ValueError(f"hessian_constant undefined for family {self.family}")

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


def kernel_to_json(k):
    return json.dumps(kernel_to_dict(k))


def kernel_from_json(text):
    return kernel_from_dict(json.loads(text))


def kernel_from_text(text, d):
    """Kernel from JSON, or from a bare family name with default parameters in dimension d.

    The names `gaussian` and `laplacian` mean sigma = 1, and `matern` means
    nu = 0.5, sigma = 1.
    """
    text = text.strip()
    if text.startswith("{"):
        return kernel_from_json(text)
    if text in ("gaussian", "laplacian"):
        return getattr(KernelSpec, text)(1.0, d)
    if text == "matern":
        return KernelSpec.matern(0.5, 1.0, d)
    raise ValueError(f"cannot parse kernel {text!r}")


def sphere_directions(T, d, seed=0):
    """Deterministic quasi-uniform unit directions on S^(d-1).

    Seeded Gaussian draws, normalized and sign-canonicalized; stored with
    results so sliced quantities are exactly reproducible.
    """
    rng = np.random.Generator(np.random.Philox(key=[seed, 0]))
    v = rng.standard_normal((T, d))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return v
