"""Maximum mean discrepancy by double sums, closed forms, quadrature, slicing.

All routines return the MMD itself (not its square).  Tiny negative squared
values coming from round-off are clamped to zero; anything materially negative
signals a non-p.s.d. kernel and raises.
"""

from __future__ import annotations

import warnings

import numpy as np

from .measures import DiscreteMeasure, GaussianMixture, RegularizerSpec, _block_sum, _scipy, _tanh_sinh, project, sample
from .kernels import _sq_dists
from .reporting import sampling_rate

# No route integrates by QUADPACK; the name stays because bench/tracer.py counts its calls.
quad = _scipy("integrate", "quad")

__all__ = [
    "mmd",
    "mmd_discrete",
    "mmd_gaussian_kernel",
    "mmd_spectral_1d",
    "smoothed_l2",
    "mmd_sliced",
    "mmd_rate",
]


def _clamp_sq(sq, scale):
    if sq < 0:
        if sq < -1e-10 * max(scale, 1e-300):
            raise ValueError(f"squared MMD is {sq}; kernel looks non-p.s.d.")
        if sq < -1e-12 * max(scale, 1e-300):
            warnings.warn("clamping slightly negative squared MMD to zero")
        return 0.0
    return sq


def mmd_discrete(k, mu, nu):
    """||mu - nu||_kappa by the three Gram double sums."""
    if mu.d != k.d or nu.d != k.d:
        raise ValueError("dimension mismatch")
    a, b = mu.weights, nu.weights
    Kaa = k.gram(mu.points, mu.points)
    Kbb = k.gram(nu.points, nu.points)
    Kab = k.gram(mu.points, nu.points)
    scale = float(a @ Kaa @ a + b @ Kbb @ b)
    sq = scale - 2.0 * float(a @ Kab @ b)
    return np.sqrt(_clamp_sq(sq, scale))


def _as_components(measure):
    """(weights, means, sigmas) view; discrete atoms get sigma = 0."""
    if isinstance(measure, DiscreteMeasure):
        return measure.weights, measure.points, np.zeros(measure.n)
    if isinstance(measure, GaussianMixture):
        return measure.weights, measure.means, measure.sigmas
    raise TypeError("unsupported measure type")


# Rows per block of the Gaussian sums.  Each block takes a few elementwise
# passes, so it should stay in L2: a 64 x 8192 float64 block is 4 MiB.
_BLOCK = 64

# A sum goes to the block pool (`measures._block_sum`) only when its blocks
# average _MIN_PAIRS pairs (512 KiB): narrower blocks spend more CPU on
# interpreter-lock hand-offs than they save.
_MIN_PAIRS = 2**16


def _gauss_sum(block_value, n, pairs):
    """Sum of block_value(i0) over the row blocks i0 < n of a sum of `pairs` pairs."""
    starts = range(0, n, _BLOCK)
    return _block_sum(block_value, starts, pairs >= _MIN_PAIRS * len(starts))


def _gauss_block(m1, s1, m2, s2, sig2, d):
    """E[exp(-||X_i - Y_j||^2 / (2 sig2))] for X_i ~ N(m1_i, s1_i^2 I), Y_j ~ N(m2_j, s2_j^2 I)."""
    sq = _sq_dists(m1, m2)
    if s1.any() or s2.any():
        denom = sig2 + s1[:, None] ** 2 + s2[None, :] ** 2
    else:
        denom = sig2
    sq /= -2.0 * denom
    np.exp(sq, out=sq)
    if np.ndim(denom):
        sq *= (sig2 / denom) ** (d / 2)
    return sq


def _gauss_cross(w1, m1, s1, w2, m2, s2, sigma_k, scale, d):
    """sum_ij w1_i w2_j E[kappa(X_i, Y_j)] for kernel scale*exp(-||z||^2/(2 sigma_k^2))."""
    def block_value(i0):
        rows = slice(i0, i0 + _BLOCK)
        return w1[rows] @ _gauss_block(m1[rows], s1[rows], m2, s2, sigma_k**2, d) @ w2

    return scale * float(_gauss_sum(block_value, m1.shape[0], m1.shape[0] * m2.shape[0]))


def _gauss_self(w, m, s, sigma_k, scale, d):
    """_gauss_cross of one mixture with itself, summed over the upper block triangle."""
    def block_value(i0):
        i1 = i0 + _BLOCK
        block = _gauss_block(m[i0:i1], s[i0:i1], m[i0:], s[i0:], sigma_k**2, d)
        wb = w[i0:i1]
        b = wb.shape[0]
        return wb @ block[:, :b] @ wb + 2.0 * (wb @ block[:, b:] @ w[i1:])

    return scale * float(_gauss_sum(block_value, m.shape[0], m.shape[0] * (m.shape[0] + 1) // 2))


def mmd_gaussian_kernel(k, mu, nu):
    """Closed-form MMD under a Gaussian kernel k, kappa0(z) = scale * exp(-||z||^2 / (2 sigma^2)).

    Inputs may be isotropic Gaussian mixtures or discrete measures (treated
    as mixtures of zero-width components); every pairwise expectation is a
    Gaussian integral with an explicit value.
    """
    if k.family != "gaussian":
        raise ValueError("kernel must be Gaussian")
    if mu.d != k.d or nu.d != k.d:
        raise ValueError("dimension mismatch")
    w1, m1, s1 = _as_components(mu)
    w2, m2, s2 = _as_components(nu)
    d = k.d
    aa = _gauss_self(w1, m1, s1, k.sigma, k.scale, d)
    bb = _gauss_self(w2, m2, s2, k.sigma, k.scale, d)
    ab = _gauss_cross(w1, m1, s1, w2, m2, s2, k.sigma, k.scale, d)
    sq = aa + bb - 2.0 * ab
    return np.sqrt(_clamp_sq(sq, aa + bb))


def _signed_components_1d(mu, nu):
    """Signed (weight, mean, sigma) components of mu - nu; sigma=0 for atoms."""
    w1, m1, s1 = _as_components(mu)
    w2, m2, s2 = _as_components(nu)
    w = np.concatenate([w1, -w2])
    m = np.concatenate([m1[:, 0], m2[:, 0]])
    s = np.concatenate([s1, s2])
    return w, m, s


def mmd_spectral_1d(k, mu, nu):
    """1-D MMD through the spectral identity, integrated once.

    ||mu - nu||^2 = (2 pi)^(-1) int kappa0_hat(w) |mu_hat(w) - nu_hat(w)|^2 dw
                  = pi^(-1) int_0^inf kappa0_hat(w) |sum_j w_j exp(i m_j w - s_j^2 w^2 / 2)|^2 dw
    over the signed components of mu - nu, by `_tanh_sinh`.  A Gaussian
    kappa0_hat damps every term.  Under other kernels the atoms' part (2 s^2 <=
    1e-12) of the square is an undamped power law whose integral is
    pi * kappa0(m_i - m_j), so it is summed through `k.gram`; the integral keeps
    |M + A|^2 - |A|^2 = Re((M + 2A) conj(M)), M and A the sums over the other
    components and over the atoms.  An M within the round-off of its own sum
    counts as zero, so equal mixtures give 0 in any component order.
    """
    if k.d != 1:
        raise ValueError("spectral route implemented for d=1")
    if mu.d != 1 or nu.d != 1:
        raise ValueError("dimension mismatch")
    w, m, s = _signed_components_1d(mu, nu)
    atom = (2.0 * s**2 <= 1e-12) & (k.family != "gaussian")
    s = np.where(atom, 0.0, s)

    def f(om):
        t = w * np.exp(np.multiply.outer(om, 1j * m) - 0.5 * np.multiply.outer(om**2, s**2))
        mix = t[:, ~atom]
        diff = mix.sum(axis=1)
        diff[np.abs(diff) <= w.size * np.finfo(float).eps * np.abs(mix).sum(axis=1)] = 0.0
        return k.fourier_kappa0(om) * ((diff + 2.0 * t[:, atom].sum(axis=1)) * diff.conj()).real

    integral = _tanh_sinh(f, [0.0, np.inf]) / np.pi  # the doubled half-line over 2 pi
    wa, K = w[atom], k.gram(m[atom, None], m[atom, None])
    return np.sqrt(_clamp_sq(integral + wa @ K @ wa, abs(integral) + np.abs(wa) @ K @ np.abs(wa)))


def mmd(k, mu, nu):
    """MMD by the route the pair allows.

    Two discrete measures take the double sum; otherwise Gaussian kernels
    (the convolution-root kernel among them) take the closed form, and other
    1-D kernels the spectral integral (`mmd_spectral_1d`).
    """
    if isinstance(mu, DiscreteMeasure) and isinstance(nu, DiscreteMeasure):
        return mmd_discrete(k, mu, nu)
    if k.family == "gaussian":
        return mmd_gaussian_kernel(k, mu, nu)
    if k.d == 1:
        return mmd_spectral_1d(k, mu, nu)
    raise ValueError("no MMD route for this kernel/measure combination")


def _smooth_components(measure, alpha):
    """Components of alpha * measure (Gaussian convolution)."""
    w, m, s = _as_components(measure)
    return w, m, np.sqrt(s**2 + alpha.sigma**2)


def _l2_inner(w1, m1, s1, w2, m2, s2, d):
    """L2(R^d) inner product of two isotropic Gaussian mixtures."""
    var = s1[:, None] ** 2 + s2[None, :] ** 2
    sq = (
        np.sum(m1**2, axis=1)[:, None]
        + np.sum(m2**2, axis=1)[None, :]
        - 2.0 * (m1 @ m2.T)
    )
    np.maximum(sq, 0.0, out=sq)
    dens = (2.0 * np.pi * var) ** (-d / 2) * np.exp(-sq / (2.0 * var))
    return float(w1 @ dens @ w2)


def smoothed_l2(alpha, mu, nu):
    """|| alpha*mu - alpha*nu ||_{L2}.

    Independent of the MMD code path: the smoothed measures are Gaussian
    mixtures, and L2 inner products of Gaussians are explicit.  Equals the
    MMD under the convolution-root kernel built from alpha.
    """
    if not isinstance(alpha, RegularizerSpec):
        raise TypeError("alpha must be a RegularizerSpec")
    w1, m1, s1 = _smooth_components(mu, alpha)
    w2, m2, s2 = _smooth_components(nu, alpha)
    d = m1.shape[1]
    aa = _l2_inner(w1, m1, s1, w1, m1, s1, d)
    bb = _l2_inner(w2, m2, s2, w2, m2, s2, d)
    sq = aa + bb - 2.0 * _l2_inner(w1, m1, s1, w2, m2, s2, d)
    return np.sqrt(_clamp_sq(sq, aa + bb))


def mmd_sliced(base_k, theta_set, mu, nu):
    """sqrt of the average over directions of squared 1-D projection MMDs.

    With a shared fixed direction set this is an exact finite identity with
    the double sum under the sliced kernel.
    """
    theta_set = np.atleast_2d(np.asarray(theta_set, dtype=float))
    if theta_set.shape[0] == 0:
        raise ValueError("theta_set must be nonempty")
    acc = 0.0
    for theta in theta_set:
        pm = project(mu, theta)
        pn = project(nu, theta)
        acc += mmd_discrete(base_k, pm, pn) ** 2
    return np.sqrt(acc / theta_set.shape[0])


def mmd_rate(measure, kernel, n_grid, trials, seed):
    """Fitted slope of log E||pi - pi_n||_kappa against log n.

    The population-vs-empirical MMD is computed in closed form (Gaussian
    kernel), so the only randomness is the sample draw.
    """
    return sampling_rate(
        lambda n, rng: mmd_gaussian_kernel(kernel, measure, sample(measure, n, rng)), n_grid, trials, seed
    )
