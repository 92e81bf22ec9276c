"""Maximum mean discrepancy by double sums, closed forms, quadrature, slicing.

The double sum, the closed form and the spectral integral sum over the signed
measure mu - nu; `smoothed_l2` keeps aa + bb - 2 ab.  All routines return the
MMD itself (not its square).  Tiny negative squared values coming from
round-off are clamped to zero; anything materially negative signals a
non-p.s.d. kernel and raises.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .measures import DiscreteMeasure, GaussianMixture, RegularizerSpec, _scipy, _tanh_sinh, project
from .runtime import _block_sum
from .kernels import _sq_dists

# No route integrates by QUADPACK; the name stays because bench/tracer.py counts its calls.
quad = _scipy("integrate", "quad")

__all__ = [
    "mmd",
    "mmd_discrete",
    "mmd_gaussian_kernel",
    "mmd_spectral_1d",
    "smoothed_l2",
    "mmd_sliced",
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
    """||mu - nu||_kappa as a.(K_aa a - K_ab b) - b.(K_ab^T a - K_bb b).

    The signed weights meet the MMD witness (Gretton et al. 2012, JMLR 13) at
    each atom, so the Gram sums cancel atom by atom, not after each is rounded.
    """
    if mu.d != k.d or nu.d != k.d:
        raise ValueError("dimension mismatch")
    a, b = mu.weights, nu.weights
    Ka = k.gram(mu.points, mu.points) @ a
    Kb = k.gram(nu.points, nu.points) @ b
    Kab = k.gram(mu.points, nu.points)
    sq = float(a @ (Ka - Kab @ b) - b @ (Kab.T @ a - Kb))
    return np.sqrt(_clamp_sq(sq, float(a @ Ka + b @ Kb)))


def _as_components(measure):
    """(weights, means, sigmas) view; discrete atoms get sigma = 0."""
    if isinstance(measure, DiscreteMeasure):
        return measure.weights, measure.points, np.zeros(measure.n)
    if isinstance(measure, GaussianMixture):
        return measure.weights, measure.means, measure.sigmas
    raise TypeError("unsupported measure type")


# Rows per block of the Gaussian sum.  The row count fixes how the sum is
# grouped, and so its bits; 64 rows amortise the per-block call overhead.
# A 64 x 8192 float64 block is 4 MiB, twice a 2 MiB L2, yet column tiles
# that fit L2 were slower: `mmd_gaussian_kernel` of N(0, 1) against 8,192
# atoms took 47-56 ms untiled and 65-107 ms in tiles of 1,024-4,096 columns.
_BLOCK = 64

# A sum goes to the block pool (`runtime._block_sum`) only when its rows
# average _MIN_PAIRS / _BLOCK pairs (a block of 512 KiB): narrower blocks
# spend more CPU on interpreter-lock hand-offs than they save.
_MIN_PAIRS = 2**16


def _gauss_block(m1, s1, m2, s2, sig2, d):
    """E[exp(-||X_i - Y_j||^2 / (2 sig2))] for X_i ~ N(m1_i, s1_i^2 I), Y_j ~ N(m2_j, s2_j^2 I)."""
    sq = _sq_dists(m1, m2)
    if not (s1.any() or s2.any()):
        c = -2.0 * sig2
        frac, exp = math.frexp(c)
        if frac == -0.5 and -1022 <= exp <= 1023:
            # c is a power of two with a normal reciprocal: the product rounds
            # the same real number as the quotient, subnormals included
            sq *= 1.0 / c
        else:
            sq /= c
        return np.exp(sq, out=sq)
    denom = sig2 + s1[:, None] ** 2 + s2[None, :] ** 2
    sq /= -2.0 * denom
    np.exp(sq, out=sq)
    sq *= (sig2 / denom) ** (d / 2)
    return sq


def _gauss_signed_sum(w, m, s, sig2, d):
    """sum_ij w_i w_j E[exp(-||X_i - X_j||^2 / (2 sig2))] for X_i ~ N(m_i, s_i^2 I), in any order.

    Positive widths go first (a stable partition).  Row blocks start at 0 and
    at the first zero width, and meet the columns from their first row on, so
    atoms meet only atoms and keep `_gauss_block`'s atom path.
    """
    order = np.argsort(s == 0.0, kind="stable")
    w, m, s = w[order], m[order], s[order]
    n, n_pos = w.size, int(np.count_nonzero(s))

    def block_value(i0):
        i1 = min(i0 + _BLOCK, n_pos if i0 < n_pos else n)
        block = _gauss_block(m[i0:i1], s[i0:i1], m[i0:], s[i0:], sig2, d)
        wb = w[i0:i1]
        b = i1 - i0
        return wb @ block[:, :b] @ wb + 2.0 * (wb @ block[:, b:] @ w[i1:])

    starts = [*range(0, n_pos, _BLOCK), *range(n_pos, n, _BLOCK)]
    return float(_block_sum(block_value, starts, n * (n + 1) // 2 * _BLOCK >= _MIN_PAIRS * n))


def _signed_components(mu, nu):
    """Signed (weight, mean, sigma) components of mu - nu; sigma=0 for atoms."""
    w1, m1, s1 = _as_components(mu)
    w2, m2, s2 = _as_components(nu)
    return np.concatenate([w1, -w2]), np.concatenate([m1, m2]), np.concatenate([s1, s2])


def mmd_gaussian_kernel(k, mu, nu):
    """Closed-form MMD under a Gaussian kernel k, kappa0(z) = scale * exp(-||z||^2 / (2 sigma^2)).

    Inputs may be isotropic Gaussian mixtures or discrete measures (treated
    as mixtures of zero-width components); every pairwise expectation is a
    Gaussian integral with an explicit value.  The square is one sum over the
    signed components c of mu - nu, clamped against scale (sum_i |c_i|)^2 = 4 scale.
    """
    if k.family != "gaussian":
        raise ValueError("kernel must be Gaussian")
    if mu.d != k.d or nu.d != k.d:
        raise ValueError("dimension mismatch")
    sq = k.scale * _gauss_signed_sum(*_signed_components(mu, nu), k.sigma**2, k.d)
    return np.sqrt(_clamp_sq(sq, 4.0 * k.scale))


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
    w, m, s = _signed_components(mu, nu)
    atom = (2.0 * s**2 <= 1e-12) & (k.family != "gaussian")
    s = np.where(atom, 0.0, s)

    def f(om):
        t = w * np.exp(np.multiply.outer(om, 1j * m[:, 0]) - 0.5 * np.multiply.outer(om**2, s**2))
        mix = t[:, ~atom]
        diff = mix.sum(axis=1)
        diff[np.abs(diff) <= w.size * np.finfo(float).eps * np.abs(mix).sum(axis=1)] = 0.0
        return k.fourier_kappa0(om) * ((diff + 2.0 * t[:, atom].sum(axis=1)) * diff.conj()).real

    integral = _tanh_sinh(f, [0.0, np.inf]) / np.pi  # the doubled half-line over 2 pi
    wa, K = w[atom], k.gram(m[atom], m[atom])
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
