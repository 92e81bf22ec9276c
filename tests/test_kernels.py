import json
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.special import gamma, kv

from wmmd.measures import RegularizerSpec, stream_rng
from wmmd.kernels import (
    KernelSpec,
    NonSmoothAtZero,
    kernel_to_dict,
    kernel_from_dict,
    kernel_from_text,
    sphere_directions,
    _sq_dists,
)


GAUSS = KernelSpec.gaussian(1.3, 2, scale=0.8)
LAP = KernelSpec.laplacian(0.9, 2)
MAT = KernelSpec.matern(1.5, 1.1, 2)
CONV = KernelSpec.conv_root(RegularizerSpec(0.6), 2)


def _at(k, z):
    """kappa0 at one offset z: kappa(z, 0) through gram."""
    return k.gram(z, np.zeros(k.d))[0, 0]


def _k0(k):
    """kappa0(0) = kappa(0, 0)."""
    return _at(k, np.zeros(k.d))


def test_values_at_zero():
    assert _k0(GAUSS) == pytest.approx(0.8)
    assert _k0(LAP) == 1.0
    assert _k0(MAT) == 1.0
    assert _k0(CONV) == pytest.approx((4 * np.pi * 0.36) ** -1.0)


def test_gaussian_eval_closed_form():
    x = np.array([1.0, 2.0])
    y = np.array([0.5, -0.5])
    r2 = np.sum((x - y) ** 2)
    assert GAUSS.gram(x, y)[0, 0] == pytest.approx(0.8 * np.exp(-r2 / (2 * 1.3**2)), rel=1e-14)


def test_matern_half_equals_laplacian():
    """nu = 1/2's closed-form profile exp(-r/sigma) against the Bessel form of the Matern kernel."""
    m = KernelSpec.matern(0.5, 0.9, 2)
    rng = stream_rng(11)
    X = rng.standard_normal((6, 2))
    Y = rng.standard_normal((5, 2))
    t = np.linalg.norm(X[:, None, :] - Y[None, :, :], axis=2) / 0.9
    assert np.allclose(m.gram(X, Y), 2.0**0.5 / gamma(0.5) * t**0.5 * kv(0.5, t), rtol=1e-14, atol=0)


def _laplacian_reference(sigma, d):
    """The Laplacian as its own family: profile, spectral sampler and Fourier transform."""
    a = 1.0 / sigma
    c = 2.0**d * np.pi ** ((d - 1) / 2) * gamma((d + 1) / 2) * a

    def sample(m, rng):
        z = rng.standard_normal((m, d)) / sigma
        return z / np.sqrt(rng.chisquare(1.0, size=m) / 1.0)[:, None]

    return (lambda r: np.exp(-r / sigma)), sample, (lambda w2: c * (a**2 + w2) ** (-(d + 1) / 2))


@given(st.floats(0.05, 20.0), st.integers(1, 3), st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_laplacian_is_the_matern_half_kernel(sigma, d, seed):
    """KernelSpec.laplacian is Matern nu = 1/2, with the values of the Laplacian's own formulas."""
    k = KernelSpec.laplacian(sigma, d)
    profile, sample, transform = _laplacian_reference(sigma, d)
    rng = stream_rng(seed)
    X, Y = sigma * rng.standard_normal((5, d)), sigma * rng.standard_normal((4, d))
    assert np.array_equal(k.gram(X, Y), profile(np.sqrt(_sq_dists(X, Y))))
    assert np.array_equal(k.spectral_sample(20, stream_rng(seed, 1)), sample(20, stream_rng(seed, 1)))
    omega = rng.standard_normal((6, d)) / sigma
    want = transform(np.sum(omega**2, axis=1))
    assert np.allclose(k.fourier_kappa0(omega), want, rtol=1e-15, atol=0)
    with pytest.raises(NonSmoothAtZero):
        k.hessian_constant()
    k2 = kernel_from_dict({"family": "laplacian", "sigma": sigma, "d": d})
    assert kernel_to_dict(k2) == kernel_to_dict(k) == {"family": "matern", "nu": 0.5, "sigma": sigma, "d": d}


def test_gram_symmetry_and_psd():
    rng = stream_rng(4)
    X = rng.standard_normal((10, 2))
    for k in (GAUSS, LAP, MAT, CONV):
        G = k.gram(X, X)
        assert np.allclose(G, G.T, atol=1e-14)
        ev = np.linalg.eigvalsh(G)
        assert ev.min() > -1e-10


# LAP is a Matern kernel and CONV a Gaussian one; their ids keep the names they had as families of their own.
_IDS = ["gaussian", "laplacian", "matern", "convroot"]


@pytest.mark.parametrize("k", [GAUSS, LAP, MAT, CONV], ids=_IDS)
def test_fourier_inversion_at_origin(k):
    # (2 pi)^(-1) int kappa0_hat(w) dw over a 1-D version recovers kappa0(0)
    if k.family == "gaussian":
        k1 = KernelSpec.gaussian(k.sigma, 1, k.scale)
    else:
        k1 = KernelSpec.matern(k.nu, k.sigma, 1)
    val, _ = quad(lambda w: k1.fourier_kappa0(np.array([w]))[0], -np.inf, np.inf)
    assert val / (2 * np.pi) == pytest.approx(_k0(k1), rel=1e-7)


def test_fourier_transform_is_numerically_correct():
    # direct numeric transform of kappa0 in 1-D at a few frequencies
    k = KernelSpec.matern(1.5, 1.1, 1)
    for w in (0.0, 0.5, 2.0):
        num, _ = quad(lambda z: _at(k, z) * np.cos(w * z), -60, 60, limit=400)
        assert k.fourier_kappa0(np.array([w]))[0] == pytest.approx(num, rel=1e-6)


@pytest.mark.parametrize("k", [GAUSS, LAP, MAT, CONV], ids=_IDS)
def test_spectral_sampler_matches_bochner(k):
    """Empirical E[cos(w^T z)] over spectral draws approximates kappa0(z)/kappa0(0)."""
    m = 40_000
    rng = stream_rng(21)
    W = k.spectral_sample(m, rng)
    for z in (np.array([0.5, 0.0]), np.array([1.0, -1.0])):
        emp = np.mean(np.cos(W @ z))
        assert abs(emp - _at(k, z) / _k0(k)) < 4.0 / np.sqrt(m)


def test_hessian_constant_gaussian():
    k = KernelSpec.gaussian(2.0, 3)
    # kappa0(0) = 1, lambda_max = 1/sigma^2
    assert k.hessian_constant() == pytest.approx(0.5)


def _hessian_constant_fd(k, step=1e-4):
    """kappa0(0) * sqrt(lambda_max(-hess kappa0(0))) from Richardson-refined central differences."""

    def second_diag(h):
        H = np.empty(k.d)
        e = np.eye(k.d)
        k0 = _k0(k)
        for i in range(k.d):
            H[i] = (_at(k, h * e[i]) - 2 * k0 + _at(k, -h * e[i])) / h**2
        return H

    d1 = second_diag(step)
    d2 = second_diag(step / 2.0)
    diag = (4.0 * d2 - d1) / 3.0  # Richardson extrapolation, O(h^4)
    return _k0(k) * np.sqrt(float(np.max(-diag)))


@pytest.mark.parametrize(
    "k,rel",
    [
        (GAUSS, 1e-5),
        # nu=1.5 is only C^2: the odd |r|^3 term leaves an O(h) difference
        # error that Richardson (built for even powers) cannot cancel.
        (MAT, 5e-4),
        pytest.param(CONV, 1e-5, id="KernelSpec(convroot, d=2, sigma=0.6)-1e-05"),
        (KernelSpec.matern(2.5, 0.8, 1), 1e-5),
    ],
    ids=lambda v: repr(v),
)
def test_hessian_constant_vs_finite_difference(k, rel):
    assert k.hessian_constant() == pytest.approx(_hessian_constant_fd(k), rel=rel)


_CONV_CASES = [(s, d) for s in np.geomspace(0.05, 20.0, 9) for d in (1, 2, 3)]


@pytest.mark.parametrize("s,d", _CONV_CASES)
def test_conv_root_matches_its_closed_forms(s, d):
    """conv_root(N(0, s^2 I)) against the closed forms of alpha * alpha: kappa0, its transform, C."""
    k = KernelSpec.conv_root(RegularizerSpec(s), d)
    rng = stream_rng(0xC0, d)
    z = s * rng.standard_normal((6, d))
    k0 = (4 * np.pi * s**2) ** (-d / 2)
    want = k0 * np.exp(-np.sum(z**2, axis=1) / (4 * s**2))
    assert np.allclose(k.gram(z, np.zeros((1, d)))[:, 0], want, rtol=1e-13, atol=0)
    omega = rng.standard_normal((6, d)) / s
    assert np.allclose(k.fourier_kappa0(omega), np.exp(-s**2 * np.sum(omega**2, axis=1)), rtol=1e-13, atol=0)
    assert k.hessian_constant() == pytest.approx(k0 * np.sqrt(k0 / (2 * s**2)), rel=1e-13)


@pytest.mark.parametrize("s,d", _CONV_CASES)
def test_conv_root_spectral_draws_keep_their_bits(s, d):
    k = KernelSpec.conv_root(RegularizerSpec(s), d)
    draws = k.spectral_sample(50, stream_rng(0xC1))
    assert np.array_equal(draws, KernelSpec.gaussian(np.sqrt(2.0) * s, d).spectral_sample(50, stream_rng(0xC1)))
    assert np.array_equal(draws, stream_rng(0xC1).standard_normal((50, d)) / (np.sqrt(2.0) * s))


def test_nonsmooth_kernels_refuse_hessian():
    with pytest.raises(NonSmoothAtZero):
        LAP.hessian_constant()
    with pytest.raises(NonSmoothAtZero):
        KernelSpec.matern(0.5, 1.0, 2).hessian_constant()
    with pytest.raises(NonSmoothAtZero):
        KernelSpec.matern(1.0, 1.0, 2).hessian_constant()


def test_sliced_kernel_eval_is_direction_average():
    theta = sphere_directions(8, 3, seed=5)
    base = KernelSpec.gaussian(1.0, 1)
    k = KernelSpec.sliced(base, theta)
    x = np.array([0.3, -0.7, 1.1])
    y = np.zeros(3)
    manual = np.mean([_at(base, t @ (x - y)) for t in theta])
    assert k.gram(x, y)[0, 0] == pytest.approx(manual, rel=1e-14)


_SLICE_BASES = {
    "gaussian": KernelSpec.gaussian(0.77, 1, scale=1.3),
    "laplacian": KernelSpec.laplacian(0.9, 1),
    "matern": KernelSpec.matern(2.5, 1.1, 1),
    "modified": KernelSpec.modified(KernelSpec.gaussian(1.0, 1), 1.0),
}


@given(
    st.sampled_from(sorted(_SLICE_BASES)),
    st.integers(2, 3),
    st.integers(1, 8),
    st.tuples(st.integers(1, 6), st.integers(1, 6)),
    st.integers(0, 2**32 - 1),
    st.floats(-3.0, 3.0),
)
@settings(max_examples=100, deadline=None)
def test_sliced_gram_is_the_direction_sum_of_base_grams(family, d, T, sizes, seed, log_spread):
    """The sliced Gram matrix is the base's Gram matrices on each direction's projections, summed in order, over T."""
    base = _SLICE_BASES[family]
    theta = sphere_directions(T, d, seed=seed)
    rng = stream_rng(seed)
    X, Y = (10.0**log_spread * rng.standard_normal((n, d)) for n in sizes)
    pX, pY = X @ theta.T, Y @ theta.T
    want = np.zeros(sizes)
    for t in range(T):
        want += base.gram(pX[:, [t]], pY[:, [t]])
    assert np.array_equal(KernelSpec.sliced(base, theta).gram(X, Y), want / T)


def test_sliced_rejects_bad_directions():
    base = KernelSpec.gaussian(1.0, 1)
    with pytest.raises(ValueError):
        KernelSpec.sliced(base, np.array([[1.0, 1.0]]))  # not unit norm


def test_modified_kernel_adds_inner_product():
    base = KernelSpec.gaussian(1.0, 2)
    k = KernelSpec.modified(base, 0.5)
    x = np.array([1.0, 2.0])
    assert k.gram(x, x)[0, 0] == pytest.approx(_k0(base) + 0.5 * 5.0)


def test_modified_mean_weight_restricted():
    base = KernelSpec.gaussian(1.0, 3)
    KernelSpec.modified(base, 1.0)
    KernelSpec.modified(base, 1.0 / 3.0)
    with pytest.raises(ValueError):
        KernelSpec.modified(base, 0.2)


@pytest.mark.parametrize(
    "k",
    [
        GAUSS,
        LAP,
        MAT,
        CONV,
        KernelSpec.sliced(KernelSpec.gaussian(0.77, 1), sphere_directions(4, 2, seed=1)),
        KernelSpec.modified(KernelSpec.gaussian(1.0, 2), 0.5),
    ],
    ids=_IDS + ["sliced", "modified"],
)
def test_json_roundtrip_bit_exact(k):
    k2 = kernel_from_text(json.dumps(kernel_to_dict(k)), k.d)
    assert k2.family == k.family and k2.d == k.d
    rng = stream_rng(99)
    X = rng.standard_normal((4, k.d))
    G1, G2 = k.gram(X, X), k2.gram(X, X)
    assert np.array_equal(G1, G2)


def test_sphere_directions_deterministic_and_unit():
    a = sphere_directions(16, 3, seed=7)
    b = sphere_directions(16, 3, seed=7)
    assert np.array_equal(a, b)
    assert np.allclose(np.linalg.norm(a, axis=1), 1.0, atol=1e-12)


def test_sphere_directions_take_every_64_bit_seed():
    """Seeds at and past 2^63 draw distinct directions, and -1 is 2^64 - 1 (stream_rng's key)."""
    a, b = sphere_directions(4, 3, seed=2**63), sphere_directions(4, 3, seed=2**63 + 1)
    assert not np.array_equal(a, b)
    assert np.array_equal(sphere_directions(4, 3, seed=-1), sphere_directions(4, 3, seed=2**64 - 1))


def test_constructor_validation():
    with pytest.raises(ValueError):
        KernelSpec.gaussian(0.0, 1)
    with pytest.raises(ValueError):
        KernelSpec.matern(-1.0, 1.0, 1)
    with pytest.raises(TypeError):
        KernelSpec.conv_root(0.5, 1)


@pytest.mark.parametrize("sigma", [1e-170, 1e-300, 1e170])
def test_gaussian_refuses_a_width_whose_square_leaves_the_float_range(sigma):
    with pytest.raises(ValueError, match="sigma must be positive with a positive finite square"):
        KernelSpec.gaussian(sigma, 1)


@pytest.mark.parametrize("s,d", [(1e-200, 1), (1e200, 1), (0.5, 2000), (1e-100, 8)])
def test_conv_root_refuses_a_scale_outside_the_float_range(s, d):
    with pytest.raises(ValueError, match=re.escape(f"sigma = {s!r} and d = {d} put the scale")):
        KernelSpec.conv_root(RegularizerSpec(s), d)


@pytest.mark.parametrize("nu", [90.0, 150.0])  # the constant overflows to inf at 90; a float power overflows at 150
def test_matern_transform_out_of_float_range_names_nu_and_sigma(nu):
    k = KernelSpec.matern(nu, 1.0, 1)
    with pytest.raises(ValueError, match=f"nu = {nu:g} and sigma = 1 leaves the float range"):
        k.fourier_kappa0(np.array([0.0, 1.0]))


def test_1d_sq_dists_are_exact_differences():
    X = stream_rng(12).normal(size=(300, 1)) * 1e4 + 1e8
    sq = _sq_dists(X, X)
    assert np.all(np.diag(sq) == 0.0)
    assert np.array_equal(sq, sq.T)
    assert np.array_equal(sq, (X - X.T) ** 2)


# Coordinates up to 1e7 in magnitude, and 0; none so small that a squared
# difference could underflow.
_COORD = st.just(0.0) | st.floats(1e-7, 1e7) | st.floats(-1e7, -1e-7)


@given(st.integers(1, 5), st.data())
@settings(max_examples=200, deadline=None)
def test_sq_dists_are_zero_at_equal_rows_symmetric_and_accurate(d, data):
    """Exactly 0 between equal rows, sq(X, Y) = sq(Y, X).T bit for bit, and
    every entry within (d + 2) eps relative of the exact value.

    Each squared difference carries at most 3 roundings and the sum d - 1 more,
    so (d + 2) units of 2^-53 bound the error to first order; eps = 2^-52
    leaves room for the second-order terms.
    """
    row = st.lists(_COORD, min_size=d, max_size=d)
    X = data.draw(st.lists(row, min_size=1, max_size=6))
    repeats = data.draw(st.lists(st.sampled_from(X), min_size=1, max_size=3))
    X, Y = np.array(X), np.array(data.draw(st.lists(row, max_size=4)) + repeats)
    sq = _sq_dists(X, Y)
    assert np.array_equal(sq, _sq_dists(Y, X).T)
    tol = (d + 2) * Fraction(np.finfo(float).eps)
    for i, x in enumerate(X):
        for j, y in enumerate(Y):
            exact = sum((Fraction(a) - Fraction(b)) ** 2 for a, b in zip(x, y))
            if np.array_equal(x, y):
                assert sq[i, j] == 0.0
            assert abs(Fraction(sq[i, j]) - exact) <= tol * exact
