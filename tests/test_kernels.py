import numpy as np
import pytest
from scipy.integrate import quad

from wmmd.measures import RegularizerSpec, stream_rng
from wmmd.kernels import (
    KernelSpec,
    NonSmoothAtZero,
    kernel_to_json,
    kernel_from_json,
    sphere_directions,
    _sq_dists,
)


GAUSS = KernelSpec.gaussian(1.3, 2, scale=0.8)
LAP = KernelSpec.laplacian(0.9, 2)
MAT = KernelSpec.matern(1.5, 1.1, 2)
CONV = KernelSpec.conv_root(RegularizerSpec(0.6), 2)


def test_values_at_zero():
    assert GAUSS.kappa0_0() == pytest.approx(0.8)
    assert LAP.kappa0_0() == 1.0
    assert MAT.kappa0_0() == 1.0
    assert CONV.kappa0_0() == pytest.approx((4 * np.pi * 0.36) ** -1.0)


def test_gaussian_eval_closed_form():
    x = np.array([1.0, 2.0])
    y = np.array([0.5, -0.5])
    r2 = np.sum((x - y) ** 2)
    assert GAUSS.eval(x, y) == pytest.approx(0.8 * np.exp(-r2 / (2 * 1.3**2)), rel=1e-14)


def test_matern_half_equals_laplacian():
    """nu = 1/2 collapses to the exponential kernel with the same sigma."""
    m = KernelSpec.matern(0.5, 0.9, 2)
    rng = stream_rng(11)
    X = rng.standard_normal((6, 2))
    Y = rng.standard_normal((5, 2))
    assert np.allclose(m.gram(X, Y), LAP.gram(X, Y), atol=1e-12)


def test_gram_symmetry_and_psd():
    rng = stream_rng(4)
    X = rng.standard_normal((10, 2))
    for k in (GAUSS, LAP, MAT, CONV):
        G = k.gram(X, X)
        assert np.allclose(G, G.T, atol=1e-14)
        ev = np.linalg.eigvalsh(G)
        assert ev.min() > -1e-10


@pytest.mark.parametrize("k", [GAUSS, LAP, MAT, CONV], ids=lambda k: k.family)
def test_fourier_inversion_at_origin(k):
    # (2 pi)^(-1) int kappa0_hat(w) dw over a 1-D version recovers kappa0(0)
    k1 = {
        "gaussian": KernelSpec.gaussian(k.sigma, 1, getattr(k, "scale", 1.0)),
        "laplacian": KernelSpec.laplacian(k.sigma, 1),
        "matern": KernelSpec.matern(k.nu, k.sigma, 1) if k.family == "matern" else None,
        "convroot": KernelSpec.conv_root(RegularizerSpec(k.sigma), 1),
    }.get(k.family) or KernelSpec.matern(k.nu, k.sigma, 1)
    val, _ = quad(lambda w: k1.fourier_kappa0(np.array([w]))[0], -np.inf, np.inf)
    assert val / (2 * np.pi) == pytest.approx(k1.kappa0_0(), rel=1e-7)


def test_fourier_transform_is_numerically_correct():
    # direct numeric transform of kappa0 in 1-D at a few frequencies
    k = KernelSpec.matern(1.5, 1.1, 1)
    for w in (0.0, 0.5, 2.0):
        num, _ = quad(lambda z: k.kappa0(np.array([z])) * np.cos(w * z), -60, 60, limit=400)
        assert k.fourier_kappa0(np.array([w]))[0] == pytest.approx(num, rel=1e-6)


@pytest.mark.parametrize("k", [GAUSS, LAP, MAT, CONV], ids=lambda k: k.family)
def test_spectral_sampler_matches_bochner(k):
    """Empirical E[cos(w^T z)] over spectral draws approximates kappa0(z)/kappa0(0)."""
    m = 40_000
    rng = stream_rng(21)
    W = k.spectral_sample(m, rng)
    for z in (np.array([0.5, 0.0]), np.array([1.0, -1.0])):
        emp = np.mean(np.cos(W @ z))
        assert abs(emp - k.kappa0(z) / k.kappa0_0()) < 4.0 / np.sqrt(m)


def test_hessian_constant_gaussian():
    k = KernelSpec.gaussian(2.0, 3)
    # kappa0(0) = 1, lambda_max = 1/sigma^2
    assert k.hessian_constant() == pytest.approx(0.5)


def _hessian_constant_fd(k, step=1e-4):
    """kappa0(0) * sqrt(lambda_max(-hess kappa0(0))) from Richardson-refined central differences."""

    def second_diag(h):
        H = np.empty(k.d)
        e = np.eye(k.d)
        k0 = k.kappa0_0()
        for i in range(k.d):
            H[i] = (k.kappa0(h * e[i]) - 2 * k0 + k.kappa0(-h * e[i])) / h**2
        return H

    d1 = second_diag(step)
    d2 = second_diag(step / 2.0)
    diag = (4.0 * d2 - d1) / 3.0  # Richardson extrapolation, O(h^4)
    return k.kappa0_0() * np.sqrt(float(np.max(-diag)))


@pytest.mark.parametrize(
    "k,rel",
    [
        (GAUSS, 1e-5),
        # nu=1.5 is only C^2: the odd |r|^3 term leaves an O(h) difference
        # error that Richardson (built for even powers) cannot cancel.
        (MAT, 5e-4),
        (CONV, 1e-5),
        (KernelSpec.matern(2.5, 0.8, 1), 1e-5),
    ],
    ids=lambda v: repr(v),
)
def test_hessian_constant_vs_finite_difference(k, rel):
    assert k.hessian_constant() == pytest.approx(_hessian_constant_fd(k), rel=rel)


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
    manual = np.mean([base.kappa0(np.array([t @ (x - y)])) for t in theta])
    assert k.eval(x, y) == pytest.approx(manual, rel=1e-14)


def test_sliced_rejects_bad_directions():
    base = KernelSpec.gaussian(1.0, 1)
    with pytest.raises(ValueError):
        KernelSpec.sliced(base, np.array([[1.0, 1.0]]))  # not unit norm


def test_modified_kernel_adds_inner_product():
    base = KernelSpec.gaussian(1.0, 2)
    k = KernelSpec.modified(base, 0.5)
    x = np.array([1.0, 2.0])
    assert k.eval(x, x) == pytest.approx(base.kappa0_0() + 0.5 * 5.0)


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
    ids=lambda k: k.family,
)
def test_json_roundtrip_bit_exact(k):
    k2 = kernel_from_json(kernel_to_json(k))
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


def test_constructor_validation():
    with pytest.raises(ValueError):
        KernelSpec.gaussian(0.0, 1)
    with pytest.raises(ValueError):
        KernelSpec.matern(-1.0, 1.0, 1)
    with pytest.raises(TypeError):
        KernelSpec.conv_root(0.5, 1)


def test_1d_sq_dists_are_exact_differences():
    X = stream_rng(12).normal(size=(300, 1)) * 1e4 + 1e8
    sq = _sq_dists(X, X)
    assert np.all(np.diag(sq) == 0.0)
    assert np.array_equal(sq, sq.T)
    assert np.array_equal(sq, (X - X.T) ** 2)
