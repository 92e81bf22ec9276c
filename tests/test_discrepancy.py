import contextlib
import multiprocessing
import os

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wmmd import discrepancy, lab, measures
from wmmd.measures import (
    DiscreteMeasure,
    GaussianMixture,
    RegularizerSpec,
    _tanh_sinh,
    stream_rng,
)
from wmmd.kernels import KernelSpec, sphere_directions
from wmmd.discrepancy import (
    mmd,
    mmd_discrete,
    mmd_gaussian_kernel,
    mmd_spectral_1d,
    smoothed_l2,
    mmd_sliced,
    mmd_rate,
    _BLOCK,
    _gauss_cross,
    _gauss_self,
)


def _uniform(points):
    points = np.atleast_2d(points)
    return DiscreteMeasure(points, np.full(points.shape[0], 1.0 / points.shape[0]))


def _rand_pair_1d(rng, n=5):
    mu = DiscreteMeasure(rng.normal(size=(n, 1)), rng.uniform(0.1, 1, n))
    nu = DiscreteMeasure(rng.normal(size=(n, 1)), rng.uniform(0.1, 1, n))
    return mu, nu


def test_mmd_zero_on_identical():
    k = KernelSpec.gaussian(1.0, 2)
    mu = _uniform(stream_rng(0).normal(size=(4, 2)))
    assert mmd_discrete(k, mu, mu) == pytest.approx(0.0, abs=1e-12)


def test_mmd_symmetric():
    k = KernelSpec.laplacian(1.0, 2)
    rng = stream_rng(1)
    mu = _uniform(rng.normal(size=(4, 2)))
    nu = _uniform(rng.normal(size=(5, 2)))
    assert mmd_discrete(k, mu, nu) == pytest.approx(mmd_discrete(k, nu, mu), rel=1e-14)


def test_two_diracs_closed_form():
    # ||delta_x - delta_y||^2 = 2(kappa0(0) - kappa0(x - y))
    k = KernelSpec.gaussian(1.0, 1)
    mu = DiscreteMeasure([[0.0]], [1.0])
    nu = DiscreteMeasure([[1.5]], [1.0])
    expect = np.sqrt(2.0 * (1.0 - np.exp(-1.5**2 / 2.0)))
    assert mmd_discrete(k, mu, nu) == pytest.approx(expect, rel=1e-14)


def test_closed_form_matches_double_sum_on_diracs():
    rng = stream_rng(5)
    k = KernelSpec.gaussian(0.8, 3)
    for _ in range(20):
        mu = DiscreteMeasure(rng.normal(size=(4, 3)), rng.uniform(0.1, 1, 4))
        nu = DiscreteMeasure(rng.normal(size=(6, 3)), rng.uniform(0.1, 1, 6))
        assert mmd_gaussian_kernel(k, mu, nu) == pytest.approx(
            mmd_discrete(k, mu, nu), abs=1e-12
        )


def _gauss_double_sum(w1, m1, s1, w2, m2, s2, sigma_k, d):
    """sum_ij w1_i w2_j E[exp(-||X_i - Y_j||^2 / (2 sigma_k^2))], term by term."""
    diff = m1[:, None, :] - m2[None, :, :]
    sq = np.sum(diff * diff, axis=2)
    var = sigma_k**2 + s1[:, None] ** 2 + s2[None, :] ** 2
    terms = (sigma_k**2 / var) ** (d / 2) * np.exp(-sq / (2.0 * var))
    return float(np.sum(w1[:, None] * w2[None, :] * terms))


# 1 and 100 rows, whole blocks only, and a last block of one row.
@pytest.mark.parametrize("n", [1, 100, 4 * _BLOCK, 8 * _BLOCK + 1])
@pytest.mark.parametrize("d", [1, 3])
@pytest.mark.parametrize("widths", ["zero", "mixed"])
def test_blocked_gauss_sums_match_double_sum(n, d, widths):
    rng = stream_rng(31, n, d)
    sigma_k, scale = 0.9, 1.7

    def components(size):
        w = rng.uniform(0.1, 1.0, size)
        s = rng.uniform(0.2, 1.5, size) * (rng.uniform(size=size) < 0.5)
        if widths == "zero":
            s[:] = 0.0
        return w / w.sum(), rng.normal(size=(size, d)), s

    A, B = components(n), components(37)
    aa = _gauss_double_sum(*A, *A, sigma_k, d)
    bb = _gauss_double_sum(*B, *B, sigma_k, d)
    ab = _gauss_double_sum(*A, *B, sigma_k, d)
    tol = 1e-12 * scale * (aa + bb)
    assert abs(_gauss_self(*A, sigma_k, scale, d) - scale * aa) <= tol
    assert abs(_gauss_self(*B, sigma_k, scale, d) - scale * bb) <= tol
    assert abs(_gauss_cross(*A, *B, sigma_k, scale, d) - scale * ab) <= tol
    assert abs(_gauss_cross(*B, *A, sigma_k, scale, d) - scale * ab) <= tol


# Coordinates from a small grid (ties and repeated atoms) or arbitrary ones.
_coords = st.sampled_from([-1.0, 0.0, 0.5]) | st.floats(-4.0, 4.0)


@st.composite
def _side(draw, d, mixture):
    """A discrete measure or an isotropic Gaussian mixture, of at most 5 atoms or components."""
    n = draw(st.integers(1, 5))
    w = draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n))
    m = np.array(draw(st.lists(st.lists(_coords, min_size=d, max_size=d), min_size=n, max_size=n)))
    if not mixture:
        return DiscreteMeasure(m, w)
    return GaussianMixture(w, m, draw(st.lists(st.floats(0.1, 2.0), min_size=n, max_size=n)))


def _closed_form_sq(sigma_k, scale, mu, nu):
    """(squared MMD, aa + bb) under scale*exp(-||z||^2/(2 sigma_k^2)), summed term by term."""
    A, B = (
        (g.weights, g.means, g.sigmas) if isinstance(g, GaussianMixture) else (g.weights, g.points, np.zeros(g.n))
        for g in (mu, nu)
    )
    aa, bb, ab = (scale * _gauss_double_sum(*X, *Y, sigma_k, mu.d) for X, Y in ((A, A), (B, B), (A, B)))
    return aa + bb - 2.0 * ab, aa + bb


@given(
    st.sampled_from([1, 2]).flatmap(lambda d: st.tuples(_side(d, False), _side(d, False))),
    st.sampled_from(["gaussian", "laplacian", "matern"]),
)
@settings(max_examples=100, deadline=None)
def test_mmd_chooser_matches_the_double_sum_on_discrete_pairs(pair, family):
    mu, nu = pair
    k = {"gaussian": KernelSpec.gaussian(0.8, mu.d, scale=1.3), "laplacian": KernelSpec.laplacian(0.9, mu.d),
         "matern": KernelSpec.matern(1.5, 1.1, mu.d)}[family]
    val = mmd(k, mu, nu)
    assert val == mmd_discrete(k, mu, nu)
    if family == "gaussian":
        sq, mass = _closed_form_sq(0.8, 1.3, mu, nu)
        assert abs(val**2 - sq) <= 1e-12 * mass


@given(
    st.sampled_from([1, 2]).flatmap(lambda d: st.tuples(_side(d, True), st.booleans().flatmap(lambda m: _side(d, m)))),
    st.sampled_from([0.5, 1.5]),
)
@settings(max_examples=100, deadline=None)
def test_mmd_chooser_matches_the_closed_form_on_mixtures(pair, sigma_k):
    """A mixture against a mixture or a discrete measure takes the Gaussian closed form."""
    mu, nu = pair
    k = KernelSpec.gaussian(sigma_k, mu.d, scale=0.7)
    val = mmd(k, mu, nu)
    assert val == mmd_gaussian_kernel(k, mu, nu)
    sq, mass = _closed_form_sq(sigma_k, 0.7, mu, nu)
    assert abs(val**2 - sq) <= 1e-12 * mass


def test_gmm_closed_form_two_gaussians():
    """Hand-checkable case: N(0, s1^2) vs N(m, s2^2), unit Gaussian kernel."""
    s1, s2, m = 0.5, 1.0, 2.0
    mu = GaussianMixture([1.0], [[0.0]], [s1])
    nu = GaussianMixture([1.0], [[m]], [s2])

    def cross(sa, sb, delta):
        v = 1.0 + sa**2 + sb**2
        return v**-0.5 * np.exp(-(delta**2) / (2 * v))

    sq = cross(s1, s1, 0) + cross(s2, s2, 0) - 2 * cross(s1, s2, m)
    assert mmd_gaussian_kernel(KernelSpec.gaussian(1.0, 1), mu, nu) == pytest.approx(np.sqrt(sq), rel=1e-12)


@pytest.mark.parametrize("sigma_k", [0.0, 1e-170, float("nan"), float("inf"), 1e170, -1.0])
def test_gmm_closed_form_refuses_a_width_whose_square_leaves_the_float_range(sigma_k):
    """The closed form takes its width from a Gaussian KernelSpec, which refuses these widths."""
    mu = GaussianMixture([1.0], [[0.0]], [0.5])
    with pytest.raises(ValueError, match="sigma must be positive"):
        mmd_gaussian_kernel(KernelSpec.gaussian(sigma_k, 1), mu, mu)


# Two 2-D one-component mixtures, means (0, 0) and (0, 5): they differ only in
# the second coordinate, which a route reading column 0 alone would miss.
_PLANE_PAIR = (GaussianMixture([1.0], [[0.0, 0.0]], [1.0]), GaussianMixture([1.0], [[0.0, 5.0]], [1.0]))


def test_gmm_closed_form_refuses_measures_of_another_dimension():
    with pytest.raises(ValueError, match="dimension mismatch"):
        mmd_gaussian_kernel(KernelSpec.gaussian(1.0, 1), *_PLANE_PAIR)


def test_spectral_route_refuses_measures_of_another_dimension():
    with pytest.raises(ValueError, match="dimension mismatch"):
        mmd(KernelSpec.matern(1.5, 1.0, 1), *_PLANE_PAIR)


@pytest.mark.parametrize(
    "kernel",
    [
        KernelSpec.gaussian(1.0, 1),
        KernelSpec.gaussian(0.5, 1, scale=2.0),
        # a Matern and a Gaussian kernel; the ids keep the names they had as families of their own
        pytest.param(KernelSpec.laplacian(0.8, 1), id="KernelSpec(laplacian, d=1, sigma=0.8)"),
        KernelSpec.matern(1.5, 1.2, 1),
        pytest.param(KernelSpec.conv_root(RegularizerSpec(0.6), 1), id="KernelSpec(convroot, d=1, sigma=0.6)"),
    ],
    ids=lambda k: repr(k),
)
def test_spectral_route_matches_double_sum(kernel):
    rng = stream_rng(8)
    mu, nu = _rand_pair_1d(rng)
    direct = mmd_discrete(kernel, mu, nu)
    spectral = mmd_spectral_1d(kernel, mu, nu)
    assert spectral == pytest.approx(direct, rel=1e-8)


def test_spectral_route_on_mixtures_matches_closed_form():
    k = KernelSpec.gaussian(1.1, 1)
    mu = GaussianMixture([0.4, 0.6], [[-1.0], [1.0]], [0.5, 0.8])
    nu = GaussianMixture([1.0], [[0.2]], [1.0])
    assert mmd_spectral_1d(k, mu, nu) == pytest.approx(
        mmd_gaussian_kernel(k, mu, nu), rel=1e-9
    )


def _matern_half_mmd_mpmath(sigma_k, mu, nu):
    """40-digit MMD under kappa0(z) = exp(-|z| / sigma_k) between 1-D mixtures or discrete measures.

    Each pair of components contributes E exp(-|Z| / sigma_k), Z ~ N(delta, v):
    1/2 e^(v / 2 sigma_k^2) [e^(-delta / sigma_k) erfc((v / sigma_k - delta) / sqrt(2 v))
    + e^(delta / sigma_k) erfc((v / sigma_k + delta) / sqrt(2 v))], and e^(-|delta| / sigma_k) at v = 0.
    """

    def components(g, sign):
        widths = g.sigmas if isinstance(g, GaussianMixture) else np.zeros(g.n)
        centres = g.means if isinstance(g, GaussianMixture) else g.points
        return [(sign * mpmath.mpf(w), mpmath.mpf(m[0]), mpmath.mpf(s)) for w, m, s in zip(g.weights, centres, widths)]

    with mpmath.workdps(40):
        sig = mpmath.mpf(sigma_k)

        def pair(delta, v):
            if v == 0:
                return mpmath.exp(-abs(delta) / sig)
            r = mpmath.sqrt(2 * v)
            return mpmath.exp(v / (2 * sig**2)) / 2 * (
                mpmath.exp(-delta / sig) * mpmath.erfc((v / sig - delta) / r)
                + mpmath.exp(delta / sig) * mpmath.erfc((v / sig + delta) / r)
            )

        comps = components(mu, 1) + components(nu, -1)
        return mpmath.sqrt(mpmath.fsum(a * b * pair(m - n, s**2 + t**2) for a, m, s in comps for b, n, t in comps))


def _mixture_and_atoms(rng):
    """A 3-component mixture and a 4-atom measure, both with U(0.1, 1) weights."""
    mu = GaussianMixture(rng.uniform(0.1, 1, 3), rng.normal(size=(3, 1)), rng.uniform(0.3, 1.5, 3))
    return mu, DiscreteMeasure(rng.normal(size=(4, 1)), rng.uniform(0.1, 1, 4))


@pytest.mark.parametrize(
    "draw",
    [lab._same_mean_gmm_pair, _mixture_and_atoms],
    ids=["same-mean-mixtures", "mixture-vs-atoms"],
)
def test_spectral_route_matches_mpmath_under_matern_half(draw):
    """Ten pairs each against the erfc closed form: the atoms' block by `gram`, the rest in one integral."""
    rng = stream_rng(0x5E)
    for sigma_k in (0.7, 1.0, 1.6):
        k = KernelSpec.matern(0.5, sigma_k, 1)
        for _ in range(10):
            mu, nu = draw(rng)
            ref = _matern_half_mmd_mpmath(sigma_k, mu, nu)
            assert abs(mmd_spectral_1d(k, mu, nu) - ref) <= 1e-14 * ref


@pytest.mark.parametrize("order", [0.5, 1.5])
def test_spectral_route_takes_a_nearly_flat_component_as_an_atom(order):
    """A component of width 1e-7 (2 s^2 <= 1e-12) joins the atoms' `gram` block, whose power-law tail the integral would not resolve."""
    k = KernelSpec.matern(order, 1.0, 1)
    mu = GaussianMixture([0.4, 0.6], [[0.0], [1.0]], [1e-7, 0.5])
    nu = DiscreteMeasure([[0.3], [-0.5]], [0.5, 0.5])
    val = mmd_spectral_1d(k, mu, nu)
    assert np.isfinite(val) and val > 0
    if order == 0.5:  # exp(-|z|)'s kink at 0 makes the width's own term O(s), not O(s^2)
        assert val == pytest.approx(float(_matern_half_mmd_mpmath(1.0, mu, nu)), rel=1e-6)


def test_spectral_route_raises_when_a_narrow_component_is_not_resolved():
    """N(0, 0.01^2) against a Dirac at 1 under Matern 1/2: a cross term oscillates out to w ~ 1e2 and the rule says it did not converge."""
    k = KernelSpec.matern(0.5, 1.0, 1)
    with pytest.raises(RuntimeError, match="did not converge"):
        mmd_spectral_1d(k, GaussianMixture([1.0], [[0.0]], [1e-2]), DiscreteMeasure([[1.0]], [1.0]))


@pytest.mark.parametrize(
    "kernel",
    [KernelSpec.matern(0.5, 1.0, 1), KernelSpec.matern(1.5, 1.0, 1), KernelSpec.gaussian(1.0, 1)],
    ids=repr,
)
def test_spectral_route_is_zero_on_equal_measures_in_any_order(kernel):
    """Equal mixtures: a characteristic-function difference within the round-off of its own sum counts as zero."""
    mu = GaussianMixture([0.3, 0.7], [[0.1], [1.2]], [0.5, 0.9])
    swapped = GaussianMixture([0.7, 0.3], [[1.2], [0.1]], [0.9, 0.5])
    assert mmd_spectral_1d(kernel, mu, mu) == mmd_spectral_1d(kernel, mu, swapped) == 0.0


def test_smoothed_l2_equals_convroot_mmd():
    alpha = RegularizerSpec(0.45)
    k = KernelSpec.conv_root(alpha, 2)
    rng = stream_rng(17)
    for _ in range(10):
        mu = DiscreteMeasure(rng.normal(size=(5, 2)), rng.uniform(0.1, 1, 5))
        nu = DiscreteMeasure(rng.normal(size=(3, 2)), rng.uniform(0.1, 1, 3))
        assert smoothed_l2(alpha, mu, nu) == pytest.approx(
            mmd_gaussian_kernel(k, mu, nu), rel=1e-10
        )


@pytest.mark.parametrize("t", [37, 54])
def test_smoothed_l2_clamps_round_off_on_the_scale_of_its_terms(t):
    """Atoms moved by 1e-9 at sigma 0.01: a squared value of -1.5e-12 or -4.9e-12 against aa + bb of 20 or 24 is round-off, not a warning."""
    rng = stream_rng(5, t)
    X, a = rng.normal(size=(4, 1)), rng.uniform(0.1, 1, 4)
    Y = X + 1e-9 * rng.normal(size=(4, 1))
    assert smoothed_l2(RegularizerSpec(0.01), DiscreteMeasure(X, a), DiscreteMeasure(Y, a)) == 0.0


def test_smoothed_l2_requires_regularizer():
    mu = _uniform([[0.0]])
    with pytest.raises(TypeError):
        smoothed_l2(0.5, mu, mu)


class TestSliced:
    theta = sphere_directions(24, 3, seed=3)
    base = KernelSpec.gaussian(1.0, 1)

    def test_identity_with_sliced_kernel_double_sum(self):
        ker = KernelSpec.sliced(self.base, self.theta)
        rng = stream_rng(23)
        for _ in range(10):
            mu = DiscreteMeasure(rng.normal(size=(4, 3)), rng.uniform(0.1, 1, 4))
            nu = DiscreteMeasure(rng.normal(size=(5, 3)), rng.uniform(0.1, 1, 5))
            assert mmd_sliced(self.base, self.theta, mu, nu) == pytest.approx(
                mmd_discrete(ker, mu, nu), abs=1e-12
            )

    def test_modified_sliced_decomposition(self):
        # squared modified value = sliced^2 + ||mean gap||^2 / d
        ker = KernelSpec.sliced(self.base, self.theta)
        kmod = KernelSpec.modified(ker, 1.0 / 3.0)
        rng = stream_rng(29)
        mu = DiscreteMeasure(rng.normal(size=(4, 3)), rng.uniform(0.1, 1, 4))
        nu = DiscreteMeasure(rng.normal(size=(5, 3)), rng.uniform(0.1, 1, 5))
        gap = mu.mean() - nu.mean()
        lhs = mmd_discrete(kmod, mu, nu) ** 2
        rhs = mmd_sliced(self.base, self.theta, mu, nu) ** 2 + gap @ gap / 3.0
        assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_empty_theta_rejected(self):
        mu = _uniform([[0.0, 0.0, 0.0]])
        with pytest.raises(ValueError):
            mmd_sliced(self.base, np.zeros((0, 3)), mu, mu)


def test_modified_kernel_mean_decomposition():
    base = KernelSpec.gaussian(1.0, 2)
    k = KernelSpec.modified(base, 1.0)
    rng = stream_rng(31)
    mu = DiscreteMeasure(rng.normal(size=(4, 2)), rng.uniform(0.1, 1, 4))
    nu = DiscreteMeasure(rng.normal(size=(6, 2)), rng.uniform(0.1, 1, 6))
    gap = mu.mean() - nu.mean()
    assert mmd_discrete(k, mu, nu) ** 2 == pytest.approx(
        mmd_discrete(base, mu, nu) ** 2 + gap @ gap, abs=1e-12
    )


def test_mmd_rate_input_validation():
    pi = GaussianMixture([1.0], [[0.0]], [1.0])
    k = KernelSpec.gaussian(1.0, 1)
    with pytest.raises(ValueError):
        mmd_rate(pi, k, [8, 16, 32], 5, 0)  # too few grid points
    with pytest.raises(ValueError):
        mmd_rate(pi, k, [8, 16, 32, 64, 128], 0, 0)


def test_1d_mmd_is_shift_invariant_far_from_zero():
    """1-D squared distances as differences: no x^2 + y^2 - 2xy cancellation at 1e8."""
    rng = stream_rng(0x5A, 2)
    X, Y = rng.normal(size=(40, 1)), rng.normal(size=(55, 1)) + 1.0
    k = KernelSpec.gaussian(1.0, 1)
    for route in (mmd_discrete, mmd_gaussian_kernel):
        ref = route(k, _uniform(X), _uniform(Y))
        assert route(k, _uniform(X + 1e8), _uniform(Y + 1e8)) == pytest.approx(ref, rel=1e-8)


def test_tanh_sinh_converges_on_split_interval_and_half_line():
    cusp = lambda x: np.sqrt(np.abs(x - 1.0 / 3.0))  # on the cut 1/3
    exact = (2.0 / 3.0) * ((1.0 / 3.0) ** 1.5 + (2.0 / 3.0) ** 1.5)
    assert _tanh_sinh(cusp, [0.0, 1.0 / 3.0, 1.0]) == pytest.approx(exact, rel=1e-12)
    assert _tanh_sinh(lambda om: np.exp(-om), [0.0, np.inf]) == pytest.approx(1.0, rel=1e-12)
    # an algebraic tail from a lower cut above 0
    assert _tanh_sinh(lambda om: 1.0 / (1.0 + om**2), [1.0, np.inf]) == pytest.approx(np.pi / 4, rel=1e-12)


def test_tanh_sinh_zero_integrand_is_zero():
    assert _tanh_sinh(np.zeros_like, [1e-6, np.inf]) == 0.0
    assert _tanh_sinh(np.zeros_like, [0.0, 0.5, 1.0]) == 0.0


def test_tanh_sinh_raises_at_cap_and_on_non_finite_sum():
    with pytest.raises(RuntimeError, match="did not converge in 10 levels"):
        _tanh_sinh(np.ones_like, [0.0, np.inf])  # a divergent integral
    # 0/0 in numpy: the RuntimeWarning is silenced and the rule raises instead
    with pytest.raises(RuntimeError, match="not finite"):
        _tanh_sinh(lambda x: np.zeros_like(x) / np.zeros_like(x), [0.0, 1.0])


# ---------------------------------------------------------------------------
# The Gaussian sums' row blocks on several threads

several_cpus = pytest.mark.skipif(measures._CPUS < 2, reason="one CPU in the affinity mask: no pool")


@contextlib.contextmanager
def _threads(n):
    """At most n threads, and a pool for every multi-block sum however narrow its blocks.

    The pool's cap, the OpenBLAS counts and the BLAS variables that
    `cap_threads` sets are restored afterwards.
    """
    before = measures._workers, discrepancy._MIN_PAIRS
    blas = measures.blas_threads()
    env = {var: os.environ.get(var) for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    measures.cap_threads(n)
    discrepancy._MIN_PAIRS = 0
    try:
        yield
    finally:
        if blas:
            measures.cap_threads(max(blas))
        for var, value in env.items():
            if value is None:
                os.environ.pop(var, None)
            else:
                os.environ[var] = value
        measures._workers, discrepancy._MIN_PAIRS = before


@st.composite
def _large_side(draw, d):
    """A discrete measure or a mixture of 1-300 atoms or components, 63, 64, 65 and 128 among them."""
    n = draw(st.sampled_from([1, 63, 64, 65, 128]) | st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    w, m = rng.uniform(1e-3, 1.0, n), rng.normal(size=(n, d)) * draw(st.sampled_from([0.3, 1.0, 4.0]))
    if draw(st.booleans()):
        return DiscreteMeasure(m, w)
    return GaussianMixture(w, m, rng.uniform(0.05, 2.0, n))


@several_cpus
@given(st.integers(1, 3).flatmap(lambda d: st.tuples(_large_side(d), _large_side(d))), st.sampled_from([0.3, 1.0, 2.5]))
@settings(max_examples=60, deadline=None)
def test_gauss_sums_on_every_thread_equal_one_thread_bit_for_bit(pair, sigma_k):
    mu, nu = pair
    k = KernelSpec.gaussian(sigma_k, mu.d, scale=1.3)
    with _threads(1):
        one = mmd_gaussian_kernel(k, mu, nu)
    with _threads(measures._CPUS):
        every = mmd_gaussian_kernel(k, mu, nu)
    assert every.hex() == one.hex()


def _split_far_pair():
    """Rows 64-127 of mu sit far from everything else: only the cross sum's second block underflows."""
    near = stream_rng(0x7A).normal(size=(64, 1))
    mu = DiscreteMeasure(np.vstack([near, near + 100.0]), np.ones(128))
    return mu, DiscreteMeasure(near, np.ones(64))


@several_cpus
@pytest.mark.parametrize("threads", [1, 2])
def test_error_state_reaches_every_thread(threads):
    """np.errstate is a context variable: a block on a pool thread raises in the caller, as on one thread."""
    mu, nu = _split_far_pair()
    A, B = (mu.weights, mu.points, np.zeros(mu.n)), (nu.weights, nu.points, np.zeros(nu.n))
    with _threads(threads):
        assert _gauss_cross(*A, *B, 1.0, 1.0, 1) > 0  # numpy ignores underflow by default
        with np.errstate(under="raise"), pytest.raises(FloatingPointError):
            _gauss_cross(*A, *B, 1.0, 1.0, 1)
        with np.errstate(under="raise"), pytest.raises(FloatingPointError):
            mmd_gaussian_kernel(KernelSpec.gaussian(1.0, 1), mu, nu)
        # under `filterwarnings = ["error"]` a worker's warning is an exception in the caller
        with np.errstate(under="warn"), pytest.raises(RuntimeWarning, match="underflow"):
            _gauss_cross(*A, *B, 1.0, 1.0, 1)


def _child_mmd(queue, mu, nu):
    queue.put(mmd_gaussian_kernel(KernelSpec.gaussian(1.0, 1), mu, nu).hex())


@several_cpus
@pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
def test_forked_child_builds_its_own_pool():
    """The parent's pool threads do not exist in a forked child; it must not wait on them."""
    mu, nu = _split_far_pair()
    with _threads(measures._CPUS):
        parent = mmd_gaussian_kernel(KernelSpec.gaussian(1.0, 1), mu, nu)  # the pool now exists
        ctx = multiprocessing.get_context("fork")
        queue = ctx.Queue()
        child = ctx.Process(target=_child_mmd, args=(queue, mu, nu))
        child.start()
        try:
            got = queue.get(timeout=60)
        finally:
            child.join(timeout=10)
            if child.is_alive():
                child.kill()
                child.join()
    assert not child.is_alive() and child.exitcode == 0
    assert got == parent.hex()
