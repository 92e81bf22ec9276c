import contextlib
import multiprocessing
import os
import threading

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wmmd import discrepancy, lab, runtime
from wmmd.measures import (
    DiscreteMeasure,
    GaussianMixture,
    RegularizerSpec,
    _tanh_sinh,
    stream_rng,
)
from wmmd.kernels import KernelSpec, _sq_dists, sphere_directions
from test_acceptance import SEED, _rand_discrete
from wmmd.discrepancy import (
    mmd,
    mmd_discrete,
    mmd_gaussian_kernel,
    mmd_spectral_1d,
    smoothed_l2,
    mmd_sliced,
    _BLOCK,
    _gauss_signed_sum,
    _signed_components,
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


# n positive widths: none, one, and 63 to 513 of them, so the first zero width
# starts a row block after a short, a whole, and a one-row last block.
@pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 100, 129, 4 * _BLOCK, 8 * _BLOCK + 1])
@pytest.mark.parametrize("d", [1, 3])
@pytest.mark.parametrize("widths", ["zero", "mixed"])
def test_blocked_gauss_sums_match_double_sum(monkeypatch, n, d, widths):
    """The one sum over the signed components of mu - nu and of nu - mu, against the float double sum.

    "zero": mu holds all n positive widths and nu only atoms; "mixed": the n
    positive widths are spread over both sides, between atoms.  The row
    blocks restart at the first zero width, and atom rows meet only atoms.
    """
    rng = stream_rng(31, n, d, widths == "mixed")
    sigma_k, n_mu, n_nu = 0.9, n + 40, 37
    s = np.zeros(n_mu + n_nu)
    s[rng.permutation(n_mu + n_nu if widths == "mixed" else n_mu)[:n]] = rng.uniform(0.2, 1.5, n)
    w, m = rng.uniform(0.1, 1.0, n_mu + n_nu), rng.normal(size=(n_mu + n_nu, d))
    A = w[:n_mu] / w[:n_mu].sum(), m[:n_mu], s[:n_mu]
    B = w[n_mu:] / w[n_mu:].sum(), m[n_mu:], s[n_mu:]
    rows = []

    def block(m1, s1, m2, s2, sig2, d):
        assert s1.all() or not (s1.any() or s2.any())
        rows.append(s1.size)
        return gauss_block(m1, s1, m2, s2, sig2, d)

    gauss_block = discrepancy._gauss_block
    monkeypatch.setattr(discrepancy, "_gauss_block", block)
    for X, Y in ((A, B), (B, A)):
        c = np.concatenate([X[0], -Y[0]]), np.concatenate([X[1], Y[1]]), np.concatenate([X[2], Y[2]])
        rows.clear()
        got = _gauss_signed_sum(*c, sigma_k**2, d)
        mass = _gauss_double_sum(np.abs(c[0]), *c[1:], np.abs(c[0]), *c[1:], sigma_k, d)
        assert abs(got - _gauss_double_sum(*c, *c, sigma_k, d)) <= 1e-12 * mass
        n_zero = n_mu + n_nu - n
        assert rows == [min(_BLOCK, n - i) for i in range(0, n, _BLOCK)] + [
            min(_BLOCK, n_zero - i) for i in range(0, n_zero, _BLOCK)
        ]


@pytest.mark.parametrize("sigma_k", [1.0, 2.0, 0.5, np.sqrt(2.0), 3.0])
def test_gauss_block_keeps_the_bits_of_the_division(monkeypatch, sigma_k):
    """Atom blocks scale the squared distances by 1 / (-2 sigma^2) only where that gives the
    quotient's bits: -2 sigma^2 a power of two, subnormal scaled squares included.  sigma = sqrt(2)
    (sigma^2 is 2 + 2^-51) and sigma = 3 still divide; at sigma = 3 the product would move bits."""
    rng = stream_rng(0x6B1, int(sigma_k * 8))
    X, Y = rng.normal(size=(64, 2)), rng.normal(size=(300, 2))
    X[:8], Y[:8] = rng.uniform(-1, 1, (2, 8, 2)) * 1e-155  # squares near and below 2^-1022
    sq, c = _sq_dists(X, Y), -2.0 * sigma_k**2
    assert np.any((sq / c != 0.0) & (np.abs(sq / c) < np.finfo(float).tiny))
    zero_x, zero_y = np.zeros(64), np.zeros(300)
    block = discrepancy._gauss_block(X, zero_x, Y, zero_y, sigma_k**2, 2)
    assert block.tobytes() == np.exp(sq / c).tobytes()
    with monkeypatch.context() as m:
        m.setattr(np, "exp", lambda x, out: out)  # the scaled squares themselves
        scaled = discrepancy._gauss_block(X, zero_x, Y, zero_y, sigma_k**2, 2)
    assert scaled.tobytes() == (sq / c).tobytes()
    if sigma_k == 3.0:
        assert np.any(sq * (1.0 / c) != sq / c)


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


def _closed_form_sq_mpmath(k, mu, nu):
    """scale * sum_ij c_i c_j E[exp(-||X_i - X_j||^2 / (2 sigma^2))] over the signed components of mu - nu, to 50 digits.

    The weights, means, widths, sigma and scale are the same floats the closed form reads.
    """
    w, m, s = _signed_components(mu, nu)
    with mpmath.workdps(50):
        sig2, c, v = mpmath.mpf(k.sigma) ** 2, [mpmath.mpf(x) for x in w], [mpmath.mpf(x) ** 2 for x in s]
        pts = [[mpmath.mpf(x) for x in row] for row in m]

        def term(i, j):
            den = sig2 + v[i] + v[j]
            sq = mpmath.fsum((a - b) ** 2 for a, b in zip(pts[i], pts[j]))
            return c[i] * c[j] * (sig2 / den) ** (mpmath.mpf(k.d) / 2) * mpmath.exp(-sq / (2 * den))

        n = len(c)
        diag = mpmath.fsum(term(i, i) for i in range(n))
        return mpmath.mpf(k.scale) * (diag + 2 * mpmath.fsum(term(i, j) for i in range(n) for j in range(i + 1, n)))


def _closed_form_cases():
    """Criterion 2's 200 (kernel, mu, nu) triples, drawn in its order, then 40 mixture pairs and one of 70 + 30 components."""
    rng = stream_rng(SEED, 2)
    cases = []
    for _ in range(200):
        kernel = KernelSpec.conv_root(RegularizerSpec(float(rng.uniform(0.3, 1.2))), 1)
        n1, n2 = rng.integers(2, 5, size=2)
        cases.append((kernel, _rand_discrete(rng, int(n1), 1), _rand_discrete(rng, int(n2), 1)))
    rng = stream_rng(0xC1, 0)
    for t in range(40):
        d, (n1, n2) = 1 + t % 3, rng.integers(1, 7, size=2)
        mu = GaussianMixture(rng.uniform(0.1, 1, n1), rng.normal(size=(n1, d)), rng.uniform(0.05, 2.0, n1))
        nu = GaussianMixture(rng.uniform(0.1, 1, n2), rng.normal(size=(n2, d)), rng.uniform(0.05, 2.0, n2))
        nu = nu if t % 2 else _rand_discrete(rng, int(n2), d)
        cases.append((KernelSpec.gaussian(float(rng.uniform(0.3, 2.5)), d, scale=1.3), mu, nu))
    mu = GaussianMixture(rng.uniform(0.1, 1, 70), rng.normal(size=(70, 2)), rng.uniform(0.05, 2.0, 70))
    cases.append((KernelSpec.gaussian(0.8, 2), mu, _rand_discrete(rng, 30, 2)))
    return cases


def test_closed_form_square_is_within_its_round_off_bound():
    """The closed form's square against a 50-digit sum, within (N + 15) eps 4 scale for N signed components.

    First order in u = eps / 2, each term c_i c_j E kappa(X_i, X_j) of the
    sum carries its own round-off and that of the additions it passes:
    - its exponent -||m_i - m_j||^2 / (2 (sigma^2 + s_i^2 + s_j^2)) is off
      by at most (d + 8) u of itself (the squared distance d + 2, sigma^2
      and the width sum 5, the quotient 1); as |a| exp(-|a|) <= 1 / e this
      is (d + 8) u / e of scale |c_i c_j|;
    - the exp and the power (sigma^2 / den)^(d / 2) are within 2 ulps, and
      the power's base within 7 u: at most (3.5 d + 9) u more;
    - the two weight products, the scale and the root's rounding (2 u on the
      square): 5 u more.  For d <= 3, R <= 29 u of scale |c_i c_j| a term;
    - a row block of b <= 64 rows adds a term in two nested dots, at most
      max(2b - 1, N - 1) additions, and the block values at most
      N / 64 + 1 more: under 2N for every N.
    So |m^2 - m_ref^2| <= (2N + 29) u scale (sum_i |c_i|)^2, and
    sum_i |c_i| = 2 for two probability measures.  The worst relative
    error of the value over criterion 2's pairs is also pinned: 4.02e-14
    when the square was aa + bb - 2 ab, 1.86e-14 as one signed sum.
    """
    eps, worst = np.finfo(float).eps, 0.0
    with mpmath.workdps(50):
        for i, (k, mu, nu) in enumerate(_closed_form_cases()):
            val, ref = mpmath.mpf(mmd_gaussian_kernel(k, mu, nu)), _closed_form_sq_mpmath(k, mu, nu)
            n = _signed_components(mu, nu)[0].size
            assert abs(val**2 - ref) <= (n + 15) * eps * 4 * k.scale
            if i < 200:
                worst = max(worst, float(abs(val - mpmath.sqrt(ref)) / mpmath.sqrt(ref)))
    assert worst <= 1.9e-14


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
        lab.mmd_rate(pi, k, [8, 16, 32], 5, 0)  # too few grid points
    with pytest.raises(ValueError):
        lab.mmd_rate(pi, k, [8, 16, 32, 64, 128], 0, 0)


def test_clamp_sq_clamps_warns_and_raises():
    """A negative squared MMD is 0 within 1e-12 of the scale, 0 with a warning within 1e-10, and an error beyond."""
    clamp = discrepancy._clamp_sq
    assert clamp(0.25, 1.0) == 0.25
    assert clamp(-1e-13, 1.0) == 0.0
    with pytest.warns(UserWarning, match="clamping"):
        assert clamp(-1e-11, 1.0) == 0.0
    with pytest.raises(ValueError, match="non-p.s.d."):
        clamp(-1e-9, 1.0)


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

several_cpus = pytest.mark.skipif(runtime._CPUS < 2, reason="one CPU in the affinity mask: no pool")


@contextlib.contextmanager
def _threads(n):
    """At most n threads, and a pool for every multi-block sum however narrow its blocks.

    The pool's cap, the OpenBLAS counts and the BLAS variables that
    `cap_threads` sets are restored afterwards.
    """
    before = runtime._workers, discrepancy._MIN_PAIRS
    blas = runtime.blas_threads()
    env = {var: os.environ.get(var) for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    runtime.cap_threads(n)
    discrepancy._MIN_PAIRS = 0
    try:
        yield
    finally:
        if blas:
            runtime.cap_threads(max(blas))
        for var, value in env.items():
            if value is None:
                os.environ.pop(var, None)
            else:
                os.environ[var] = value
        runtime._workers, discrepancy._MIN_PAIRS = before


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
    with _threads(runtime._CPUS):
        every = mmd_gaussian_kernel(k, mu, nu)
    assert every.hex() == one.hex()


def _split_far_pair():
    """mu's rows 64-127 sit at +30 and nu's atoms at -30: only the one sum's second row block meets a pair 60 apart and underflows."""
    near = stream_rng(0x7A).normal(size=(64, 1))
    mu = DiscreteMeasure(np.vstack([near, near + 30.0]), np.ones(128))
    return mu, DiscreteMeasure(near - 30.0, np.ones(64))


@several_cpus
@pytest.mark.parametrize("threads", [1, 2])
def test_error_state_reaches_every_thread(monkeypatch, threads):
    """np.errstate is a context variable: a block on a pool thread raises in the caller, as on one thread."""
    mu, nu = _split_far_pair()
    k = KernelSpec.gaussian(1.0, 1)
    raised_on = []

    def block(*args):
        try:
            return gauss_block(*args)
        except FloatingPointError:
            raised_on.append(threading.current_thread().name)
            raise

    gauss_block = discrepancy._gauss_block
    monkeypatch.setattr(discrepancy, "_gauss_block", block)
    with _threads(threads):
        assert mmd_gaussian_kernel(k, mu, nu) > 0  # numpy ignores underflow by default
        with np.errstate(under="raise"), pytest.raises(FloatingPointError):
            mmd_gaussian_kernel(k, mu, nu)
        # under `filterwarnings = ["error"]` a worker's warning is an exception in the caller
        with np.errstate(under="warn"), pytest.raises(RuntimeWarning, match="underflow"):
            mmd_gaussian_kernel(k, mu, nu)
    assert len(raised_on) == 1
    assert raised_on[0].startswith("wmmd-blocks") == (threads > 1)


@pytest.mark.parametrize("order", ["mixture first", "sample first"])
def test_rates_sums_pool_from_2048_atoms(monkeypatch, order):
    """N(0, 1) against n atoms: its rows average (n + 2) / 2 pairs, so the sum is pooled from n = 2,048 on."""
    flags = []

    def block_sum(block_value, starts, threaded=True):
        flags.append(threaded)
        return runtime._block_sum(block_value, starts, False)

    monkeypatch.setattr(discrepancy, "_block_sum", block_sum)
    normal, k = GaussianMixture([1.0], [[0.0]], [1.0]), KernelSpec.gaussian(1.0, 1)
    for n in (512, 1024, 2048, 4096, 8192):
        emp = DiscreteMeasure(stream_rng(0x9A, n).normal(size=(n, 1)), np.ones(n))
        mmd_gaussian_kernel(k, *((normal, emp) if order == "mixture first" else (emp, normal)))
    assert flags == [False, False, True, True, True]


def _child_mmd(queue, mu, nu):
    queue.put(mmd_gaussian_kernel(KernelSpec.gaussian(1.0, 1), mu, nu).hex())


@several_cpus
@pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
def test_forked_child_builds_its_own_pool():
    """The parent's pool threads do not exist in a forked child; it must not wait on them."""
    mu, nu = _split_far_pair()
    with _threads(runtime._CPUS):
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
