import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.integrate import quad
from scipy.optimize import linear_sum_assignment, linprog
from scipy.sparse import block_diag, csr_matrix

from wmmd import transport

from wmmd.measures import DiscreteMeasure, GaussianMixture, stream_rng
from wmmd.kernels import sphere_directions
from wmmd.transport import (
    TransportPlan,
    w1d,
    w_exact,
    w_brute,
    sliced_w1,
    translation_split,
    w_rate,
    wasserstein,
    _dist_matrix,
    _quantile_cost_discrete,
    _transport_constraints,
)


def _uniform(points):
    points = np.atleast_2d(points)
    return DiscreteMeasure(points, np.full(points.shape[0], 1.0 / points.shape[0]))


def test_w1d_two_diracs():
    mu = DiscreteMeasure([[0.0]], [1.0])
    nu = DiscreteMeasure([[1.0]], [1.0])
    for p in (1, 1.5, 2, 3):
        assert w1d(p, mu, nu) == pytest.approx(1.0, abs=1e-14)


def test_w1d_symmetric_split():
    mu = _uniform([[0.0], [2.0]])
    nu = DiscreteMeasure([[1.0]], [1.0])
    assert w1d(1, mu, nu) == pytest.approx(1.0, abs=1e-14)
    assert w1d(2, mu, nu) == pytest.approx(1.0, abs=1e-14)


def test_w1d_rejects_bad_input():
    mu = DiscreteMeasure([[0.0]], [1.0])
    with pytest.raises(ValueError):
        w1d(0.5, mu, mu)
    with pytest.raises(ValueError):
        w1d(1, _uniform([[0.0, 1.0]]), _uniform([[0.0, 1.0]]))


def test_w1d_matches_lp_on_random_discrete_pairs():
    rng = stream_rng(101)
    for _ in range(25):
        mu = DiscreteMeasure(rng.normal(size=(6, 1)), rng.uniform(0.1, 1, 6))
        nu = DiscreteMeasure(rng.normal(size=(6, 1)), rng.uniform(0.1, 1, 6))
        for p in (1, 2):
            ref, _ = w_exact(p, mu, nu)
            assert w1d(p, mu, nu) == pytest.approx(ref, abs=1e-10)


def _merge_loop_cost(p, x, a, y, b):
    """Reference: walk the merged cumulative weights one breakpoint at a time."""
    ix = np.argsort(x, kind="stable")
    iy = np.argsort(y, kind="stable")
    xs, aw = x[ix], a[ix]
    ys, bw = y[iy], b[iy]
    ca = np.cumsum(aw)
    cb = np.cumsum(bw)
    ca[-1] = cb[-1] = 1.0
    i = j = 0
    q = 0.0
    cost = 0.0
    while i < xs.size and j < ys.size:
        qn = min(ca[i], cb[j])
        if qn > q:
            cost += (qn - q) * abs(xs[i] - ys[j]) ** p
            q = qn
        if ca[i] <= qn:
            i += 1
        if cb[j] <= qn:
            j += 1
    return cost


def _union_searchsorted_cost(p, x, a, y, b):
    """Reference: the coupling by stable argsorts, `union1d` and two `searchsorted`."""
    ix = np.argsort(x, kind="stable")
    iy = np.argsort(y, kind="stable")
    ca = np.minimum(np.cumsum(a[ix]), 1.0)
    cb = np.minimum(np.cumsum(b[iy]), 1.0)
    ca[-1] = cb[-1] = 1.0
    q = np.union1d(ca, cb)
    i = np.searchsorted(ca, q, side="left")
    j = np.searchsorted(cb, q, side="left")
    gap = np.abs(x[ix[i]] - y[iy[j]]) ** p
    return float(np.diff(q, prepend=0.0) @ gap)


# Few distinct positions so that ties are common, plus arbitrary ones.
_positions = st.sampled_from([-1.0, 0.0, 0.5, 2.0]) | st.floats(-5.0, 5.0)
_masses = st.sampled_from([0.0]) | st.floats(1e-3, 1.0)
_atoms = st.lists(st.tuples(_positions, _masses), min_size=1, max_size=12).filter(
    lambda atoms: sum(m for _, m in atoms) > 0
)


def _split(atoms):
    x = np.array([v for v, _ in atoms])
    w = np.array([m for _, m in atoms])
    return x, w / w.sum()


# Weights 7, 6, 9, 5, 1, 0 (out of 28) sum to 1 + 2^-52 before the last atom.
_OVERSHOOT = [(0.3 * k, float(m)) for k, m in enumerate([7, 6, 9, 5, 1, 0])]
# Tied positions whose weights come in shuffled order, on both sides.
_TIED_A = [(0.5, 0.3), (-1.0, 0.2), (0.5, 0.1), (-1.0, 0.25), (0.5, 0.15), (2.0, 0.0)]
_TIED_B = [(0.0, 0.4), (2.0, 0.1), (0.0, 0.2), (0.5, 0.05), (2.0, 0.3), (0.0, 0.0)]


@given(_atoms, _atoms, st.sampled_from([1, 2, 3]))
@example([(0.0, 1.0)], [(1.5, 1.0)], 2)
@example(_OVERSHOOT, [(1.0, 1.0), (1.0, 0.0), (-2.0, 0.5)], 1)
@example(_OVERSHOOT, list(reversed(_OVERSHOOT)), 3)
@example(_TIED_A, _TIED_B, 2)
@settings(max_examples=300, deadline=None)
def test_quantile_coupling_matches_merge_loop(atoms_a, atoms_b, p):
    x, a = _split(atoms_a)
    y, b = _split(atoms_b)
    ref = _merge_loop_cost(p, x, a, y, b)
    cost, scale = _quantile_cost_discrete(p, x, a, y, b)
    # Summation order changes the result by a few ulps of the (nonnegative)
    # total; clipping an overshooting cumsum at 1 moves one breakpoint by a
    # few ulps of 1, which can add that much times the largest gap^p.
    spread = max(x.max() - y.min(), y.max() - x.min(), 0.0)
    tol = 1e-12 * ref + 8 * np.finfo(float).eps * spread**p
    assert abs(scale**p * cost - ref) <= tol


def test_quantile_coupling_matches_searchsorted_form_exactly():
    """Tie-free positions give the same breakpoints, atoms and sum, bit for bit."""
    rng = stream_rng(404)
    cases = [(8192, 64 * 8192, 1), (512, 64 * 512, 2)]
    cases += [(int(n), int(m), p) for n, m in rng.integers(1, 60, (40, 2)) for p in (1, 2, 3)]
    for n, m, p in cases:
        x, y = rng.uniform(size=n), rng.normal(size=m)
        if n < 100:
            a, b = rng.uniform(0.1, 1, n), rng.uniform(0.1, 1, m)
            a, b = a / a.sum(), b / b.sum()
        else:  # the uniform weights of `w_rate`
            a, b = np.full(n, 1.0 / n), np.full(m, 1.0 / m)
        assert _quantile_cost_discrete(p, x, a, y, b) == (_union_searchsorted_cost(p, x, a, y, b), 1.0)


def _argsort_cost(p, x, a, y, b):
    """Reference: the coupling with both sides argsorted and their weights gathered."""
    ix, iy = np.argsort(x), np.argsort(y)
    ca = np.minimum(np.cumsum(a[ix]), 1.0)
    cb = np.minimum(np.cumsum(b[iy]), 1.0)
    ca[-1] = cb[-1] = 1.0
    c = np.concatenate([ca, cb])
    order = np.argsort(c, kind="stable")
    merged = c[order]
    first = np.empty(merged.size, dtype=bool)
    first[0] = merged[0] > 0
    np.not_equal(merged[1:], merged[:-1], out=first[1:])
    from_a = order < ca.size
    i = (np.cumsum(from_a) - from_a)[first]
    j = np.flatnonzero(first) - i
    gap = np.abs(x[ix[i]] - y[iy[j]])
    gap, s = transport._pth_power(gap, p, gap.max())
    return float(np.diff(merged[first], prepend=0.0) @ gap), s


_signed = st.sampled_from([-1.0, -0.0, 0.0, 0.5, 2.0]) | st.floats(-5.0, 5.0)


@st.composite
def _side(draw):
    """Positions with ties and both signed zeros; weights all equal, or drawn with zeros among them."""
    x = np.array(draw(st.lists(_signed, min_size=1, max_size=40)))
    if draw(st.booleans()):
        return x, np.full(x.size, 1.0 / x.size)
    w = np.array(draw(st.lists(_masses, min_size=x.size, max_size=x.size)))
    assume(w.sum() > 0)
    return x, w / w.sum()


_ZEROS = np.array([-0.0, 0.0, 0.0, -0.0])


@given(_side(), _side(), st.sampled_from([1, 2, 3, 200]))
@example((_ZEROS, np.full(4, 0.25)), (_ZEROS[::-1], np.array([0.5, 0.0, 0.25, 0.25])), 2)
@example((_ZEROS, np.full(4, 0.25)), (np.array([0.0, -0.0, 1.0]), np.full(3, 1 / 3)), 1)
@settings(max_examples=300, deadline=None)
def test_equal_weight_sides_match_the_argsort_path_bit_for_bit(side_a, side_b, p):
    """A side of equal weights is sorted by value alone and its weights are not gathered."""
    (x, a), (y, b) = side_a, side_b
    got = _quantile_cost_discrete(p, x, a, y, b)
    assert [v.hex() for v in got] == [v.hex() for v in _argsort_cost(p, x, a, y, b)]


def test_overshoot_example_passes_one_early():
    _, a = _split(_OVERSHOOT)
    assert np.cumsum(a)[-2] > 1.0


def test_w1d_matches_lp_with_ties_and_zero_weights():
    rng = stream_rng(202)
    for _ in range(20):
        n, m = (int(v) for v in rng.integers(1, 8, 2))
        x = rng.integers(-3, 4, (n, 1)) * 0.5
        y = rng.normal(size=(m, 1))
        a = rng.uniform(0.1, 1, n) * (rng.uniform(size=n) > 0.3)
        b = rng.uniform(0.1, 1, m)
        a[0] += 0.1
        mu, nu = DiscreteMeasure(x, a), DiscreteMeasure(y, b)
        for p in (1, 2, 3):
            ref, _ = w_exact(p, mu, nu)
            assert w1d(p, mu, nu) ** p == pytest.approx(ref**p, rel=1e-7, abs=1e-9)


@pytest.mark.parametrize("spread", [100.0, 1e-4])
def test_large_p_is_rescaled_on_every_route(spread):
    """|x - y|^200 leaves the float range at these spreads; W_200 scales with the data."""
    rng = stream_rng(505)
    p = 200
    raw = [
        (DiscreteMeasure(rng.normal(size=(30, 1)), rng.uniform(0.1, 1, 30)),
         DiscreteMeasure(rng.normal(size=(20, 1)) + 0.5, rng.uniform(0.1, 1, 20))),
        # HiGHS's tolerances are absolute: a far, tight target keeps the
        # optimal (cost / largest cost) = (W / max distance)^200 well above them.
        (DiscreteMeasure(0.1 * rng.normal(size=(12, 2)), rng.uniform(0.1, 1, 12)),
         DiscreteMeasure(0.1 * rng.normal(size=(9, 2)) + 20.0, rng.uniform(0.1, 1, 9))),
        (_uniform(rng.normal(size=(7, 2))), _uniform(rng.normal(size=(7, 2)) + 0.5)),
    ]
    scaled = [
        (DiscreteMeasure(spread * mu.points, mu.weights), DiscreteMeasure(spread * nu.points, nu.weights))
        for mu, nu in raw
    ]
    (mu1, nu1), (mu2, nu2), (mu3, nu3) = raw
    (smu1, snu1), (smu2, snu2), (smu3, snu3) = scaled
    ref = [w1d(p, mu1, nu1), w_exact(p, mu2, nu2), w_exact(p, mu3, nu3)]
    got = [w1d(p, smu1, snu1), w_exact(p, smu2, snu2), w_exact(p, smu3, snu3)]
    assert all(plan.scale == 1.0 for _, plan in ref[1:])
    for (r, _), (g, plan) in zip(ref[1:], got[1:]):
        assert plan.scale != 1.0
        plan.validate()
        assert g == pytest.approx(spread * r, rel=1e-10)
    assert got[0] == pytest.approx(spread * ref[0], rel=1e-12)
    assert w_brute(p, smu3, snu3) == pytest.approx(spread * w_brute(p, mu3, nu3), rel=1e-12)
    assert all(0.0 < v < np.inf for v in [got[0], got[1][0], got[2][0]])


def test_zero_weight_atoms_do_not_set_the_scale():
    """A far atom without mass neither rescales nor turns the 1-D value into nan."""
    rng = stream_rng(506)
    x, y = rng.normal(size=(8, 1)), rng.normal(size=(6, 1))
    a = rng.uniform(0.1, 1, 8)
    nu = _uniform(y)
    with_far = DiscreteMeasure(np.vstack([[-1e200], x]), np.concatenate([[0.0], a]))
    for p in (1, 2, 200):
        assert w1d(p, with_far, nu) == pytest.approx(w1d(p, DiscreteMeasure(x, a), nu), rel=1e-14)


def test_w1d_gmm_translation():
    a = GaussianMixture([1.0], [[0.3]], [1.0])
    b = GaussianMixture([1.0], [[-0.9]], [1.0])
    assert w1d(2, a, b) == pytest.approx(1.2, rel=1e-6)


def test_w1d_gmm_large_p_is_rescaled():
    """|F^-1 - G^-1|^200 = 50^200 overflows; every node is divided by one scale fixed before the integral."""
    a = GaussianMixture([1.0], [[0.0]], [100.0])
    b = GaussianMixture([1.0], [[50.0]], [100.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert w1d(200, a, b) == pytest.approx(50.0, rel=1e-9)


def test_discrete_mixture_pair_has_no_1d_route():
    """w1d takes two discrete measures or two mixtures; so does `wasserstein` in 1-D."""
    a = DiscreteMeasure([[0.0], [1.0]], [0.5, 0.5])
    g = GaussianMixture([1.0], [[0.0]], [1.0])
    for mu, nu in ((a, g), (g, a)):
        with pytest.raises(ValueError, match="two discrete measures or two Gaussian mixtures"):
            w1d(2, mu, nu)
        with pytest.raises(ValueError, match="two discrete measures or two Gaussian mixtures"):
            wasserstein(2, mu, nu)


def test_w1d_gmm_scale():
    # same-mean Gaussians: W_2 = |sigma - sigma'|
    a = GaussianMixture([1.0], [[0.0]], [1.0])
    b = GaussianMixture([1.0], [[0.0]], [1.5])
    assert w1d(2, a, b) == pytest.approx(0.5, rel=2e-6)


def test_w1d_gaussians_match_closed_form():
    """W_2 between N(m, s^2) and N(m', s'^2) is hypot(m - m', s - s')."""
    rng = stream_rng(0x5A, 7)
    for _ in range(10):
        m1, m2 = rng.uniform(-3.0, 3.0, 2)
        s1, s2 = rng.uniform(0.2, 3.0, 2)
        got = w1d(2, GaussianMixture([1.0], [[m1]], [s1]), GaussianMixture([1.0], [[m2]], [s2]))
        assert got == pytest.approx(np.hypot(m1 - m2, s1 - s2), rel=1e-12)


@pytest.mark.parametrize("p", [50, 200, 400])
def test_w1d_gmm_large_p_scale_gap_matches_closed_form(p):
    """W_p(N(0, 1), N(0, 2^2)) is (E|Z|^p)^(1/p); the tails near q = 0 and q = 1 carry it."""
    a = GaussianMixture([1.0], [[0.0]], [1.0])
    b = GaussianMixture([1.0], [[0.0]], [2.0])
    log_moment = (p / 2) * np.log(2.0) + math.lgamma((p + 1) / 2) - 0.5 * np.log(np.pi)
    assert w1d(p, a, b) == pytest.approx(np.exp(log_moment / p), rel=1e-10)


def test_w1d_p1_mixtures_match_cdf_l1():
    """W_1 between two-component mixtures against the integral of |F - G| over x by `quad`."""
    rng = stream_rng(0x5A, 8)
    for _ in range(5):
        a, b = (
            GaussianMixture(rng.uniform(0.2, 1.0, 2), rng.uniform(-2.0, 2.0, (2, 1)), rng.uniform(0.3, 2.0, 2))
            for _ in range(2)
        )
        # |F - G| < 1e-80 beyond 19 sigma of every component, so [-40, 40] holds the whole integral
        f = lambda x: abs(float(a.cdf(x) - b.cdf(x)))
        ref, _ = quad(f, -40.0, 40.0, limit=200, epsabs=1e-14, epsrel=1e-13)
        assert w1d(1, a, b) == pytest.approx(ref, rel=1e-12)


class TestExact:
    def test_matches_brute_force(self):
        rng = stream_rng(55)
        for _ in range(30):
            n = int(rng.integers(2, 7))
            d = int(rng.integers(1, 4))
            mu = _uniform(rng.normal(size=(n, d)))
            nu = _uniform(rng.normal(size=(n, d)))
            p = float(rng.choice([1.0, 2.0]))
            val, plan = w_exact(p, mu, nu)
            assert val == pytest.approx(w_brute(p, mu, nu), rel=1e-12)
            assert isinstance(plan, TransportPlan)

    def test_general_weights_lp(self):
        mu = DiscreteMeasure([[0.0], [1.0]], [0.75, 0.25])
        nu = DiscreteMeasure([[0.0], [1.0]], [0.25, 0.75])
        # move 0.5 of mass a distance of 1
        val, plan = w_exact(1, mu, nu)
        assert val == pytest.approx(0.5, abs=1e-12)
        assert plan.coupling.sum() == pytest.approx(1.0, abs=1e-9)

    def test_identity_is_zero(self):
        mu = _uniform(stream_rng(1).normal(size=(5, 2)))
        val, _ = w_exact(2, mu, mu)
        # self-distances computed via inner products carry ~1e-16 round-off,
        # and the outer ^(1/p) amplifies that to ~1e-8
        assert val == pytest.approx(0.0, abs=1e-7)

    def test_size_guard(self):
        points = np.arange(1001.0)[:, None]
        big = DiscreteMeasure(points, 1.0 + points[:, 0] % 3)
        with pytest.raises(ValueError, match="size guard"):
            w_exact(1, big, big)

    def test_large_uniform_instance_uses_assignment(self):
        rng = stream_rng(1024)
        X, Y = rng.uniform(size=(1024, 3)), rng.uniform(size=(1024, 3))
        val, plan = w_exact(1, _uniform(X), _uniform(Y))
        C = np.sqrt(((X[:, None, :] - Y[None, :, :]) ** 2).sum(axis=2))
        rows, cols = linear_sum_assignment(C)
        assert val == pytest.approx(C[rows, cols].mean(), rel=1e-12)
        assert np.count_nonzero(plan.coupling) == 1024

    def test_plan_validation_catches_corruption(self):
        mu = _uniform([[0.0], [1.0]])
        nu = _uniform([[2.0], [3.0]])
        _, plan = w_exact(1, mu, nu)
        bad = plan.coupling.copy()
        bad[0, 0] += 0.2
        with pytest.raises(ValueError):
            TransportPlan(bad, plan.cost, plan.p, mu, nu)

    def test_plan_validation_uses_given_cost_matrix(self):
        mu = DiscreteMeasure([[0.0], [1.0]], [0.75, 0.25])
        nu = DiscreteMeasure([[0.0], [2.0]], [0.25, 0.75])
        _, plan = w_exact(2, mu, nu)
        C = (mu.points - nu.points.T) ** 2
        plan.validate(cost_matrix=C)
        with pytest.raises(ValueError, match="stored cost"):
            plan.validate(cost_matrix=C + 1.0)

    @pytest.mark.parametrize("n, m", [(1, 1), (2, 3), (5, 2), (60, 50), (120, 100)])
    def test_constraint_matrix_matches_loop_build(self, n, m):
        rows, cols = [], []
        for i in range(n):
            for j in range(m):
                rows.append(i)
                cols.append(i * m + j)
        for j in range(m - 1):
            for i in range(n):
                rows.append(n + j)
                cols.append(i * m + j)
        ref = csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(n + m - 1, n * m))
        A = _transport_constraints([(n, m)])
        assert A.shape == ref.shape
        for attr in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(A, attr), getattr(ref, attr))

    def test_lp_plan_within_validation_tolerance(self):
        """A pair whose HiGHS plan, at HiGHS's default 1e-7 feasibility
        tolerance, held entries near -7.7e-8; clipping them broke the row
        marginals by more than `validate`'s 1e-9 (pair 112 of 400 drawn in
        this order)."""
        rng = np.random.default_rng([100, 6])
        for _ in range(113):
            X = rng.standard_normal((120, 2))
            Y = rng.standard_normal((120, 2)) * rng.uniform(0.5, 1.5) + rng.uniform(-1, 1)
            a, b = rng.uniform(0.1, 1, 120), rng.uniform(0.1, 1, 120)
        mu, nu = DiscreteMeasure(X, a), DiscreteMeasure(Y, b)
        val, plan = w_exact(2, mu, nu)
        assert plan.coupling.min() >= 0.0
        ref = linprog(
            (_dist_matrix(X, Y) ** 2).ravel(),
            A_eq=_transport_constraints([(120, 120)]),
            b_eq=np.concatenate([mu.weights, nu.weights[:-1]]),
            bounds=(0, None),
            method="highs",
        )
        assert val**2 == pytest.approx(ref.fun, rel=1e-7)



def _weighted_pair(rng, n, m, d, scale=1.0):
    return (
        DiscreteMeasure(scale * rng.normal(size=(n, d)), rng.uniform(0.1, 1, n)),
        DiscreteMeasure(scale * rng.normal(size=(m, d)), rng.uniform(0.1, 1, m)),
    )


def _check_marginals(plan, mu, nu):
    g = plan.coupling
    assert g.shape == (mu.n, nu.n) and g.min() >= 0.0
    assert np.max(np.abs(g.sum(axis=1) - mu.weights)) <= 1e-9
    assert np.max(np.abs(g.sum(axis=0) - nu.weights)) <= 1e-9


def test_w_exact_is_scale_invariant():
    """W_p(s mu, s nu) = s W_p(mu, nu); before the LP costs were scaled, HiGHS's
    absolute optimality tolerance accepted a suboptimal vertex (ratio 1.75331
    instead of 1.40537) once s^2 fell to 1e-8."""
    rng = np.random.default_rng(0)
    X, Y = rng.normal(size=(5, 2)), rng.normal(size=(4, 2))
    a, b = rng.uniform(0.1, 1, 5), rng.uniform(0.1, 1, 4)
    ref, _ = w_exact(2, DiscreteMeasure(X, a), DiscreteMeasure(Y, b))
    for k in range(-6, 7):
        s = 10.0**k
        val, _ = w_exact(2, DiscreteMeasure(s * X, a), DiscreteMeasure(s * Y, b))
        assert val / s == pytest.approx(ref, rel=1e-12), s


def test_w_exact_lists_match_single_pairs():
    rng = stream_rng(0x1157)
    shapes = [(1, 1), (2, 5), (5, 2), (3, 3), (40, 30), (30, 40), (7, 7), (1, 6), (12, 9)]
    mus, nus = [], []
    for i in range(30):
        n, m = shapes[i % len(shapes)]
        d, scale = 2 + i % 2, 10.0 ** rng.uniform(-4, 4)
        if i % 5 == 0:  # uniform equal-size: the assignment route
            mu = DiscreteMeasure(scale * rng.normal(size=(n, d)), np.ones(n))
            nu = DiscreteMeasure(scale * rng.normal(size=(n, d)), np.ones(n))
        else:
            mu, nu = _weighted_pair(rng, n, m, d, scale)
        mus.append(mu)
        nus.append(nu)
    many = w_exact(2, mus, nus)
    assert len(many) == len(mus)
    for mu, nu, (val, plan) in zip(mus, nus, many):
        single, _ = w_exact(2, mu, nu)
        assert val == pytest.approx(single, rel=1e-12)
        assert isinstance(plan, TransportPlan) and plan.source is mu and plan.target is nu
        _check_marginals(plan, mu, nu)
    assert w_exact(2, [], []) == []
    with pytest.raises(ValueError, match="equal length"):
        w_exact(2, mus, nus[:-1])
    with pytest.raises(ValueError, match="equal length"):
        w_exact(2, mus[:1], nus[0])


def test_lp_groups_respect_size_guard(monkeypatch):
    rng = stream_rng(0x6A)
    pairs = [_weighted_pair(rng, n, m, 2) for n, m in [(3, 4), (5, 4), (2, 3), (6, 5), (3, 3)]]
    pairs.insert(3, (_uniform(rng.normal(size=(4, 2))), _uniform(rng.normal(size=(4, 2)))))
    mus, nus = [mu for mu, _ in pairs], [nu for _, nu in pairs]
    unlimited = [val for val, _ in w_exact(1, mus, nus)]
    sizes = []
    real_linprog = transport.linprog

    def counting_linprog(c, *args, **kwargs):
        sizes.append(c.size)
        return real_linprog(c, *args, **kwargs)

    monkeypatch.setattr(transport, "linprog", counting_linprog)
    monkeypatch.setattr(transport, "_SIZE_GUARD", 40)
    limited = [val for val, _ in w_exact(1, mus, nus)]
    # 12 + 20 + 6 fill the first LP; the uniform 4 x 4 pair takes assignment;
    # 30 + 9 fill the second.
    assert sizes == [38, 39]
    assert limited == pytest.approx(unlimited, rel=1e-12)
    big = _weighted_pair(rng, 7, 6, 2)
    with pytest.raises(ValueError, match="7x6 exceeds the LP size guard"):
        w_exact(1, mus + [big[0]], nus + [big[1]])
    with pytest.raises(ValueError, match="7x6 exceeds the LP size guard"):
        w_exact(1, *big)


def test_wasserstein_list_routes_per_pair(monkeypatch):
    rng = stream_rng(0x3B)
    pairs = []
    for i in range(12):
        d = (1, 2, 3)[i % 3]
        pairs.append(_weighted_pair(rng, 2 + i % 4, 3 + i % 3, d))
    pairs.append(_weighted_pair(rng, 4, 4, 1))
    mus, nus = [mu for mu, _ in pairs], [nu for _, nu in pairs]
    singles = [wasserstein(2, mu, nu) for mu, nu in pairs]
    calls = []
    real_w_exact = transport.w_exact

    def recording_w_exact(p, mu, nu):
        calls.append((mu, nu))
        return real_w_exact(p, mu, nu)

    monkeypatch.setattr(transport, "w_exact", recording_w_exact)
    many = wasserstein(2, mus, nus)
    assert many == pytest.approx(singles, rel=1e-12)
    for mu, val, single in zip(mus, many, singles):
        if mu.d == 1:
            assert val == single
    assert calls == [([mu for mu in mus if mu.d > 1], [nu for nu in nus if nu.d > 1])]
    with pytest.raises(ValueError, match="equal length"):
        wasserstein(2, mus, nus[:-1])


@pytest.mark.parametrize("p", [float("nan"), float("inf"), 0.5])
def test_p_must_be_finite(p):
    mu = DiscreteMeasure([[0.0, 0.0], [1.0, 0.0]], [0.3, 0.7])
    line = DiscreteMeasure([[0.0], [1.0]], [0.3, 0.7])
    with pytest.raises(ValueError, match="p must be a finite number >= 1"):
        w_exact(p, mu, mu)
    with pytest.raises(ValueError, match="p must be a finite number >= 1"):
        w1d(p, line, line)


def test_constraint_blocks_are_block_diagonal():
    shapes = [(1, 1), (2, 3), (5, 2), (4, 4)]
    A = _transport_constraints(shapes)
    ref = block_diag([_transport_constraints([s]) for s in shapes], format="csr")
    assert A.shape == ref.shape
    assert np.array_equal(A.toarray(), ref.toarray())


def _brute_loop(p, mu, nu):
    C = _dist_matrix(mu.points, nu.points) ** p
    best = np.inf
    for perm in itertools.permutations(range(mu.n)):
        c = sum(C[i, perm[i]] for i in range(mu.n))
        if c < best:
            best = c
    return (best / mu.n) ** (1.0 / p)


def test_brute_matches_permutation_loop():
    rng = stream_rng(0xB7)
    for n in range(1, 9):
        for p in (1.0, 2.0, 1.5):
            mu = _uniform(rng.normal(size=(n, 2)))
            nu = _uniform(rng.normal(size=(n, 2)))
            assert w_brute(p, mu, nu) == _brute_loop(p, mu, nu)


# Coordinates from a small grid (ties and repeated atoms) or arbitrary ones.
_coords = st.sampled_from([-1.0, 0.0, 0.5, 2.0]) | st.floats(-5.0, 5.0)


@st.composite
def _uniform_pair(draw, d):
    n = draw(st.integers(1, 6))
    side = st.lists(st.lists(_coords, min_size=d, max_size=d), min_size=n, max_size=n)
    return _uniform(np.array(draw(side))), _uniform(np.array(draw(side)))


@given(st.sampled_from([1, 2]).flatmap(_uniform_pair), st.sampled_from([1, 2, 3]))
@settings(max_examples=150, deadline=None)
def test_wasserstein_chooser_matches_brute_force(pair, p):
    """The chosen route (assignment in d = 2, quantile coupling in d = 1) against the permutation oracle."""
    mu, nu = pair
    w = wasserstein(p, mu, nu)
    if mu.d == 1:
        assert w == w1d(p, mu, nu)
    assert w == pytest.approx(w_brute(p, mu, nu), rel=1e-12, abs=1e-12)


def test_brute_rejects_nonuniform():
    mu = DiscreteMeasure([[0.0], [1.0]], [0.7, 0.3])
    with pytest.raises(ValueError):
        w_brute(1, mu, mu)


def test_sliced_w1_upper_bounded_by_w1():
    # projections are 1-Lipschitz, so every sliced term is <= W_1
    rng = stream_rng(13)
    theta = sphere_directions(16, 3, seed=2)
    mu = _uniform(rng.normal(size=(8, 3)))
    nu = _uniform(rng.normal(size=(8, 3)))
    full, _ = w_exact(1, mu, nu)
    assert sliced_w1(mu, nu, theta) <= full + 1e-12


def test_translation_split_identity():
    rng = stream_rng(77)
    for _ in range(10):
        mu = DiscreteMeasure(rng.normal(size=(5, 2)), rng.uniform(0.1, 1, 5))
        nu = DiscreteMeasure(rng.normal(size=(4, 2)) + 3.0, rng.uniform(0.1, 1, 4))
        centered_sq, gap_sq = translation_split(mu, nu)
        total, _ = w_exact(2, mu, nu)
        assert centered_sq + gap_sq == pytest.approx(total**2, abs=1e-8)


def test_translation_split_pure_shift():
    mu = _uniform([[0.0, 0.0], [1.0, 0.0]])
    nu = _uniform([[2.0, 1.0], [3.0, 1.0]])  # mu shifted by (2, 1)
    centered_sq, gap_sq = translation_split(mu, nu)
    assert centered_sq == pytest.approx(0.0, abs=1e-12)
    assert gap_sq == pytest.approx(5.0, rel=1e-12)


@pytest.mark.slow
def test_w_rate_1d_uniform_law():
    def sampler(n, rng):
        return rng.uniform(0.0, 1.0, size=(n, 1))

    fit = w_rate(sampler, 1, [2**j for j in range(6, 11)], 10, 7)
    assert fit.slope == pytest.approx(-0.5, abs=0.1)
