import itertools
import math
import tracemalloc
import types
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.integrate import quad
from scipy.optimize import linear_sum_assignment, linprog
from scipy.sparse import block_diag, csc_matrix, csr_matrix

from wmmd import transport
from wmmd.kernels import KernelSpec, _sq_dists

from wmmd.lab import mmd_dominance_check, w_rate
from wmmd.measures import DiscreteMeasure, GaussianMixture, stream_rng
from wmmd.transport import (
    TransportPlan,
    w1d,
    w_exact,
    w_brute,
    translation_split,
    wasserstein,
    _dist_matrix,
    _quantile_cost_discrete,
    _transport_constraints,
)


def _constraint_matrix(supports):
    """`_transport_constraints`' column-wise arrays as a CSC matrix of ones, with a block's n + m - 1 rows each."""
    start, index = _transport_constraints(supports)
    rows = sum(n + m - 1 for n, m in (keep.shape for keep in supports))
    return csc_matrix((np.ones(index.size), index, start), shape=(rows, start.size - 1))


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
    return float((np.diff(q, prepend=0.0) * gap).sum())


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
    """Tie-free positions give the same breakpoints, atoms and sum, bit for bit: weighted pairs, and
    uniform pairs on C09's grid (n = 2^7 ... 2^13 against 64n), whose cumulative sums of 1/n and
    1/(64n) are exact, so the exact grid of `_grid_cost` keeps their bits."""
    rng = stream_rng(404)
    cases = [(2**k, 64 * 2**k, 1) for k in range(7, 14)] + [(512, 64 * 512, 2)]
    cases += [(int(n), int(m), p) for n, m in rng.integers(1, 60, (40, 2)) for p in (1, 2, 3)]
    for n, m, p in cases:
        x, y = rng.uniform(size=n), rng.normal(size=m)
        if n < 100:
            a, b = rng.uniform(0.1, 1, n), rng.uniform(0.1, 1, m)
            a, b = a / a.sum(), b / b.sum()
        else:  # the uniform weights of `w_rate`
            a, b = np.full(n, 1.0 / n), np.full(m, 1.0 / m)
        assert _quantile_cost_discrete(p, x, a, y, b) == (_union_searchsorted_cost(p, x, a, y, b), 1.0)


def _argsort_merge(a, b):
    """Reference (q, i, j) of `_monotone_support`: one stable argsort of both cumulative runs.

    Equal values keep a's entries first; the first entry of each run of
    equal values is a breakpoint, and a bool cumsum counts a's entries
    before it.
    """
    ca = np.minimum(np.cumsum(a), 1.0)
    cb = np.minimum(np.cumsum(b), 1.0)
    ca[-1] = cb[-1] = 1.0
    c = np.concatenate([ca, cb])
    order = np.argsort(c, kind="stable")
    merged = c[order]
    first = np.empty(merged.size, dtype=bool)
    first[0] = merged[0] > 0
    np.not_equal(merged[1:], merged[:-1], out=first[1:])
    from_a = order < ca.size
    i = (np.cumsum(from_a) - from_a)[first]
    return merged[first], i, np.flatnonzero(first) - i


def _argsort_cost(p, x, a, y, b):
    """Reference: the coupling with both sides argsorted and their weights gathered."""
    ix, iy = np.argsort(x), np.argsort(y)
    q, i, j = _argsort_merge(a[ix], b[iy])
    gap = np.abs(x[ix[i]] - y[iy[j]])
    gap, s = transport._pth_power(gap, p, gap.max(), 1)
    return float((np.diff(q, prepend=0.0) * gap).sum()), s


@st.composite
def _support_weights(draw):
    """A side's weights: 1/n, or drawn with zeros among them, also as its first or last atoms."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 40))
        return np.full(n, 1.0 / n)
    w = draw(st.lists(_masses, min_size=1, max_size=30))
    w = [0.0] * draw(st.integers(0, 2)) + w + [0.0] * draw(st.integers(0, 2))
    assume(sum(w) > 0)
    return np.array(w) / sum(w)


_OVERSHOOT_WEIGHTS = _split(_OVERSHOOT)[1]


@given(_support_weights(), _support_weights() | st.integers(1, 5).map(lambda n: np.full(64 * n, 1.0 / (64 * n))))
@example(_OVERSHOOT_WEIGHTS, _OVERSHOOT_WEIGHTS[::-1])
@example(_OVERSHOOT_WEIGHTS, np.array([0.0, 0.25, 0.5, 0.25, 0.0]))
@example(np.full(3, 1 / 3), np.full(6, 1 / 6))  # ties where the cumulative sums meet
@example(np.full(7, 1 / 7), np.full(7 * 64, 1 / (7 * 64)))  # n << N, sums that round apart
@example(np.full(8, 1 / 8), np.full(8 * 64, 1 / (8 * 64)))  # n << N, every a-entry tied
@settings(max_examples=300, deadline=None)
def test_monotone_support_equals_the_argsort_merge(a, b):
    """The positional merge gives the stable argsort's (q, i, j): same dtypes, same bits."""
    for got, ref in zip(transport._monotone_support(a, b), _argsort_merge(a, b)):
        assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()


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
@settings(max_examples=300, deadline=None)
def test_equal_weight_sides_match_the_argsort_path_bit_for_bit(side_a, side_b, p):
    """Beside a weighted side, a side of equal weights is sorted by value alone and its weights are
    not gathered.  Pairs with equal weights on both sides take the exact grid instead (see
    `test_equal_weight_pairs_are_within_their_rounding_of_the_exact_grid`)."""
    (x, a), (y, b) = side_a, side_b
    assume(a.min() != a.max() or b.min() != b.max())
    got = _quantile_cost_discrete(p, x, a, y, b)
    assert [v.hex() for v in got] == [v.hex() for v in _argsort_cost(p, x, a, y, b)]


_U, _ETA = Fraction(1, 2**53), Fraction(1, 2**1075)  # unit round-off; half the smallest subnormal


def _exact_grid_cost(p, x, y):
    """Exact integral of |F^-1 - G^-1|^p for atoms x of mass 1/n and y of mass 1/N, as a Fraction.

    A walk over the 1/L grid, L = lcm(n, N), in Python integers: the positions are scaled by a
    common power of two to integers, and each piece adds (its width in 1/L) * |X_i - Y_j|^p.
    """
    x, y = sorted(float(v) for v in x), sorted(float(v) for v in y)
    n, N = len(x), len(y)
    L = math.lcm(n, N)
    ratios = [v.as_integer_ratio() for v in x + y]  # denominators are powers of two
    shift = max(d.bit_length() for _, d in ratios) - 1
    ints = [num << (shift + 1 - d.bit_length()) for num, d in ratios]
    X, Y = ints[:n], ints[n:]
    i = j = prev = total = 0
    while i < n and j < N:
        end = min((i + 1) * (L // n), (j + 1) * (L // N))
        total += (end - prev) * abs(X[i] - Y[j]) ** p
        prev = end
        i += (i + 1) * (L // n) == end
        j += (j + 1) * (L // N) == end
    return Fraction(total, L << (shift * p))


def _pairwise_depth(k):
    """The most roundings one term meets in numpy's pairwise sum of k terms.

    Below 8 terms a running sum from 0; up to 128, eight running sums of k // 8 terms, three levels
    joining them and the k % 8 rest added one by one; above, one more level over two halves split at
    a multiple of 8.  (Emulated in Python, this order gives `np.sum`'s bits at every size tried.)
    """
    if k < 8:
        return max(k - 1, 0)
    if k <= 128:
        return k // 8 - 1 + 3 + k % 8
    half = k // 2 - k // 2 % 8
    return 1 + max(_pairwise_depth(half), _pairwise_depth(k - half))


def _power_roundings(p, rescaled):
    """Roundings a gap^p term carries, in units of u: the difference and (when rescaled) the division
    by s, each raised to p, then the power: exact at p = 1, one square at p = 2, else libm's `pow`,
    within 1 ulp (2u)."""
    return (2 if rescaled else 1) * p + {1: 0, 2: 1}.get(p, 2)


def _gamma(c):
    return c * _U / (1 - c * _U)


def _grid_error_bound(p, n, N, s, exact):
    """Largest |cost - exact| `_grid_cost` may show, from its roundings.

    Each of the K pieces (K = N when n divides N, else n + N - gcd(n, N)) is
    fl(w * fl(fl(|x - y| / s)^p)), its integer mass w exact in float (L < 2^53 here; the
    product is formed only when n and N do not divide each other), then numpy's pairwise sum and
    one division by L.  By Higham's lemma a term that meets c roundings of relative size u is off by
    a factor within gamma_c = cu / (1 - cu), with c = `_power_roundings` + 1 (product) +
    `_pairwise_depth(K)` + 1 (division).  The terms are nonnegative, so the cost is within gamma_c
    of `exact`, about c ulps of it: c is at most 26 at p <= 3 on the drawn sizes (31 on 1,000
    against 64,000 atoms) and up to 420 at p = 200, where the difference's rounding is raised to
    the 200th power.  Roundings in the subnormal range are absolute instead, at most
    eta = 2^-1075 each at the power, the product and the division, and the first two carry
    weights summing to at most L before the division by L: with the relative factors, below
    4 eta in all.
    """
    lo, hi = sorted((n, N))
    divides = hi % lo == 0
    assert math.lcm(n, N) < 2**53
    pieces = hi if divides else n + N - math.gcd(n, N)
    c = _power_roundings(p, s != 1.0) + (0 if divides else 1) + _pairwise_depth(pieces) + 1
    return _gamma(c) * exact + 4 * _ETA


_RELATIONS = {  # (n, N) from two draws k, r in 1..8
    "n | N": lambda k, r: (k, k * r),
    "N | n": lambda k, r: (k * r, k),
    "coprime": lambda k, r: (k, k * r + 1),
    "shared factor": lambda k, r: (2 * k, 3 * k),
    "n = N": lambda k, r: (k, k),
    "n = 1": lambda k, r: (1, k * r),
}


@st.composite
def _equal_pair(draw):
    """Positions with ties and signed zeros for n and N atoms, n and N in one of `_RELATIONS`."""
    n, N = _RELATIONS[draw(st.sampled_from(sorted(_RELATIONS)))](draw(st.integers(1, 8)), draw(st.integers(1, 8)))
    return tuple(np.array(draw(st.lists(_signed, min_size=m, max_size=m))) for m in (n, N))


def _check_grid_cost(p, x, y):
    n, N = x.size, y.size
    cost, s = _quantile_cost_discrete(p, x, np.full(n, 1.0 / n), y, np.full(N, 1.0 / N))
    exact = _exact_grid_cost(p, x, y) / Fraction(s) ** p
    assert abs(Fraction(cost) - exact) <= _grid_error_bound(p, n, N, s, exact)
    return cost, exact


@given(_equal_pair(), st.sampled_from([1, 2, 3, 200]))
@example((_ZEROS, np.array([0.0, -0.0, 1.0])), 1)  # exactly 1/3; merged cumulative sums read 1 ulp high
@settings(max_examples=200, deadline=None)
def test_equal_weight_pairs_are_within_their_rounding_of_the_exact_grid(pair, p):
    """Equal weights on both sides: the cost is within `_grid_error_bound` of the exact sum over
    the 1/lcm(n, N) grid, for n | N, N | n, coprime and other sizes, n = N and n = 1."""
    _check_grid_cost(p, *pair)


def test_equal_weight_grid_keeps_its_rounding_where_cumulative_sums_drift():
    """1,000 against 64,000 normal draws at p = 2: the float cumulative sums of 1/n and 1/N round
    apart where k/n = l/N, so the merged route misplaces pieces.  The grid route stays within its
    rounding (it reads -0.26 ulp from the exact cost), while the merged route is 1.6e-10 off."""
    rng = stream_rng(0x6D1D)
    x, y = rng.normal(size=1000), rng.normal(size=64000)
    cost, exact = _check_grid_cost(2, x, y)
    merged = _argsort_cost(2, x, np.full(1000, 1e-3), y, np.full(64000, 1 / 64000))[0]
    assert abs(Fraction(merged) - exact) > 1e-12 * exact


def test_splitting_an_atom_keeps_the_cost_across_routes():
    """Split one atom of an equal-weight pair into two half-weight atoms at the same position: the
    measure is the same, but the pair now takes the merged cumulative-weight route.  On 50 pairs
    (the sizes of `_RELATIONS`, normal positions, p = 1, 2, 3) the two routes agree within the sum
    of their error bounds.

    Grid route: within gamma_ce of the exact cost V (`_grid_error_bound`).  Merged route: the
    breakpoint after b atoms of a side of m atoms is a sequential cumulative sum of b rounded
    weights, within gamma_b of its exact value (b < m; the last is pinned to 1).  Moving one
    breakpoint by e changes which atom a piece of width e meets, so the integral by at most
    e * T, T = (largest |x - y|)^p; E * T in all, E the sum over both sides' breakpoints.  Its
    pieces then meet the difference and the power (`_power_roundings`), one rounding of each
    breakpoint difference, one of each product and the pairwise sum over at most m_a + m_b
    pieces: within gamma_cw of V + E * T.  So |merged - grid| <= gamma_ce V + gamma_cw (V + E T)
    + E T + 8 eta (each route's underflow allowance), with V <= grid / (1 - gamma_ce).  No scale is
    taken at these p (both s read 1).
    """
    rng = stream_rng(0x5B117)
    relations = sorted(_RELATIONS)
    for t in range(50):
        p = 1 + t % 3
        n, N = _RELATIONS[relations[t % len(relations)]](*(int(v) for v in rng.integers(1, 9, 2)))
        x, y = rng.normal(size=n), rng.normal(size=N) + rng.uniform(-1, 1)
        a, b = np.full(n, 1.0 / n), np.full(N, 1.0 / N)
        grid, s = _quantile_cost_discrete(p, x, a, y, b)
        k = int(rng.integers(n))  # split x's atom k: two atoms of weight a[k] / 2 at x[k]
        xs, ws = np.insert(x, k, x[k]), np.insert(a, k, a[k] / 2)
        ws[k + 1] /= 2
        if t % 2:  # the split side second
            merged, sw = _quantile_cost_discrete(p, y, b, xs, ws)
        else:
            merged, sw = _quantile_cost_discrete(p, xs, ws, y, b)
        assert s == sw == 1.0
        gamma_ce = _grid_error_bound(p, n, N, 1.0, 1) - 4 * _ETA
        V = Fraction(grid) / (1 - gamma_ce)
        E = sum(_gamma(j) for m in (n + 1, N) for j in range(1, m))
        T = max(Fraction(x.max()) - Fraction(y.min()), Fraction(y.max()) - Fraction(x.min())) ** p
        depth = max(_pairwise_depth(j) for j in range(1, n + N + 2))
        gamma_cw = _gamma(_power_roundings(p, False) + 2 + depth)
        tol = gamma_ce * V + gamma_cw * (V + E * T) + E * T + 8 * _ETA
        assert abs(Fraction(merged) - Fraction(grid)) <= tol, (n, N, p)


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


def test_pth_power_underflow_is_not_an_error():
    """Small distances' p-th powers underflow to 0 by design, also under a caller's np.errstate(under="raise").

    It raised FloatingPointError from `D**p` on the LP route at p = 200 and on
    the quantile route at p = 500, where the largest distance's power stays
    in range.
    """
    rng = np.random.default_rng(5)
    mu = DiscreteMeasure(rng.normal(size=(90, 1)), rng.uniform(0.1, 1, 90))
    nu = DiscreteMeasure(rng.normal(size=(70, 1)), rng.uniform(0.1, 1, 70))
    ref = [w_exact(200, mu, nu)[0], w1d(500, mu, nu)]
    with np.errstate(under="raise"):
        got = [w_exact(200, mu, nu)[0], w1d(500, mu, nu)]
    assert got == ref and all(0.0 < v < np.inf for v in got)


def test_zero_weight_atoms_do_not_set_the_scale():
    """Far atoms without mass neither rescale nor turn the value into nan, on the 1-D coupling and
    on the LP: at 1e100 the squared distance is finite, but its p-th power overflowed at p = 200
    and the LP's cost read 0 * inf = nan."""
    rng = stream_rng(506)
    x, y = rng.normal(size=(8, 1)), rng.normal(size=(6, 1))
    a = rng.uniform(0.1, 1, 8)
    nu = _uniform(y)
    with_far = DiscreteMeasure(np.vstack([[-1e200], [1e100], x]), np.concatenate([[0.0, 0.0], a]))
    for p in (1, 2, 200):
        assert w1d(p, with_far, nu) == pytest.approx(w1d(p, DiscreteMeasure(x, a), nu), rel=1e-14)
        assert w_exact(p, with_far, nu)[0] == pytest.approx(w_exact(p, DiscreteMeasure(x, a), nu)[0], rel=1e-12)


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


def _recording_w1d(monkeypatch, p, mu, nu):
    """(sizes of the mixture lists given to `gmm_quantiles`, level sizes `_tanh_sinh` evaluated, its cuts) in a `w1d`."""
    calls, levels, cuts = [], [], []
    quantiles, tanh_sinh = transport.gmm_quantiles, transport._tanh_sinh
    monkeypatch.setattr(transport, "gmm_quantiles", lambda g, q: calls.append(len(g)) or quantiles(g, q))
    monkeypatch.setattr(
        transport, "_tanh_sinh", lambda f, c: cuts.append(c) or tanh_sinh(lambda q: levels.append(q.size) or f(q), c)
    )
    w1d(p, mu, nu)
    return calls, levels, cuts[0]


_CROSSING_PAIRS = [
    # F - G changes sign three times
    (GaussianMixture([0.3, 0.7], [[-1.0], [2.0]], [0.5, 1.5]), GaussianMixture([0.6, 0.4], [[0.0], [1.0]], [1.0, 0.3])),
    # F - G changes sign at x = -1e-6: 64 halvings from the grid's bracket stop short of a fixed point
    (GaussianMixture([1.0], [[0.0]], [1.0]), GaussianMixture([1.0], [[1e-6]], [2.0])),
]


@pytest.mark.parametrize("mu, nu", _CROSSING_PAIRS)
def test_mixture_w1d_solves_each_quadrature_level_once(monkeypatch, mu, nu):
    """One `gmm_quantiles` call of all four quantile functions per tanh-sinh level, plus one for the scale M."""
    calls, levels, _ = _recording_w1d(monkeypatch, 2, mu, nu)
    assert len(levels) >= 3
    assert calls == [4] * (len(levels) + 1)


@pytest.mark.parametrize("mu, nu", _CROSSING_PAIRS)
def test_mixture_w1d_sign_change_cuts_match_64_halvings(monkeypatch, mu, nu):
    """The bisection stops at a fixed point of its halvings; its cuts equal 64 fixed halvings' bit for bit."""
    cdf_gap = lambda x: mu.cdf(x) - nu.cdf(x)
    z = np.linspace(-12.0, 12.0, 129)
    x = np.unique(np.concatenate([g.means + g.sigmas[:, None] * z for g in (mu, nu)]))
    sign = np.sign(cdf_gap(x))
    xs, sign = x[sign != 0], sign[sign != 0]
    i = np.flatnonzero(sign[:-1] != sign[1:])
    a, b = xs[i], xs[i + 1]
    for _ in range(64):
        mid = 0.5 * (a + b)
        a, b = np.where(np.sign(cdf_gap(mid)) == sign[i], [mid, b], [a, mid])
    mirrored = GaussianMixture(mu.weights, -mu.means, mu.sigmas)
    expected = np.r_[mu.cdf(a), mirrored.cdf(-a)]
    cuts = _recording_w1d(monkeypatch, 1, mu, nu)[2]
    assert np.count_nonzero(expected < 0.5) >= 1 and np.isin(expected[expected < 0.5], cuts).all()


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
        ref = csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(n + m - 1, n * m)).tocsc()
        A = _constraint_matrix([np.ones((n, m), dtype=bool)])
        assert A.shape == ref.shape
        for attr in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(A, attr), getattr(ref, attr))

    def test_lp_plan_within_validation_tolerance(self):
        """A pair whose HiGHS plan, at HiGHS's default 1e-7 feasibility
        tolerance, held entries near -7.7e-8; clipping them broke the row
        marginals by more than `validate`'s 1e-9 (`_pair_112`)."""
        mu, nu = _pair_112()
        val, plan = w_exact(2, mu, nu)
        assert plan.coupling.min() >= 0.0
        ref = linprog(
            (_dist_matrix(mu.points, nu.points) ** 2).ravel(),
            A_eq=_constraint_matrix([np.ones((120, 120), dtype=bool)]),
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


def _count_linprog(monkeypatch):
    """The sizes of the LPs `transport` solves from here on, one entry per `linprog` call."""
    calls = []
    real_linprog = transport.linprog

    def counting_linprog(c, *args, **kwargs):
        calls.append(c.size)
        return real_linprog(c, *args, **kwargs)

    monkeypatch.setattr(transport, "linprog", counting_linprog)
    return calls


def test_lp_groups_respect_size_guard(monkeypatch):
    rng = stream_rng(0x6A)
    pairs = [_weighted_pair(rng, n, m, 2) for n, m in [(3, 4), (5, 4), (2, 3), (6, 5), (3, 3)]]
    pairs.insert(3, (_uniform(rng.normal(size=(4, 2))), _uniform(rng.normal(size=(4, 2)))))
    mus, nus = [mu for mu, _ in pairs], [nu for _, nu in pairs]
    unlimited = [val for val, _ in w_exact(1, mus, nus)]
    sizes = _count_linprog(monkeypatch)
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


@pytest.mark.parametrize("p", [float("nan"), float("inf"), 0.5, 0])
def test_p_must_be_finite(p):
    mu = DiscreteMeasure([[0.0, 0.0], [1.0, 0.0]], [0.3, 0.7])
    line = DiscreteMeasure([[0.0], [1.0]], [0.3, 0.7])
    with pytest.raises(ValueError, match="p must be a finite number >= 1"):
        w_exact(p, mu, mu)
    with pytest.raises(ValueError, match="p must be a finite number >= 1"):
        w1d(p, line, line)
    with pytest.raises(ValueError, match="p must be a finite number >= 1"):
        w_brute(p, _uniform([[0.0], [1.0]]), _uniform([[0.0], [1.0]]))


def test_constraint_blocks_are_block_diagonal():
    rng = stream_rng(0xB10C)
    shapes = [(1, 1), (2, 3), (5, 2), (4, 4)]
    for supports in ([np.ones(s, dtype=bool) for s in shapes], [rng.uniform(size=s) < 0.6 for s in shapes]):
        A = _constraint_matrix(supports)
        ref = block_diag([_constraint_matrix([keep]) for keep in supports], format="csc")
        assert A.shape == ref.shape
        assert np.array_equal(A.toarray(), ref.toarray())


@pytest.mark.parametrize("n, m", [(1, 1), (2, 3), (5, 2), (60, 50), (70, 64)])
def test_constraint_columns_are_the_kept_entries(n, m):
    """A support keeps the full matrix's columns of its entries, in row-major order."""
    rng = stream_rng(0x5CC, n, m)
    full = _constraint_matrix([np.ones((n, m), dtype=bool)])
    for density in (0.0, 0.1, 0.5, 1.0):
        keep = rng.uniform(size=(n, m)) < density
        A = _constraint_matrix([keep])
        assert A.shape == (n + m - 1, np.count_nonzero(keep))
        assert np.array_equal(A.toarray(), full.toarray()[:, keep.ravel()])


def _pair_112():
    """Pair 112 of 400 weighted 120 x 120 pairs drawn in this order."""
    rng = np.random.default_rng([100, 6])
    for _ in range(113):
        X = rng.standard_normal((120, 2))
        Y = rng.standard_normal((120, 2)) * rng.uniform(0.5, 1.5) + rng.uniform(-1, 1)
        a, b = rng.uniform(0.1, 1, 120), rng.uniform(0.1, 1, 120)
    return DiscreteMeasure(X, a), DiscreteMeasure(Y, b)


def _full_block(n, m):
    rng = stream_rng(0xF011, n, m)
    C, a, b = rng.uniform(size=(n, m)), rng.uniform(0.1, 1, n), rng.uniform(0.1, 1, m)
    return lambda: transport._solve_transport_lp([(C, a / a.sum(), b / b.sum())])


def _dominance_batch():
    """16 weighted pairs of 2-5 atoms a side in the plane, one of each size combination."""
    rng = stream_rng(0xD0B)
    pairs = [_weighted_pair(rng, n1, n2, 2) for n1 in range(2, 6) for n2 in range(2, 6)]
    return lambda: mmd_dominance_check(KernelSpec.gaussian(1.0, 2), pairs, p=2)


@pytest.mark.parametrize(
    "solve, entries, seeded",
    [
        (_full_block(1, 1), 1, False),
        (_full_block(2, 3), 6, False),
        (_full_block(60, 50), 3000, False),
        (lambda: w_exact(2, *_weighted_pair(stream_rng(0x140), 140, 140, 2)), 140 * 140, True),
        (_dominance_batch(), (2 + 3 + 4 + 5) ** 2, False),
        (lambda: w_exact(2, *_pair_112()), 120 * 120, True),
    ],
    ids=["1x1", "2x3", "60x50", "140x140-seeded", "dominance-batch", "pair-112"],
)
def test_direct_highs_solve_matches_linprog_bit_for_bit(monkeypatch, solve, entries, seeded):
    """Every LP `transport` solves gives the x, row duals and simplex iterations of
    `scipy.optimize.linprog(method="highs")` at the same tolerances, to the bit.

    `transport.linprog` drives scipy's private HiGHS binding itself; this catches
    a scipy release whose binding no longer solves as `linprog` does.  The
    dominance batch is one block-diagonal LP of its 16 pairs' 196 plan entries.
    """
    if not seeded:
        monkeypatch.setattr(transport, "_SEED_MIN_ENTRIES", np.inf)
    calls, real = [], transport.linprog

    def recording(*args):
        calls.append((args, real(*args)))
        return calls[-1][1]

    monkeypatch.setattr(transport, "linprog", recording)
    solve()
    first = calls[0][0][0].size
    assert first < entries if seeded else (first == entries and len(calls) == 1)
    tol = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": transport._REDUCED_COST_TOL}
    for (c, start, index, rhs), got in calls:
        A = csc_matrix((np.ones(index.size), index, start), shape=(rhs.size, c.size))
        ref = linprog(c, A_eq=A, b_eq=rhs, bounds=(0, None), method="highs", options=tol)
        assert ref.success and got.success
        assert got.x.tobytes() == ref.x.tobytes()
        assert got.row_dual.tobytes() == ref.eqlin.marginals.tobytes()
        assert got.nit == ref.nit


def test_infeasible_lp_names_the_highs_status():
    """Row masses of 1 against column masses of 2 on the kept target: HiGHS's status ends the solve."""
    C = np.array([[0.5, 1.0], [0.25, 0.75]])
    with pytest.raises(RuntimeError, match=r"^transport LP failed: Infeasible$"):
        transport._solve_transport_lp([(C, np.array([0.5, 0.5]), np.array([2.0, 1.0]))])


def test_highs_errors_are_failed_solves(monkeypatch):
    """A model HiGHS refuses to load, or a run that returns kError, is a failed solve named by the model
    status, with 0 simplex iterations (HiGHS's own count reads -1 when no simplex ran)."""
    rejected = transport.linprog(np.ones(2), np.array([0, 1, 2]), np.array([0, 5]), np.ones(2))  # row 5 of 2
    assert not rejected.success and rejected.message == "Model error" and rejected.nit == 0
    from scipy.optimize._highspy import _core as h

    class RunError(h._Highs):
        def run(self):
            return h.HighsStatus.kError

    monkeypatch.setattr(h, "_Highs", RunError)
    not_run = transport.linprog(np.ones(2), np.array([0, 1, 2]), np.array([0, 1]), np.ones(2))
    assert not not_run.success and not_run.message == "Not Set" and not_run.nit == 0
    with pytest.raises(RuntimeError, match=r"^transport LP failed: Not Set$"):
        transport._solve_transport_lp([(np.eye(2), np.array([0.5, 0.5]), np.array([0.25, 0.75]))])


def test_uniform_check_is_absolute_at_1e_14():
    """`_is_uniform` gives np.allclose(w, 1/n, rtol=0, atol=1e-14)'s answers on both sides of
    the 1e-14 boundary, for nan and +-inf weights, and at n = 1."""

    def measure(w):
        return types.SimpleNamespace(n=len(w), weights=np.array(w, dtype=float))

    def edge(u, toward):  # the last float from u toward +-inf within 1e-14 of u
        w = u + np.copysign(1e-14 - 1e-17, toward)
        while abs(np.nextafter(w, toward) - u) <= 1e-14:
            w = np.nextafter(w, toward)
        return w

    cases = []
    for n in (1, 3, 4):
        u = 1.0 / n
        for toward in (np.inf, -np.inf):
            w = edge(u, toward)
            cases += [[u] * (n - 1) + [w], [u] * (n - 1) + [np.nextafter(w, toward)]]
        cases += [[u] * (n - 1) + [x] for x in (np.nan, np.inf, -np.inf)]
    for w in cases:
        expected = bool(np.allclose(w, 1.0 / len(w), rtol=0.0, atol=1e-14))
        for a, b in ((w, [1.0 / len(w)] * len(w)), ([1.0 / len(w)] * len(w), w)):
            assert bool(transport._is_uniform(measure(a), measure(b))) is expected, (a, b)
    per_n = [True, False, True, False, False, False, False]  # each edge, one float past it, nan, inf, -inf
    assert [bool(np.allclose(w, 1.0 / len(w), rtol=0.0, atol=1e-14)) for w in cases] == per_n * 3
    assert not transport._is_uniform(measure([0.5, 0.5]), measure([1 / 3] * 3))


def test_monotone_support_is_a_coupling():
    """The north-west-corner masses on (i, j) have the weights as marginals, in the given order."""
    rng = stream_rng(0x4E57)
    for t in range(60):
        n, m = rng.integers(1, 40, size=2)
        a, b = rng.uniform(0.1, 1, n), rng.uniform(0.1, 1, m)
        if t % 2:
            a[rng.uniform(size=n) < 0.3] = 0.0
            b[rng.uniform(size=m) < 0.3] = 0.0
            a[-1], b[0] = a[-1] + 0.1, b[0] + 0.1
        a, b = a / a.sum(), b / b.sum()
        q, i, j = transport._monotone_support(a, b)
        g = np.zeros((n, m))
        np.add.at(g, (i, j), np.diff(q, prepend=0.0))
        assert g.min() >= 0.0 and np.all(np.diff(i) >= 0) and np.all(np.diff(j) >= 0)
        assert np.abs(g.sum(axis=1) - a).max() <= 1e-14
        assert np.abs(g.sum(axis=0) - b).max() <= 1e-14


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_dist_matrix_blocks_keep_the_bits_of_one_call(d):
    """Row blocks of about 2^15 entries give np.sqrt(_sq_dists(X, Y)) bit for bit: 1 x N, N x 1,
    and one row short of, at and past a block, for 1,000 columns (32 rows a block)."""
    rng = stream_rng(0xD15, d)
    budget = transport._DIST_BLOCK_ENTRIES // 1000
    shapes = [(1, 2**15 + 3), (2**15 + 3, 1), (budget - 1, 1000), (budget, 1000), (budget + 1, 1000)]
    for n, m in shapes:
        X = rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-3, 3, (1, d))
        Y = rng.normal(size=(m, d)) * 10.0 ** rng.uniform(-3, 3, (1, d))
        D = _dist_matrix(X, Y)
        assert D.shape == (n, m) and D.tobytes() == np.sqrt(_sq_dists(X, Y)).tobytes()


def _traced_peak(f, *args):
    tracemalloc.start()
    try:
        f(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_w1d_and_atom_distances_stay_within_their_memory():
    """Peaks, traced after the inputs exist: the 1-D coupling of 8,192 against 64 x 8,192 uniform
    atoms (the exact grid, its gaps formed in the larger side's sorted copy) below 1.5 x 8(n + N)
    bytes (it reads 1.02x; 9.2x, then 4.9x, on the merged route), the same with the 8,192 atoms
    weighted (the merged route) below 6 x 8(n + N) bytes (it reads 5.02x), and 1,024^2 distances
    in d = 3 below 1.5 x 8nm bytes (it was 3.0x).  scipy.optimize is imported by this module, so
    its first-call import (about 24 MiB) is not traced."""
    rng = stream_rng(0x3E3)
    n, N = 8192, 64 * 8192
    mu, nu = _uniform(rng.uniform(size=(n, 1))), _uniform(rng.uniform(size=(N, 1)))
    assert _traced_peak(w1d, 1, mu, nu) < 1.5 * 8 * (n + N)
    a = rng.uniform(0.1, 1, n)
    weighted = DiscreteMeasure(rng.uniform(size=(n, 1)), a / a.sum())
    assert _traced_peak(w1d, 1, weighted, nu) < 6 * 8 * (n + N)
    X, Y = _uniform(rng.uniform(size=(1024, 3))), _uniform(rng.uniform(size=(1024, 3)))
    assert _traced_peak(transport._atom_dists, X, Y) < 1.5 * 8 * 1024**2


def _reference_cost(p, mu, nu):
    """(optimal cost, largest cost) of the transport LP over every plan entry.

    One `linprog` whose constraints are built here by Kronecker products, at
    primal and dual tolerances of 1e-10 on costs scaled to a largest entry in
    [1/2, 1): tight enough that HiGHS's default 1e-7 would not hide a
    suboptimal vertex.
    """
    n, m = mu.n, nu.n
    C = np.linalg.norm(mu.points[:, None, :] - nu.points[None, :, :], axis=2) ** p
    A = np.vstack([np.kron(np.eye(n), np.ones(m)), np.kron(np.ones(n), np.eye(m))[:-1]])
    s = np.ldexp(1.0, -np.frexp(C.max())[1])
    tol = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}
    res = linprog((s * C).ravel(), A_eq=csr_matrix(A), b_eq=np.concatenate([mu.weights, nu.weights[:-1]]),
                  bounds=(0, None), method="highs", options=tol)
    assert res.success
    return res.fun / s, C.max()


_KINDS = ("random", "random", "zero weights", "duplicates", "far target")


def _large_pair(rng, d, kind):
    """A weighted pair above the LP seed threshold, plain or with one kind of edge case."""
    n, m = (70, 64) if d < 3 else (64, 80)
    X, Y = rng.normal(size=(n, d)), rng.normal(size=(m, d)) * rng.uniform(0.5, 1.5) + rng.uniform(-1, 1, d)
    a, b = rng.uniform(0.1, 1, n), rng.uniform(0.1, 1, m)
    if kind == "zero weights":
        a[rng.uniform(size=n) < 0.3] = 0.0
        b[rng.uniform(size=m) < 0.3] = 0.0
        a[[0, -1]], b[[0, -1]] = 0.0, 0.5  # a leading and a trailing zero-weight source atom
    elif kind == "duplicates":
        X, Y = rng.integers(0, 3, size=(n, d)).astype(float), rng.integers(0, 3, size=(m, d)).astype(float)
    elif kind == "far target":
        Y += 100.0
    assert n * m >= transport._SEED_MIN_ENTRIES
    return DiscreteMeasure(X, a), DiscreteMeasure(Y, b)


@pytest.mark.parametrize("case", range(len(_KINDS)), ids=[f"{k}{i}" for i, k in enumerate(_KINDS)])
@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("p", [1, 2, 3])
def test_seeded_lp_matches_full_lp(p, d, case):
    kind = _KINDS[case]
    mu, nu = _large_pair(stream_rng(0x5EED, p, d, case), d, kind)
    val, plan = w_exact(p, mu, nu)  # TransportPlan validates the plan
    _check_marginals(plan, mu, nu)
    ref, top = _reference_cost(p, mu, nu)
    # Within the 1e-7 optimality slack that HiGHS's default dual tolerance
    # allows on costs scaled to at most 1 (the seeded route asks for 1e-10).
    assert abs(val**p - ref) <= 2e-7 * top
    # Where that slack is far below the optimum, the values agree to round-off
    # at p <= 2.  (A target 100 away puts it within 1e-8 of W_p, for the full
    # LP at HiGHS's default tolerances as for the seeded one.)
    if p <= 2 and kind != "far target":
        assert val == pytest.approx(ref ** (1.0 / p), rel=1e-9)


def test_pair_at_the_default_dual_tolerance_is_optimal():
    """The 11th pair of this draw stopped 9.06e-9 above W_2 at HiGHS's default 1e-7 dual tolerance."""
    rng = np.random.default_rng([77, 2, 70])
    for _ in range(11):
        n, m = rng.integers(70, 91, size=2)
        X, Y = rng.normal(size=(n, 2)), rng.normal(size=(m, 2)) * rng.uniform(0.5, 1.5)
        mu, nu = DiscreteMeasure(X, rng.uniform(0.1, 1, n)), DiscreteMeasure(Y, rng.uniform(0.1, 1, m))
    assert (mu.n, nu.n) == (83, 71)
    ref = _reference_cost(2, mu, nu)[0] ** 0.5
    assert abs(w_exact(2, mu, nu)[0] - ref) <= 1e-12 * ref


def _zero_mass_case(p, d, seeded):
    """The zero-weight pair of `test_seeded_lp_matches_full_lp`, or a larger one whose massive atoms get a seed.

    From a 2^10-entry threshold on, the first pair's massive atoms get a seed too,
    so the test raises the threshold above it to keep one unseeded case.
    """
    if not seeded:
        return _large_pair(stream_rng(0x5EED, p, d, _KINDS.index("zero weights")), d, "zero weights")
    rng = stream_rng(0xB16, p, d)
    X, Y = rng.normal(size=(110, d)), rng.normal(size=(100, d)) * rng.uniform(0.5, 1.5)
    a, b = rng.uniform(0.1, 1, 110), rng.uniform(0.1, 1, 100)
    a[rng.uniform(size=110) < 0.3], b[rng.uniform(size=100) < 0.3] = 0.0, 0.0
    assert np.count_nonzero(a) * np.count_nonzero(b) >= transport._SEED_MIN_ENTRIES
    return DiscreteMeasure(X, a), DiscreteMeasure(Y, b)


@pytest.mark.parametrize("seeded", [False, True], ids=["unseeded", "seeded"])
@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("p", [1, 2, 3])
def test_zero_mass_atoms_cost_no_extra_solve(monkeypatch, p, d, seeded):
    """A pair with zero-weight atoms takes as many LP solves as the pair without them, to the same value."""
    mu, nu = _zero_mass_case(p, d, seeded)
    if not seeded:
        monkeypatch.setattr(transport, "_SEED_MIN_ENTRIES", mu.n * nu.n + 1)
    mu0 = DiscreteMeasure(mu.points[mu.weights > 0], mu.weights[mu.weights > 0])
    nu0 = DiscreteMeasure(nu.points[nu.weights > 0], nu.weights[nu.weights > 0])
    calls = _count_linprog(monkeypatch)
    val, plan = w_exact(p, mu, nu)
    with_zeros = len(calls)
    calls.clear()
    assert val == pytest.approx(w_exact(p, mu0, nu0)[0], rel=1e-12)
    assert with_zeros == len(calls)
    assert not plan.coupling[mu.weights == 0].any() and not plan.coupling[:, nu.weights == 0].any()


def test_restricted_lp_grows_to_the_full_optimum(monkeypatch):
    """From the north-west corner alone, the reduced costs pull in columns until the plan is optimal."""
    rng = stream_rng(0x6205)
    pairs = [_large_pair(rng, 2, "random"), _large_pair(rng, 1, "zero weights"), _weighted_pair(rng, 5, 4, 2)]
    refs = [_reference_cost(2, mu, nu)[0] ** 0.5 for mu, nu in pairs]
    sizes = _count_linprog(monkeypatch)
    monkeypatch.setattr(transport, "_sinkhorn_support", lambda C, a, b: np.zeros(C.shape, dtype=bool))
    got = w_exact(2, [mu for mu, _ in pairs], [nu for _, nu in pairs])
    assert len(sizes) > 2
    # the first solve holds both corners (at most n + m - 1 entries each) and all 20 of the small pair's
    assert sizes[0] <= (70 + 64 - 1) * 2 + 20
    for (val, plan), (mu, nu), ref in zip(got, pairs, refs):
        _check_marginals(plan, mu, nu)
        assert val == pytest.approx(ref, rel=1e-9)


def test_workload_sized_pairs_need_one_solve_each(monkeypatch):
    """The LP pairs of the benchmark's `exact` workload, drawn as it draws them, are optimal on their seed."""
    rng = np.random.default_rng([0, 8])
    shapes = ((1, 60, 50), (1, 50, 60)) + ((2, 100, 120), (2, 120, 100), (2, 140, 140), (2, 160, 150)) * 2
    calls = _count_linprog(monkeypatch)
    for d, n, m in shapes:
        X = rng.normal(size=(n, d))
        Y = rng.normal(size=(m, d)) * rng.uniform(0.5, 1.5) + rng.uniform(-1.0, 1.0, size=d)
        a, b = rng.uniform(0.1, 1.0, n), rng.uniform(0.1, 1.0, m)
        calls.clear()
        w_exact(2, DiscreteMeasure(X, a), DiscreteMeasure(Y, b))
        assert len(calls) == 1 and calls[0] < n * m, (d, n, m)


def test_seed_holds_fewer_columns_on_held_out_pairs(monkeypatch):
    """On pairs from a stream the seed constants were not chosen on, the seeded LP
    reaches the full LP's optimum with at most 80% of the columns that a 2^12-entry
    threshold and a 1e-3 keep needed (measured: 75,436 against 99,269)."""
    rng = stream_rng(0x4E1D)
    pairs = []
    for _ in range(20):
        d, (n, m), p = int(rng.integers(1, 4)), rng.integers(40, 201, size=2), int(rng.integers(1, 4))
        X, Y = rng.normal(size=(n, d)), rng.normal(size=(m, d)) * rng.uniform(0.5, 1.5) + rng.uniform(-1, 1, d)
        pairs.append((p, DiscreteMeasure(X, rng.uniform(0.1, 1, n)), DiscreteMeasure(Y, rng.uniform(0.1, 1, m))))
    calls = _count_linprog(monkeypatch)
    vals = [w_exact(p, mu, nu)[0] for p, mu, nu in pairs]
    columns = sum(calls)
    calls.clear()
    monkeypatch.setattr(transport, "_SEED_MIN_ENTRIES", 2**12)
    monkeypatch.setattr(transport, "_SEED_KEEP", 1e-3)
    for p, mu, nu in pairs:
        w_exact(p, mu, nu)
    assert columns <= 0.8 * sum(calls)
    monkeypatch.setattr(transport, "_SEED_MIN_ENTRIES", np.inf)  # every entry: the full LP
    for val, (p, mu, nu) in zip(vals, pairs):
        ref = w_exact(p, mu, nu)[0]
        top = np.max(_dist_matrix(mu.points, nu.points)) ** p
        assert abs(val**p - ref**p) <= 2e-7 * top
        if p <= 2:
            assert val == pytest.approx(ref, rel=1e-9)


def test_seed_ignores_the_callers_floating_point_traps():
    """Far entries of the Gibbs kernel underflow to 0 by design, whatever np.errstate the caller set."""
    mu, nu = _large_pair(stream_rng(0x7A9), 2, "far target")
    ref = w_exact(2, mu, nu)[0]
    with np.errstate(all="raise"):
        assert w_exact(2, mu, nu)[0] == ref
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(all="warn"):
            assert w_exact(2, mu, nu)[0] == ref


def test_seed_leaves_non_finite_entries_out():
    """A Sinkhorn plan that turns nan gives an empty seed, and the north-west corner keeps the LP solvable."""
    C = np.full((64, 64), 0.99)  # off-diagonal Gibbs entries exp(-990) underflow to 0
    np.fill_diagonal(C, 0.0)
    a = np.full(64, 1 / 64)
    b = np.r_[np.zeros(63), 1.0]  # the scalings of the 63 empty columns reach 0 and then 0 * inf
    assert not transport._sinkhorn_support(C, a, b).any()
    points = np.eye(64) * (0.99 / np.sqrt(2))  # pairwise distances 0.99, the same seed
    val, plan = w_exact(1, DiscreteMeasure(points, a), DiscreteMeasure(points, b))
    assert val == pytest.approx(63 / 64 * 0.99, rel=1e-12)


def test_near_uniform_weights_take_the_lp_route():
    """Weights within numpy's default 1e-5 relative of 1/n took the assignment route,
    whose plan of exact 1/n marginals `validate` refused; `w_brute` took them as uniform."""
    rng = np.random.default_rng(0)
    X, Y, z = rng.normal(size=(10, 2)), rng.normal(size=(10, 2)), rng.normal(size=10)
    a = 0.1 * (1.0 + 1e-6 * z)
    mu, nu = DiscreteMeasure(X, a / a.sum()), _uniform(Y)
    ref = _reference_cost(2, mu, nu)[0] ** 0.5
    val, plan = w_exact(2, mu, nu)
    _check_marginals(plan, mu, nu)
    assert val == pytest.approx(ref, rel=1e-9)
    assert wasserstein(2, mu, nu) == val
    with pytest.raises(ValueError, match="uniform weights"):
        w_brute(2, DiscreteMeasure(X[:7], a[:7]), _uniform(Y[:7]))
    for w in (np.ones(7), np.full(7, 1 / 7)):  # still uniform, still the assignment
        assert w_brute(2, DiscreteMeasure(X[:7], w), _uniform(Y[:7])) == w_brute(2, _uniform(X[:7]), _uniform(Y[:7]))
        assert transport._is_uniform(DiscreteMeasure(X[:7], w), _uniform(Y[:7]))


def test_optimum_underflowing_to_zero_at_large_p_raises():
    """Every (D / M)^p below the largest distance M underflows to 0 at p = 1e5, and the
    optimum read 0.0; the same atoms moved by (0.5, 0.5) are sqrt(1/2) apart at every p."""
    P = np.random.default_rng(0).normal(size=(7, 2))
    w = np.arange(1.0, 8.0)
    pairs = [(_uniform(P), _uniform(P + 0.5)), (DiscreteMeasure(P, w), DiscreteMeasure(P + 0.5, w))]
    for p in (1, 2, 100):  # (the LP is not certified at p = 100; see `w_exact`)
        assert w_brute(p, *pairs[0]) == pytest.approx(np.sqrt(0.5), rel=1e-12)
        for mu, nu in pairs[: 1 if p > 2 else 2]:
            assert w_exact(p, mu, nu)[0] == pytest.approx(np.sqrt(0.5), rel=1e-9)
    with pytest.raises(ValueError, match="p = 100000 is too large"):
        w_brute(1e5, *pairs[0])
    for mu, nu in pairs:  # the assignment route and the LP route
        with pytest.raises(ValueError, match="p = 100000 is too large"):
            w_exact(1e5, mu, nu)
    mu = pairs[0][0]
    assert w_exact(1e5, mu, mu)[0] == 0.0  # an optimum of 0 that moves nothing stands


def test_equal_measures_at_large_p_read_zero_on_the_lp_route():
    """At p = 1e5 every scaled cost below the largest underflows, so the LP may pick any plan of
    cost 0; equal measures, also with their atoms permuted or one atom split in two halves, read
    0.0 with a plan that moves nothing.  A mass gap of one ulp at a point still raises."""
    P = np.random.default_rng(0).normal(size=(7, 2))
    w = np.arange(1.0, 8.0)
    m = DiscreteMeasure(P, w)
    perm = np.random.default_rng(1).permutation(7)
    split = DiscreteMeasure(np.vstack([P, P[:1]]), np.r_[w[0] / 2, w[1:], w[0] / 2])
    for nu in (m, DiscreteMeasure(P[perm], w[perm]), split):
        val, plan = w_exact(1e5, m, nu)
        assert val == 0.0 and plan.cost == 0.0
        moved = plan.coupling > 0
        assert np.all(transport._dist_matrix(m.points, nu.points)[moved] == 0.0)
        _check_marginals(plan, m, nu)
    gap = w.copy()
    gap[3] = np.nextafter(gap[3], np.inf)
    with pytest.raises(ValueError, match="p = 100000 is too large"):
        w_exact(1e5, m, DiscreteMeasure(P, gap))


def test_zero_optimum_within_round_off_stands():
    """A cost that underflows only where the distances moved over are below 2^-52 of the largest
    (here 1.4e-146 against 1 at p = 3) stands as 0.0, on the assignment and permutation routes."""
    X, Y = np.array([[-1.0], [0.0]]), np.array([[-1.0], [1.4e-146]])
    assert w_brute(3, _uniform(X), _uniform(Y)) == 0.0
    assert w_exact(3, _uniform(np.c_[X, X]), _uniform(np.c_[Y, Y]))[0] == 0.0
    assert w1d(3, _uniform(X), _uniform(Y)) == pytest.approx(1.4e-146 * 0.5 ** (1 / 3), rel=1e-15)


@pytest.mark.parametrize("m", [40, 30], ids=["assignment", "lp"])
def test_coordinates_whose_squares_overflow_are_rescaled(m):
    """Squared differences of coordinates beyond 1e154 overflow; scaling by 2^1000 scales W_p by 2^1000."""
    rng = stream_rng(0xB16E)
    X, Y = rng.normal(size=(40, 2)), rng.normal(size=(m, 2))
    big, tiny = np.ldexp(X, 1000), np.ldexp(Y, -1000)
    for p in (1, 2, 3):
        val, plan = w_exact(p, _uniform(big), _uniform(Y))
        plan.validate()
        assert val == pytest.approx(np.ldexp(w_exact(p, _uniform(X), _uniform(tiny))[0], 1000), rel=1e-12)
    assert wasserstein(2, _uniform(big), _uniform(Y)) == w_exact(2, _uniform(big), _uniform(Y))[0]
    assert w_brute(2, _uniform(big[:6]), _uniform(Y[:6])) == np.ldexp(w_brute(2, _uniform(X[:6]), _uniform(tiny[:6])), 1000)
    # an atom without mass beyond 1e154 changes nothing
    a = rng.uniform(0.1, 1, 40)
    far = DiscreteMeasure(np.vstack([[1e300, -1e300], X]), np.r_[0.0, a])
    val, plan = w_exact(2, far, _uniform(Y))
    plan.validate()
    assert val == pytest.approx(w_exact(2, DiscreteMeasure(X, a), _uniform(Y))[0], rel=1e-14)
    # a largest distance beyond the float maximum still gives W_1, a float: the pair scaled by
    # 2^-10 (exact) reads 1.5e308 / 2^10 on the assignment and 1.25e308 / 2^10 on the LP
    source, target = [[1.5e308, 0.0], [0.0, 0.0]], [[-1.5e308, 0.0], [0.0, 1.0], [3.0, 3.0]][: 2 if m == 40 else 3]
    val = w_exact(1, _uniform(source), _uniform(target))[0]
    assert val == np.ldexp(w_exact(1, _uniform(np.ldexp(source, -10)), _uniform(np.ldexp(target, -10)))[0], 10)
    assert val == pytest.approx(1.5e308 if m == 40 else 1.25e308, rel=1e-15)
    # W_1 itself beyond the float maximum (2.7e308, and 3.05e308 on the LP) is refused naming p
    with pytest.raises(ValueError, match="W_p at p = 1 exceeds the largest float"):
        w_exact(1, _uniform([[1.7e308, 0.0]]), _uniform([[-1e308, 0.0], [-1.7e308, 0.0]][: 1 if m == 40 else 2]))


# Extremes of the float line: the largest magnitudes, coordinates whose squares overflow once
# doubled, subnormals, both zeros and two ordinary values.  Repeated draws give duplicate atoms.
_EXTREMES = [1.7e308, -1.7e308, 1e154, -1e154, 5e-324, -5e-324, 1e-310, 0.0, -0.0, 1.0, -3.0]
_MAX = Fraction(np.finfo(float).max)


@st.composite
def _extreme_side(draw):
    """1-6 atoms from `_EXTREMES` with masses 1/n each, or multiples of 1/16 (zeros among them),
    which are exact in float, as are their cumulative sums."""
    x = draw(st.lists(st.sampled_from(_EXTREMES), min_size=1, max_size=6))
    if draw(st.booleans()):
        return x, [Fraction(1, len(x))] * len(x)
    cuts = sorted(draw(st.lists(st.integers(0, 16), min_size=len(x) - 1, max_size=len(x) - 1)))
    return x, [Fraction(hi - lo, 16) for lo, hi in zip([0, *cuts], [*cuts, 16])]


def _exact_w1(x, a, y, b):
    """W_1 = the integral of |F - G| over the line, in Fractions: F - G is constant between
    consecutive atom positions (-0.0 and 0.0 are one position)."""
    signed = {}
    for v, w in [*zip(x, a), *zip(y, [-w for w in b])]:
        signed[Fraction(v)] = signed.get(Fraction(v), 0) + w
    at = sorted(signed)
    total, gap = Fraction(0), Fraction(0)
    for z, z_next in zip(at, at[1:]):
        gap += signed[z]
        total += abs(gap) * (z_next - z)
    return total


@given(_extreme_side(), _extreme_side())
@example(([1.5e308, 0.0], [Fraction(1, 2)] * 2), ([-1.5e308, 1.0], [Fraction(1, 2)] * 2))  # gaps overflow
@example(([1.7e308], [Fraction(1)]), ([-1e308], [Fraction(1)]))  # W_1 = 2.7e308 is not a float
@example(([0.0, 1.0], [Fraction(1, 2)] * 2), ([0.0, 0.5, 1e154, 1e154], [Fraction(1, 4)] * 4))
@example(([1.7e308, 1.0], [Fraction(1, 2)] * 2), ([1.7e308, -0.0], [Fraction(1, 2)] * 2))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_w1_of_extreme_pairs_matches_the_exact_integral(side_a, side_b):
    """Every route's W_1 is within its round-off of the exact integral V of |F - G|, or raises
    `ValueError` naming p where V itself is beyond the float maximum.

    Routes: `w1d`; `w_exact` on the pair placed on the first axis in d = 2 (assignment when uniform
    and equal-size, else the LP); `w_brute` on the uniform equal-size pairs.  At p = 1 every term
    of a route meets at most 17 roundings of relative size u = 2^-53: the difference, its square
    and root (distance routes), the division by s, the product by its mass, a sum of at most 36
    terms (`_pairwise_depth(36)` = 10), the division by the count and the product by s; the powers
    of two t are exact.  So the value is within gamma_17 V (`_gamma`), plus absolute errors in the
    units of the data:
    - a coordinate scaled by t <= 1 that lands below the normal range is off by at most
      eta = 2^-1075 (2 eta / t per term); a cost below the normal range is off by eta in units
      of s, at most 40 eta s / t over the products, the sum and the quotient.  Either t = 1 and
      s <= the float maximum, or t < 1 and s = 1 (at p = 1 a prescaled M stays below 2^482):
      below 2^-45 in all.
    - distance routes square the difference first: a square below the normal range is off by at
      most eta, and so its root by sqrt(eta) = 2^-537.5, which is 2^-537.5 / t in the data's units
      (t >= 2^-544, so below 2^7).
    - `w1d`'s merged route (the sides' weights not both constant): a weight 1/n is rounded, then
      normalised by a rounded sum, and its running sum rounded again, so each of the at most
      n + m breakpoints is off by at most gamma_14 (n <= 6); a piece of that width meets atoms
      at most T apart, T the largest distance between atoms with mass: (n + m) gamma_14 T.
    - the LP: HiGHS stops at primal residuals of 1e-10 on the n + m - 1 constraints and dual
      residuals of 1e-10, on costs scaled to a largest in [1/2, 1).  The basis' duals are sums of
      at most n + m - 1 <= 11 such costs, so the plan's cost is within (11 * 11 + 1) * 1e-10 of
      the optimum on either side, 2.5e-8 in all, and the float weights 1/n move it by at most
      2u: below 1e-7 T in the data's units, T the largest distance between atoms with mass.
    """
    (x, a), (y, b) = side_a, side_b
    V = _exact_w1(x, a, y, b)
    big = max(abs(float(v)) for v, w in [*zip(x, a), *zip(y, b)] if w > 0)
    t = Fraction(2) ** min(0, 480 - math.frexp(big)[1])
    T = max(abs(Fraction(u) - Fraction(v)) for u, wu in zip(x, a) for v, wv in zip(y, b) if wu > 0 and wv > 0)
    uniform = len(x) == len(y) and set(a) == set(b) == {Fraction(1, len(x))}
    measure = lambda P, w: DiscreteMeasure(np.reshape(P, (len(w), -1)), [float(v) for v in w])
    mu, nu = measure(x, a), measure(y, b)
    mu2, nu2 = measure(np.c_[x, np.zeros(len(x))], a), measure(np.c_[y, np.zeros(len(y))], b)
    root, lp = Fraction(2) ** -537 / t, 0 if uniform else Fraction(1, 10**7) * T  # sqrt(eta) / t, rounded up
    merged = 0 if len(set(a)) == len(set(b)) == 1 else (len(x) + len(y)) * _gamma(14) * T
    routes = [("w1d", lambda: w1d(1, mu, nu), merged), ("w_exact", lambda: w_exact(1, mu2, nu2)[0], root + lp)]
    if uniform:
        routes.append(("w_brute", lambda: w_brute(1, mu, nu), root))
    for name, route, allowance in routes:
        tol = _gamma(17) * V + Fraction(2) ** -45 + allowance
        if V - tol > _MAX:
            with pytest.raises(ValueError, match="W_p at p = 1 exceeds the largest float"):
                route()
        elif V + tol <= _MAX:
            assert abs(Fraction(route()) - V) <= tol, (name, float(V))


@pytest.mark.parametrize("route, x, y", [
    (w1d, [0.0, 1.0], [0.0, 0.5, 1e154, 1e154]),
    (w1d, [1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [0.4, 1e154, 1.5, 0.7]),
    (lambda p, mu, nu: w_exact(p, mu, nu)[0], [0.0, 1.0, 2.0, 3.0], [0.0, 0.5, 1e154, 1e154]),
])
def test_w2_whose_summed_squares_overflow_is_finite(route, x, y):
    """Each squared gap is at most 1e308, but the grid's L of them, or the assignment's n, summed
    overflowed before the division by their count: W_2 read inf.  The rescaled sum's roundings
    (`_grid_error_bound`, with the root and the product by s) keep it within 1e-14 of exact."""
    exact = _exact_grid_cost(2, x, y)  # the sorted matching is the optimal assignment on the line
    w = route(2, _uniform(np.array(x)[:, None]), _uniform(np.array(y)[:, None]))
    assert abs(Fraction(w) ** 2 / exact - 1) < 1e-14


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
