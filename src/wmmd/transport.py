"""Exact Wasserstein distances between discrete measures (and 1-D mixture pairs).

The exact solver is deliberately unregularized: 1-D inputs go through the
closed-form quantile coupling, uniform equal-size inputs through an exact
assignment, and everything else through an exact LP on the transport polytope.
A brute-force permutation oracle covers tiny uniform instances.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from .kernels import _sq_dists
from .measures import DiscreteMeasure, GaussianMixture, _scipy, _tanh_sinh, gmm_quantiles, project, sample, stream_rng
from .reporting import scaling_exponent

linear_sum_assignment, linprog = _scipy("optimize", "linear_sum_assignment"), _scipy("optimize", "linprog")
csr_matrix = _scipy("sparse", "csr_matrix")

__all__ = [
    "TransportPlan",
    "w1d",
    "w_exact",
    "wasserstein",
    "w_brute",
    "sliced_w1",
    "translation_split",
    "w_rate",
]

_SIZE_GUARD = 10**6
_TINY, _HUGE = np.finfo(float).tiny, np.finfo(float).max
_PLAN_TOL = 1e-9  # TransportPlan.validate's slack on sign, marginals and cost


class TransportPlan:
    """A feasible coupling together with its transport cost.

    `cost` is the sum of coupling_ij (|x_i - y_j| / scale)^p; `scale` is 1
    unless the distances' p-th powers leave the normal float range.
    """

    __slots__ = ("coupling", "cost", "p", "source", "target", "scale")

    def __init__(self, coupling, cost, p, source, target, cost_matrix=None, scale=1.0):
        self.coupling = coupling
        self.cost = float(cost)
        self.p = float(p)
        self.source = source
        self.target = target
        self.scale = float(scale)
        self.validate(cost_matrix=cost_matrix)

    def validate(self, cost_matrix=None):
        """Check marginals, sign and stored cost; `cost_matrix` is (|x_i - y_j| / scale)^p if known."""
        g = self.coupling
        if np.any(g < -_PLAN_TOL):
            raise ValueError("coupling has negative mass")
        if np.max(np.abs(g.sum(axis=1) - self.source.weights)) > _PLAN_TOL:
            raise ValueError("row marginals do not match source weights")
        if np.max(np.abs(g.sum(axis=0) - self.target.weights)) > _PLAN_TOL:
            raise ValueError("column marginals do not match target weights")
        if cost_matrix is None:
            cost_matrix = (_dist_matrix(self.source.points, self.target.points) / self.scale) ** self.p
        recomputed = float(np.vdot(g, cost_matrix))
        if abs(recomputed - self.cost) > _PLAN_TOL * max(1.0, abs(self.cost)):
            raise ValueError("stored cost inconsistent with the plan")


def _dist_matrix(X, Y):
    return np.sqrt(_sq_dists(X, Y))


def _pth_power(D, p, M):
    """((D / s)^p, s): s is 1 unless M^p leaves the normal float range, else M.

    Raising distances to a large p overflows (or underflows to 0) before the
    root is taken; dividing by M, the largest distance that carries mass,
    keeps the largest term at 1, and W_p is s times the p-th root of the
    rescaled cost.
    """
    with np.errstate(over="ignore", under="ignore"):
        Mp = np.power(M, p)
    if M > 0 and not _TINY <= Mp <= _HUGE:
        return (D / M) ** p, float(M)
    return D**p, 1.0


def _quantile_cost_discrete(p, x, a, y, b):
    """(cost, s): s^p times cost is the integral of |F^-1 - G^-1|^p (see `_pth_power`).

    The integral is exact over the merged cumulative-weight breakpoints.
    Each side is sorted unstably (atoms at equal positions cost the same in
    any order), by `np.sort` alone when its weights are all equal.  One
    stable argsort of the two sorted cumulative runs merges them (timsort
    finds the runs, so the merge is linear); the first entry of each run of
    equal values gives the breakpoints, and the counts of each side's
    entries before it give both atom indices.
    """

    def ordered(v, w):
        if w.min() == w.max():  # a permuted constant array is the same array
            return np.sort(v), w
        i = np.argsort(v)
        return v[i], w[i]

    (x, a), (y, b) = ordered(x, a), ordered(y, b)
    # Clip before pinning the last entry: a cumsum that overshoots 1 early
    # would otherwise leave the run unsorted.
    ca = np.minimum(np.cumsum(a), 1.0)
    cb = np.minimum(np.cumsum(b), 1.0)
    ca[-1] = cb[-1] = 1.0
    c = np.concatenate([ca, cb])
    order = np.argsort(c, kind="stable")
    merged = c[order]
    first = np.empty(merged.size, dtype=bool)
    first[0] = merged[0] > 0  # a leading zero-weight atom spans no interval
    np.not_equal(merged[1:], merged[:-1], out=first[1:])
    # On (q[k-1], q[k]] both quantile functions sit on the first atom whose
    # cumulative weight reaches q[k]: the count of entries below q[k].
    from_a = order < ca.size
    i = (np.cumsum(from_a) - from_a)[first]
    j = np.flatnonzero(first) - i
    q = merged[first]
    gap = np.abs(x[i] - y[j])
    gap, s = _pth_power(gap, p, gap.max())
    return float(np.diff(q, prepend=0.0) @ gap), s


def w1d(p, mu, nu):
    """W_p on the real line via the quantile coupling.

    Takes two discrete measures or two Gaussian mixtures.  Discrete pairs are
    exact.  Mixture pairs integrate |F^-1 - G^-1|^p by `_tanh_sinh` over
    q in (0, 1/2], the upper half as the mirrored mixtures' lower half, so
    that both tails are resolved at levels near 0.  The integral is cut where
    F - G changes sign (a kink; bisected) and at each density's valleys (a
    steep quantile function), found on a grid of +-12 sigma around every
    component.  The gaps are scaled (see `_pth_power`) by one M fixed first:
    the largest gap at q = 1/2 and 1e-300, below the rule's smallest node.
    """
    _check_p(p)
    if mu.d != 1 or nu.d != 1:
        raise ValueError("w1d needs 1-D measures")
    if isinstance(mu, DiscreteMeasure) and isinstance(nu, DiscreteMeasure):
        c, s = _quantile_cost_discrete(p, mu.points[:, 0], mu.weights, nu.points[:, 0], nu.weights)
        return s * c ** (1.0 / p)
    if not (isinstance(mu, GaussianMixture) and isinstance(nu, GaussianMixture)):
        raise ValueError("w1d takes two discrete measures or two Gaussian mixtures")

    mirror = lambda g: GaussianMixture(g.weights, -g.means, g.sigmas)
    halves = ((mu, nu), (mirror(mu), mirror(nu)))  # F^-1(1 - q) = -(mirrored F)^-1(q)
    gaps = lambda q: [np.abs(gmm_quantiles(f, q) - gmm_quantiles(g, q)) for f, g in halves]
    cdf_gap = lambda x: mu.cdf(x) - nu.cdf(x)
    z = np.linspace(-12.0, 12.0, 129)
    x = np.unique(np.concatenate([g.means + g.sigmas[:, None] * z for g in (mu, nu)]))
    sign = np.sign(cdf_gap(x))
    xs, sign = x[sign != 0], sign[sign != 0]  # a zero on the grid is bracketed by its neighbours
    i = np.flatnonzero(sign[:-1] != sign[1:])
    a, b = xs[i], xs[i + 1]
    for _ in range(64):  # bisect every sign change at once
        mid = 0.5 * (a + b)
        a, b = np.where(np.sign(cdf_gap(mid)) == sign[i], [mid, b], [a, mid])
    valleys = lambda d: (d[1:-1] < d[:-2]) & (d[1:-1] <= d[2:])
    marks = [(mu, a)] + [(g, x[1:-1][valleys(g.pdf(x))]) for g in (mu, nu)]
    levels = np.concatenate([np.r_[g.cdf(y), mirror(g).cdf(-y)] for g, y in marks])
    M = max(d.max() for d in gaps(np.array([1e-300, 0.5])))
    f = lambda q: sum(_pth_power(d, p, M)[0] for d in gaps(q))
    cuts = np.unique(np.r_[0.0, 0.5, levels[levels < 0.5]])
    return _pth_power(M, p, M)[1] * _tanh_sinh(f, cuts) ** (1.0 / p)


def _check_p(p):
    if not (np.isfinite(p) and p >= 1):
        raise ValueError("p must be a finite number >= 1")


def _check_lists(mu, nu):
    if not (isinstance(mu, list) and isinstance(nu, list) and len(mu) == len(nu)):
        raise ValueError("mu and nu must be measures or lists of equal length")


def _is_uniform(mu, nu):
    n = mu.n
    return (
        n == nu.n
        and np.allclose(mu.weights, 1.0 / n, atol=1e-14)
        and np.allclose(nu.weights, 1.0 / n, atol=1e-14)
    )


def w_exact(p, mu, nu):
    """Exact W_p between discrete measures with an optimal plan.

    Uniform equal-size inputs reduce to an assignment problem (Birkhoff);
    the general case is solved as an LP on the transport polytope, which
    refuses instances with more than 10^6 plan entries.  When the distances'
    p-th powers would leave the float range they are rescaled first (see
    `_pth_power`), and the plan's `scale` holds the factor.

    `mu` and `nu` may also be equal-length lists of measures; the result is
    then the list of `(value, plan)` pairs in input order.  Consecutive LP
    pairs are solved together as one block-diagonal LP of at most 10^6 plan
    entries, which saves the per-call set-up of many small solves.
    """
    if not isinstance(mu, list) and not isinstance(nu, list):
        return w_exact(p, [mu], [nu])[0]
    _check_lists(mu, nu)
    _check_p(p)
    out = [None] * len(mu)
    groups, entries = [], 0  # LP pairs as (index, cost matrix), grouped under the guard
    for k, (x, y) in enumerate(zip(mu, nu)):
        if x.d != y.d:
            raise ValueError("dimension mismatch")
        uniform = _is_uniform(x, y)
        if not uniform and x.n * y.n > _SIZE_GUARD:
            raise ValueError(f"instance too large: {x.n}x{y.n} exceeds the LP size guard")
        D = _dist_matrix(x.points, y.points)
        M = D.max(axis=1, initial=0.0, where=y.weights > 0)[x.weights > 0].max()
        C, s = _pth_power(D, p, M)
        if uniform:
            rows, cols = linear_sum_assignment(C)
            g = np.zeros(C.shape)
            g[rows, cols] = 1.0 / x.n
            out[k] = (g, float(C[rows, cols].sum() / x.n), C, s)
        else:
            if not groups or entries + C.size > _SIZE_GUARD:
                groups.append([])
                entries = 0
            groups[-1].append((k, C, s))
            entries += C.size
    for group in groups:
        solved = _solve_transport_lp([(C, mu[k].weights, nu[k].weights) for k, C, _ in group])
        for (k, C, s), (g, cost) in zip(group, solved):
            out[k] = (g, cost, C, s)
    results = []
    for x, y, (g, cost, C, s) in zip(mu, nu, out):
        plan = TransportPlan(g, cost, p, x, y, cost_matrix=C, scale=s)
        results.append((s * cost ** (1.0 / p), plan))
    return results


def wasserstein(p, mu, nu):
    """W_p by the exact route the pair allows.

    1-D pairs take the quantile coupling (`w1d`), other discrete pairs
    `w_exact` (assignment when uniform and equal-size, else the LP).
    `mu` and `nu` may also be equal-length lists; the values come back as a
    list in input order, and the discrete pairs of dimension >= 2 go to one
    list call of `w_exact`.
    """
    if not isinstance(mu, list) and not isinstance(nu, list):
        return wasserstein(p, [mu], [nu])[0]
    _check_lists(mu, nu)
    out = [None] * len(mu)
    exact = []
    for k, (x, y) in enumerate(zip(mu, nu)):
        if x.d == 1:
            out[k] = w1d(p, x, y)
        elif isinstance(x, DiscreteMeasure) and isinstance(y, DiscreteMeasure):
            exact.append(k)
        else:
            raise ValueError("no Wasserstein route for this measure pair")
    if exact:
        solved = w_exact(p, [mu[k] for k in exact], [nu[k] for k in exact])
        for k, (val, _) in zip(exact, solved):
            out[k] = val
    return out


def _transport_constraints(shapes):
    """Block-diagonal equality matrix on row-major plans of the given (n, m) shapes.

    Each block has row sums for every source atom and column sums for all
    but the last target atom (the dropped constraint is implied by total
    mass).
    """
    rows, cols = [], []
    r0 = c0 = 0
    for n, m in shapes:
        idx = np.arange(n * m)
        in_col = idx[idx % m < m - 1]
        rows += [r0 + idx // m, r0 + n + in_col % m]
        cols += [c0 + idx, c0 + in_col]
        r0 += n + m - 1
        c0 += n * m
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    return csr_matrix((np.ones(rows.size), (rows, cols)), shape=(r0, c0))


def _solve_transport_lp(blocks):
    """Optimal plans and costs for a list of (C, a, b) blocks, from one LP.

    The blocks share no variable, so the block-diagonal LP's optimum is the
    optimum of every block.  HiGHS's optimality tolerance is absolute, so
    each block's costs are first scaled by a power of two to a largest entry
    in [1/2, 1): the scaling is exact, and a block of tiny costs beside one of
    large costs still gets an optimal vertex.  Costs are summed unscaled.
    """
    shapes = [C.shape for C, _, _ in blocks]
    c = np.concatenate([np.ldexp(C, -np.frexp(C.max())[1]).ravel() for C, _, _ in blocks])
    rhs = np.concatenate([np.concatenate([a, b[:-1]]) for _, a, b in blocks])
    # HiGHS's default 1e-7 feasibility tolerance leaves entries down to about -1e-7
    # whose clipping below breaks the marginals by more than validate's 1e-9.
    res = linprog(
        c,
        A_eq=_transport_constraints(shapes),
        b_eq=rhs,
        bounds=(0, None),
        method="highs",
        options={"primal_feasibility_tolerance": 1e-10},
    )
    if not res.success:
        raise RuntimeError(f"transport LP failed: {res.message}")
    x = np.maximum(res.x, 0.0)
    out, start = [], 0
    for C, _, _ in blocks:
        g = x[start : start + C.size].reshape(C.shape)
        start += C.size
        out.append((g, float(np.sum(g * C))))
    return out


@functools.cache
def _permutations(n):
    """All permutations of range(n), one per row, in itertools order."""
    P = np.array(list(itertools.permutations(range(n))), dtype=np.intp).reshape(-1, n)
    P.setflags(write=False)
    return P


def w_brute(p, mu, nu):
    """Permutation oracle: uniform equal-size measures with n <= 8 atoms.

    Every permutation's cost is summed term by term in atom order, as a loop
    over the permutations would, so the minimum does not depend on the
    vectorisation.
    """
    if mu.n != nu.n or mu.n > 8:
        raise ValueError("w_brute needs equal atom counts with n <= 8")
    n = mu.n
    if not _is_uniform(mu, nu):
        raise ValueError("w_brute needs uniform weights")
    D = _dist_matrix(mu.points, nu.points)
    C, s = _pth_power(D, p, D.max())
    P = _permutations(n)
    total = np.zeros(P.shape[0])
    for i in range(n):
        total += C[i, P[:, i]]
    return s * (total.min() / n) ** (1.0 / p)


def sliced_w1(mu, nu, theta_set):
    """Average of 1-D W_1 distances over a fixed shared direction set."""
    theta_set = np.atleast_2d(np.asarray(theta_set, dtype=float))
    if theta_set.shape[0] == 0:
        raise ValueError("theta_set must be nonempty")
    total = 0.0
    for theta in theta_set:
        total += w1d(1, project(mu, theta), project(nu, theta))
    return total / theta_set.shape[0]


def translation_split(mu, nu):
    """(W_2^2 of the centered pair, squared mean gap).

    Their sum equals W_2^2(mu, nu); the decomposition isolates how much of the
    quadratic cost is pure translation.
    """
    centered_w2, _ = w_exact(2, mu.centered(), nu.centered())
    gap = mu.mean() - nu.mean()
    return centered_w2**2, float(gap @ gap)


def _sampler_of(measure):
    if callable(measure):
        return measure
    return lambda n, rng: sample(measure, n, rng).points


def _uniform(points):
    return DiscreteMeasure(points, np.full(points.shape[0], 1.0 / points.shape[0]))


def w_rate(measure, p, n_grid, trials, seed):
    """Fitted log-log slope of E W_p(pi, pi_n) against n.

    `measure` is a measure object or a callable (n, rng) -> points sampler.
    In 1-D the empirical measure is compared against a 64x oversampled
    reference draw (upward-biased stand-in for the population measure; the
    bias is negligible at this oversampling).  In higher dimension the
    population distance is estimated by the distance between two fresh
    same-size samples, which obeys the same n^(-1/d) law and keeps the exact
    assignment solver applicable.
    """
    n_grid = [int(n) for n in n_grid]
    if len(n_grid) < 5:
        raise ValueError("n_grid needs at least 5 points")
    draw = _sampler_of(measure)
    dim = draw(2, stream_rng(seed, 0xFFFF)).shape[1]
    pairs = []
    for gi, n in enumerate(n_grid):
        acc = 0.0
        for t in range(trials):
            rng = stream_rng(seed, gi, t)
            emp = _uniform(draw(n, rng))
            if isinstance(measure, DiscreteMeasure):
                val, _ = w_exact(p, measure, emp)
            elif dim == 1:
                val = w1d(p, emp, _uniform(draw(64 * n, rng)))
            else:
                val, _ = w_exact(p, emp, _uniform(draw(n, rng)))
            acc += val
        pairs.append((n, acc / trials))
    return scaling_exponent(pairs)
