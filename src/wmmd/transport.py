"""Exact Wasserstein distances between discrete measures (and 1-D mixture pairs).

Every route is deliberately unregularized.  `wasserstein` sends 1-D inputs
to the closed-form quantile coupling (`w1d`) and the rest to `w_exact`, which
solves uniform equal-size inputs as an exact assignment and everything else
as an exact LP on the transport polytope.  A brute-force permutation oracle
covers tiny uniform instances.
"""

from __future__ import annotations

import functools
import itertools
import math
import types

import numpy as np

from .kernels import _sq_dists
from .measures import DiscreteMeasure, GaussianMixture, _scipy, _tanh_sinh, gmm_quantiles

linear_sum_assignment = _scipy("optimize", "linear_sum_assignment")

__all__ = [
    "TransportPlan",
    "w1d",
    "w_exact",
    "wasserstein",
    "w_brute",
    "translation_split",
]

_SIZE_GUARD = 10**6
_TINY, _HUGE = np.finfo(float).tiny, np.finfo(float).max
_PLAN_TOL = 1e-9  # TransportPlan.validate's slack on sign, marginals and cost
# raised for an optimum of cost 0 that moves mass over a positive distance
_UNDERFLOW = "p = {:g} is too large: the distances the plan moves mass over have p-th powers that underflow to 0"
# Restricted transport LPs (see `_solve_transport_lp`): blocks of at least
# _SEED_MIN_ENTRIES plan entries start from a Sinkhorn run of _SEED_ITERS
# iterations at width _SEED_EPS, keeping the entries above _SEED_KEEP of their
# row's or column's largest; an entry joins the support when its reduced cost
# is below -_REDUCED_COST_TOL, the dual feasibility tolerance HiGHS is given.
# The threshold and the keep were chosen on held-out weighted pairs (40-200
# atoms a side, d 1-3, p 1-3): keeps of 5e-2 and above need more solves.
_SEED_MIN_ENTRIES, _SEED_ITERS, _SEED_EPS, _SEED_KEEP = 2**10, 500, 1e-3, 3e-2
_REDUCED_COST_TOL = 1e-10
_DIST_BLOCK_ENTRIES = 2**15  # entries per `_sq_dists` call of `_dist_matrix` (256 KiB)


class TransportPlan:
    """A feasible coupling together with its transport cost.

    `cost` is the sum of coupling_ij (|x_i - y_j| / scale)^p; `scale` is 1
    unless the distances or their p-th powers leave the normal float range.
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
            D, t = _atom_dists(self.source, self.target)
            cost_matrix = (D / (t * self.scale)) ** self.p
        recomputed = float(np.vdot(g, cost_matrix))
        if abs(recomputed - self.cost) > _PLAN_TOL * max(1.0, abs(self.cost)):
            raise ValueError("stored cost inconsistent with the plan")


def _dist_matrix(X, Y):
    """Euclidean distances between the rows of (n, d) X and (m, d) Y, as np.sqrt(_sq_dists(X, Y)).

    The rows go through `_sq_dists` in blocks of about `_DIST_BLOCK_ENTRIES`
    entries, each root written into the output: every entry has the same
    bits, without a full-size squared matrix beside the result.
    """
    D = np.empty((X.shape[0], Y.shape[0]))
    rows = max(1, _DIST_BLOCK_ENTRIES // Y.shape[0])
    for r in range(0, X.shape[0], rows):
        np.sqrt(_sq_dists(X[r : r + rows], Y), out=D[r : r + rows])
    return D


def _atom_dists(mu, nu):
    """(D, t): the distances between the atoms of mu and nu, times a power of two t.

    t is 1 unless squared coordinate differences overflow (coordinates beyond
    about 1e154).  Then the points are first scaled by t, which is exact, to a
    largest coordinate with mass just under 2^480: the squares stay finite in
    fewer than 2^60 dimensions, and differences down to 2^-990 of that
    coordinate keep normal squares.  Distances that still overflow reach
    only atoms without mass, and are set to 0; no plan moves mass over them.
    """
    try:
        with np.errstate(over="raise", under="ignore"):
            return _dist_matrix(mu.points, nu.points), 1.0
    except FloatingPointError:
        pass
    big = max(np.abs(m.points[m.weights > 0]).max() for m in (mu, nu))
    t = np.ldexp(1.0, min(0, 480 - int(np.frexp(big)[1])))
    with np.errstate(all="ignore"):
        D = _dist_matrix(mu.points * t, nu.points * t)
    D[~np.isfinite(D)] = 0.0
    return D, float(t)


def _pth_power(D, p, M):
    """((D / s)^p, s), computed in D's own memory: s is 1 unless M^p leaves the normal float range, else M.

    Raising distances to a large p overflows (or underflows to 0) before the
    root is taken; dividing by M, the largest distance that carries mass,
    keeps the largest term at 1, and W_p is s times the p-th root of the
    rescaled cost.  `D **= p` takes numpy's scalar-power path, as `D ** p` does.
    """
    with np.errstate(over="ignore", under="ignore"):
        Mp = np.power(M, p)
    with np.errstate(under="ignore"):  # terms far below the largest underflow to 0 by design
        rescale = M > 0 and not _TINY <= Mp <= _HUGE
        if rescale:
            D /= M
        D **= p
    return D, float(M) if rescale else 1.0


def _monotone_support(a, b):
    """(q, i, j): the monotone (north-west-corner) coupling of weights a and b in their given order.

    It moves q[k] - q[k-1] (q[-1] = 0) from atom i[k] to atom j[k].  The q are
    the merged cumulative-weight breakpoints.  Both cumulative runs are
    sorted, so they merge by position: a's entry k lands after k entries of
    its own and after the b entries below it (a's entries first among equal
    values), and b's entries fill the other places in order.  The first entry
    of each run of equal values gives a breakpoint.  On (q[k-1], q[k]] both
    sides sit on the first atom whose cumulative weight reaches q[k], so i[k]
    and j[k] count each side's entries before that breakpoint.  Each
    full-length temporary is freed before the next is built: at most three
    are alive at once.
    """
    # Clip before pinning the last entry: a cumsum that overshoots 1 early
    # would otherwise leave the run unsorted.
    ca = np.minimum(np.cumsum(a), 1.0)
    cb = np.minimum(np.cumsum(b), 1.0)
    ca[-1] = cb[-1] = 1.0
    at = np.searchsorted(cb, ca)
    at += np.arange(ca.size)
    merged = np.empty(ca.size + cb.size)
    merged[at] = ca
    first = np.ones(merged.size, dtype=bool)
    first[at] = False
    merged[first] = cb
    del cb
    first[0] = merged[0] > 0  # a leading zero-weight atom spans no interval
    np.not_equal(merged[1:], merged[:-1], out=first[1:])
    q = merged[first]
    del merged
    # The a-entries before place k: r on (at[r-1], at[r]] and ca.size after at[-1].
    runs = np.diff(at, prepend=-1, append=first.size - 1)
    i = np.repeat(np.arange(ca.size + 1), runs)[first]
    j = np.flatnonzero(first)
    j -= i
    return q, i, j


def _quantile_cost_discrete(p, x, a, y, b):
    """(cost, s): s^p times cost is the integral of |F^-1 - G^-1|^p (see `_pth_power`).

    The integral is exact over the breakpoints of the monotone coupling of
    the sorted atoms (`_monotone_support`).  Each side is sorted unstably
    (atoms at equal positions cost the same in any order), by `np.sort` alone
    when its weights are all equal.  The gaps and the breakpoint differences
    are formed in place, and each index array is freed once read.
    """

    def ordered(v, w):
        if w.min() == w.max():  # a permuted constant array is the same array
            return np.sort(v), w
        i = np.argsort(v)
        return v[i], w[i]

    (x, a), (y, b) = ordered(x, a), ordered(y, b)
    q, i, j = _monotone_support(a, b)
    gap = x[i]
    del i
    gap -= y[j]
    del j
    np.abs(gap, out=gap)
    gap, s = _pth_power(gap, p, gap.max())
    q[1:] -= q[:-1]  # np.diff(q, prepend=0.0): q[0] - 0.0 is q[0]
    # numpy's pairwise sum, not a BLAS dot, whose bits depend on OpenBLAS's
    # thread count; einsum's running sum strays up to 13 ulp at 64n atoms
    return float(np.multiply(q, gap, out=gap).sum()), s


def w1d(p, mu, nu):
    """W_p on the real line via the quantile coupling.

    Takes two discrete measures or two Gaussian mixtures.  Discrete pairs are
    exact.  Mixture pairs integrate |F^-1 - G^-1|^p by `_tanh_sinh` over
    q in (0, 1/2], the upper half as the mirrored mixtures' lower half, so
    that both tails are resolved at levels near 0; each level's four
    quantile functions are one `gmm_quantiles` call.  The integral is cut
    where F - G changes sign (a kink; bisected up to 64 times, stopping at a
    fixed point) and at each density's valleys (a steep quantile function),
    found on a grid of +-12 sigma around every component.  The gaps are scaled
    (see `_pth_power`) by one M fixed first: the largest gap at q = 1/2 and
    1e-300, below the rule's smallest node.
    """
    _check_p(p)
    if mu.d != 1 or nu.d != 1:
        raise ValueError("w1d needs 1-D measures")
    if isinstance(mu, DiscreteMeasure) and isinstance(nu, DiscreteMeasure):
        c, s = _quantile_cost_discrete(p, mu.points[:, 0], mu.weights, nu.points[:, 0], nu.weights)
        return s * c ** (1.0 / p)
    if not (isinstance(mu, GaussianMixture) and isinstance(nu, GaussianMixture)):
        raise ValueError("w1d takes two discrete measures or two Gaussian mixtures")

    # F^-1(1 - q) = -(mirrored F)^-1(q); a level's four quantiles are one solve.
    mus = [h for g in (mu, nu) for h in (g, GaussianMixture(g.weights, -g.means, g.sigmas))]
    gaps = lambda q: np.abs(np.subtract(*np.split(gmm_quantiles(mus, q), 2)))  # rows: pair, mirrored pair
    cdf_gap = lambda x: mu.cdf(x) - nu.cdf(x)
    z = np.linspace(-12.0, 12.0, 129)
    x = np.unique(np.concatenate([g.means + g.sigmas[:, None] * z for g in (mu, nu)]))
    sign = np.sign(cdf_gap(x))
    xs, sign = x[sign != 0], sign[sign != 0]  # a zero on the grid is bracketed by its neighbours
    i = np.flatnonzero(sign[:-1] != sign[1:])
    a, b = xs[i], xs[i + 1]
    for _ in range(64):  # bisect every sign change at once
        mid = 0.5 * (a + b)
        ab = np.where(np.sign(cdf_gap(mid)) == sign[i], [mid, b], [a, mid])
        if np.array_equal(ab, [a, b]):  # a fixed point: every later halving repeats it
            break
        a, b = ab
    valleys = lambda d: (d[1:-1] < d[:-2]) & (d[1:-1] <= d[2:])
    marks = [(0, a)] + [(k, x[1:-1][valleys(mus[k].pdf(x))]) for k in (0, 2)]
    levels = np.concatenate([np.r_[mus[k].cdf(y), mus[k + 1].cdf(-y)] for k, y in marks])
    M = gaps(np.array([1e-300, 0.5])).max()
    f = lambda q: _pth_power(gaps(q), p, M)[0].sum(axis=0)
    cuts = np.unique(np.r_[0.0, 0.5, levels[levels < 0.5]])
    return _pth_power(M, p, M)[1] * _tanh_sinh(f, cuts) ** (1.0 / p)


def _check_p(p):
    if not (np.isfinite(p) and p >= 1):
        raise ValueError("p must be a finite number >= 1")


def _check_lists(mu, nu):
    if not (isinstance(mu, list) and isinstance(nu, list) and len(mu) == len(nu)):
        raise ValueError("mu and nu must be measures or lists of equal length")


def _is_uniform(mu, nu):
    """Equal sizes n and every weight within 1e-14 of 1/n, absolutely (never for nan or inf weights)."""
    return mu.n == nu.n and all(np.abs(w - 1.0 / mu.n).max() <= 1e-14 for w in (mu.weights, nu.weights))


def w_exact(p, mu, nu):
    """Exact W_p between discrete measures with an optimal plan.

    Uniform equal-size inputs reduce to an assignment problem (Birkhoff);
    the general case is solved as an LP on the transport polytope, which
    refuses instances with more than 10^6 plan entries.  1-D pairs take
    these routes too, not the quantile coupling `w1d`.  HiGHS's tolerances are
    absolute on costs scaled to at most 1, so at large p, where most scaled
    costs are far below the largest, the LP value is not certified: on a
    1-D pair at p = 200 it can read three times `w1d`'s.  LPs of at least
    2^10 plan entries are solved on a Sinkhorn-seeded support (`_lp_seed`) and
    certified over every entry by their reduced costs (see
    `_solve_transport_lp`).  When the distances or their p-th powers would
    leave the float range they are rescaled first (see `_atom_dists` and
    `_pth_power`), and the plan's `scale` holds the factor.  An optimum of cost
    0 that moves mass over a positive distance raises `ValueError`: at such a
    p every scaled cost below the largest has underflowed to 0.  It stands
    where W_p is within round-off of 0 or mu and nu are equal measures (see
    `_zero_cost_plan`).

    `mu` and `nu` may also be equal-length lists of measures; the result is
    then the list of `(value, plan)` pairs in input order.  Consecutive LP
    pairs are solved together as one block-diagonal LP of at most 10^6 plan
    entries: many small pairs share one HiGHS solve (`linprog`) and its set-up.
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
        D, t = _atom_dists(x, y)
        M = D.max(axis=1, initial=0.0, where=y.weights > 0)[x.weights > 0].max()
        if M > _HUGE * t:  # M / t, the largest distance that carries mass, is not a float
            raise ValueError("distances between atoms with mass exceed the float range")
        C, s = _pth_power(D, p, M)
        s /= t
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
        if cost == 0:
            g = _zero_cost_plan(p, g, x, y)
        results.append((s * cost ** (1.0 / p), TransportPlan(g, cost, p, x, y, cost_matrix=C, scale=s)))
    return results


def _zero_cost_plan(p, g, mu, nu):
    """The plan an optimum g of cost 0 stands with, or `ValueError` naming p.

    At a large p every scaled cost below the largest underflows to 0, so such
    an optimum may move mass over any distance.  g stands when the distances
    it moves mass over are at most 2^-52 times the largest distance between
    atoms with mass (W_p is then below the pair's round-off).  Otherwise W_p is 0
    only if mu and nu put the same mass on every point: each point's signed
    weights must sum exactly to 0 (`math.fsum`, so no order of summation
    matters), and the plan then moves each point's mass onto itself, in
    proportion to the weights on both sides.  At p = 1e5 a mass gap of one ulp
    still costs about the full distance, so every other case raises.
    """
    D = _atom_dists(mu, nu)[0]
    a, b = mu.weights, nu.weights
    if D[g > 0].max(initial=0.0) <= np.finfo(float).eps * D[np.ix_(a > 0, b > 0)].max():
        return g
    _, point = np.unique(np.vstack([mu.points, nu.points]), axis=0, return_inverse=True)
    point = point.ravel()
    w = np.concatenate([a, -b])
    order = np.argsort(point, kind="stable")
    if any(math.fsum(s) for s in np.split(w[order], np.flatnonzero(np.diff(point[order])) + 1)):
        raise ValueError(_UNDERFLOW.format(p))
    pa, pb = point[: mu.n], point[mu.n :]
    mass = np.bincount(pa, a)[pa]
    return np.where(pa[:, None] == pb, np.outer(a / np.where(mass > 0, mass, 1.0), b), 0.0)


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


def _transport_constraints(supports):
    """Column-wise (start, index) of the block-diagonal equality matrix of ones over the entries each block keeps.

    `supports` holds one boolean (n, m) mask per block; a block's columns are
    its kept entries in row-major order.  Each block has row sums for every
    source atom and column sums for all but the last target atom (the dropped
    constraint is implied by total mass): entry (i, j) of a block whose rows
    start at r0 has its 1s in row r0 + i and, unless j = m - 1, row r0 + n + j.
    """
    shape = np.array([keep.shape for keep in supports])
    idx = [np.flatnonzero(keep) for keep in supports]
    block = np.repeat(np.arange(len(supports)), [k.size for k in idx])
    rows = shape.sum(axis=1) - 1
    n, m, r0 = shape[block, 0], shape[block, 1], (np.cumsum(rows) - rows)[block]
    i, j = np.divmod(np.concatenate(idx), m)
    in_col = j < m - 1
    index = np.stack([r0 + i, r0 + n + j], axis=1)[np.stack([np.ones_like(in_col), in_col], axis=1)]
    return np.concatenate([[0], np.cumsum(1 + in_col)]), index


def _sinkhorn_support(C, a, b):
    """Mask of the entries a short entropic (Sinkhorn) plan marks as large.

    The costs are row- and column-reduced and scaled to a largest entry in
    [1/2, 1) before the Gibbs kernel exp(-C / eps) is taken.  An entry is
    kept when it is finite and above `_SEED_KEEP` times the largest of its
    row or of its column.  Far entries underflow to 0 and scalings may
    overflow by design; neither is an error here.
    """
    with np.errstate(all="ignore"):
        R = C - C.min(axis=1, keepdims=True)
        R -= R.min(axis=0)
        K = np.exp(np.ldexp(R, -np.frexp(R.max())[1]) / -_SEED_EPS)
        v = np.ones(b.size)
        for _ in range(_SEED_ITERS):
            u = a / (K @ v)
            v = b / (u @ K)
        P = u[:, None] * K * v
        keep = (P > _SEED_KEEP * P.max(axis=1, keepdims=True)) | (P > _SEED_KEEP * P.max(axis=0))
    return keep & np.isfinite(P)


def _lp_seed(C, a, b):
    """The support a block's first restricted LP is solved on.

    Blocks with fewer than `_SEED_MIN_ENTRIES` (2^10) entries keep every
    entry.  Larger ones keep the Sinkhorn plan's entries above `_SEED_KEEP`
    (3e-2) of their row's or column's largest, plus the north-west corner
    coupling's, so the restricted LP is always feasible.
    """
    if C.size < _SEED_MIN_ENTRIES:
        return np.ones(C.shape, dtype=bool)
    keep = _sinkhorn_support(C, a, b)
    _, i, j = _monotone_support(a, b)
    keep[i, j] = True
    return keep


# `scipy.optimize.linprog(method="highs")`'s options (simplex strategy 1: dual).  At HiGHS's default 1e-7 feasibility
# tolerances, entries near -1e-7 clip to plans that fail validate's 1e-9, and W_2 was 9e-9 off on an 83 x 71 pair.
_HIGHS_OPTIONS = dict(presolve="on", simplex_strategy=1, output_flag=False, log_to_console=False,
                      primal_feasibility_tolerance=1e-10, dual_feasibility_tolerance=_REDUCED_COST_TOL)


def linprog(c, start, index, rhs):
    """min c @ x over x >= 0 with A x = rhs, for A column-wise (start, index) with coefficients 1.

    Hands HiGHS, through scipy's binding, the model and options `scipy.optimize.linprog(method="highs")`
    would, without linprog's checks and result assembly.  The result holds `success`, `message` (the
    model status), `nit` (simplex iterations), `x` and the row duals `row_dual`, the last two valid on success.
    """
    try:
        from scipy.optimize._highspy import _core as h
    except ImportError:
        from scipy import __version__
        raise RuntimeError(f"scipy {__version__} lacks the HiGHS binding scipy.optimize._highspy._core") from None
    lp, A = h.HighsLp(), h.HighsSparseMatrix()
    lp.num_col_, lp.num_row_ = A.num_col_, A.num_row_ = c.size, rhs.size
    # lists convert into the binding's int and double vectors faster than arrays do
    A.format_, A.start_, A.index_, A.value_ = h.MatrixFormat.kColwise, start.tolist(), index.tolist(), [1.0] * index.size
    lp.a_matrix_, lp.col_cost_, lp.col_lower_, lp.col_upper_ = A, c, np.zeros(c.size), np.full(c.size, np.inf)
    lp.row_lower_ = lp.row_upper_ = rhs
    highs = h._Highs()
    for name, value in _HIGHS_OPTIONS.items():
        highs.setOptionValue(name, value)
    passed = highs.passModel(lp) != h.HighsStatus.kError
    ran = passed and highs.run() != h.HighsStatus.kError
    status = highs.getModelStatus() if passed else h.HighsModelStatus.kModelError
    ok, solution = ran and status == h.HighsModelStatus.kOptimal, highs.getSolution()
    x, y = np.array(solution.col_value), np.array(solution.row_dual)
    nit = highs.getInfo().simplex_iteration_count
    return types.SimpleNamespace(success=ok, message=highs.modelStatusToString(status), nit=nit, x=x, row_dual=y)


def _solve_transport_lp(blocks):
    """Optimal plans and costs for a list of (C, a, b) blocks, from restricted LPs.

    The blocks share no variable, so the block-diagonal LP's optimum is the
    optimum of every block.  HiGHS's optimality tolerance is absolute, so
    each block's costs are first scaled by a power of two to a largest entry
    in [1/2, 1): the scaling is exact, and a block of tiny costs beside one of
    large costs still gets an optimal vertex.  Costs are summed unscaled.  Each
    pass is one `linprog` call on the column-wise model of `_transport_constraints`.

    Each block is solved on a candidate support (`_lp_seed`; every entry for
    small blocks), and the answer is certified over the whole block: with the
    duals u, v of the row and column sums (v = 0 for the dropped one), every
    entry outside the support whose reduced cost C - u - v is below
    `_REDUCED_COST_TOL` joins it, and the blocks that grew are solved again.
    A block is done when no such entry is left, so its plan is optimal for
    the full LP; a block that keeps every entry is done after one pass.
    Each pass that does not finish a block adds at least one entry to its
    support, which has n·m entries over the atoms with mass, so a block is
    done within n·m − |seed| + 1 passes: the loop needs no cap.

    Atoms without mass are left out of the LP: their plan rows and columns
    are 0.  Kept in, they would give empty constraint rows, whose arbitrary
    duals pull entries into the support for nothing.
    """
    masses = [(a > 0, b > 0) for _, a, b in blocks]
    subs = [(C[np.ix_(i, j)], a[i], b[j]) for (C, a, b), (i, j) in zip(blocks, masses)]
    with np.errstate(under="ignore"):  # costs far below the largest underflow by design
        scaled = [np.ldexp(C, -np.frexp(C.max())[1]) for C, _, _ in subs]
    supports = [_lp_seed(S, a, b) for S, (_, a, b) in zip(scaled, subs)]
    plans = [None] * len(blocks)
    todo = list(range(len(blocks)))
    while todo:
        c = np.concatenate([scaled[k][supports[k]] for k in todo])
        rhs = np.concatenate([np.concatenate([subs[k][1], subs[k][2][:-1]]) for k in todo])
        res = linprog(c, *_transport_constraints([supports[k] for k in todo]), rhs)
        if not res.success:
            raise RuntimeError(f"transport LP failed: {res.message}")
        x, y = np.maximum(res.x, 0.0), res.row_dual
        grown, start, r0 = [], 0, 0
        for k in todo:
            keep, (n, m) = supports[k], scaled[k].shape
            size = np.count_nonzero(keep)
            plans[k] = np.zeros((n, m))
            plans[k][keep] = x[start : start + size]
            if size < keep.size:  # a full support has no entry left to price
                u, v = y[r0 : r0 + n], np.append(y[r0 + n : r0 + n + m - 1], 0.0)
                add = (scaled[k] - u[:, None] - v < -_REDUCED_COST_TOL) & ~keep
                if add.any():
                    supports[k] = keep | add
                    grown.append(k)
            start, r0 = start + size, r0 + n + m - 1
        todo = grown
    full = [np.zeros(C.shape) for C, _, _ in blocks]
    for g, f, (i, j) in zip(plans, full, masses):
        f[np.ix_(i, j)] = g
    with np.errstate(under="ignore"):
        return [(g, float(np.sum(g * C))) for g, (C, _, _) in zip(full, blocks)]


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
    _check_p(p)
    if mu.n != nu.n or mu.n > 8:
        raise ValueError("w_brute needs equal atom counts with n <= 8")
    n = mu.n
    if not _is_uniform(mu, nu):
        raise ValueError("w_brute needs uniform weights")
    D, t = _atom_dists(mu, nu)
    C, s = _pth_power(D, p, D.max())
    P = _permutations(n)
    total = np.zeros(P.shape[0])
    for i in range(n):
        total += C[i, P[:, i]]
    k = total.argmin()
    if total[k] == 0:
        g = np.zeros((n, n))
        g[np.arange(n), P[k]] = 1.0 / n
        _zero_cost_plan(p, g, mu, nu)
    return s / t * (total[k] / n) ** (1.0 / p)


def translation_split(mu, nu):
    """(W_2^2 of the centered pair, squared mean gap).

    Their sum equals W_2^2(mu, nu); the decomposition isolates how much of the
    quadratic cost is pure translation.
    """
    centered_w2, _ = w_exact(2, mu.centered(), nu.centered())
    gap = mu.mean() - nu.mean()
    return centered_w2**2, float(gap @ gap)
