"""The three benchmark workloads: inputs, timed operations and their checks.

``build(wmmd, seed, workdir)`` generates one workload's inputs from the seed
and returns its round of operations.  An operation's ``run`` calls wmmd's
public functions (or its CLI dispatcher) on the prepared inputs and returns
the output; ``check`` compares that output with a reference from ``checks``.
``run`` and ``check`` receive the outputs of the earlier operations of the
same round, keyed by name.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks


@dataclass
class Op:
    name: str
    run: Callable
    check: Callable


def _rng(seed, *stream):
    return np.random.default_rng([int(seed) % 2**63, *stream])


# ---------------------------------------------------------------------------
# ckmeans: sketch shards through the CLI, merge, sketch the whole set, decode.

CK_N, CK_D, CK_K, CK_SHARDS, CK_M = 20_000, 2, 3, 4, 1024
CK_WIDTH = 1.0  # standard deviation of each cluster, per coordinate
CK_SEP = 12.0  # minimum distance between generating centres
CK_SIGMA = 3.0  # Gaussian kernel width
# The decoder's default 16 random starts miss a cluster on some seeds (3 of 40
# at d = 2); 48 starts missed none in the seeds tried (README, "Workloads").
CK_STARTS = 48
CK_OFFSET = 40.0  # distance of the cluster group from the origin
CK_SAMPLE_ROWS = np.arange(0, CK_M, CK_M // 16)  # frequencies checked directly


def clusters(seed):
    """Well-separated Gaussian clusters around a point away from the origin."""
    rng = _rng(seed, 1)
    off = rng.normal(size=CK_D)
    off *= CK_OFFSET / np.linalg.norm(off)
    while True:
        centres = off + rng.uniform(-1.2, 1.2, size=(CK_K, CK_D)) * CK_SEP
        dist = np.linalg.norm(centres[:, None] - centres[None], axis=2) + np.eye(CK_K) * 1e9
        if dist.min() >= CK_SEP:
            break
    labels = rng.integers(0, CK_K, size=CK_N)
    return centres, centres[labels] + CK_WIDTH * rng.normal(size=(CK_N, CK_D))


def build_ckmeans(wmmd, seed, workdir):
    centres, X = clusters(seed)
    fseed = int(_rng(seed, 7).integers(2**31))  # frequency and decoder seed
    bounds = np.linspace(0, CK_N, CK_SHARDS + 1).astype(int)
    shards = [X[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]
    csv = [os.path.join(workdir, f"shard{i}.csv") for i in range(CK_SHARDS)]
    sk = [os.path.join(workdir, f"shard{i}.json") for i in range(CK_SHARDS)]
    merged = os.path.join(workdir, "merged.json")
    for path, part in zip(csv, shards):
        np.savetxt(path, part, delimiter=",", fmt="%.17g")
    kernel_json = f'{{"family":"gaussian","sigma":{CK_SIGMA!r},"d":{CK_D}}}'
    omega_ref = checks.draw_frequencies(fseed, CK_SAMPLE_ROWS, CK_D, CK_SIGMA)
    centre = X.mean(axis=0)
    domain = (centre, float(1.5 * np.max(np.linalg.norm(X - centre, axis=1))))
    emp = wmmd.measures.DiscreteMeasure(X, np.full(CK_N, 1.0 / CK_N))

    def sketch_file_problems(name, path, rows):
        omega, vals, count = checks.read_sketch_file(path)
        problems = checks.check_sketch_values(f"{name} frequencies", omega[CK_SAMPLE_ROWS], omega_ref, 0.0)
        problems += checks.check_sketch_values(
            name, vals[CK_SAMPLE_ROWS], checks.sketch_direct(rows, omega_ref, CK_M))
        if count != rows.shape[0]:
            problems.append(f"{name}: sample count {count} != {rows.shape[0]}")
        return problems

    def exit_ok(name, code):
        return [] if code == 0 else [f"{name}: exit code {code}"]

    def shard_op(i):
        argv = ["sketch", csv[i], "-o", sk[i], "--m", str(CK_M), "--seed", str(fseed), "--kernel", kernel_json]
        name = f"sketch_shard{i}"
        return Op(name, lambda outs: wmmd.cli.dispatch(argv),
                  lambda code, outs: exit_ok(name, code) or sketch_file_problems(name, sk[i], shards[i]))

    ops = [shard_op(i) for i in range(CK_SHARDS)]
    ops.append(Op(
        "merge",
        lambda outs: wmmd.cli.dispatch(["merge", *sk, "-o", merged]),
        lambda code, outs: exit_ok("merge", code) or sketch_file_problems("merge", merged, X),
    ))

    def sketch_whole(outs):
        F = wmmd.sketch.draw_features(wmmd.kernels.KernelSpec.gaussian(CK_SIGMA, CK_D), CK_M, fseed)
        return wmmd.sketch.sketch_samples(F, X)

    def check_whole(s, outs):
        problems = checks.check_sketch_values(
            "sketch_whole", s.values[CK_SAMPLE_ROWS], checks.sketch_direct(X, omega_ref, CK_M))
        _, merged_vals, _ = checks.read_sketch_file(merged)
        return problems + checks.check_sketch_values("merged vs whole sketch", merged_vals, s.values)

    ops.append(Op("sketch_whole", sketch_whole, check_whole))
    ops.append(Op(
        "lloyd",
        lambda outs: wmmd.tasks.lloyd(emp, CK_K, 5, _rng(seed, 2)),
        lambda h, outs: checks.check_centroids("lloyd", h.payload, centres, CK_WIDTH),
    ))
    ops.append(Op(
        "decode",
        lambda outs: wmmd.tasks.decode_diracs(outs["sketch_whole"], CK_K, domain, {"seed": fseed, "n_starts": CK_STARTS}),
        lambda dec, outs: checks.check_centroids("decode", dec.points, centres, CK_WIDTH)
        + checks.check_risk_ratio("decode", X, dec.points, outs["lloyd"].payload),
    ))
    return ops


# ---------------------------------------------------------------------------
# rates: the distance evaluations behind the sampling-rate experiments.

RATE_NS = (512, 1024, 2048, 4096, 8192)
# Two independent samples (trials) at the cheaper sizes, as the rate
# experiments draw several per size; they also put more samples near op_p50.
RATE_TRIALS = {512: 2, 1024: 2, 2048: 2, 4096: 1, 8192: 1}
ASSIGN_NS = (128, 256, 512, 1024)
RATE_OVERSAMPLE = 64


def build_rates(wmmd, seed, workdir):
    M, T = wmmd.measures, wmmd.transport
    normal = M.GaussianMixture([1.0], np.zeros((1, 1)), [1.0])
    kernel = wmmd.kernels.KernelSpec.gaussian(1.0, 1)
    ops = []

    @functools.lru_cache(maxsize=None)
    def mmd_reference(key):
        return checks.gauss_mmd_sq_normal_vs_sample(np.frombuffer(key), 1.0)

    def mmd_op(n, t):
        def run(outs):
            emp = M.sample(normal, n, _rng(seed, 3, n, t))
            return emp, wmmd.discrepancy.mmd_gaussian_kernel(kernel, normal, emp)

        def check(out, outs):
            emp, val = out
            if emp.n != n:
                return [f"mmd_n{n}_t{t}: sample has {emp.n} atoms"]
            ref_sq, scale = mmd_reference(np.ascontiguousarray(emp.points[:, 0]).tobytes())
            return checks.check_mmd_sq(f"mmd_n{n}_t{t}", val, ref_sq, scale, checks.MMD_SQ_ATOL)

        return Op(f"mmd_n{n}_t{t}", run, check)

    def w1d_op(n, t):
        rng = _rng(seed, 4, n, t)
        x, y = rng.uniform(size=n), rng.uniform(size=RATE_OVERSAMPLE * n)
        mu = M.DiscreteMeasure(x[:, None], np.full(n, 1.0 / n))
        nu = M.DiscreteMeasure(y[:, None], np.full(y.size, 1.0 / y.size))
        ref = functools.cache(lambda: checks.w1d_sorted_repeat(x, y, 1))
        return Op(
            f"w1d_n{n}_t{t}",
            lambda outs: T.w1d(1, mu, nu),
            lambda val, outs: checks.check_close(f"w1d_n{n}_t{t}", val, ref(), checks.W1D_DISCRETE_RTOL),
        )

    def assign_op(n):
        # w_exact refuses n = 1024 (size guard); those inputs do not depend
        # on the seed, so the failure is the same share of every run.
        rng = _rng(seed if n < 1024 else 0, 5, n)
        X, Y = rng.uniform(size=(n, 3)), rng.uniform(size=(n, 3))
        mu = M.DiscreteMeasure(X, np.full(n, 1.0 / n))
        nu = M.DiscreteMeasure(Y, np.full(n, 1.0 / n))
        ref = functools.cache(lambda: checks.wp_assignment(X, Y, 1))

        def check(out, outs):
            val, plan = out
            w = np.full(n, 1.0 / n)
            return (checks.check_close(f"assign_n{n}", val, ref(), checks.ASSIGN_RTOL)
                    + checks.check_plan(f"assign_n{n}", plan.coupling, w, w))

        return Op(f"assign_n{n}", lambda outs: T.w_exact(1, mu, nu), check)

    ops += [mmd_op(n, t) for n in RATE_NS for t in range(RATE_TRIALS[n])]
    ops += [w1d_op(n, t) for n in RATE_NS for t in range(RATE_TRIALS[n])]
    ops += [assign_op(n) for n in ASSIGN_NS]
    return ops


# ---------------------------------------------------------------------------
# exact: LP transport, many tiny dominance checks, 1-D mixture routes.

# HiGHS time varies up to 2-fold between random instances of one size, and
# about 1 in 350 random 120 x 120 instances fails TransportPlan.validate.  The
# LP pairs come from a stream that ignores the seed, so their cost and any
# failure are the same in every run.
LP_SHAPES = ((1, 60, 50), (1, 50, 60)) + ((2, 100, 120), (2, 120, 100), (2, 140, 140), (2, 160, 150)) * 2
# Every batch holds one pair of each size combination, so batches cost alike.
DOM_BATCHES, DOM_SIZES = 28, [(n1, n2) for n1 in range(2, 6) for n2 in range(2, 6)]
MIX_PAIRS = 3
SPECTRAL_PAIRS, SPECTRAL_K = 3, 4


def _mixture(rng, K):
    w = rng.uniform(0.2, 1.0, K)
    return w / w.sum(), rng.uniform(-2.0, 2.0, K), rng.uniform(0.5, 2.0, K)


def build_exact(wmmd, seed, workdir):
    M, T = wmmd.measures, wmmd.transport
    rng = _rng(seed, 6)
    ops = []

    def gm(mix):
        return M.GaussianMixture(mix[0], mix[1][:, None], mix[2])

    def lp_op(i, d, n, m, rng):
        X = rng.normal(size=(n, d))
        Y = rng.normal(size=(m, d)) * rng.uniform(0.5, 1.5) + rng.uniform(-1.0, 1.0, size=d)
        a, b = rng.uniform(0.1, 1.0, n), rng.uniform(0.1, 1.0, m)
        mu, nu = M.DiscreteMeasure(X, a), M.DiscreteMeasure(Y, b)
        name = f"lp{i}_d{d}_{n}x{m}"
        refs = functools.cache(lambda: checks.w2_lp_references(X, a, Y, b))

        def check(out, outs):
            val, plan = out
            return checks.check_w2_lp(name, val, refs()) + checks.check_plan(name, plan.coupling, a, b)

        return Op(name, lambda outs: T.w_exact(2, mu, nu), check)

    def dominance_op(j):
        raw = []
        for n1, n2 in DOM_SIZES:
            raw.append((rng.normal(size=(n1, 2)), rng.uniform(0.1, 1, n1),
                        rng.normal(size=(n2, 2)), rng.uniform(0.1, 1, n2)))
        pairs = [(M.DiscreteMeasure(X, a), M.DiscreteMeasure(Y, b)) for X, a, Y, b in raw]
        kernel = wmmd.kernels.KernelSpec.gaussian(1.0, 2)
        return Op(
            f"dominance{j}",
            lambda outs: wmmd.lab.mmd_dominance_check(kernel, pairs, p=2),
            lambda rep, outs: checks.check_dominance_rows(f"dominance{j}", rep.rows, raw, 1.0, rep.passed),
        )

    def mixture_ops(j, mix_a, mix_b):
        a, b = gm(mix_a), gm(mix_b)
        w1_ref = functools.cache(lambda: checks.cdf_l1(mix_a, mix_b))
        gap = abs(float(mix_a[0] @ mix_a[1] - mix_b[0] @ mix_b[1]))

        def check_p2(val, outs):
            problems = []
            if mix_a[0].size == 1:
                ref = checks.w2_gaussians(mix_a[1][0], mix_a[2][0], mix_b[1][0], mix_b[2][0])
                problems += checks.check_close(f"w1d_mix{j}_p2", val, ref, checks.W1D_MIXTURE_RTOL)
            if val < max(w1_ref(), gap) * (1.0 - checks.W1D_MIXTURE_RTOL):
                problems.append(f"w1d_mix{j}_p2: W2 {val!r} is below W1 {w1_ref()!r} or the mean gap {gap!r}")
            return problems

        return [
            Op(f"w1d_mix{j}_p1", lambda outs: T.w1d(1, a, b),
               lambda val, outs: checks.check_close(f"w1d_mix{j}_p1", val, w1_ref(), checks.W1D_MIXTURE_RTOL)),
            Op(f"w1d_mix{j}_p2", lambda outs: T.w1d(2, a, b), check_p2),
        ]

    def spectral_op(j, mix_a, mix_b):
        a, b = gm(mix_a), gm(mix_b)
        kernel = wmmd.kernels.KernelSpec.gaussian(1.0, 1)
        ref_sq, scale = checks.gauss_mmd_sq_mixtures(mix_a, mix_b, 1.0)
        return Op(
            f"spectral{j}",
            lambda outs: wmmd.discrepancy.mmd_spectral_1d(kernel, a, b),
            lambda val, outs: checks.check_mmd_sq(f"spectral{j}", val, ref_sq, scale, checks.SPECTRAL_SQ_ATOL),
        )

    fixed = _rng(0, 8)
    ops += [lp_op(i, *shape, fixed) for i, shape in enumerate(LP_SHAPES)]
    ops += [dominance_op(j) for j in range(DOM_BATCHES)]
    # The mixture route's grid doublings, and so its cost, vary up to 20-fold
    # between random pairs; these pairs also ignore the seed.
    fixed = _rng(0, 9)
    for j in range(MIX_PAIRS):
        ops += mixture_ops(j, _mixture(fixed, 2), _mixture(fixed, 2))
    ops += mixture_ops(MIX_PAIRS, _mixture(fixed, 1), _mixture(fixed, 1))
    ops += [spectral_op(j, _mixture(rng, SPECTRAL_K), _mixture(rng, SPECTRAL_K)) for j in range(SPECTRAL_PAIRS)]
    return ops


WORKLOADS = {"ckmeans": build_ckmeans, "rates": build_rates, "exact": build_exact}
