"""Tests of the benchmark's output checks: today's output passes, a nudged one fails.

Run from the root of a checkout:  python3 -m pytest -q bench/test_checks.py
"""

from __future__ import annotations

import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import wmmd  # noqa: E402
import wmmd.cli  # noqa: E402
import wmmd.lab  # noqa: E402
from wmmd.measures import DiscreteMeasure, GaussianMixture  # noqa: E402

RNG = np.random.default_rng(20211201)


def uniform(points):
    return DiscreteMeasure(points, np.full(points.shape[0], 1.0 / points.shape[0]))


def gm(mix):
    return GaussianMixture(mix[0], mix[1][:, None], mix[2])


def test_w1d_sorted_repeat():
    x, y = RNG.uniform(size=256), RNG.uniform(size=64 * 256)
    got = wmmd.w1d(1, uniform(x[:, None]), uniform(y[:, None]))
    ref = checks.w1d_sorted_repeat(x, y, 1)
    assert checks.check_close("w1d", got, ref, checks.W1D_DISCRETE_RTOL) == []
    assert checks.check_close("w1d", got * (1 + 1e-6), ref, checks.W1D_DISCRETE_RTOL)


@pytest.mark.parametrize("d", [1, 2])
def test_lp_checks(d):
    X, Y = RNG.normal(size=(30, d)), RNG.normal(size=(20, d)) + 0.5
    a, b = RNG.uniform(0.1, 1, 30), RNG.uniform(0.1, 1, 20)
    got, plan = wmmd.w_exact(2, DiscreteMeasure(X, a), DiscreteMeasure(Y, b))
    refs = checks.w2_lp_references(X, a, Y, b)
    assert checks.check_w2_lp("lp", got, refs) == []
    assert checks.check_plan("lp", plan.coupling, a, b) == []
    assert checks.check_w2_lp("lp", got * (1 + 1e-6), refs)
    nudged = plan.coupling.copy()
    nudged[0, 0] += 1e-6
    assert checks.check_plan("lp", nudged, a, b)


def test_assignment_check():
    X, Y = RNG.uniform(size=(64, 3)), RNG.uniform(size=(64, 3))
    got, _ = wmmd.w_exact(1, uniform(X), uniform(Y))
    ref = checks.wp_assignment(X, Y, 1)
    assert checks.check_close("assign", got, ref, checks.ASSIGN_RTOL) == []
    assert checks.check_close("assign", got * (1 + 1e-6), ref, checks.ASSIGN_RTOL)


def test_mixture_w1d_checks():
    mix_a = (np.array([0.3, 0.7]), np.array([0.0, 2.0]), np.array([0.5, 1.0]))
    mix_b = (np.array([0.5, 0.5]), np.array([-1.0, 1.5]), np.array([0.8, 0.6]))
    got = wmmd.w1d(1, gm(mix_a), gm(mix_b))
    ref = checks.cdf_l1(mix_a, mix_b)
    assert checks.check_close("mix", got, ref, checks.W1D_MIXTURE_RTOL) == []
    assert checks.check_close("mix", got * (1 + 1e-4), ref, checks.W1D_MIXTURE_RTOL)
    one_a = (np.array([1.0]), np.array([0.3]), np.array([1.2]))
    one_b = (np.array([1.0]), np.array([-0.4]), np.array([0.7]))
    got = wmmd.w1d(2, gm(one_a), gm(one_b))
    ref = checks.w2_gaussians(0.3, 1.2, -0.4, 0.7)
    assert checks.check_close("gauss", got, ref, checks.W1D_MIXTURE_RTOL) == []
    assert checks.check_close("gauss", got * (1 + 1e-4), ref, checks.W1D_MIXTURE_RTOL)


def test_closed_form_mmd_check():
    normal = GaussianMixture([1.0], np.zeros((1, 1)), [1.0])
    emp = wmmd.sample(normal, 512, RNG)
    got = wmmd.discrepancy.mmd_gaussian_kernel(wmmd.KernelSpec.gaussian(1.0, 1), normal, emp)
    ref_sq, scale = checks.gauss_mmd_sq_normal_vs_sample(emp.points[:, 0], 1.0)
    assert checks.check_mmd_sq("mmd", got, ref_sq, scale, checks.MMD_SQ_ATOL) == []
    assert checks.check_mmd_sq("mmd", got * (1 + 1e-6), ref_sq, scale, checks.MMD_SQ_ATOL)


def test_spectral_mmd_check():
    mix_a = (np.array([0.2, 0.3, 0.5]), np.array([-1.0, 0.4, 1.1]), np.array([0.6, 1.3, 0.9]))
    mix_b = (np.array([0.6, 0.4]), np.array([0.2, -0.7]), np.array([1.1, 0.5]))
    got = wmmd.discrepancy.mmd_spectral_1d(wmmd.KernelSpec.gaussian(1.0, 1), gm(mix_a), gm(mix_b))
    ref_sq, scale = checks.gauss_mmd_sq_mixtures(mix_a, mix_b, 1.0)
    assert checks.check_mmd_sq("spec", got, ref_sq, scale, checks.SPECTRAL_SQ_ATOL) == []
    assert checks.check_mmd_sq("spec", got * (1 + 1e-6), ref_sq, scale, checks.SPECTRAL_SQ_ATOL)


def test_dominance_check():
    raw = []
    for _ in range(12):
        n1, n2 = RNG.integers(2, 6, size=2)
        raw.append((RNG.normal(size=(n1, 2)), RNG.uniform(0.1, 1, n1),
                    RNG.normal(size=(n2, 2)), RNG.uniform(0.1, 1, n2)))
    pairs = [(DiscreteMeasure(X, a), DiscreteMeasure(Y, b)) for X, a, Y, b in raw]
    rep = wmmd.lab.mmd_dominance_check(wmmd.KernelSpec.gaussian(1.0, 2), pairs, p=2)
    assert checks.check_dominance_rows("dom", rep.rows, raw, 1.0, rep.passed) == []
    nudged = [list(r) for r in rep.rows]
    nudged[3][1] *= 1 + 1e-6
    assert checks.check_dominance_rows("dom", nudged, raw, 1.0, True)
    above = [list(r) for r in rep.rows]
    above[5][2] = 0.99 * above[5][1]
    assert checks.check_dominance_rows("dom", above, raw, 1.0, True)


def test_sketch_checks(tmp_path):
    X = RNG.normal(size=(400, 2)) + 5.0
    halves = [X[:200], X[200:]]
    kernel = '{"family":"gaussian","sigma":2.0,"d":2}'
    paths = []
    for i, part in enumerate(halves):
        csv, out = tmp_path / f"p{i}.csv", tmp_path / f"p{i}.json"
        np.savetxt(csv, part, delimiter=",", fmt="%.17g")
        argv = ["sketch", str(csv), "-o", str(out), "--m", "64", "--seed", "7", "--kernel", kernel]
        assert wmmd.cli.dispatch(argv) == 0
        paths.append(str(out))
    merged = tmp_path / "merged.json"
    assert wmmd.cli.dispatch(["merge", *paths, "-o", str(merged)]) == 0
    whole = wmmd.sketch_samples(wmmd.draw_features(wmmd.KernelSpec.gaussian(2.0, 2), 64, 7), X)
    omega, vals, count = checks.read_sketch_file(merged)
    rows = np.arange(0, 64, 8)
    omega_ref = checks.draw_frequencies(7, rows, 2, 2.0)
    assert count == 400
    assert checks.check_sketch_values("omega", omega[rows], omega_ref, 0.0) == []
    assert checks.check_sketch_values("merged", vals, whole.values) == []
    assert checks.check_sketch_values("direct", vals[rows], checks.sketch_direct(X, omega_ref, 64)) == []
    nudged = vals.copy()
    nudged[11] += 1e-9
    assert checks.check_sketch_values("merged", nudged, whole.values)
    assert checks.check_sketch_values("omega", omega[rows] * (1 + 1e-12), omega_ref, 0.0)


def test_centroid_checks():
    centres = np.array([[40.0, 3.0], [52.0, 3.0], [46.0, 15.0]])
    X = centres[RNG.integers(0, 3, 3000)] + RNG.normal(size=(3000, 2))
    h = wmmd.tasks.lloyd(uniform(X), 3, 3, RNG)
    assert checks.check_centroids("lloyd", h.payload, centres, 1.0) == []
    assert checks.check_risk_ratio("lloyd", X, h.payload, centres) == []
    moved = h.payload.copy()
    i = int(np.argmin(np.linalg.norm(moved - centres[0], axis=1)))
    moved[i] = centres[0] + np.array([1.0, 0.0]) * 1.01
    assert checks.check_centroids("moved", moved, centres, 1.0)
    assert checks.check_risk_ratio("moved", X, centres[[0, 0, 1]], h.payload)
