import math
import re

import numpy as np
import pytest

from wmmd.measures import (
    DiscreteMeasure,
    GaussianMixture,
    RegularizerSpec,
    stream_rng,
)
from wmmd.kernels import KernelSpec
from wmmd.discrepancy import mmd_discrete
from wmmd.transport import w1d, w_exact
from wmmd.reporting import DegenerateZero, scaling_exponent
from wmmd import lab


def _uniform(points):
    points = np.atleast_2d(np.asarray(points, float))
    return DiscreteMeasure(points, np.full(points.shape[0], 1.0 / points.shape[0]))


# ---------------------------------------------------------------------------
# slope fits


def test_scaling_exponent_exact_power_law():
    fit = scaling_exponent([(x, x**3) for x in (1.0, 2.0, 4.0, 8.0, 16.0)])
    assert fit.slope == pytest.approx(3.0, abs=1e-12)
    assert fit.r2 == pytest.approx(1.0, abs=1e-12)


def test_scaling_exponent_constant():
    fit = scaling_exponent([(x, 5.0) for x in (1.0, 2.0, 4.0, 8.0)])
    assert fit.slope == pytest.approx(0.0, abs=1e-12)


def test_scaling_exponent_noisy_sqrt():
    rng = stream_rng(42)
    pairs = [(x, x**0.5 * (1 + 0.01 * rng.standard_normal())) for x in np.logspace(0, 3, 20)]
    fit = scaling_exponent(pairs)
    assert fit.slope == pytest.approx(0.5, abs=0.02)


def test_scaling_exponent_errors():
    with pytest.raises(ValueError):
        scaling_exponent([(1.0, 1.0), (2.0, 2.0)])
    with pytest.raises(DegenerateZero):
        scaling_exponent([(1.0, 0.0), (2.0, 0.0), (3.0, 0.0), (4.0, 0.0)])
    with pytest.raises(ValueError):
        scaling_exponent([(1.0, 1.0), (2.0, -1.0), (3.0, 1.0), (4.0, 1.0)])


# ---------------------------------------------------------------------------
# binomial Dirac construction


@pytest.mark.parametrize("k", [1, 2, 5, 17, 60])
def test_binomial_moments_vanish_exactly(k):
    alpha, beta = lab.binomial_construction(k)
    assert len(alpha) == k + 1
    for s in range(k):
        assert sum(b * a**s for a, b in zip(alpha, beta)) == 0  # exact ints
    # order-k moment does NOT vanish
    assert sum(b * a**k for a, b in zip(alpha, beta)) != 0


def test_dirac_pair_masses_and_support():
    cons = lab.BinomialDiracs(k=3, x0=(0.0,), radius=10.0, direction=(1.0,))
    mu, nu = lab.dirac_pair(cons, 0.5)
    assert mu.weights.sum() == pytest.approx(1.0)
    assert nu.weights.sum() == pytest.approx(1.0)
    assert mu.n + nu.n == 4
    with pytest.raises(ValueError):
        lab.dirac_pair(cons, 5.0)  # atoms would leave the stated radius


def test_counterexample_w1_slope_is_exactly_one():
    cons = lab.BinomialDiracs(k=2, x0=(0.0,), radius=10.0, direction=(1.0,))
    pairs = []
    for eps in (0.5, 0.25, 0.125, 0.0625):
        mu, nu = lab.dirac_pair(cons, eps)
        pairs.append((eps, w1d(1, mu, nu)))
    fit = scaling_exponent(pairs)
    assert fit.slope == pytest.approx(1.0, abs=1e-6)  # exact homogeneity


# ---------------------------------------------------------------------------
# disjoint-support interpolation


def _segment_measures():
    pi0 = _uniform([[0.0]])
    pi1 = _uniform([[1.0]])
    return pi0, pi1


def test_disjoint_segment_requires_disjoint_supports():
    m = _uniform([[0.0]])
    with pytest.raises(ValueError):
        lab.disjoint_segment(m, m, 0.5)


def test_disjoint_segment_slopes():
    pi0, pi1 = _segment_measures()
    kernel = KernelSpec.gaussian(1.0, 1)
    lams = [0.4, 0.2, 0.1, 0.05, 0.025]
    mmd_pairs, w_pairs = [], []
    for lam in lams:
        a, b = lab.disjoint_segment(pi0, pi1, lam)
        mmd_pairs.append((lam, mmd_discrete(kernel, a, b)))
        w_pairs.append((lam, w1d(2, a, b)))
    assert scaling_exponent(mmd_pairs).slope == pytest.approx(1.0, abs=1e-6)
    assert scaling_exponent(w_pairs).slope == pytest.approx(0.5, abs=0.02)


# ---------------------------------------------------------------------------
# probes and bounds


def test_embeddability_probe_stable_case():
    kernel = KernelSpec.gaussian(1.0, 1)

    def sampler(rng):
        mu = DiscreteMeasure(rng.normal(size=(3, 1)), rng.uniform(0.1, 1, 3))
        nu = DiscreteMeasure(rng.normal(size=(3, 1)), rng.uniform(0.1, 1, 3))
        return mu, nu

    rep = lab.embeddability_probe(sampler, kernel, 1, 1.0, 40, stream_rng(3))
    assert rep.summary["stable"]


def test_embeddability_probe_needs_trials():
    with pytest.raises(ValueError):
        lab.embeddability_probe(lambda r: None, KernelSpec.gaussian(1.0, 1), 1, 1.0, 5, None)


def test_fourier_bound_trivial_zero():
    k = KernelSpec.laplacian(1.0, 1)
    g = GaussianMixture([1.0], [[0.0]], [1.0])
    w2, rhs = lab.fourier_bound_1d(k, g, g)
    assert w2 == pytest.approx(0.0, abs=1e-6)
    assert rhs == pytest.approx(0.0, abs=1e-6)


def test_fourier_bound_rejects_mismatched_means():
    k = KernelSpec.laplacian(1.0, 1)
    a = GaussianMixture([1.0], [[0.0]], [1.0])
    b = GaussianMixture([1.0], [[1.0]], [1.0])
    with pytest.raises(ValueError):
        lab.fourier_bound_1d(k, a, b)
    atoms = DiscreteMeasure([[-1.0], [1.0]], [0.5, 0.5])
    with pytest.raises(ValueError, match="two Gaussian mixtures"):
        lab.fourier_bound_1d(k, atoms, atoms)


def test_fourier_bound_report_writes_violating_pairs():
    """Both sides of every pair reach the report, the violating ones included."""
    rep = lab.fourier_bound(0, 2, "matern")
    assert not rep.summary["pass"]
    for t, w2, rhs in rep.rows:
        assert np.isfinite([w2, rhs]).all() and w2 > rhs > 0
        pair = lab._same_mean_gmm_pair(lab.stream_rng(0, t))
        with pytest.raises(AssertionError, match=re.escape(f"W2={w2} > rhs={rhs}")):
            lab.fourier_bound_1d(lab.kernel_from_text("matern", 1), *pair)


def test_unit_ball_volume_literal():
    # literal formula pi^(d/2) * Gamma(d/2 + 1); NOT the usual ratio form
    assert lab.unit_ball_volume_literal(2) == pytest.approx(np.pi * math.gamma(2.0))
    assert lab.unit_ball_volume_literal(3) == pytest.approx(
        np.pi**1.5 * math.gamma(2.5)
    )


def test_smoothing_constant_formula():
    d, s, p = 3, 4, 1
    expect = 2 ** (1 / p + 1 - 1 / s) * lab.unit_ball_volume_literal(d) ** (
        (s - p) / ((d + 2 * s) * p)
    )
    assert lab.smoothing_constant(d, s, p) == pytest.approx(expect, rel=1e-14)


def test_smoothing_bound_identical_measures():
    mu = _uniform(stream_rng(4).uniform(-0.5, 0.5, size=(6, 3)))
    rep = lab.smoothing_bound(RegularizerSpec(0.2), 1, mu, mu, 4, 4.0)
    vals = {row[0]: row[1] for row in rep.rows}
    # distance-matrix round-off leaves ~1e-6 for p=1 on identical supports
    assert vals["w_p"] == pytest.approx(0.0, abs=1e-5)
    assert rep.passed


def test_smoothing_bound_moment_precondition():
    mu = _uniform([[100.0, 0.0, 0.0]])
    with pytest.raises(ValueError):
        lab.smoothing_bound(RegularizerSpec(0.1), 1, mu, mu, 4, 1.0)


def test_smoothing_bound_random_pair_holds():
    rng = stream_rng(5)
    mu = _uniform(rng.uniform(-1, 1, size=(8, 3)) / np.sqrt(3))
    nu = _uniform(rng.uniform(-1, 1, size=(8, 3)) / np.sqrt(3))
    for sg in (0.1, 0.2, 0.4):
        rep = lab.smoothing_bound(RegularizerSpec(sg), 1, mu, nu, 4, 4.0)
        assert rep.passed


def test_dominance_two_dirac_grid_inequality():
    # 2 (1 - exp(-t^2/2)) <= t^2 pointwise
    k = KernelSpec.gaussian(1.0, 1)
    rep = lab.mmd_dominance_check(k, [])
    assert rep.summary["grid_condition"]


def test_dominance_random_pairs():
    rng = stream_rng(6)
    k = KernelSpec.gaussian(1.0, 2)
    pairs = []
    for _ in range(30):
        pairs.append(
            (
                DiscreteMeasure(rng.normal(size=(4, 2)), rng.uniform(0.1, 1, 4)),
                DiscreteMeasure(rng.normal(size=(3, 2)), rng.uniform(0.1, 1, 3)),
            )
        )
    rep = lab.mmd_dominance_check(k, pairs)
    assert rep.passed
    assert rep.summary["worst_margin"] <= 1e-9


def test_dominance_rows_match_single_pairs():
    """The batched W_p of every row equals a per-pair `w_exact`."""
    rng = stream_rng(61)
    k = KernelSpec.gaussian(1.0, 2)
    pairs = []
    for n1, n2 in [(2, 5), (5, 2), (3, 3), (4, 4), (1, 3)]:
        scale = 10.0 ** rng.uniform(-3, 3)
        pairs.append(
            (
                DiscreteMeasure(scale * rng.normal(size=(n1, 2)), rng.uniform(0.1, 1, n1)),
                DiscreteMeasure(scale * rng.normal(size=(n2, 2)), rng.uniform(0.1, 1, n2)),
            )
        )
    rep = lab.mmd_dominance_check(k, pairs)
    for (i, m, w, _, _), (mu, nu) in zip(rep.rows, pairs):
        assert w == pytest.approx(w_exact(2, mu, nu)[0], rel=1e-12)
        assert m == mmd_discrete(k, mu, nu)


def test_embeddability_probe_rows_follow_the_sampler():
    """All pairs are drawn before any distance, in the same order as one at a time."""
    kernel = KernelSpec.gaussian(1.0, 2)

    def sampler(rng):
        n1, n2 = rng.integers(2, 5, size=2)
        return (
            DiscreteMeasure(rng.normal(size=(n1, 2)), rng.uniform(0.1, 1, n1)),
            DiscreteMeasure(rng.normal(size=(n2, 2)), rng.uniform(0.1, 1, n2)),
        )

    rep = lab.embeddability_probe(sampler, kernel, 2, 1.0, 12, stream_rng(4))
    rng = stream_rng(4)
    for row in rep.rows:
        mu, nu = sampler(rng)
        assert row[1] == pytest.approx(w_exact(2, mu, nu)[0], rel=1e-12)
        assert row[2] == mmd_discrete(kernel, mu, nu)


def test_dominance_rejects_modified_kernel():
    base = KernelSpec.gaussian(1.0, 2)
    k = KernelSpec.modified(base, 1.0)
    with pytest.raises(ValueError, match="UnsupportedKernel"):
        lab.mmd_dominance_check(k, [])


