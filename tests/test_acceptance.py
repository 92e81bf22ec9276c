"""Acceptance suite: one test per quantitative criterion, pinned tolerances.

Each test prints a single summary line (visible with `pytest -v -rA` or on
failure) so the whole suite doubles as a verification report.  Two criteria
assert decay exponents that the smooth-kernel constructions do not actually
attain (see the test docstrings); they are implemented literally and are
expected to fail rather than being weakened.
"""

import functools
import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

from wmmd.measures import (
    DiscreteMeasure,
    GaussianMixture,
    RegularizerSpec,
    stream_rng,
)
from wmmd.kernels import KernelSpec, sphere_directions
from wmmd.discrepancy import (
    mmd_discrete,
    mmd_gaussian_kernel,
    mmd_spectral_1d,
    smoothed_l2,
    mmd_sliced,
    mmd_rate,
)
from wmmd.transport import w1d, w_exact, w_brute, translation_split, w_rate
from wmmd.sketch import (
    draw_features,
    sketch_samples,
    sketch_measure,
    sketch_distance,
    merge,
    rkhs_lipschitz,
)
from wmmd.tasks import (
    TaskSpec,
    Hypothesis,
    risk,
    kmeans_project,
    task_metric_probe,
    task_constant,
    excess_risk_report,
)
from wmmd import lab
from wmmd.reporting import scaling_exponent

SEED = 20260823


def _line(num, ok, detail):
    print(f"CRITERION {num:02d}: {'PASS' if ok else 'FAIL'} — {detail}")
    return ok


def _uniform(points):
    points = np.atleast_2d(np.asarray(points, float))
    return DiscreteMeasure(points, np.full(points.shape[0], 1.0 / points.shape[0]))


def _rand_discrete(rng, n, d, spread=1.0):
    return DiscreteMeasure(spread * rng.normal(size=(n, d)), rng.uniform(0.1, 1.0, n))


# ---------------------------------------------------------------------------


def test_criterion_01_exact_ot_oracles():
    """w_exact vs permutation brute force, and 1-D closed form vs LP."""
    t0 = time.time()
    rng = stream_rng(SEED, 1)
    worst_brute = 0.0
    for _ in range(500):
        n = int(rng.integers(2, 9))
        d = int(rng.integers(1, 4))
        p = float(rng.choice([1.0, 2.0]))
        mu = _uniform(rng.normal(size=(n, d)))
        nu = _uniform(rng.normal(size=(n, d)))
        val, _ = w_exact(p, mu, nu)
        ref = w_brute(p, mu, nu)
        worst_brute = max(worst_brute, abs(val - ref) / max(ref, 1e-300))
    worst_1d = 0.0
    for _ in range(500):
        n1, n2 = rng.integers(2, 8, size=2)
        p = float(rng.choice([1.0, 2.0]))
        mu = _rand_discrete(rng, int(n1), 1)
        nu = _rand_discrete(rng, int(n2), 1)
        ref, _ = w_exact(p, mu, nu)
        worst_1d = max(worst_1d, abs(w1d(p, mu, nu) - ref))
    dt = time.time() - t0
    ok = worst_brute <= 1e-12 and worst_1d <= 1e-10 and dt < 60.0
    assert _line(
        1, ok, f"brute rel err {worst_brute:.2e}, 1-D abs err {worst_1d:.2e}, {dt:.1f}s"
    )


def test_criterion_02_mmd_cross_method_agreement():
    """Four independent MMD routes agree on 1-D discrete pairs."""
    rng = stream_rng(SEED, 2)
    worst = 0.0
    for _ in range(200):
        sg = float(rng.uniform(0.3, 1.2))
        alpha = RegularizerSpec(sg)
        kernel = KernelSpec.conv_root(alpha, 1)
        n1, n2 = rng.integers(2, 5, size=2)
        mu = _rand_discrete(rng, int(n1), 1)
        nu = _rand_discrete(rng, int(n2), 1)
        vals = np.array(
            [
                mmd_discrete(kernel, mu, nu),
                mmd_spectral_1d(kernel, mu, nu),
                smoothed_l2(alpha, mu, nu),
                mmd_gaussian_kernel(kernel, mu, nu),
            ]
        )
        spread = (vals.max() - vals.min()) / max(vals.max(), 1e-300)
        worst = max(worst, spread)
    ok = worst <= 1e-6
    assert _line(2, ok, f"200 pairs, worst cross-method rel spread {worst:.2e}")


def test_criterion_03_mmd_dominated_by_curvature_times_w():
    rng = stream_rng(SEED, 3)
    violations = 0
    worst = -np.inf
    for sg in (0.5, 1.0, 2.0):
        kernel = KernelSpec.gaussian(sg, 2)
        C = 1.0 / sg
        assert kernel.hessian_constant() == pytest.approx(C, rel=1e-12)
        mus, nus = [], []
        for _ in range(1000):
            n1, n2 = rng.integers(2, 6, size=2)
            mus.append(_rand_discrete(rng, int(n1), 2))
            nus.append(_rand_discrete(rng, int(n2), 2))
        # one list call: the small LPs are solved together (see `w_exact`)
        for mu, nu, (w, _) in zip(mus, nus, w_exact(2, mus, nus)):
            m = mmd_discrete(kernel, mu, nu)
            margin = m - C * w
            worst = max(worst, margin)
            if margin > 1e-9:
                violations += 1
    ok = violations == 0
    assert _line(3, ok, f"3000 pairs, violations {violations}, worst margin {worst:.2e}")


def test_criterion_04_counterexample_scaling():
    """Vanishing-moment Dirac pairs against a smooth kernel.

    The criterion pins the fitted MMD slope at k/2.  For an infinitely
    differentiable kernel the k vanishing moments cancel every term of the
    squared-MMD expansion below order 2k, so the measured slope is ~k (checked
    by hand at k=2: squared MMD = (3/4) eps^4 + O(eps^6) for the unit Gaussian
    kernel).  The divergence conclusion (ratio growth >= 10x) still holds a
    fortiori.  Implemented literally; expected to fail on the slope pin.
    """
    kernel = KernelSpec.gaussian(1.0, 1)
    eps_grid = [2.0**-j for j in range(1, 7)]
    details = []
    ok = True
    for k in (2, 4):
        cons = lab.BinomialDiracs(k=k, x0=(0.0,), radius=100.0, direction=(1.0,))
        rows = []
        for eps in eps_grid:
            mu, nu = lab.dirac_pair(cons, eps)
            rows.append((eps, mmd_discrete(kernel, mu, nu), w1d(1, mu, nu)))
        fit_m = scaling_exponent([(e, m) for e, m, _ in rows])
        fit_w = scaling_exponent([(e, w) for e, _, w in rows])
        growth = (rows[-1][2] / rows[-1][1]) / (rows[0][2] / rows[0][1])
        details.append(f"k={k}: mmd slope {fit_m.slope:.3f}, w slope {fit_w.slope:.6f}")
        ok &= abs(fit_m.slope - k / 2.0) <= 0.05
        ok &= abs(fit_w.slope - 1.0) <= 1e-6
        ok &= growth >= 10.0
    assert _line(4, ok, "; ".join(details))


@pytest.mark.parametrize("k", [2, 4])
def test_criterion_04_companion_mmd_slope_is_k(k):
    """The corrected statement: with the Gaussian kernel the MMD slope is k.

    The k vanishing moments cancel every term of the squared-MMD expansion
    below order 2k (see criterion 4), so MMD ~ eps^k while W_1 ~ eps and
    W_1 / MMD grows along the path.  Runs `wmmd lab counterexample`'s
    experiment; criterion 4's literal k/2 target stays pinned and failing.
    """
    summary = lab.counterexample(SEED, k, "gaussian").summary
    assert abs(summary["slope_mmd"] - k) <= 0.05 * k, summary
    assert abs(summary["slope_w"] - 1.0) <= 1e-6, summary
    assert summary["divergence_ratio"] >= 10.0, summary


def test_criterion_05_disjoint_segment_scaling():
    pi0 = _uniform([[0.0]])
    pi1 = _uniform([[1.0]])
    kernel = KernelSpec.gaussian(1.0, 1)
    lams = [2.0**-j for j in range(1, 7)]
    mmd_pairs, w_pairs = [], []
    for lam in lams:
        a, b = lab.disjoint_segment(pi0, pi1, lam)
        mmd_pairs.append((lam, mmd_discrete(kernel, a, b)))
        w_pairs.append((lam, w1d(2, a, b)))
    s_m = scaling_exponent(mmd_pairs).slope
    s_w = scaling_exponent(w_pairs).slope
    ok = abs(s_m - 1.0) <= 1e-6 and abs(s_w - 0.5) <= 0.02
    assert _line(5, ok, f"mmd slope {s_m:.8f}, w slope {s_w:.4f}")


def test_criterion_06_same_mean_fourier_bound():
    """W_2 against the spectral-quadrature right-hand side on same-mean pairs.

    The pinned inequality rests on identifying the quadratic transport cost
    with the squared L2 distance between CDFs; that identification is the p=1
    formula, and the p=2 quantile form is strictly larger here.  Numerically
    the right-hand side does bound ||F - G||_L2 (checked separately) but not
    W_2 itself: every sampled pair violates it by a 1.9x-3.8x factor.
    Implemented literally; expected to fail.
    """
    kernel = KernelSpec.matern(0.5, 1.0, 1)
    rng = stream_rng(SEED, 6)
    violations = 0
    checked = 0
    for _ in range(100):

        def one():
            K = int(rng.integers(1, 4))
            w = rng.uniform(0.2, 1.0, K)
            c = rng.uniform(-2.0, 2.0, K)
            w /= w.sum()
            c -= w @ c
            s = rng.uniform(0.5, 2.0, K)
            return GaussianMixture(w, c[:, None], s)

        mu, nu = one(), one()
        checked += 1
        try:
            lab.fourier_bound_1d(kernel, mu, nu)
        except AssertionError:
            violations += 1
    ok = violations == 0
    assert _line(6, ok, f"{checked} same-mean pairs, violations {violations}")


def test_criterion_06_companion_rhs_bounds_cdf_l2():
    """The corrected statement: criterion 6's right-hand side bounds ||F - G||_L2.

    Plancherel gives ||F - G||^2 = (2 pi)^-1 int |mu_hat - nu_hat|^2 / w^2 dw, and
    Cauchy-Schwarz splits that integrand into |mu_hat - nu_hat| kappa0_hat^(1/2)
    times |mu_hat - nu_hat| / (w^2 kappa0_hat^(1/2)), whose squared integrals
    give 2 pi MMD^2 and the Fourier quotient.  Runs on criterion 6's own 100
    pairs (the same draws in the same order); the Fourier quotient and
    ||F - G|| are integrated here by `quad`, independently of `lab`.
    """
    kernel = KernelSpec.matern(0.5, 1.0, 1)
    rng = stream_rng(SEED, 6)
    worst = 0.0
    for _ in range(100):

        def one():
            K = int(rng.integers(1, 4))
            w = rng.uniform(0.2, 1.0, K)
            c = rng.uniform(-2.0, 2.0, K)
            w /= w.sum()
            c -= w @ c
            s = rng.uniform(0.5, 2.0, K)
            return GaussianMixture(w, c[:, None], s)

        mu, nu = one(), one()

        def quotient(om):
            diff = mu.char_fn([[om]])[0] - nu.char_fn([[om]])[0]
            return abs(diff) ** 2 / (om**4 * kernel.fourier_kappa0(om))

        # the even integrand tends to a constant at 0 and is below 1e-45 beyond w = 20 (sigma >= 0.5)
        total = 2.0 * sum(quad(quotient, lo, hi, limit=200)[0] for lo, hi in ((1e-6, 1.0), (1.0, 20.0)))
        rhs = (2.0 * np.pi) ** -0.25 * total**0.25 * np.sqrt(mmd_spectral_1d(kernel, mu, nu))
        # |F - G| < 1e-90 beyond |x| = 45 (|c| <= 4, sigma <= 2)
        l2 = np.sqrt(quad(lambda x: float(mu.cdf(x) - nu.cdf(x)) ** 2, -45.0, 45.0, limit=200)[0])
        assert l2 <= rhs * (1.0 + 1e-6), (l2, rhs)
        worst = max(worst, l2 / rhs)
    print(f"criterion 6 companion: worst ||F - G||_L2 / rhs {worst:.3f} over 100 pairs")


def test_criterion_07_modified_and_sliced_identities():
    rng = stream_rng(SEED, 7)
    base1 = KernelSpec.gaussian(1.0, 1)
    theta = sphere_directions(16, 3, seed=SEED % 2**31)
    worst_mod = 0.0
    worst_sl = 0.0
    for _ in range(200):
        n1, n2 = rng.integers(2, 6, size=2)
        mu = _rand_discrete(rng, int(n1), 3)
        nu = _rand_discrete(rng, int(n2), 3)
        base = KernelSpec.gaussian(float(rng.uniform(0.5, 2.0)), 3)
        kmod = KernelSpec.modified(base, 1.0)
        gap = mu.mean() - nu.mean()
        lhs = mmd_discrete(kmod, mu, nu) ** 2
        rhs = mmd_discrete(base, mu, nu) ** 2 + float(gap @ gap)
        worst_mod = max(worst_mod, abs(lhs - rhs))
        ker_sliced = KernelSpec.sliced(base1, theta)
        direct = mmd_discrete(ker_sliced, mu, nu)
        avg = mmd_sliced(base1, theta, mu, nu)
        worst_sl = max(worst_sl, abs(direct - avg))
    ok = worst_mod <= 1e-10 and worst_sl <= 1e-10
    assert _line(7, ok, f"modified gap {worst_mod:.2e}, sliced gap {worst_sl:.2e}")


def test_criterion_08_translation_decomposition():
    rng = stream_rng(SEED, 8)
    worst = 0.0
    for _ in range(200):
        n1, n2 = rng.integers(2, 6, size=2)
        shift = rng.normal(size=2) * 2.0
        mu = _rand_discrete(rng, int(n1), 2)
        nu = DiscreteMeasure(
            rng.normal(size=(int(n2), 2)) + shift, rng.uniform(0.1, 1.0, int(n2))
        )
        centered_sq, gap_sq = translation_split(mu, nu)
        total, _ = w_exact(2, mu, nu)
        worst = max(worst, abs(centered_sq + gap_sq - total**2))
    ok = worst <= 1e-8
    assert _line(8, ok, f"200 pairs, worst decomposition error {worst:.2e}")


@functools.cache
def _w1_rate_1d():
    """Criterion 9's d=1 W1 fit (grid 2^7..2^13, 50 trials), shared with its companion."""

    def u1(n, rng):
        return rng.uniform(0.0, 1.0, size=(n, 1))

    return w_rate(u1, 1, [2**j for j in range(7, 14)], 50, SEED)


def test_criterion_09_convergence_rates():
    """Empirical convergence rates: MMD and W1 slopes against sample size.

    The d=1 target of -1/d = -1 cannot be met: for an absolutely continuous
    measure on the line, E[W1(pi, pi_n)] scales as n^(-1/2) (the CLT rate of
    the CDF difference); n^(-1/d) is only a lower bound, and it matches the
    actual rate solely for d >= 3.  The measured d=1 slope sits at ~-0.48,
    so this check fails by that irreducible margin while the MMD (-1/2) and
    d=3 (-1/3) slopes pass.
    """
    t0 = time.time()
    pi = GaussianMixture([1.0], [[0.0]], [1.0])
    kernel = KernelSpec.gaussian(1.0, 1)
    fit_mmd = mmd_rate(pi, kernel, [2**j for j in range(7, 14)], 50, SEED)

    def u3(n, rng):
        return rng.uniform(0.0, 1.0, size=(n, 3))

    fit_w1 = _w1_rate_1d()
    # d=3 grid capped so the exact assignment solver stays tractable; the
    # n^(-1/3) law is already clean over this range.
    fit_w3 = w_rate(u3, 1, [2**j for j in range(5, 11)], 50, SEED)
    dt = time.time() - t0
    ok = (
        abs(fit_mmd.slope + 0.5) <= 0.05
        and abs(fit_w1.slope + 1.0) <= 0.07
        and abs(fit_w3.slope + 1.0 / 3.0) <= 0.07
        and dt < 600.0
    )
    assert _line(
        9,
        ok,
        f"mmd {fit_mmd.slope:.3f}, w d=1 {fit_w1.slope:.3f}, "
        f"w d=3 {fit_w3.slope:.3f}, {dt:.0f}s",
    )


@pytest.mark.slow
def test_criterion_09_companion_w1_rate_1d():
    """The corrected d=1 statement: E[W1(pi, pi_n)] ~ n^(-1/2) on the line.

    Fournier & Guillin 2015; Bobkov & Ledoux 2019.  Same grid, trials and
    seed as criterion 9, whose literal -1/d target stays pinned and failing;
    the fit is criterion 9's own, computed once.
    """
    fit = _w1_rate_1d()
    assert abs(fit.slope + 0.5) <= 0.05, fit.slope


def test_criterion_10_wasserstein_learnability():
    rng = stream_rng(SEED, 10)
    worst_id = 0.0
    for _ in range(50):
        task = TaskSpec("kmeans", K=3)
        mu = _rand_discrete(rng, 7, 2)
        h = Hypothesis("kmeans", rng.normal(size=(3, 2)))
        push = kmeans_project(h, mu)
        wval, _ = w_exact(2, mu, push)
        worst_id = max(worst_id, abs(risk(task, mu, h) - wval**2))
    viol_reg = 0
    viol_cls = 0
    for _ in range(200):
        n1, n2 = rng.integers(2, 6, size=2)
        reg = TaskSpec("linreg", R=2.0)
        mu = _rand_discrete(rng, int(n1), 3)
        nu = _rand_discrete(rng, int(n2), 3)
        probe = task_metric_probe(reg, mu, nu, 16, rng)
        wv, _ = w_exact(2, mu, nu)
        if probe > task_constant(reg) * wv + 1e-9:
            viol_reg += 1
        cls = TaskSpec("binclass", L=1.5)
        Z1 = np.column_stack([rng.normal(size=(int(n1), 2)), rng.choice([-1.0, 1.0], int(n1))])
        Z2 = np.column_stack([rng.normal(size=(int(n2), 2)), rng.choice([-1.0, 1.0], int(n2))])
        cmu = DiscreteMeasure(Z1, rng.uniform(0.1, 1.0, int(n1)))
        cnu = DiscreteMeasure(Z2, rng.uniform(0.1, 1.0, int(n2)))
        probe_c = task_metric_probe(cls, cmu, cnu, 16, rng)
        wv1, _ = w_exact(1, cmu, cnu)
        if probe_c > task_constant(cls) * wv1 + 1e-9:
            viol_cls += 1
    ok = worst_id <= 1e-9 and viol_reg == 0 and viol_cls == 0
    assert _line(
        10,
        ok,
        f"risk-identity err {worst_id:.2e}, regression viol {viol_reg}, "
        f"classification viol {viol_cls} (probes are lower bounds)",
    )


def test_criterion_11_compressive_kmeans_end_to_end():
    centers = np.array([[10.0, 0.0], [-10.0, 0.0], [0.0, 10.0]])
    task = TaskSpec("kmeans", K=3)
    kernel = KernelSpec.gaussian(5.0, 2)
    ratios = []
    for seed in range(10):
        rng = stream_rng(SEED, 11, seed)
        idx = rng.integers(0, 3, 10_000)
        X = centers[idx] + rng.standard_normal((10_000, 2))
        rep = excess_risk_report(X, task, {"kernel": kernel, "m": 1024, "seed": seed})
        ratios.append(rep.summary["ratio"])
    med = float(np.median(ratios))

    # shard/merge consistency on one dataset
    rng = stream_rng(SEED, 11, 0)
    idx = rng.integers(0, 3, 10_000)
    X = centers[idx] + rng.standard_normal((10_000, 2))
    F = draw_features(kernel, 1024, 0)
    whole = sketch_samples(F, X)
    shards = [sketch_samples(F, X[i::4]) for i in range(4)]
    gap = float(np.max(np.abs(merge(shards).values - whole.values)))
    ok = med <= 1.2 and gap <= 1e-12
    assert _line(11, ok, f"median risk ratio {med:.4f} over 10 seeds, merge gap {gap:.2e}")


def test_criterion_12_sketch_lipschitz_necessity():
    rng = stream_rng(SEED, 12)
    kernel = KernelSpec.gaussian(1.0, 2)
    F = draw_features(kernel, 64, 17)
    L = rkhs_lipschitz(F)
    violations = 0
    worst = -np.inf
    for _ in range(200):
        n1, n2 = rng.integers(2, 6, size=2)
        mu = _rand_discrete(rng, int(n1), 2)
        nu = _rand_discrete(rng, int(n2), 2)
        dist = sketch_distance(sketch_measure(F, mu), sketch_measure(F, nu))
        w, _ = w_exact(1, mu, nu)
        margin = dist - L * w
        worst = max(worst, margin)
        if margin > 1e-9:
            violations += 1
    ok = violations == 0
    assert _line(12, ok, f"200 pairs, violations {violations}, worst margin {worst:.2e}")


def test_criterion_13_smoothing_chain():
    rng = stream_rng(SEED, 13)
    sigmas = (0.1, 0.2, 0.4)
    all_hold = True
    errs = None
    for _ in range(10):
        mu = _uniform(rng.uniform(-1, 1, size=(8, 3)) / np.sqrt(3))
        nu = _uniform(rng.uniform(-1, 1, size=(8, 3)) / np.sqrt(3))
        errs = []
        for sg in sigmas:
            rep = lab.smoothing_bound(RegularizerSpec(sg), 1, mu, nu, 4, 4.0)
            all_hold &= rep.passed
            errs.append({row[0]: row[1] for row in rep.rows}["rhs_error_rbf"])
    linear = all(
        abs(errs[i] / errs[0] - sigmas[i] / sigmas[0]) <= 0.05 * sigmas[i] / sigmas[0]
        for i in range(len(sigmas))
    )
    ok = all_hold and linear
    assert _line(13, ok, f"bounds hold: {all_hold}, error/sigma linearity: {linear}")


def test_criterion_13_companion_true_unit_ball_volume():
    """Criterion 13's bound with the unit-ball volume pi^(d/2) / Gamma(d/2 + 1).

    `lab.smoothing_constant` takes V_d literally as pi^(d/2) * Gamma(d/2 + 1),
    which criterion 13 keeps.  The true volume rescales the main term by
    (V_true / V_literal)^((s-p)/((d+2s)p)), 0.856 at d=3, s=4, p=1; the bound
    still holds on criterion 13's own 30 cases (the same draws in the same
    order), and the worst margins of both constants are printed.
    """
    rng = stream_rng(SEED, 13)
    d, s, p = 3, 4, 1
    factor = (math.gamma(d / 2 + 1) ** -2) ** ((s - p) / ((d + 2 * s) * p))  # V_true / V_literal = Gamma^-2
    worst_true = worst_literal = np.inf
    for _ in range(10):
        mu = _uniform(rng.uniform(-1, 1, size=(8, d)) / np.sqrt(3))
        nu = _uniform(rng.uniform(-1, 1, size=(8, d)) / np.sqrt(3))
        for sg in (0.1, 0.2, 0.4):
            rows = dict(lab.smoothing_bound(RegularizerSpec(sg), p, mu, nu, s, 4.0).rows)
            rhs = factor * rows["rhs_main"] + rows["rhs_error"]
            assert rows["w_p"] <= rhs * (1.0 + 1e-9), (rows, rhs)
            worst_true = min(worst_true, rhs - rows["w_p"])
            worst_literal = min(worst_literal, rows["rhs"] - rows["w_p"])
    print(f"criterion 13 companion: worst margin {worst_true:.2f} with the true volume, "
          f"{worst_literal:.2f} with the literal one")
