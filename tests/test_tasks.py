import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from wmmd.measures import DiscreteMeasure, stream_rng
from wmmd.kernels import KernelSpec
from wmmd.sketch import _cos_sin, draw_features, sketch_measure, sketch_samples
from wmmd.transport import w_exact
from wmmd.tasks import (
    TaskSpec,
    Hypothesis,
    risk,
    kmeans_project,
    task_metric_probe,
    task_constant,
    decode_diracs,
    lloyd,
    excess_risk_report,
    _ascend_atom,
    _atom_objective_grad,
)


def _uniform(points):
    points = np.atleast_2d(np.asarray(points, float))
    return DiscreteMeasure(points, np.full(points.shape[0], 1.0 / points.shape[0]))


def test_task_spec_exponents():
    assert TaskSpec("kmeans", K=3).p == 2
    assert TaskSpec("kmedians", K=3).p == 1
    assert TaskSpec("linreg", R=1.0).p == 2
    assert TaskSpec("binclass", L=2.0).p == 1
    with pytest.raises(ValueError):
        TaskSpec("kmeans", K=0)
    with pytest.raises(ValueError):
        TaskSpec("pca", K=1)
    with pytest.raises(ValueError, match="unknown task variant 'multireg'"):
        TaskSpec("multireg", R=1.0, K_out=2)


def test_kmeans_risk_hand_example():
    # atoms {0, 1, 10}, centroids (0, 10): losses 0, 1, 0 -> mean 1/3
    task = TaskSpec("kmeans", K=2)
    mu = _uniform([[0.0], [1.0], [10.0]])
    h = Hypothesis("kmeans", np.array([[0.0], [10.0]]))
    assert risk(task, mu, h) == pytest.approx(1.0 / 3.0, rel=1e-14)


def test_risk_zero_when_centroids_cover_support():
    task = TaskSpec("kmeans", K=3)
    pts = stream_rng(1).standard_normal((3, 2))
    mu = _uniform(pts)
    assert risk(task, mu, Hypothesis("kmeans", pts)) == pytest.approx(0.0, abs=1e-12)


def test_linreg_risk_at_zero_weights():
    task = TaskSpec("linreg", R=1.0)
    data = np.array([[1.0, 2.0], [0.5, -1.0]])  # (z, y) rows
    mu = _uniform(data)
    h = Hypothesis("linreg", np.zeros(1))
    assert risk(task, mu, h) == pytest.approx(np.mean(data[:, 1] ** 2), rel=1e-14)


def test_hypothesis_constraints_enforced():
    task = TaskSpec("linreg", R=1.0)
    with pytest.raises(ValueError):
        risk(task, _uniform([[0.0, 0.0]]), Hypothesis("linreg", np.array([2.0])))
    taskc = TaskSpec("binclass", L=0.5)
    with pytest.raises(ValueError):
        risk(taskc, _uniform([[0.0, 1.0]]), Hypothesis("binclass", (np.array([2.0]), 0.0)))


def test_kmeans_project_hand_example():
    mu = _uniform([[0.0], [1.0], [10.0]])
    h = Hypothesis("kmeans", np.array([[0.0], [10.0]]))
    push = kmeans_project(h, mu)
    assert np.allclose(sorted(push.points[:, 0]), [0.0, 10.0])
    w = dict(zip(push.points[:, 0], push.weights))
    assert w[0.0] == pytest.approx(2.0 / 3.0)
    assert w[10.0] == pytest.approx(1.0 / 3.0)


def test_kmeans_project_tie_goes_to_lowest_index():
    mu = _uniform([[1.0]])
    h = Hypothesis("kmeans", np.array([[0.0], [2.0]]))  # equidistant
    push = kmeans_project(h, mu)
    assert push.points[0, 0] == 0.0


@pytest.mark.parametrize("d", [1, 3])
def test_centroids_of_another_dimension_are_refused(d):
    mu = _uniform(np.arange(8.0).reshape(4, 2))
    h = Hypothesis("kmeans", np.ones((3, d)))
    with pytest.raises(ValueError, match="dimension mismatch"):
        kmeans_project(h, mu)
    with pytest.raises(ValueError, match="dimension mismatch"):
        risk(TaskSpec("kmeans", K=3), mu, h)


def test_risk_equals_transport_to_pushforward():
    """Compression-task identity: risk = W_p^p(mu, P_h # mu)."""
    rng = stream_rng(12)
    for variant, p in (("kmeans", 2), ("kmedians", 1)):
        task = TaskSpec(variant, K=3)
        mu = DiscreteMeasure(rng.normal(size=(7, 2)), rng.uniform(0.1, 1, 7))
        h = Hypothesis(variant, rng.normal(size=(3, 2)))
        push = kmeans_project(h, mu)
        wval, _ = w_exact(p, mu, push)
        assert risk(task, mu, h) == pytest.approx(wval**p, abs=1e-9)


def test_probe_zero_on_identical():
    task = TaskSpec("kmeans", K=2)
    mu = _uniform(stream_rng(2).standard_normal((5, 2)))
    assert task_metric_probe(task, mu, mu, 16, stream_rng(3)) == 0.0


@pytest.mark.parametrize(
    "variant,kwargs",
    [
        ("kmeans", {"K": 2}),
        ("kmedians", {"K": 2}),
        ("linreg", {"R": 2.0}),
        ("binclass", {"L": 1.5}),
    ],
)
def test_probe_bounded_by_task_constant_times_w(variant, kwargs):
    rng = stream_rng(14)
    task = TaskSpec(variant, **kwargs)
    for _ in range(5):
        mu = DiscreteMeasure(rng.normal(size=(5, 3)), rng.uniform(0.1, 1, 5))
        nu = DiscreteMeasure(rng.normal(size=(4, 3)), rng.uniform(0.1, 1, 4))
        probe = task_metric_probe(task, mu, nu, 20, rng)
        wval, _ = w_exact(task.p, mu, nu)
        assert probe <= task_constant(task) * wval + 1e-9


def test_task_constants():
    assert task_constant(TaskSpec("kmeans", K=1)) == 1.0
    assert task_constant(TaskSpec("linreg", R=3.0)) == pytest.approx(np.sqrt(10.0))
    assert task_constant(TaskSpec("binclass", L=0.3)) == 1.0
    assert task_constant(TaskSpec("binclass", L=4.0)) == 4.0


class TestDecoder:
    kernel = KernelSpec.gaussian(2.0, 2)

    def test_single_dirac_recovery(self):
        F = draw_features(self.kernel, 64, 3)
        c = np.array([1.25, -0.5])
        s = sketch_measure(F, DiscreteMeasure(c[None, :], [1.0]))
        dec = decode_diracs(s, 1, (np.zeros(2), 5.0), {"seed": 0})
        assert np.linalg.norm(dec.points[0] - c) < 1e-3

    def test_two_dirac_recovery(self):
        F = draw_features(self.kernel, 128, 4)
        pts = np.array([[4.0, 0.0], [-4.0, 1.0]])
        s = sketch_measure(F, _uniform(pts))
        dec = decode_diracs(s, 2, (np.zeros(2), 8.0), {"seed": 1})
        # match decoded atoms to the truth
        order = np.argsort(dec.points[:, 0])
        got = dec.points[order]
        assert np.linalg.norm(got[0] - pts[1]) < 1e-2
        assert np.linalg.norm(got[1] - pts[0]) < 1e-2
        assert np.allclose(dec.weights, 0.5, atol=1e-2)

    def test_residual_monotone_in_k(self):
        from wmmd.sketch import sketch_distance

        F = draw_features(self.kernel, 64, 5)
        pts = np.array([[3.0, 0.0], [-3.0, 0.0]])
        s = sketch_measure(F, _uniform(pts))

        def resid(K):
            dec = decode_diracs(s, K, (np.zeros(2), 6.0), {"seed": 2})
            return sketch_distance(sketch_measure(F, dec), s)

        assert resid(3) <= resid(2) + 1e-9

    def test_deterministic_given_seed(self):
        F = draw_features(self.kernel, 32, 6)
        s = sketch_measure(F, _uniform([[1.0, 1.0]]))
        a = decode_diracs(s, 1, (np.zeros(2), 4.0), {"seed": 9})
        b = decode_diracs(s, 1, (np.zeros(2), 4.0), {"seed": 9})
        assert np.array_equal(a.points, b.points)

    def test_bad_inputs(self):
        F = draw_features(self.kernel, 16, 0)
        s = sketch_measure(F, _uniform([[0.0, 0.0]]))
        with pytest.raises(ValueError):
            decode_diracs(s, 0, (np.zeros(2), 1.0))
        with pytest.raises(ValueError):
            decode_diracs(s, 1, (np.zeros(2), 0.0))

    @pytest.mark.parametrize("n_starts", [0, -3])
    def test_no_starts_is_refused_by_name(self, n_starts):
        F = draw_features(self.kernel, 64, 0)
        s = sketch_samples(F, stream_rng(53).standard_normal((200, 2)))
        with pytest.raises(ValueError, match="n_starts"):
            decode_diracs(s, 2, (np.zeros(2), 3.0), {"n_starts": n_starts})


def test_atom_objective_grad_matches_complex_formula_and_differences():
    def complex_objective_grad(F, r, theta):
        e = np.exp(-1j * (F.omega @ theta)) / np.sqrt(F.m)
        prod = np.conj(r) * e
        return float(np.sum(prod.real)), F.omega.T @ prod.imag

    F = draw_features(KernelSpec.gaussian(3.0, 2), 1024, 12)
    rng = stream_rng(31)
    h = 1e-6
    work = np.empty((3, 6, F.m))  # one spare row: calls may use a prefix
    for _ in range(20):
        r = (rng.standard_normal(F.m) + 1j * rng.standard_normal(F.m)) / np.sqrt(F.m)
        theta = rng.uniform(-60.0, 60.0, 2)
        # one row form call: theta, then its central-difference neighbours
        rows = np.vstack([theta, theta + h * np.eye(2), theta - h * np.eye(2)])
        f, g = _atom_objective_grad(F, r, rows, work)
        assert f.shape == (5,) and g.shape == (5, 2)
        f_ref, g_ref = complex_objective_grad(F, r, theta)
        assert abs(f[0] - f_ref) <= 1e-14 * np.sum(np.abs(r))
        assert np.max(np.abs(g[0] - g_ref)) <= 1e-14 * np.sum(np.abs(r) * np.abs(F.omega).sum(axis=1))
        fd = (f[1:3] - f[3:5]) / (2 * h)
        assert np.allclose(g[0], fd, rtol=1e-6, atol=1e-7 * np.linalg.norm(g_ref) + 1e-9)


def _per_start_ascent(F, r, theta0, center, radius, iters):
    """The decoder's ascent as one start at a time, kept as the batch's reference."""

    def objective_grad(theta):
        c, s = _cos_sin(F.half_omega @ theta)
        s = 2.0 * s
        a, b = r.real, r.imag
        scale = 1.0 / np.sqrt(F.m)
        return float(a @ c - b @ s) * scale, ((a * s + b * c) @ F.omega) * -scale

    def clamp(theta):
        v = theta - center
        nv = np.linalg.norm(v)
        return center + v * (radius / nv) if nv > radius else theta

    theta = clamp(np.array(theta0, float))
    f, g = objective_grad(theta)
    sgn = 1.0 if f >= 0 else -1.0
    step = radius / 4.0
    val = sgn * f
    for _ in range(iters):
        cand = clamp(theta + step * sgn * g)
        fc, gc = objective_grad(cand)
        if sgn * fc > val:
            theta, val, g = cand, sgn * fc, gc
            step *= 1.5
        else:
            step /= 2.0
            if step < 1e-12 * radius:
                break
    return theta, val


@pytest.mark.parametrize("d", [2, 3])
def test_batched_ascent_matches_per_start_loop(d):
    """Every start of the batch ends where it ends alone, and the best one wins."""
    m, n_starts, iters = 256, 16, 200
    F = draw_features(KernelSpec.gaussian(2.0, d), m, 50 + d)
    center, radius = np.zeros(d), 12.0
    rng = stream_rng(51, d)
    for case in range(20):
        # residuals of partly decoded mixtures: a sketch minus its first k atoms
        pts = rng.uniform(-8.0, 8.0, size=(3, d))
        wts = rng.uniform(0.2, 1.0, 3)
        k = case % 3
        r = sketch_measure(F, DiscreteMeasure(pts, wts)).values - (wts[:k] / wts.sum()) @ F.phi(pts[:k])
        starts = center + rng.uniform(-1, 1, size=(n_starts, d)) * radius / np.sqrt(d)
        # every third case starts some atoms outside the ball, so the clamp acts
        if case % 3 == 2:
            starts[::2] *= 2.0
        thetas, vals = _ascend_atom(F, r, starts, center, radius, iters)
        ref = [_per_start_ascent(F, r, th0, center, radius, iters) for th0 in starts]
        ref_thetas = np.array([t for t, _ in ref])
        ref_vals = np.array([v for _, v in ref])
        assert np.all(np.abs(vals - ref_vals) <= 1e-12 * np.abs(ref_vals))
        assert np.max(np.linalg.norm(thetas - ref_thetas, axis=1)) <= 1e-6 * radius
        assert np.all(np.linalg.norm(thetas - center, axis=1) <= radius * (1 + 1e-12))
        # Several starts often climb to one maximum, and their values then tie
        # to round-off; the winner must be one of those, with the same atom.
        best, best_ref = int(np.argmax(vals)), int(np.argmax(ref_vals))
        assert ref_vals[best] >= ref_vals[best_ref] * (1 - 1e-12)
        assert np.linalg.norm(thetas[best] - ref_thetas[best_ref]) <= 1e-6 * radius


def test_lloyd_separated_clusters():
    rng = stream_rng(21)
    centers = np.array([[0.0, 0.0], [20.0, 0.0]])
    X = np.vstack([c + 0.1 * rng.standard_normal((30, 2)) for c in centers])
    mu = _uniform(X)
    h = lloyd(mu, 2, 4, stream_rng(22))
    got = h.payload[np.argsort(h.payload[:, 0])]
    assert np.linalg.norm(got - centers) < 0.5


def test_lloyd_rejects_k_above_support():
    mu = _uniform([[0.0, 0.0], [1.0, 1.0]])
    with pytest.raises(ValueError):
        lloyd(mu, 3, 1, stream_rng(0))


@given(
    st.integers(1, 3).flatmap(lambda d: st.lists(
        st.lists(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5]) | st.floats(-1e3, 1e3), min_size=d, max_size=d),
        min_size=1, max_size=40)),
    st.integers(-2, 2),
)
@example([[0.0, 1.0], [-0.0, 1.0]], 1)
@settings(max_examples=200, deadline=None)
def test_lloyd_refuses_k_exactly_when_np_unique_has_fewer_rows(rows, offset):
    """Duplicates and signed zeros count as np.unique counts them: 0.0 and -0.0 are one value."""
    X = np.array(rows)
    K = max(1, np.unique(X, axis=0).shape[0] + offset)
    mu = DiscreteMeasure(X, np.ones(X.shape[0]))
    if K > np.unique(X, axis=0).shape[0]:
        with pytest.raises(ValueError, match="distinct atoms"):
            lloyd(mu, K, 1, stream_rng(0))
    else:
        assert lloyd(mu, K, 1, stream_rng(0)).payload.shape == (K, X.shape[1])


def test_excess_risk_report_smoke():
    rng = stream_rng(30)
    centers = np.array([[6.0, 0.0], [-6.0, 0.0]])
    X = np.vstack([c + 0.3 * rng.standard_normal((100, 2)) for c in centers])
    task = TaskSpec("kmeans", K=2)
    rep = excess_risk_report(
        X, task, {"kernel": KernelSpec.gaussian(3.0, 2), "m": 128, "seed": 0}
    )
    assert rep.summary["ratio"] <= 1.2
    assert rep.passed


def test_excess_risk_report_exact_atoms():
    # data with exactly K distinct points: both risks vanish
    X = np.array([[5.0, 0.0], [-5.0, 0.0]] * 20)
    task = TaskSpec("kmeans", K=2)
    rep = excess_risk_report(
        X, task, {"kernel": KernelSpec.gaussian(3.0, 2), "m": 128, "seed": 1}
    )
    assert rep.summary["risk_lloyd"] == pytest.approx(0.0, abs=1e-12)
    assert rep.summary["risk_sketch"] == pytest.approx(0.0, abs=1e-4)
