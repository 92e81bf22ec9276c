import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from wmmd import measures
from wmmd.measures import (
    DiscreteMeasure,
    GaussianMixture,
    RegularizerSpec,
    project,
    smooth,
    gmm_quantile,
    gmm_quantiles,
    sample,
    stream_rng,
    load_dataset,
    save_dataset,
)


def test_weights_normalize():
    m = DiscreteMeasure([[0.0], [1.0]], [2.0, 6.0])
    assert np.allclose(m.weights, [0.25, 0.75])
    assert m.weights.sum() == pytest.approx(1.0, abs=1e-12)


def test_negative_weight_rejected():
    with pytest.raises(ValueError, match="NegativeWeight"):
        DiscreteMeasure([[0.0], [1.0]], [0.5, -0.1])


def test_zero_total_mass_rejected():
    with pytest.raises(ValueError):
        DiscreteMeasure([[0.0]], [0.0])


def test_immutability():
    m = DiscreteMeasure([[1.0, 2.0]], [1.0])
    with pytest.raises(ValueError):
        m.points[0, 0] = 5.0


def test_mean_and_moment():
    m = DiscreteMeasure([[0.0], [2.0]], [0.5, 0.5])
    assert m.mean()[0] == pytest.approx(1.0)
    assert m.moment_s(2) == pytest.approx(2.0)  # 0.5*0 + 0.5*4
    assert m.centered().mean()[0] == pytest.approx(0.0, abs=1e-15)


@given(
    st.lists(st.floats(-10, 10), min_size=1, max_size=6),
    st.lists(st.floats(0.01, 5.0), min_size=1, max_size=6),
)
@settings(max_examples=40, deadline=None)
def test_discrete_measure_always_normalized(xs, ws):
    k = min(len(xs), len(ws))
    m = DiscreteMeasure(np.array(xs[:k])[:, None], np.array(ws[:k]))
    assert abs(m.weights.sum() - 1.0) <= 1e-12
    assert np.all(m.weights >= 0)


def test_project_requires_unit_direction():
    m = DiscreteMeasure([[1.0, 0.0]], [1.0])
    with pytest.raises(ValueError):
        project(m, [2.0, 0.0])
    p = project(m, [0.0, 1.0])
    assert p.d == 1 and p.points[0, 0] == 0.0


class TestGaussianMixture:
    def test_cdf_standard_normal(self):
        g = GaussianMixture([1.0], [[0.0]], [1.0])
        assert float(g.cdf(np.array(0.0))) == pytest.approx(0.5, abs=1e-12)
        # Phi(1.96) from tables
        assert float(g.cdf(np.array(1.959964))) == pytest.approx(0.975, abs=1e-6)

    def test_char_fn_single_gaussian(self):
        g = GaussianMixture([1.0], [[1.5]], [2.0])
        om = np.array([[0.7]])
        expect = np.exp(-1j * 0.7 * 1.5 - 0.5 * 0.7**2 * 4.0)
        assert g.char_fn(om)[0] == pytest.approx(expect, abs=1e-14)

    def test_quantile_roundtrip(self):
        g = GaussianMixture([0.3, 0.7], [[-1.0], [2.0]], [0.5, 1.5])
        for q in (0.05, 0.3, 0.5, 0.9):
            x = gmm_quantile(g, q)
            assert float(g.cdf(np.array(x))) == pytest.approx(q, abs=1e-10)

    def test_quantiles_vectorized_matches_scalar(self):
        g = GaussianMixture([0.5, 0.5], [[0.0], [3.0]], [1.0, 0.5])
        qs = np.array([0.1, 0.25, 0.5, 0.75, 0.99])
        xs = gmm_quantiles(g, qs)
        for q, x in zip(qs, xs):
            assert x == pytest.approx(gmm_quantile(g, q), abs=1e-9)

    def test_pdf_matches_cdf_slope(self):
        g = GaussianMixture([0.2, 0.8], [[-1.0], [0.5]], [0.3, 2.0])
        x = np.linspace(-4.0, 5.0, 37)
        h = 1e-5
        slope = (g.cdf(x + h) - g.cdf(x - h)) / (2 * h)
        assert np.allclose(g.pdf(x), slope, rtol=1e-8, atol=1e-12)
        assert float(g.pdf(np.array(0.5))) == pytest.approx(
            0.2 * np.exp(-0.5 * (1.5 / 0.3) ** 2) / (0.3 * np.sqrt(2 * np.pi))
            + 0.8 / (2.0 * np.sqrt(2 * np.pi)),
            rel=1e-14,
        )

    def test_quantiles_reject_levels_outside_unit_interval(self):
        g = GaussianMixture([1.0], [[0.0]], [1.0])
        for bad in (0.0, 1.0, -0.5, np.nan):
            with pytest.raises(ValueError):
                gmm_quantiles(g, [0.5, bad])
        assert gmm_quantiles(g, np.empty((0,))).shape == (0,)
        assert gmm_quantiles(g, np.full((2, 3), 0.5)).shape == (2, 3)

    def test_iteration_cap_raises(self, monkeypatch):
        g = GaussianMixture([0.3, 0.7], [[-1.0], [2.0]], [0.5, 1.5])
        monkeypatch.setattr(measures, "_NEWTON_CAP", 1)
        with pytest.raises(RuntimeError, match="did not converge"):
            gmm_quantiles(g, (np.arange(64) + 0.5) / 64)

    def test_moment_1d_matches_closed_form(self):
        # E|X|^2 for N(mu, s^2) is mu^2 + s^2
        g = GaussianMixture([1.0], [[1.0]], [2.0])
        assert g.moment_s(2) == pytest.approx(5.0, rel=1e-8)

    def test_moment_needs_1d(self):
        g = GaussianMixture([1.0], [[0.0, 1.0]], [1.0])
        with pytest.raises(ValueError, match="d=1 only"):
            g.moment_s(2)

    def test_sigma_must_be_positive(self):
        with pytest.raises(ValueError):
            GaussianMixture([1.0], [[0.0]], [0.0])


def _bisection_quantiles(g, qs):
    """The 53-step batch bisection that `gmm_quantiles` replaced."""
    qs = np.asarray(qs, dtype=float)
    span = 12.0 * float(np.max(g.sigmas)) + float(np.max(np.abs(g.means)))
    lo = np.full(qs.shape, -span)
    hi = np.full(qs.shape, span)
    while np.any(g.cdf(lo) > qs):
        lo[g.cdf(lo) > qs] *= 2.0
    while np.any(g.cdf(hi) < qs):
        hi[g.cdf(hi) < qs] *= 2.0
    for _ in range(53):
        mid = 0.5 * (lo + hi)
        below = g.cdf(mid) < qs
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


_component = st.tuples(
    st.floats(1e-6, 1.0), st.floats(-1e3, 1e3), st.floats(1e-4, 10.0)
)


@given(
    st.lists(_component, min_size=1, max_size=4),
    st.lists(st.floats(1e-12, 1.0 - 1e-9), max_size=40),
)
@example([(0.5, -50.0, 1.0), (0.5, 50.0, 1.0)], [0.5])
@example([(1e-6, 1e3, 1e-4), (1.0, -1e3, 10.0)], [1e-6 / (1 + 1e-6), 0.75])
@settings(max_examples=60, deadline=None)
def test_quantiles_match_bisection(components, levels):
    w, c, s = (np.array(v) for v in zip(*components))
    g = GaussianMixture(w, c[:, None], s)
    qs = np.array(levels + [1e-12, 0.5, 1.0 - 1e-9])
    x = gmm_quantiles(g, qs)
    ref = _bisection_quantiles(g, qs)
    eps = np.finfo(float).eps
    # Where F is steep the quantile is well defined and both must agree.
    steep = g.pdf(ref) >= 1e-3
    assert np.all(np.abs(x - ref)[steep] <= 1e-12 * np.maximum(1.0, np.abs(ref[steep])))
    # Plateaus of F admit many quantiles; the residual must still be as small.
    assert np.all(np.abs(g.cdf(x) - qs) <= np.abs(g.cdf(ref) - qs) + 4 * eps)


def test_regularizer_moment_closed_form():
    # d=1, p=2: E|Z|^2 = sigma^2
    a = RegularizerSpec(0.7)
    assert a.moment_p(2, 1) == pytest.approx(0.49, rel=1e-12)
    # d=3, p=2: trace of covariance = 3 sigma^2
    assert a.moment_p(2, 3) == pytest.approx(3 * 0.49, rel=1e-12)


def test_regularizer_rejects_other_families():
    with pytest.raises(ValueError):
        RegularizerSpec(1.0, family="Uniform")


def test_smooth_builds_mixture():
    m = DiscreteMeasure([[0.0], [1.0]], [0.5, 0.5])
    g = smooth(m, RegularizerSpec(0.3))
    assert isinstance(g, GaussianMixture)
    assert g.K == 2
    assert np.all(g.sigmas == 0.3)


class TestStreams:
    """The (seed, stream) contract: reproducible, order-independent draws."""

    def test_same_stream_same_draws(self):
        a = stream_rng(42, 1, 2).standard_normal(8)
        b = stream_rng(42, 1, 2).standard_normal(8)
        assert np.array_equal(a, b)

    def test_different_streams_differ(self):
        a = stream_rng(42, 1).standard_normal(8)
        b = stream_rng(42, 2).standard_normal(8)
        assert not np.array_equal(a, b)

    def test_streams_do_not_overlap(self):
        # adjacent stream ids must not share counter blocks even after long draws
        a = stream_rng(7, 0).standard_normal(100_000)
        b = stream_rng(7, 1).standard_normal(100_000)
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.02

    def test_seeds_and_ids_of_2_63_and_above_key_distinct_streams(self):
        seeds = [0, 2**63, 2**63 + 1, 2**63 + 2, 2**64 - 1]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            by_seed = [stream_rng(s).integers(2**63, size=4).tolist() for s in seeds]
            by_id = [stream_rng(3, s).integers(2**63, size=4).tolist() for s in seeds]
            by_last_id = [stream_rng(3, 1, 2, s).integers(2**63, size=4).tolist() for s in seeds]
        for draws in (by_seed, by_id, by_last_id):
            assert len({tuple(x) for x in draws}) == len(seeds)
        # -1 is 2^64 - 1 modulo 2^64, not 0
        assert stream_rng(-1).integers(2**63, size=4).tolist() == by_seed[-1]

    def test_too_many_levels(self):
        with pytest.raises(ValueError):
            stream_rng(0, 1, 2, 3, 4)

    def test_sample_accepts_tuple(self):
        g = GaussianMixture([1.0], [[0.0]], [1.0])
        s1 = sample(g, 16, (5, 1))
        s2 = sample(g, 16, stream_rng(5, 1))
        assert np.array_equal(s1.points, s2.points)


def test_sample_mixture_component_frequencies():
    g = GaussianMixture([0.25, 0.75], [[-100.0], [100.0]], [1.0, 1.0])
    s = sample(g, 4000, (0, 9))
    frac = np.mean(s.points[:, 0] > 0)
    assert abs(frac - 0.75) < 0.03


def test_dataset_roundtrip_csv(tmp_path):
    X = np.array([[0.5, -1.25], [3.0, 4.5]])
    p = tmp_path / "data.csv"
    save_dataset(p, X)
    assert np.array_equal(load_dataset(p), X)


def test_dataset_roundtrip_binary(tmp_path):
    rng = stream_rng(3)
    X = rng.standard_normal((17, 5))
    p = tmp_path / "data.bin"
    save_dataset(p, X, binary=True)
    assert np.array_equal(load_dataset(p), X)  # bit-exact


def test_dataset_csv_with_header(tmp_path):
    p = tmp_path / "h.csv"
    p.write_text("x0,x1\n1.0,2.0\n3.0,4.0\n")
    assert np.array_equal(load_dataset(p), [[1.0, 2.0], [3.0, 4.0]])


@pytest.mark.parametrize("body", ["", "x0\n", "x0,x1\n\n", "x0\n# no rows\n"])
def test_dataset_without_rows_rejected_quietly(tmp_path, body):
    p = tmp_path / "h.csv"
    p.write_text(body)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="no data rows"):
            load_dataset(p)


def test_truncated_binary_rejected(tmp_path):
    p = tmp_path / "bad.bin"
    save_dataset(p, np.zeros((4, 2)), binary=True)
    raw = p.read_bytes()
    p.write_bytes(raw[:-8])
    with pytest.raises(ValueError):
        load_dataset(p)
