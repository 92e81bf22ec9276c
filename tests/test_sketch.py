import contextlib
import json
import multiprocessing
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wmmd import measures
from wmmd.measures import DiscreteMeasure, GaussianMixture, RegularizerSpec, stream_rng
from wmmd.kernels import KernelSpec, kernel_to_dict
from wmmd.sketch import (
    _BLOCK_ENTRIES,
    _cos_sin,
    draw_features,
    sketch_samples,
    sketch_measure,
    merge,
    sketch_distance,
    rkhs_lipschitz,
    save_sketch,
    load_sketch,
)

K2 = KernelSpec.gaussian(1.0, 2)


def test_draw_features_deterministic():
    a = draw_features(K2, 64, 5)
    b = draw_features(K2, 64, 5)
    assert np.array_equal(a.omega, b.omega)


@pytest.mark.parametrize(
    "kernel",
    [
        KernelSpec.gaussian(1.5, 2),
        KernelSpec.conv_root(RegularizerSpec(0.7), 3),
        KernelSpec.laplacian(2.0, 2),
        KernelSpec.matern(1.5, 1.0, 3),
    ],
    ids=["gaussian", "conv_root", "laplacian", "matern"],
)
@pytest.mark.parametrize("seed", [5, 2**64 - 1])
def test_draw_features_matches_a_fresh_generator_per_frequency(kernel, seed):
    """The one restarted generator draws what one Philox per frequency drew."""

    def fresh_per_frequency(kernel, m, seed):
        key = np.array([seed, 0], dtype=np.uint64)
        rows = []
        for j in range(m):
            rng = np.random.Generator(np.random.Philox(key=key, counter=[0, j, 0, 0]))
            rows.append(kernel.spectral_sample(1, rng)[0])
        return np.array(rows)

    got = draw_features(kernel, 97, seed).omega
    assert np.array_equal(got, fresh_per_frequency(kernel, 97, seed))


def test_draw_features_prefix_stable():
    # growing m must extend, not reshuffle, the frequency matrix
    small = draw_features(K2, 32, 5)
    big = draw_features(K2, 128, 5)
    assert np.array_equal(big.omega[:32], small.omega)


def test_phi_modulus():
    F = draw_features(K2, 16, 0)
    X = stream_rng(2).standard_normal((10, 2))
    P = F.phi(X)
    assert np.allclose(np.abs(P), 1.0 / 4.0, atol=1e-14)  # 1/sqrt(16)


def test_sketch_modulus_bound():
    F = draw_features(K2, 32, 0)
    X = stream_rng(3).standard_normal((50, 2))
    s = sketch_samples(F, X)
    assert np.all(np.abs(s.values) <= 1.0 / np.sqrt(32) + 1e-14)


def test_sketch_linearity():
    F = draw_features(K2, 32, 1)
    rng = stream_rng(4)
    X, Y = rng.standard_normal((8, 2)), rng.standard_normal((12, 2))
    sx = sketch_samples(F, X)
    sy = sketch_samples(F, Y)
    whole = sketch_samples(F, np.vstack([X, Y]))
    lin = (8 * sx.values + 12 * sy.values) / 20
    assert np.allclose(lin, whole.values, atol=1e-12)


def test_sketch_measure_discrete_matches_samples():
    F = draw_features(K2, 32, 1)
    X = stream_rng(5).standard_normal((9, 2))
    emp = DiscreteMeasure(X, np.full(9, 1 / 9))
    assert np.allclose(
        sketch_measure(F, emp).values, sketch_samples(F, X).values, atol=1e-13
    )


def test_sketch_measure_gmm_char_fn():
    F = draw_features(K2, 16, 2)
    g = GaussianMixture([1.0], [[0.0, 0.0]], [1.0])
    s = sketch_measure(F, g)
    expect = np.exp(-0.5 * np.sum(F.omega**2, axis=1)) / np.sqrt(16)
    assert np.allclose(s.values, expect, atol=1e-13)


class TestMerge:
    def test_two_halves(self):
        F = draw_features(K2, 32, 7)
        rng = stream_rng(6)
        X = rng.standard_normal((40, 2))
        s1 = sketch_samples(F, X[:15])
        s2 = sketch_samples(F, X[15:])
        m = merge([s1, s2])
        whole = sketch_samples(F, X)
        assert np.max(np.abs(m.values - whole.values)) <= 1e-12
        assert m.n_samples == 40

    def test_order_independent(self):
        F = draw_features(K2, 16, 7)
        rng = stream_rng(7)
        parts = [sketch_samples(F, rng.standard_normal((n, 2))) for n in (5, 9, 3)]
        a = merge(parts)
        b = merge(parts[::-1])
        assert np.max(np.abs(a.values - b.values)) <= 1e-12

    def test_mismatched_maps_rejected(self):
        Fa = draw_features(K2, 16, 1)
        Fb = draw_features(K2, 16, 2)
        X = stream_rng(8).standard_normal((4, 2))
        with pytest.raises(ValueError):
            merge([sketch_samples(Fa, X), sketch_samples(Fb, X)])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            merge([])


@given(st.lists(st.integers(1, 40), min_size=3, max_size=3), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_merge_is_associative(sizes, seed):
    """Shards merged in either grouping, all at once, or sketched as one set agree to ~1e-15."""
    F = draw_features(K2, 32, 7)
    rng = stream_rng(seed)
    X = [rng.standard_normal((n, 2)) for n in sizes]
    a, b, c = (sketch_samples(F, x) for x in X)
    flat = merge([a, b, c])
    for s in (merge([merge([a, b]), c]), merge([a, merge([b, c])]), sketch_samples(F, np.vstack(X))):
        assert np.max(np.abs(s.values - flat.values)) <= 1e-15
        assert s.n_samples == flat.n_samples
        assert np.array_equal(s.lo, flat.lo) and np.array_equal(s.hi, flat.hi)


def test_sketch_distance_empirical_kernel_identity():
    """||A(mu) - A(nu)||_2 equals the MMD under the empirical feature kernel."""
    from wmmd.discrepancy import mmd_discrete

    F = draw_features(K2, 64, 3)
    rng = stream_rng(9)
    mu = DiscreteMeasure(rng.standard_normal((6, 2)), rng.uniform(0.1, 1, 6))
    nu = DiscreteMeasure(rng.standard_normal((4, 2)), rng.uniform(0.1, 1, 4))
    dist = sketch_distance(sketch_measure(F, mu), sketch_measure(F, nu))

    # direct double sum under kappa_Phi(x, y) = (1/m) sum_j cos(w_j^T (x - y))
    def kphi(X, Y):
        acc = np.zeros((X.shape[0], Y.shape[0]))
        for w in F.omega:
            acc += np.cos(np.subtract.outer(X @ w, Y @ w))
        return acc / F.m

    a, b = mu.weights, nu.weights
    sq = (
        a @ kphi(mu.points, mu.points) @ a
        + b @ kphi(nu.points, nu.points) @ b
        - 2 * a @ kphi(mu.points, nu.points) @ b
    )
    assert dist**2 == pytest.approx(sq, abs=1e-10)


def test_rkhs_lipschitz_formula():
    F = draw_features(K2, 32, 11)
    assert rkhs_lipschitz(F) == pytest.approx(
        np.sqrt(np.sum(F.omega**2) / 32), rel=1e-14
    )


def test_save_load_roundtrip(tmp_path):
    F = draw_features(K2, 16, 13)
    X = stream_rng(10).standard_normal((7, 2))
    s = sketch_samples(F, X)
    p = tmp_path / "s.json"
    save_sketch(s, p)
    s2 = load_sketch(p)
    assert np.array_equal(s2.values, s.values)  # bit-exact via repr floats
    assert np.array_equal(s2.feature_map.omega, F.omega)
    assert s2.n_samples == 7
    assert s2.feature_map.kernel.family == "gaussian"


def test_load_rejects_unknown_tag(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"format": "other-v9"}\n')
    with pytest.raises(ValueError, match="format"):
        load_sketch(p)


def test_save_sketch_bytes_match_float_loop_writer(tmp_path):
    """The .tolist() writer produces the bytes of the per-value float() writer."""

    def float_loop_writer(s, path):
        obj = {
            "format": "wmmd-sketch-v1",
            "kernel": kernel_to_dict(s.feature_map.kernel),
            "d": s.feature_map.d,
            "m": s.m,
            "seed": s.feature_map.seed,
            "n_samples": s.n_samples,
            "omega": [[float(v) for v in row] for row in s.feature_map.omega],
            "re": [float(v) for v in s.values.real],
            "im": [float(v) for v in s.values.imag],
        }
        if s.lo is not None:
            obj["lo"] = [float(v) for v in s.lo]
            obj["hi"] = [float(v) for v in s.hi]
        with open(path, "w") as f:
            json.dump(obj, f, separators=(",", ":"))
            f.write("\n")

    F = draw_features(K2, 64, 21)
    X = stream_rng(22).standard_normal((30, 2)) * 1e3
    for s in (sketch_samples(F, X), sketch_measure(F, DiscreteMeasure(X, np.full(30, 1 / 30)))):
        save_sketch(s, tmp_path / "new.json")
        float_loop_writer(s, tmp_path / "old.json")
        assert (tmp_path / "new.json").read_bytes() == (tmp_path / "old.json").read_bytes()


def test_sketch_bounds_roundtrip_and_merge(tmp_path):
    F = draw_features(K2, 16, 23)
    rng = stream_rng(24)
    X, Y = rng.standard_normal((5, 2)), 3.0 + rng.standard_normal((7, 2))
    sx, sy = sketch_samples(F, X), sketch_samples(F, Y)
    assert np.array_equal(sx.lo, X.min(axis=0)) and np.array_equal(sx.hi, X.max(axis=0))
    m = merge([sx, sy])
    assert np.array_equal(m.lo, np.vstack([X, Y]).min(axis=0))
    assert np.array_equal(m.hi, np.vstack([X, Y]).max(axis=0))
    save_sketch(m, tmp_path / "m.json")
    back = load_sketch(tmp_path / "m.json")
    assert np.array_equal(back.lo, m.lo) and np.array_equal(back.hi, m.hi)
    # a sketch without bounds (here of a mixture) makes the merged bounds unknown
    mix = sketch_measure(F, GaussianMixture([1.0], [[0.0, 0.0]], [1.0]))
    unknown = merge([sx, mix], counts=[5, 7])
    assert unknown.lo is None and unknown.hi is None
    point_box = sketch_measure(F, DiscreteMeasure(Y, np.full(7, 1 / 7)))
    assert np.array_equal(point_box.lo, Y.min(axis=0)) and np.array_equal(point_box.hi, Y.max(axis=0))


# ---------------------------------------------------------------------------
# The half-angle feature kernel and the blocked sums built on it.


def _dense_sketch(F, X, weights=None):
    """The sketch from the full n x m complex feature matrix."""
    E = np.exp(-1j * (X @ F.omega.T)) / np.sqrt(F.m)
    return E.mean(axis=0) if weights is None else weights @ E


def test_cos_sin_matches_numpy():
    rng = stream_rng(40)
    args = [
        rng.uniform(-1e3, 1e3, 100_000),
        rng.uniform(-1, 1, 100_000) * 10.0 ** rng.uniform(-300, 300, 100_000),
        np.array([1e300, -1e300, 1e-300, np.pi / 2, -np.pi / 2, 1.0, -1.0]),
        (2 * rng.integers(-(10**6), 10**6, 100_000) + 1) * np.pi,  # odd multiples of pi
    ]
    for T in args:
        c, s = _cos_sin(T * 0.5)  # half angles in, half sines out
        assert np.max(np.abs(c - np.cos(T))) <= 4.5e-16
        assert np.max(np.abs(2.0 * s - np.sin(T))) <= 4.5e-16
    c, s = _cos_sin(np.array([0.0, -0.0]))
    assert np.array_equal(c, [1.0, 1.0])
    assert np.array_equal(np.signbit(s), [False, True]) and np.all(s == 0.0)


@pytest.mark.parametrize("m", [1024, 4096])
def test_blocked_sums_match_dense(m):
    F = draw_features(KernelSpec.gaussian(0.5, 2), m, 41)
    rows = max(1, _BLOCK_ENTRIES // m)
    rng = stream_rng(42, m)
    for n in (1, rows - 1, rows, rows + 1, 3 * rows + 7):
        X = 40.0 + 3.0 * rng.standard_normal((n, 2))
        w = rng.uniform(0.1, 1.0, n)
        w /= w.sum()
        got = sketch_samples(F, X).values
        assert np.max(np.abs(got - _dense_sketch(F, X))) <= 1e-15
        got = sketch_measure(F, DiscreteMeasure(X, w)).values
        assert np.max(np.abs(got - _dense_sketch(F, X, w))) <= 1e-15


def test_phi_matches_dense():
    F = draw_features(K2, 256, 43)
    X = 40.0 + stream_rng(44).standard_normal((9, 2))
    E = np.exp(-1j * (X @ F.omega.T)) / np.sqrt(F.m)
    assert np.max(np.abs(F.phi(X) - E)) <= 1e-16


@contextlib.contextmanager
def _workers(n):
    """Sums on n pool threads, forced past `cap_threads`' CPU count: a pool even on one CPU."""
    before = measures._workers
    measures._workers = n
    try:
        yield
    finally:
        measures._workers = before


def test_sketch_samples_memory_is_bounded():
    """2,500 blocks of 64 KiB values: the waves hold 32 of them (about 6 MiB), all of them 160 MiB."""
    F = draw_features(K2, 4096, 45)
    X = stream_rng(46).standard_normal((20_000, 2))
    with _workers(2):
        tracemalloc.start()
        try:
            sketch_samples(F, X)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peak < 16 * 2**20


@st.composite
def _sketch_case(draw):
    """m, and n rows of d <= 3 coordinates up to 1e6 around 1 row, 1 block, or more than a wave of blocks."""
    m = draw(st.sampled_from([1, 7, 1024, 4096, 2**15 + 1]))
    rows = max(1, _BLOCK_ENTRIES // m)
    n = draw(st.sampled_from([1, rows - 1, rows, rows + 1, (measures._WAVE + 3) * rows + 5]).filter(lambda n: n >= 1))
    d = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.uniform(-1.0, 1.0, (n, d)) * 10.0 ** rng.uniform(-3.0, 6.0, (1, d))
    return m, X, rng.uniform(0.0, 1.0, n) + 1e-3


@given(_sketch_case(), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_sketch_sums_on_every_thread_equal_one_thread_bit_for_bit(case, seed):
    m, X, w = case
    F = draw_features(KernelSpec.gaussian(0.8, X.shape[1]), m, seed)
    mu = DiscreteMeasure(X, w)
    with _workers(1):
        one = sketch_samples(F, X).values, sketch_measure(F, mu).values
    with _workers(max(2, measures._CPUS)):
        every = sketch_samples(F, X).values, sketch_measure(F, mu).values
    for a, b in zip(one, every):
        assert a.tobytes() == b.tobytes()


def test_concurrent_sketches_keep_their_bits():
    """Sketches from 4 caller threads at once, on more pool tasks than CPUs, equal the one-thread sketch."""
    from concurrent.futures import ThreadPoolExecutor

    F = draw_features(K2, 1024, 54)
    Xs = [stream_rng(55, i).standard_normal((40 * (_BLOCK_ENTRIES // 1024) + i, 2)) * 30.0 for i in range(4)]
    with _workers(1):
        want = [sketch_samples(F, X).values.tobytes() for X in Xs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with _workers(2 * measures._CPUS + 1), ThreadPoolExecutor(4) as callers:
            got = list(callers.map(lambda X: sketch_samples(F, X).values.tobytes(), Xs * 3, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert got == want * 3


def _overflowing_rows():
    """Two blocks of rows; only the second holds a row whose phase overflows to inf."""
    F = draw_features(K2, 1024, 49)
    X = stream_rng(50).standard_normal((2 * (_BLOCK_ENTRIES // 1024), 2))
    X[-1] = 1e308
    return F, X


@pytest.mark.parametrize("threads", [1, 2])
def test_sketch_error_state_reaches_every_thread(threads):
    """np.errstate is a context variable: a sketch block on a pool thread raises in the caller, as on one thread."""
    F, X = _overflowing_rows()
    with _workers(threads):
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.isnan(sketch_samples(F, X).values).any()
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            sketch_samples(F, X)
        # under `filterwarnings = ["error"]` a worker's warning is an exception in the caller
        with np.errstate(over="warn", invalid="ignore"), pytest.raises(RuntimeWarning, match="overflow"):
            sketch_samples(F, X)


def _child_sketch(queue, F, X):
    queue.put(sketch_samples(F, X).values.tobytes())


@pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
def test_forked_child_sketches_on_its_own_pool():
    """The parent's pool threads do not exist in a forked child; its sketch must not wait on them."""
    F = draw_features(K2, 1024, 51)
    X = stream_rng(52).standard_normal((5_000, 2))
    with _workers(max(2, measures._CPUS)):
        parent = sketch_samples(F, X).values.tobytes()  # the pool now exists
        ctx = multiprocessing.get_context("fork")
        queue = ctx.Queue()
        child = ctx.Process(target=_child_sketch, args=(queue, F, X))
        child.start()
        try:
            got = queue.get(timeout=60)
        finally:
            child.join(timeout=10)
            if child.is_alive():
                child.kill()
                child.join()
    assert not child.is_alive() and child.exitcode == 0
    assert got == parent


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_sketch_samples_rejects_non_finite_rows(bad):
    F = draw_features(K2, 16, 47)
    X = stream_rng(48).standard_normal((6, 2))
    X[3, 1] = bad
    with pytest.raises(ValueError, match="finite"):
        sketch_samples(F, X)


def test_draw_features_takes_every_64_bit_seed():
    """Seeds of 2^63 and above key the generator exactly and without warnings."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        top = draw_features(K2, 4, 2**64 - 1)
        a = draw_features(K2, 4, 2**63)
        b = draw_features(K2, 4, 2**63 + 1)
    assert np.all(np.isfinite(top.omega))
    assert not np.array_equal(a.omega, b.omega)
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match="seed"):
            draw_features(K2, 4, seed)
