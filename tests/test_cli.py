import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from wmmd import discrepancy, lab, runtime
from wmmd.kernels import KernelSpec
from wmmd.measures import DiscreteMeasure, GaussianMixture, save_dataset, stream_rng
from wmmd.transport import wasserstein
from wmmd.runtime import blas_threads, cap_threads
from wmmd.cli import dispatch
from wmmd.sketch import load_sketch


@pytest.fixture
def data(tmp_path):
    rng = stream_rng(0xD5)
    X = rng.standard_normal((50, 2))
    p = tmp_path / "x.csv"
    save_dataset(p, X)
    return p, X


def test_no_command_is_usage_error(capsys):
    assert dispatch([]) == 1


def test_missing_file_is_io_error(tmp_path, capsys):
    rc = dispatch(["mmd", str(tmp_path / "a.csv"), str(tmp_path / "b.csv"), "--kernel", "gaussian"])
    assert rc == 1
    assert capsys.readouterr().err.startswith("E:")


def test_bad_kernel_string(data, capsys):
    p, _ = data
    assert dispatch(["mmd", str(p), str(p), "--kernel", "quartic"]) == 1


def test_sketch_roundtrip_and_determinism(data, tmp_path):
    p, X = data
    out1 = tmp_path / "s1.json"
    out2 = tmp_path / "s2.json"
    for out in (out1, out2):
        rc = dispatch(["sketch", str(p), "-o", str(out), "--m", "32", "--seed", "7"])
        assert rc == 0
    assert out1.read_bytes() == out2.read_bytes()  # byte-identical reruns
    s = load_sketch(out1)
    assert s.m == 32 and s.n_samples == 50


def test_merge_matches_monolithic(data, tmp_path):
    p, X = data
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    save_dataset(pa, X[:20])
    save_dataset(pb, X[20:])
    for src, dst in ((p, "whole.json"), (pa, "a.json"), (pb, "b.json")):
        assert dispatch(["sketch", str(src), "-o", str(tmp_path / dst), "--m", "16", "--seed", "3"]) == 0
    out = tmp_path / "merged.json"
    assert dispatch(["merge", str(tmp_path / "a.json"), str(tmp_path / "b.json"), "-o", str(out)]) == 0
    merged = load_sketch(out)
    whole = load_sketch(tmp_path / "whole.json")
    assert np.max(np.abs(merged.values - whole.values)) <= 1e-12


def test_merge_rejects_mismatched_seeds(data, tmp_path):
    p, _ = data
    s1, s2 = tmp_path / "s1.json", tmp_path / "s2.json"
    dispatch(["sketch", str(p), "-o", str(s1), "--m", "16", "--seed", "1"])
    dispatch(["sketch", str(p), "-o", str(s2), "--m", "16", "--seed", "2"])
    assert dispatch(["merge", str(s1), str(s2), "-o", str(tmp_path / "m.json")]) == 1


def test_mmd_prints_scalar(data, capsys):
    p, X = data
    assert dispatch(["mmd", str(p), str(p), "--kernel", "gaussian"]) == 0
    out = capsys.readouterr().out.strip()
    assert float(out) == pytest.approx(0.0, abs=1e-8)


def test_mmd_kernel_json(data, capsys):
    p, _ = data
    kj = json.dumps({"family": "gaussian", "sigma": 2.0, "scale": 1.0, "d": 2})
    assert dispatch(["mmd", str(p), str(p), "--kernel", kj]) == 0


def test_wass_self_distance(data, capsys):
    p, _ = data
    assert dispatch(["wass", str(p), str(p), "--p", "2"]) == 0
    assert float(capsys.readouterr().out.strip()) == pytest.approx(0.0, abs=1e-8)


def test_decode_writes_centroids(tmp_path):
    rng = stream_rng(0xDE)
    X = np.vstack(
        [
            np.array([3.0, 0.0]) + 0.1 * rng.standard_normal((40, 2)),
            np.array([-3.0, 0.0]) + 0.1 * rng.standard_normal((40, 2)),
        ]
    )
    src = tmp_path / "x.csv"
    save_dataset(src, X)
    sk = tmp_path / "s.json"
    assert dispatch(["sketch", str(src), "-o", str(sk), "--m", "64", "--seed", "2"]) == 0
    out = tmp_path / "c.csv"
    assert dispatch(["decode", str(sk), "-o", str(out), "--k", "2", "--radius", "6"]) == 0
    rows = out.read_text().strip().splitlines()
    assert rows[0] == "x0,x1,weight"
    got = np.array([[float(v) for v in r.split(",")] for r in rows[1:]])
    assert got.shape == (2, 3)
    xs = np.sort(got[:, 0])
    assert abs(xs[0] + 3.0) < 0.3 and abs(xs[1] - 3.0) < 0.3


def test_convroot_kernel_sketches_and_decodes_as_its_gaussian(tmp_path):
    """A convroot --kernel is read as the Gaussian it equals: byte-identical sketch and centroids."""
    rng = stream_rng(0xC2)
    X = np.vstack([c + 0.1 * rng.standard_normal((40, 2)) for c in ([2.0, 0.0], [-2.0, 0.0])])
    src = tmp_path / "x.csv"
    save_dataset(src, X)
    kernels = {
        "conv": {"family": "convroot", "sigma": 0.5, "d": 2},
        "gauss": {"family": "gaussian", "sigma": np.sqrt(2.0) * 0.5, "scale": 1.0 / np.pi, "d": 2},
    }
    for name, kernel in kernels.items():
        sk, out = tmp_path / f"{name}.json", tmp_path / f"{name}.csv"
        assert dispatch(["sketch", str(src), "-o", str(sk), "--m", "64", "--seed", "2", "--kernel", json.dumps(kernel)]) == 0
        assert dispatch(["decode", str(sk), "-o", str(out), "--k", "2", "--radius", "4"]) == 0
    assert (tmp_path / "conv.json").read_bytes() == (tmp_path / "gauss.json").read_bytes()
    assert (tmp_path / "conv.csv").read_bytes() == (tmp_path / "gauss.csv").read_bytes()
    assert len((tmp_path / "conv.csv").read_text().splitlines()) == 3


def test_ckmeans_report(tmp_path):
    rng = stream_rng(0xCE)
    X = np.vstack(
        [
            np.array([5.0, 0.0]) + 0.3 * rng.standard_normal((60, 2)),
            np.array([-5.0, 0.0]) + 0.3 * rng.standard_normal((60, 2)),
        ]
    )
    src = tmp_path / "x.csv"
    save_dataset(src, X)
    out = tmp_path / "rep.csv"
    rc = dispatch(["ckmeans", str(src), "-o", str(out), "--k", "2", "--m", "128", "--seed", "4"])
    assert rc == 0
    summary = json.loads((tmp_path / "rep.csv.summary.json").read_text())
    assert summary["ratio"] <= 1.2


def test_lab_counterexample_gaussian_slope_exceeds_half_k(tmp_path, capsys):
    # The smooth-kernel decay along the vanishing-moment path is steeper than
    # the k/2 target (see notes on the counterexample experiment), so the
    # driver reports the fitted slopes and fails the k/2 criterion.
    out = tmp_path / "ce.csv"
    rc = dispatch(["lab", "counterexample", "--k", "2", "-o", str(out), "--kernel", "gaussian"])
    summary = json.loads(capsys.readouterr().out.strip())
    assert summary["experiment"] == "counterexample"
    assert abs(summary["slope_w"] - 1.0) <= 1e-6
    assert summary["slope_mmd"] > 1.5  # measured ~k, not k/2
    assert rc == 2  # reported as a bound violation


def test_lab_sliced_identity(tmp_path, capsys):
    out = tmp_path / "sl.csv"
    rc = dispatch(["lab", "sliced", "--d", "3", "--trials", "10", "-o", str(out)])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out.strip())
    assert summary["worst_gap"] <= 1e-10


def test_lab_learnability(tmp_path, capsys):
    rc = dispatch(["lab", "learnability", "--trials", "8", "-o", str(tmp_path / "l.csv")])
    assert rc == 0


_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.fixture
def blas_pool(monkeypatch):
    """The loaded OpenBLAS thread counts, restored after the test with the block pool's cap and the BLAS variables."""
    monkeypatch.setattr(runtime, "_workers", runtime._workers)
    before = blas_threads()
    if not before:
        pytest.skip("no OpenBLAS loaded in this process")
    env = {var: os.environ.get(var) for var in _BLAS_VARS}
    yield before
    cap_threads(max(before))
    for var, value in env.items():
        if value is None:
            os.environ.pop(var, None)
        else:
            os.environ[var] = value


def test_threads_cap_loaded_blas(data, blas_pool):
    p, _ = data
    cap_threads(2)
    assert dispatch(["--threads", "1", "mmd", str(p), str(p), "--kernel", "gaussian"]) == 0
    assert blas_threads() == [1] * len(blas_pool)


def test_threads_unset_leaves_blas_alone(data, blas_pool):
    p, _ = data
    assert dispatch(["mmd", str(p), str(p), "--kernel", "gaussian"]) == 0
    assert blas_threads() == blas_pool


def _fresh_python(code, cwd, **blas_env):
    """Last stdout line of `code` run by a new interpreter, with wmmd from this checkout.

    The BLAS thread variables are unset, apart from those given in blas_env.
    """
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {k: v for k, v in os.environ.items() if k not in _BLAS_VARS} | blas_env
    env["PYTHONPATH"] = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    run = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout.splitlines()[-1])


_LAZY = ("scipy.optimize", "scipy.integrate", "scipy.sparse", "scipy.special")


def _command_data(tmp_path):
    rng = stream_rng(0x5C)
    save_dataset(tmp_path / "x.csv", rng.standard_normal((40, 2)))
    save_dataset(tmp_path / "a.csv", rng.standard_normal((30, 1)))
    save_dataset(tmp_path / "b.csv", rng.standard_normal((20, 1)))


def test_light_commands_load_no_scipy_submodule(tmp_path):
    """Importing wmmd and running the commands README lists as loading no scipy submodule leave all of them unloaded."""
    _command_data(tmp_path)
    commands = [
        ["sketch", "x.csv", "-o", "s1.json", "--m", "64", "--seed", "1"],
        ["sketch", "x.csv", "-o", "s2.json", "--m", "64", "--seed", "1"],
        ["merge", "s1.json", "s2.json", "-o", "s.json"],
        ["mmd", "x.csv", "x.csv", "--kernel", "gaussian"],
        ["mmd", "a.csv", "b.csv", "--kernel", "gaussian"],
        ["mmd", "x.csv", "x.csv", "--kernel", "laplacian"],
        ["wass", "a.csv", "b.csv"],
        ["lab", "counterexample", "-o", "r.csv"],
        ["lab", "sliced", "--trials", "3", "-o", "r.csv"],
        ["lab", "rates", "--trials", "2", "-o", "r.csv"],
        ["lab", "rates", "--which", "w", "--d", "1", "--trials", "2", "-o", "r.csv"],
    ]
    code = f"""
import json, sys
import wmmd, wmmd.cli, wmmd.lab
seen = [[m for m in {_LAZY!r} if m in sys.modules]]
for argv in {commands!r}:
    seen.append([wmmd.cli.dispatch(argv)] + [m for m in {_LAZY!r} if m in sys.modules])
print(json.dumps(seen))
"""
    seen = _fresh_python(code, tmp_path)
    # Exit 2 is a lab bound that fails at these trial counts, as it does at the defaults.
    assert seen == [[], [0], [0], [0], [0], [0], [0], [0], [2], [0], [2], [2]]


_OPTIMIZE = ["scipy.optimize", "scipy.sparse", "scipy.special"]  # scipy.optimize imports the other two


@pytest.mark.parametrize(
    "argv, loaded",
    [
        (["mmd", "x.csv", "x.csv", "--kernel", "matern"], []),
        (["mmd", "x.csv", "x.csv", "--kernel", "laplacian"], []),
        (["mmd", "x.csv", "x.csv", "--kernel", '{"family": "matern", "nu": 1.5, "sigma": 1, "d": 2}'], ["scipy.special"]),
        (["lab", "fourier-bound", "--trials", "2", "-o", "r.csv"], ["scipy.special"]),
        (["lab", "embeddability", "--trials", "10", "-o", "r.csv"], ["scipy.special"]),
        (["lab", "embeddability", "--trials", "10", "--kernel", "gaussian", "-o", "r.csv"], ["scipy.special"]),
        (["decode", "s.json", "-o", "c.json", "--k", "2"], _OPTIMIZE),
        (["ckmeans", "x.csv", "-o", "c.json", "--k", "2", "--m", "64", "--seed", "1"], _OPTIMIZE),
        (["lab", "rates", "--which", "w", "--d", "2", "--trials", "2", "-o", "r.csv"], _OPTIMIZE),
        (["lab", "smoothing", "-o", "r.csv"], _OPTIMIZE),
        (["lab", "dominance", "--trials", "3", "-o", "r.csv"], _OPTIMIZE),
        (["lab", "learnability", "--trials", "2", "-o", "r.csv"], _OPTIMIZE),
    ],
    ids=["mmd-matern", "mmd-laplacian", "mmd-matern-1.5", "fourier-bound", "embeddability", "embeddability-gaussian", "decode", "ckmeans", "rates-w-d2",
         "smoothing", "dominance", "learnability"],
)
def test_command_loads_the_scipy_submodules_it_calls(tmp_path, argv, loaded):
    """The scipy submodules each heavier command loads, as README lists them; none loads scipy.integrate."""
    _command_data(tmp_path)
    assert dispatch(["sketch", str(tmp_path / "x.csv"), "-o", str(tmp_path / "s.json"), "--m", "64", "--seed", "1"]) == 0
    code = f"""
import json, sys
import wmmd.cli
rc = wmmd.cli.dispatch({argv!r})
print(json.dumps([rc] + [m for m in {_LAZY!r} if m in sys.modules]))
"""
    rc, *now = _fresh_python(code, tmp_path)
    assert rc in (0, 2)
    assert sorted(now) == loaded


def test_spectral_mmd_loads_no_scipy_integrate(tmp_path):
    """The spectral MMD of a Matern mixture against atoms and `lab fourier-bound` integrate by tanh-sinh alone."""
    code = """
import json, sys
import wmmd.cli
from wmmd.discrepancy import mmd_spectral_1d
from wmmd.kernels import KernelSpec
from wmmd.measures import DiscreteMeasure, GaussianMixture
mix = GaussianMixture([0.4, 0.6], [[0.0], [1.0]], [0.3, 0.8])
mmd_spectral_1d(KernelSpec.matern(0.5, 1.0, 1), mix, DiscreteMeasure([[0.2], [-0.7]], [0.5, 0.5]))
seen = ["scipy.integrate" in sys.modules]
rc = wmmd.cli.dispatch(["lab", "fourier-bound", "--trials", "1", "-o", "r.csv"])
print(json.dumps([rc, *seen, "scipy.integrate" in sys.modules]))
"""
    rc, *loaded = _fresh_python(code, tmp_path)
    assert rc in (0, 2)
    assert loaded == [False, False]


def test_threads_above_the_cpu_count_cap_blas_at_one_per_cpu(tmp_path):
    """--threads past the CPU count, or past a C int, caps the pool, the BLAS variables and every loaded OpenBLAS at the CPU count."""
    save_dataset(tmp_path / "a.csv", np.array([[0.0], [1.0]]))
    code = """
import json, os
from wmmd import cli, runtime
seen = []
for n in (runtime._CPUS + 1, 2**32 + 1, 10**12):
    rc = cli.dispatch(["--threads", str(n), "wass", "a.csv", "a.csv"])
    seen.append([rc, runtime._workers, os.environ["OPENBLAS_NUM_THREADS"], runtime.blas_threads()])
print(json.dumps([runtime._CPUS, len(runtime.blas_threads()), seen]))
"""
    cpus, loaded, seen = _fresh_python(code, tmp_path)
    assert seen == [[0, cpus, str(cpus), [cpus] * loaded]] * 3


def test_threads_cap_the_blas_that_scipy_loads_during_the_command(tmp_path):
    """A 2-D wass loads scipy.optimize, and with it scipy's own OpenBLAS, after --threads has run."""
    rng = stream_rng(0x5D)
    save_dataset(tmp_path / "a.csv", rng.standard_normal((6, 2)))
    save_dataset(tmp_path / "b.csv", rng.standard_normal((5, 2)))
    code = """
import json, sys
from wmmd import cli, runtime
before = runtime.blas_threads()
loaded = "scipy.optimize" in sys.modules
rc = cli.dispatch(["--threads", "1", "wass", "a.csv", "b.csv"])
print(json.dumps([before, loaded, rc, "scipy.optimize" in sys.modules, runtime.blas_threads()]))
"""
    before, loaded, rc, now, threads = _fresh_python(code, tmp_path)
    assert (loaded, rc, now) == (False, 0, True)
    if len(threads) <= len(before):
        pytest.skip("scipy loaded no OpenBLAS of its own (or none is readable)")
    assert threads == [1] * len(threads)


def test_library_cap_threads_caps_every_blas_before_and_after_scipy_loads(tmp_path):
    """`cap_threads(1)` caps numpy's OpenBLAS at once, and the one scipy.optimize loads later through the environment."""
    code = """
import json
from wmmd import runtime
runtime.cap_threads(1)
before = runtime.blas_threads()
import scipy.optimize
print(json.dumps([before, runtime.blas_threads()]))
"""
    before, after = _fresh_python(code, tmp_path)
    if not after:
        pytest.skip("no readable OpenBLAS is loaded")
    assert before + after == [1] * (len(before) + len(after))


def test_openblas_env_alone_caps_every_loaded_blas(tmp_path):
    """Set before start, OPENBLAS_NUM_THREADS=1 alone caps numpy's OpenBLAS and the one a 2-D wass loads with scipy."""
    rng = stream_rng(0x5D)
    save_dataset(tmp_path / "a.csv", rng.standard_normal((6, 2)))
    save_dataset(tmp_path / "b.csv", rng.standard_normal((5, 2)))
    code = """
import json, sys
from wmmd import cli, runtime
rc = cli.dispatch(["wass", "a.csv", "b.csv"])
print(json.dumps([rc, "scipy.optimize" in sys.modules, runtime.blas_threads()]))
"""
    rc, loaded, threads = _fresh_python(code, tmp_path, OPENBLAS_NUM_THREADS="1")
    assert (rc, loaded) == (0, True)
    if not threads:
        pytest.skip("no readable OpenBLAS is loaded")
    assert threads == [1] * len(threads)


def test_import_starts_no_thread():
    """The Gaussian sums' pool, and the concurrent.futures it needs, wait for the first multi-block sum."""
    code = """
import json, sys, threading
import wmmd, wmmd.cli, wmmd.lab
print(json.dumps([threading.active_count(), [m for m in sys.modules if m == "concurrent.futures" or m.startswith("scipy.")]]))
"""
    assert _fresh_python(code, None) == [1, []]


def test_threads_one_starts_no_worker_and_keeps_the_report(tmp_path):
    argv = ["lab", "rates", "--which", "mmd", "--trials", "1", "-o", "r.csv"]
    seen = {}
    for name, flags in (("capped", ["--threads", "1"]), ("free", [])):
        (tmp_path / name).mkdir()
        code = f"""
import json, threading
from wmmd import cli, discrepancy
discrepancy._MIN_PAIRS = 0  # a pool for these small sums too
rc = cli.dispatch({flags + argv!r})
print(json.dumps([rc, threading.active_count()]))
"""
        seen[name] = _fresh_python(code, tmp_path / name)
    assert seen["capped"][1] == 1
    assert (seen["free"][1] > 1) == (runtime._CPUS > 1)  # the pool started
    assert seen["capped"][0] == seen["free"][0] in (0, 2)
    for f in ("r.csv", "r.csv.summary.json"):
        assert (tmp_path / "capped" / f).read_bytes() == (tmp_path / "free" / f).read_bytes()


def test_mmd_rate_on_one_cpu_equals_every_cpu(monkeypatch):
    """A process whose affinity mask holds one CPU sums on one thread, to the same bits."""
    code = """
import json, os
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from wmmd import lab, runtime
from wmmd.kernels import KernelSpec
from wmmd.measures import GaussianMixture
pi = GaussianMixture([0.3, 0.7], [[-1.0, 0.0], [1.0, 0.5]], [0.5, 1.0])
fit = lab.mmd_rate(pi, KernelSpec.gaussian(1.0, 2), [128, 256, 512, 1024, 2048], 2, 11)
print(json.dumps([runtime._workers, repr(fit)]))
"""
    monkeypatch.setattr(runtime, "_workers", runtime._CPUS)
    monkeypatch.setattr(discrepancy, "_MIN_PAIRS", 0)
    pi = GaussianMixture([0.3, 0.7], [[-1.0, 0.0], [1.0, 0.5]], [0.5, 1.0])
    fit = lab.mmd_rate(pi, KernelSpec.gaussian(1.0, 2), [128, 256, 512, 1024, 2048], 2, 11)
    assert _fresh_python(code, None) == [1, repr(fit)]


def test_header_only_csv_stderr_is_clean(tmp_path):
    (tmp_path / "hdr.csv").write_text("x0\n")
    (tmp_path / "ok.csv").write_text("x0\n1\n2\n")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run(
        [sys.executable, "-m", "wmmd.cli", "wass", "hdr.csv", "ok.csv"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 1
    assert run.stderr.startswith("E:") and run.stdout == ""


@pytest.mark.parametrize("body", ["x0\n", "x0\n1\nnan\n", "x0\n1\ninf\n2\n"])
@pytest.mark.parametrize("command", [["wass", "--p", "1"], ["mmd", "--kernel", "gaussian"]])
def test_bad_dataset_is_input_error(tmp_path, capsys, body, command):
    bad, good = tmp_path / "bad.csv", tmp_path / "good.csv"
    bad.write_text(body)
    good.write_text("x0\n1\n2\n")
    for a, b in ((bad, good), (good, bad)):
        assert dispatch([command[0], str(a), str(b), *command[1:]]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("E:") and captured.out == ""


def _wmmd1(n, d, values, cut=None):
    """WMMD1 bytes: the magic, the header's n and d, then the values; `cut` keeps that many header bytes only."""
    head = n.to_bytes(8, "little") + d.to_bytes(8, "little")
    if cut is not None:
        return b"WMMD1" + head[:cut]
    return b"WMMD1" + head + np.asarray(values, dtype="<f8").tobytes()


_WASS_BAD = ["wass", "bad.bin", "good.csv"]


@pytest.mark.parametrize(
    "raw, argv",
    [
        (_wmmd1(2**64 - 1, 1, [1.0, 2.0]), _WASS_BAD),  # n * d overflowed numpy's count
        (_wmmd1(2**64 - 1, 1, [1.0, 2.0]), ["sketch", "bad.bin", "-o", "s.json", "--m", "4", "--seed", "1"]),
        (_wmmd1(2, 1, [], cut=4), _WASS_BAD),  # read as 2 x 0
        (_wmmd1(2, 0, []), _WASS_BAD),  # read as 2 x 0
        (_wmmd1(2, 2, np.arange(10.0)), _WASS_BAD),  # the last 6 values were dropped
    ],
    ids=["n-2^64-1-wass", "n-2^64-1-sketch", "header-cut", "d-0", "extra-values"],
)
def test_malformed_binary_dataset_is_one_error_line(tmp_path, monkeypatch, capsys, raw, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.bin").write_bytes(raw)
    save_dataset(tmp_path / "good.csv", np.array([[0.0, 1.0], [2.0, 3.0]]))
    assert _fails_with_one_line(argv, capsys).startswith("E: bad.bin: WMMD1 header ")
    assert not (tmp_path / "s.json").exists()


def test_failed_lp_is_reported(data, tmp_path, capsys, monkeypatch):
    class Failed:
        success = False
        message = "solver gave up"

    monkeypatch.setattr("wmmd.transport.linprog", lambda *a, **k: Failed())
    p, X = data
    q = tmp_path / "y.csv"
    save_dataset(q, X[:7])
    assert dispatch(["wass", str(p), str(q)]) == 1
    assert capsys.readouterr().err.startswith("E: transport LP failed: solver gave up")


def test_missing_highs_binding_is_one_error_line(data, tmp_path, capsys, monkeypatch):
    """A scipy without the HiGHS binding the LP is solved through ends as one E: line naming its version."""
    import scipy
    import scipy.optimize._highspy

    monkeypatch.delattr(scipy.optimize._highspy, "_core")
    monkeypatch.setitem(sys.modules, "scipy.optimize._highspy._core", None)  # import fails
    p, X = data
    q = tmp_path / "y.csv"
    save_dataset(q, X[:7])
    err = _fails_with_one_line(["wass", str(p), str(q)], capsys)
    assert err == f"E: scipy {scipy.__version__} lacks the HiGHS binding scipy.optimize._highspy._core\n"


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_sketch_rejects_non_finite_rows(tmp_path, capsys, bad):
    src = tmp_path / "x.csv"
    src.write_text(f"x0,x1\n1,2\n{bad},0\n3,4\n")
    out = tmp_path / "s.json"
    assert dispatch(["sketch", str(src), "-o", str(out), "--m", "16", "--seed", "1"]) == 1
    assert capsys.readouterr().err.startswith("E:")
    assert not out.exists()


def _malformed(obj, case):
    if case == "no kernel":
        del obj["kernel"]
    elif case == "omega rows":
        obj["omega"] = obj["omega"][:-1]
    elif case == "omega columns":
        obj["omega"] = [row[:1] for row in obj["omega"]]
    elif case == "re length":
        obj["re"] = obj["re"][:-1]
    elif case == "im length":
        obj["im"] = obj["im"] + [0.0]
    elif case == "negative count":
        obj["n_samples"] = -1
    return obj


@pytest.mark.parametrize(
    "case", ["no kernel", "omega rows", "omega columns", "re length", "im length", "negative count"]
)
def test_malformed_sketch_file_is_input_error(data, tmp_path, capsys, case):
    p, _ = data
    good = tmp_path / "good.json"
    assert dispatch(["sketch", str(p), "-o", str(good), "--m", "16", "--seed", "3"]) == 0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(_malformed(json.loads(good.read_text()), case)))
    for argv in (
        ["decode", str(bad), "-o", str(tmp_path / "c.csv"), "--k", "1"],
        ["merge", str(good), str(bad), "-o", str(tmp_path / "m.json")],
    ):
        assert dispatch(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("E:") and str(bad) in err


def test_decode_domain_follows_the_data(tmp_path):
    """Clusters far from the origin decode near their centres by default."""
    rng = stream_rng(0xFA)
    truth = np.array([[50.0, 50.0], [56.0, 50.0]])
    parts = [rng.standard_normal((2000, 2)) * 0.5 + c for c in truth]
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for path, part in zip(paths, parts):
        save_dataset(path, part)
        assert dispatch(["sketch", str(path), "-o", f"{path}.json", "--m", "512", "--seed", "5"]) == 0
    sk = tmp_path / "all.json"
    assert dispatch(["merge", f"{paths[0]}.json", f"{paths[1]}.json", "-o", str(sk)]) == 0
    out = tmp_path / "c.csv"
    assert dispatch(["decode", str(sk), "-o", str(out), "--k", "2"]) == 0
    got = np.loadtxt(out, delimiter=",", skiprows=1)[:, :2]
    assert np.all(np.min(np.linalg.norm(truth[:, None] - got[None], axis=2), axis=1) < 1.0)
    # an explicit centre with a radius that reaches the clusters
    out2 = tmp_path / "c2.csv"
    argv = ["decode", str(sk), "-o", str(out2), "--k", "2", "--center", "52,49", "--radius", "8"]
    assert dispatch(argv) == 0
    got = np.loadtxt(out2, delimiter=",", skiprows=1)[:, :2]
    assert np.all(np.min(np.linalg.norm(truth[:, None] - got[None], axis=2), axis=1) < 1.0)


def test_decode_domain_defaults(data, tmp_path):
    from wmmd.cli import _decode_domain

    p, X = data
    sk = tmp_path / "s.json"
    assert dispatch(["sketch", str(p), "-o", str(sk), "--m", "16", "--seed", "3"]) == 0
    s = load_sketch(sk)
    lo, hi = X.min(axis=0), X.max(axis=0)
    center, radius = _decode_domain(s, None, None)
    assert np.allclose(center, (lo + hi) / 2, rtol=0, atol=1e-15)
    assert radius == pytest.approx(0.75 * np.linalg.norm(hi - lo), rel=1e-15)
    assert _decode_domain(s, "1,-2.5", 3.0)[0].tolist() == [1.0, -2.5]
    # files written without the data box keep the origin and radius 10
    obj = json.loads(sk.read_text())
    del obj["lo"], obj["hi"]
    old = tmp_path / "old.json"
    old.write_text(json.dumps(obj))
    center, radius = _decode_domain(load_sketch(old), None, None)
    assert center.tolist() == [0.0, 0.0] and radius == 10.0
    assert dispatch(["decode", str(old), "-o", str(tmp_path / "c.csv"), "--k", "1"]) == 0


@pytest.mark.parametrize("extra", [["--center", "1"], ["--center", "1,2,3"], ["--center", "a,b"],
                                   ["--center", "nan,0"], ["--radius", "0"], ["--radius", "-1"]])
def test_decode_rejects_bad_domain(data, tmp_path, capsys, extra):
    p, _ = data
    sk = tmp_path / "s.json"
    assert dispatch(["sketch", str(p), "-o", str(sk), "--m", "16", "--seed", "3"]) == 0
    assert dispatch(["decode", str(sk), "-o", str(tmp_path / "c.csv"), "--k", "1", *extra]) == 1
    assert capsys.readouterr().err.startswith("E:")


def test_decode_single_point_needs_radius(tmp_path, capsys):
    src = tmp_path / "x.csv"
    src.write_text("x0,x1\n1,2\n1,2\n")
    sk = tmp_path / "s.json"
    assert dispatch(["sketch", str(src), "-o", str(sk), "--m", "16", "--seed", "3"]) == 0
    assert dispatch(["decode", str(sk), "-o", str(tmp_path / "c.csv"), "--k", "1"]) == 1
    assert "--radius" in capsys.readouterr().err
    assert dispatch(["decode", str(sk), "-o", str(tmp_path / "c.csv"), "--k", "1", "--radius", "1"]) == 0


def _fails_with_one_line(argv, capsys):
    assert dispatch(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("E:") and captured.err.count("\n") == 1 and captured.out == ""
    return captured.err


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["--threads"],
        ["nosuchcommand"],
        ["sketch", "x.csv", "--m", "8", "--seed", "1"],
        ["sketch", "x.csv", "-o", "s.json", "--m", "eight", "--seed", "1"],
        ["decode", "s.json", "-o", "c.csv", "--k", "1", "--center", "-1.5,2"],
        ["lab", "nosuchexperiment"],
    ],
)
def test_argument_errors_end_as_one_line(argv, capsys):
    assert "usage:" not in _fails_with_one_line(argv, capsys)


def test_help_still_exits_zero(capsys):
    assert dispatch(["-h"]) == 0
    assert dispatch(["sketch", "-h"]) == 0
    assert "usage:" in capsys.readouterr().out


@pytest.mark.parametrize(
    "kernel, field",
    [
        ({"family": "gaussian", "sigma": 1}, "'d'"),
        ({"family": "matern", "sigma": 1, "d": 1}, "'nu'"),
        ({"family": "modified", "base": 5, "mean_weight": 1, "d": 2}, "base"),
        ({"family": "sliced", "base": 5, "theta_set": [[1.0, 0.0]], "d": 2}, "base"),
        ({"family": "sliced", "base": {"family": "gaussian", "sigma": 1, "d": 1}, "d": 2}, "'theta_set'"),
    ],
)
def test_kernel_json_missing_or_bad_field(data, capsys, kernel, field):
    p, _ = data
    assert field in _fails_with_one_line(["mmd", str(p), str(p), "--kernel", json.dumps(kernel)], capsys)


_NAN, _INF = float("nan"), float("inf")
_G1 = {"family": "gaussian", "sigma": 1.0, "d": 1}


@pytest.mark.parametrize(
    "kernel, field",
    [
        ({"family": "gaussian", "sigma": _NAN, "d": 2}, "sigma"),
        ({"family": "gaussian", "sigma": _INF, "d": 2}, "sigma"),
        ({"family": "gaussian", "sigma": 1.0, "scale": _NAN, "d": 2}, "scale"),
        ({"family": "gaussian", "sigma": 1.0, "scale": 0.0, "d": 2}, "scale"),
        ({"family": "laplacian", "sigma": _INF, "d": 2}, "sigma"),
        ({"family": "laplacian", "sigma": -1.0, "d": 2}, "sigma"),
        ({"family": "matern", "nu": _NAN, "sigma": 1.0, "d": 2}, "nu"),
        ({"family": "matern", "nu": 0.0, "sigma": 1.0, "d": 2}, "nu"),
        ({"family": "matern", "nu": 1.5, "sigma": _INF, "d": 2}, "sigma"),
        ({"family": "convroot", "sigma": _INF, "d": 2}, "sigma"),
        ({"family": "convroot", "sigma": _NAN, "d": 2}, "sigma"),
        ({"family": "gaussian", "sigma": 1.0, "d": 0}, "d must"),
        ({"family": "gaussian", "sigma": 1.0, "d": _INF}, "d must"),
        ({"family": "gaussian", "sigma": 1.0, "d": 1.5}, "d must"),
        ({"family": "modified", "base": {**_G1, "d": 2}, "mean_weight": _NAN, "d": 2}, "mean_weight"),
        ({"family": "sliced", "base": _G1, "theta_set": [[_NAN, 0.0]], "d": 2}, "theta_set"),
        ({"family": "sliced", "base": _G1, "theta_set": [[1.0, 0.0], [_INF, 0.0]], "d": 2}, "theta_set"),
        ({"family": "convroot", "sigma": 0.5, "d": _INF}, "d must"),
        ({"family": "convroot", "sigma": 0.5, "d": _NAN}, "d must"),
        ({"family": "gaussian", "sigma": 1e-170, "d": 2}, "sigma must be positive with a positive finite square"),
        ({"family": "convroot", "sigma": 1e-200, "d": 2}, "sigma = 1e-200 and d = 2"),
        ({"family": "convroot", "sigma": 1e200, "d": 2}, "sigma = 1e+200 and d = 2"),
        ({"family": "convroot", "sigma": 0.5, "d": 2000}, "sigma = 0.5 and d = 2000"),
    ],
)
def test_kernel_parameters_must_be_finite(data, capsys, kernel, field):
    p, _ = data
    assert field in _fails_with_one_line(["mmd", str(p), str(p), "--kernel", json.dumps(kernel)], capsys)


@pytest.mark.parametrize(
    "nu, sigma, named",
    [
        (150.0, 1.0, "nu = 150 and sigma = 1 "),  # K_nu(t) overflows at small t
        (170.0, 1.0, "nu = 170 and sigma = 1 "),  # 2^(1-nu) / Gamma(nu) underflows to 0
        (2.5, 1e-160, "nu = 2.5 and sigma = 1e-160 "),  # t^nu overflows where K_nu(t) is 0
        (2.5, 1e150, "nu = 2.5 and sigma = 1e+150 "),  # t^nu underflows where K_nu(t) overflows
    ],
)
def test_matern_values_out_of_float_range_are_one_error_line(tmp_path, capsys, nu, sigma, named):
    """Kernel values that would print as inf or nan end as one E: line naming nu and sigma."""
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    save_dataset(a, np.array([[0.0, 0.0], [0.01, 0.0], [1.0, 2.0]]))
    save_dataset(b, np.array([[0.5, 0.5], [2.0, 1.0]]))
    kernel = json.dumps({"family": "matern", "nu": nu, "sigma": sigma, "d": 2})
    assert named in _fails_with_one_line(["mmd", str(a), str(b), "--kernel", kernel], capsys)


@pytest.mark.parametrize("experiment, trials", [("fourier-bound", "1"), ("embeddability", "10")])
@pytest.mark.parametrize("nu", ["90", "150"])
def test_matern_transform_out_of_float_range_is_one_error_line(tmp_path, capsys, experiment, trials, nu):
    """From nu = 83 the Matern transform's constant overflows to inf, and from nu = 128 its float power raises."""
    out = tmp_path / "r.csv"
    kernel = json.dumps({"family": "matern", "nu": float(nu), "sigma": 1.0, "d": 1})
    err = _fails_with_one_line(["lab", experiment, "--trials", trials, "--kernel", kernel, "-o", str(out)], capsys)
    assert f"nu = {nu} and sigma = 1 leaves the float range" in err
    assert not out.exists()


@pytest.mark.parametrize("p", ["nan", "inf", "0.5"])
@pytest.mark.parametrize("d", [1, 2])
def test_wass_rejects_non_finite_p(tmp_path, capsys, p, d):
    rng = stream_rng(0x9F)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    save_dataset(a, rng.normal(size=(6, d)))
    save_dataset(b, rng.normal(size=(5, d)))
    err = _fails_with_one_line(["wass", str(a), str(b), "--p", p], capsys)
    assert "p must be a finite number >= 1" in err


@pytest.mark.parametrize(
    "experiment", [name for name, (_, settings) in lab.EXPERIMENTS.items() if "trials" in settings]
)
@pytest.mark.parametrize("trials", ["0", "-1"])
def test_lab_trials_must_be_positive(tmp_path, capsys, experiment, trials):
    out = tmp_path / "r.csv"
    err = _fails_with_one_line(["lab", experiment, "--trials", trials, "-o", str(out)], capsys)
    assert "--trials must be >= 1" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "experiment, flags, unread",
    [
        ("smoothing", ["--kernel", "quartic", "--trials", "0"], "--kernel, --trials"),
        ("smoothing", ["--k", "2"], "--k"),
        ("counterexample", ["--trials", "3"], "--trials"),
        ("counterexample", ["--d", "2"], "--d"),
        ("rates", ["--kernel", "gaussian"], "--kernel"),
        ("fourier-bound", ["--p", "1"], "--p"),
        ("dominance", ["--which", "w"], "--which"),
        ("sliced", ["--kernel", "gaussian", "--d", "3"], "--kernel"),
        ("embeddability", ["--d", "1"], "--d"),
        ("learnability", ["--p", "2"], "--p"),
    ],
)
def test_lab_rejects_settings_it_does_not_read(tmp_path, capsys, experiment, flags, unread):
    out = tmp_path / "r.csv"
    err = _fails_with_one_line(["lab", experiment, *flags, "-o", str(out)], capsys)
    assert err == f"E: lab {experiment} does not read {unread}\n"
    assert not out.exists()


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_sketch_rejects_out_of_range_seed(data, tmp_path, capsys, seed):
    p, _ = data
    out = tmp_path / "s.json"
    err = _fails_with_one_line(["sketch", str(p), "-o", str(out), "--m", "4", "--seed", seed], capsys)
    assert "seed must be an integer in [0, 2^64)" in err
    assert not out.exists()


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_decode_rejects_out_of_range_seed(data, tmp_path, capsys, seed):
    p, _ = data
    sk, out = tmp_path / "s.json", tmp_path / "c.csv"
    assert dispatch(["sketch", str(p), "-o", str(sk), "--m", "16", "--seed", "3"]) == 0
    err = _fails_with_one_line(["decode", str(sk), "-o", str(out), "--k", "1", "--seed", seed], capsys)
    assert "seed must be an integer in [0, 2^64)" in err
    assert not out.exists()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert dispatch(["decode", str(sk), "-o", str(out), "--k", "1", "--seed", str(2**64 - 1)]) == 0


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_lab_rejects_out_of_range_seed(tmp_path, capsys, seed):
    """`stream_rng` reads seeds modulo 2^64, so -1 and 2^64 would write the reports of 2^64 - 1 and 0."""
    out = tmp_path / "r.csv"
    err = _fails_with_one_line(["lab", "smoothing", "--seed", seed, "-o", str(out)], capsys)
    assert "seed must be an integer in [0, 2^64)" in err
    assert not out.exists()


@pytest.mark.parametrize("d", ["0", "-3"])
def test_lab_sliced_rejects_dimension_below_one(tmp_path, capsys, d):
    out = tmp_path / "r.csv"
    err = _fails_with_one_line(["lab", "sliced", "--d", d, "--trials", "1", "-o", str(out)], capsys)
    assert f"d must be an integer >= 1, got {d}" in err
    assert not out.exists()


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("spread", [100.0, 1e-4])
def test_wass_large_p_prints_a_finite_value(tmp_path, capsys, d, spread):
    rng = stream_rng(0xA0)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    save_dataset(a, spread * rng.normal(size=(12, d)))
    save_dataset(b, spread * rng.normal(size=(9, d)))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert dispatch(["wass", str(a), str(b), "--p", "200"]) == 0
    out = capsys.readouterr()
    assert caught == [] and out.err == ""
    assert 0.0 < float(out.out) < np.inf


def test_wass_p_whose_costs_underflow_is_one_error_line(tmp_path, capsys):
    """At p = 1e5 every distance's p-th power below the largest underflows, and `wass` printed 0."""
    rng = stream_rng(0xA1)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    save_dataset(a, rng.normal(size=(40, 2)))
    save_dataset(b, rng.normal(size=(30, 2)))
    assert "p = 100000 is too large" in _fails_with_one_line(["wass", str(a), str(b), "--p", "100000"], capsys)
    assert dispatch(["wass", str(a), str(b), "--p", "1000"]) == 0
    assert 0.0 < float(capsys.readouterr().out) < np.inf


@pytest.mark.parametrize("m", [40, 30])
@pytest.mark.parametrize("d", [1, 2])
def test_wass_coordinates_beyond_1e154_print_their_value(tmp_path, capsys, d, m):
    """Squared coordinate differences overflowed in d >= 2: three warnings, then a scipy error line."""
    rng = stream_rng(0xA2)
    X, Y = rng.normal(size=(40, d)) * 1e300, rng.normal(size=(m, d))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    save_dataset(a, X)
    save_dataset(b, Y)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert dispatch(["wass", str(a), str(b), "--p", "2"]) == 0
    out = capsys.readouterr()
    assert caught == [] and out.err == ""
    uniform = lambda P: DiscreteMeasure(P, np.ones(len(P)))
    assert float(out.out) == pytest.approx(wasserstein(2, uniform(X), uniform(Y)), rel=1e-15)
    assert 1e299 < float(out.out) < np.inf


def test_lab_counterexample_cancelled_mmd_is_one_line(tmp_path, capsys):
    """At k = 8 the Gaussian double sum of the Dirac pair cancels to 0 at eps = 1/16."""
    out = tmp_path / "r.csv"
    err = _fails_with_one_line(["lab", "counterexample", "--k", "8", "-o", str(out)], capsys)
    assert "reads 0.0 at eps = 0.0625" in err
    assert not out.exists()


@pytest.mark.parametrize("k", ["5", "6"])
def test_lab_counterexample_mmd_at_round_off_is_one_line(tmp_path, capsys, k):
    """At k = 5 and 6 the Gaussian double sum falls to its own round-off on the eps grid."""
    out = tmp_path / "r.csv"
    err = _fails_with_one_line(["lab", "counterexample", "--k", k, "-o", str(out)], capsys)
    assert f"k = {k} cancels below round-off" in err
    assert not out.exists()


def test_lab_fourier_bound_non_finite_integral_is_one_line(tmp_path, capsys):
    """Under a unit Gaussian kernel the integrand's two Gaussian tails underflow to 0/0."""
    out = tmp_path / "r.csv"
    argv = ["lab", "fourier-bound", "--trials", "2", "--kernel", "gaussian", "-o", str(out)]
    assert "not finite" in _fails_with_one_line(argv, capsys)
    assert not out.exists()



def test_mmd_of_atoms_beyond_1e154_prints_no_warning(tmp_path, capsys):
    """Squared distances beyond the float maximum are inf by design, where the Gaussian kernel reads
    0: `mmd` printed an overflow RuntimeWarning from the Gram matrix beside the right value."""
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    a.write_text("x0\n0\n2e154\n")
    b.write_text("x0\n0.5\n")
    assert dispatch(["mmd", str(a), str(b), "--kernel", "gaussian"]) == 0
    out = capsys.readouterr()
    assert out.err == "" and out.out == "0.78581365311084073\n"
    assert float(out.out) == pytest.approx(np.sqrt(1.5 - np.exp(-0.125)), rel=1e-15)


def test_wass_w1_near_the_float_maximum_prints_its_value(tmp_path, capsys):
    """The gaps of {1.5e308, 0} against {-1.5e308, 1} overflow, but W_1 = 1.5e308: `wass` printed inf."""
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    a.write_text("x0\n1.5e308\n0\n")
    b.write_text("x0\n-1.5e308\n1\n")
    assert dispatch(["wass", str(a), str(b), "--p", "1"]) == 0
    out = capsys.readouterr()
    assert out.err == "" and float(out.out) == 1.5e308


def test_wass_w1_beyond_the_float_maximum_is_one_error_line(tmp_path, capsys):
    """W_1 of {1.7e308} against {-1e308} is 2.7e308, not a float: `wass` printed nan."""
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    a.write_text("x0\n1.7e308\n")
    b.write_text("x0\n-1e308\n")
    assert "p = 1 " in _fails_with_one_line(["wass", str(a), str(b), "--p", "1"], capsys)
