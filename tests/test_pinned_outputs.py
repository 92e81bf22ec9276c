"""Outputs pinned bit for bit across refactors of the distance code.

The values below were recorded before the squared-distance formula was
shared through `kernels._sq_dists` and before `wasserstein`/`mmd` chose the
routes, on numpy 2.4.6, scipy 1.17.1 and OpenBLAS (x86-64).  Floats are
compared as hex strings, CLI output as text and sketch files by SHA-256.
"""

import hashlib
import json

import numpy as np
import pytest

from wmmd import lab
from wmmd.cli import dispatch
from wmmd.measures import DiscreteMeasure, RegularizerSpec, save_dataset, stream_rng
from wmmd.tasks import Hypothesis, TaskSpec, kmeans_project, lloyd, risk
from wmmd.transport import w_exact, w_rate

RECORDED = {
    "lloyd_d2": [
        "0x1.757fe69e2d821p+2", "0x1.80c0695f03746p-1", "-0x1.3bd4efb0818b8p+2",
        "-0x1.1cd7417e37ab7p-2", "-0x1.ce09e47c3d0f6p+2", "0x1.8b3470aac2af1p-2",
    ],
    "risk_d2": ["0x1.d65582be55151p+0", "0x1.3255a7f10ab9ep+0"],
    "project_d2": ["0x1.6098ead65b7adp-2", "0x1.3e1f671529a34p-2", "0x1.6147ae147ae1fp-2"],
    "lloyd_d3": [
        "-0x1.f9b8f6161a4fcp+2", "0x1.1eff49c89098dp+2", "0x1.fd5ab57460a22p+1",
        "0x1.0883869516f82p-5", "0x1.93174e8875168p-3", "-0x1.c232c47e52b02p-1",
        "-0x1.67fc686eba17ap+0", "0x1.1683473e40ef5p+3", "-0x1.b5322a68c7188p+2",
    ],
    "risk_d3": ["0x1.81c9ceeb78f2fp+1", "0x1.9999ddce71009p+0"],
    "project_d3": ["0x1.5fea27983c13cp-2", "0x1.5a740da740dacp-2", "0x1.45a1cac083119p-2"],
    "w_exact": [
        "0x1.d027df111d697p+0", "0x1.bad3dcf27d184p+0", "0x1.4d14a5160055fp+0",
        "0x1.2cf74da69e320p+1", "0x1.5bfa882289f70p+0", "0x1.4788d4b715308p+0",
        "0x1.ae4d6b18ccad9p+0", "0x1.f4aa665a47952p+0", "0x1.6c0e8c7818a84p+0",
        "0x1.f28245e311a8ap+0", "0x1.0da0e796156e5p+0", "0x1.599c3749ed3f3p+0",
        "0x1.c83aa559f540ep-1", "0x1.87fb5f6d44fedp+0", "0x1.fc857b606040dp-1",
        "0x1.80b011d034d90p+0", "0x1.0ea074c2cfa77p+0", "0x1.a03946980f3a0p+0",
        "0x1.a646cc8cf4c7ap-1", "0x1.37b6c929479f7p+1", "0x1.4d0564d0b895fp+0",
        "0x1.eb588ea87729bp+0", "0x1.9e0ac99950033p-1", "0x1.928393c0d220ep+0",
        "0x1.9959199ea7e1ep+0", "0x1.8525f01f80642p+0", "0x1.ebc85a5eb2501p-1",
        "0x1.6dcb0edca57e1p+0", "0x1.62d45d48c38bdp-1", "0x1.00d5b7b408895p+1",
        "0x1.ee26b2bf8ed94p+0", "0x1.aad5ec936df92p+0", "0x1.d0263a2713a5dp-1",
        "0x1.82b989309b0c7p+0", "0x1.a6c962ed19cb3p+0", "0x1.7b7540f951cc3p+0",
        "0x1.13c444a8b8ba1p+0", "0x1.1fff8e368ccdbp+0", "0x1.19eab2cc11ef0p+0",
        "0x1.cc65743f4b116p+0",
    ],
    # The last slope is re-recorded since the LP costs are scaled by a power of
    # two: HiGHS picks another optimal basis for one of its ten W_2 values,
    # which moves that value by one ulp.
    "w_rate": [
        "-0x1.5732ef6d343abp-1", "-0x1.52be592287440p-2", "-0x1.3a7b97a4db9acp-2",
        "-0x1.03cba6bd1fb8ap-1",
    ],
    "lemma24": ["0x1.7eb9c356f03fap-1", "0x1.609961568b0a8p-1", "0x1.0703fa0ebcd45p-6"],
    "cli": [
        "0.33179683462770077\n", "0.42172066788923324\n", "0.21484672229342724\n",
        "1.1247349592121727\n", "0.81639413158038354\n", "0.87256574866923642\n",
        "1.5606234685757456\n", "0.61989984169433032\n",
    ],
    "sketch_sha256": [
        "0932524430d112dd4ddfee8157d3b7252c86deb069274319e6f9781c1311e4a9",
        "119e46d4ee9159f6f11b353975449fea25a6880521b45d9357fd4a4aba1c4961",
        "a98dffc888a4a8ea027c5aa7538d467ac2fd8fd5196fa808d0729550362f1543",
    ],
}


def _hex(values):
    return [float(v).hex() for v in np.ravel(values)]


def test_lloyd_risk_and_projection():
    rng = stream_rng(0x5A, 0)
    for d in (2, 3):
        centres = rng.uniform(-10, 10, size=(3, d))
        X = centres[rng.integers(0, 3, 3000)] + rng.standard_normal((3000, d))
        emp = DiscreteMeasure(X, np.ones(3000))
        assert _hex(lloyd(emp, 3, 3, stream_rng(d, 1)).payload) == RECORDED[f"lloyd_d{d}"]
        g = Hypothesis("kmeans", centres)
        risks = [risk(TaskSpec("kmeans", K=3), emp, g), risk(TaskSpec("kmedians", K=3), emp, g)]
        assert _hex(risks) == RECORDED[f"risk_d{d}"]
        assert _hex(kmeans_project(g, emp).weights) == RECORDED[f"project_d{d}"]


def test_w_exact_values():
    """Uniform equal-size pairs (assignment) and weighted pairs (LP), d = 2, 3, p = 1, 2."""
    rng = stream_rng(0x5A, 1)
    vals = []
    for i in range(40):
        d, p = 2 + i % 2, 1 + (i // 2) % 2
        n = int(rng.integers(3, 30))
        if i % 4 < 2:
            mu = DiscreteMeasure(rng.normal(size=(n, d)), np.ones(n))
            nu = DiscreteMeasure(rng.normal(size=(n, d)) + 0.5, np.ones(n))
        else:
            m = int(rng.integers(3, 30))
            mu = DiscreteMeasure(rng.normal(size=(n, d)), rng.uniform(0.1, 1, n))
            nu = DiscreteMeasure(rng.normal(size=(m, d)) + 0.5, rng.uniform(0.1, 1, m))
        vals.append(w_exact(p, mu, nu)[0])
    assert _hex(vals) == RECORDED["w_exact"]


def test_w_rate_slopes_and_lemma24():
    def u1(n, r):
        return r.uniform(0.0, 1.0, size=(n, 1))

    def u3(n, r):
        return r.uniform(0.0, 1.0, size=(n, 3))

    atoms = DiscreteMeasure(stream_rng(5).normal(size=(12, 2)), np.ones(12))
    slopes = [
        w_rate(u1, 1, [2**j for j in range(6, 11)], 2, 11).slope,
        w_rate(u3, 1, [2**j for j in range(4, 9)], 2, 11).slope,
        w_rate(u3, 2, [2**j for j in range(4, 9)], 1, 12).slope,
        w_rate(atoms, 2, [4, 6, 8, 10, 12], 2, 13).slope,
    ]
    assert _hex(slopes) == RECORDED["w_rate"]
    mu = DiscreteMeasure(stream_rng(7).uniform(-1, 1, size=(5, 2)), np.ones(5))
    nu = DiscreteMeasure(stream_rng(8).uniform(-1, 1, size=(5, 2)), np.ones(5))
    res = lab.lemma24_check(RegularizerSpec(0.3), mu, nu, n=256, boot=3, seed=1)
    assert _hex([res["w_true"], res["w_smoothed_est"], res["stderr"]]) == RECORDED["lemma24"]


@pytest.fixture
def datasets(tmp_path):
    rng = stream_rng(0x5A, 2)
    paths = {}
    for name, shape in (("a1", (40, 1)), ("b1", (55, 1)), ("a2", (30, 2)), ("b2", (30, 2)), ("c2", (25, 2))):
        paths[name] = str(tmp_path / f"{name}.csv")
        save_dataset(paths[name], rng.normal(size=shape) + (name[0] == "b"))
    return paths


def test_cli_mmd_and_wass_output(datasets, capsys):
    p = datasets
    modified = json.dumps(
        {"family": "modified", "base": {"family": "gaussian", "sigma": 1.5, "d": 2}, "mean_weight": 0.5, "d": 2}
    )
    runs = [
        ["mmd", p["a1"], p["b1"], "--kernel", "gaussian"],
        ["mmd", p["a2"], p["b2"], "--kernel", "laplacian"],
        ["mmd", p["a2"], p["c2"], "--kernel", "matern"],
        ["mmd", p["a2"], p["b2"], "--kernel", modified],
        ["wass", p["a1"], p["b1"], "--p", "1"],
        ["wass", p["a1"], p["b1"], "--p", "2"],
        ["wass", p["a2"], p["b2"], "--p", "2"],
        ["wass", p["a2"], p["c2"], "--p", "1"],
    ]
    printed = []
    for argv in runs:
        assert dispatch(argv) == 0
        printed.append(capsys.readouterr().out)
    assert printed == RECORDED["cli"]


def test_sketch_file_bytes(datasets, tmp_path):
    files = []
    for i, name in enumerate(("a2", "b2")):
        files.append(tmp_path / f"s{i}.json")
        assert dispatch(["sketch", datasets[name], "-o", str(files[-1]), "--m", "64", "--seed", "3"]) == 0
    files.append(tmp_path / "m.json")
    assert dispatch(["merge", *map(str, files[:2]), "-o", str(files[-1])]) == 0
    assert [hashlib.sha256(f.read_bytes()).hexdigest() for f in files] == RECORDED["sketch_sha256"]
