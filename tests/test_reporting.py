import json

import pytest

from wmmd.kernels import KernelSpec
from wmmd.lab import Report, SlopeFit, emit_report, mmd_rate, scaling_exponent, w_rate
from wmmd.measures import GaussianMixture


def test_report_row_width_checked():
    rep = Report("demo", ["a", "b"])
    rep.add_row(1, 2)
    with pytest.raises(ValueError):
        rep.add_row(1, 2, 3)


def test_report_passes_by_default():
    assert Report("demo", ["a"]).passed
    rep = Report("demo", ["a"])
    rep.summary = {"pass": False}
    assert not rep.passed


def test_emit_report_csv_and_sidecar(tmp_path):
    rep = Report("demo", ["name", "value"])
    rep.add_row("x", 0.1)
    rep.summary = {"pass": True, "extra": 2.5}
    out = tmp_path / "r.csv"
    emit_report(rep, out)
    lines = out.read_text().splitlines()
    assert lines[0] == "name,value"
    assert lines[1].startswith("x,0.1")
    side = json.loads((tmp_path / "r.csv.summary.json").read_text())
    assert side["pass"] is True
    assert side["experiment"] == "demo"
    assert side["version"].startswith("wmmd-")


def test_floats_round_trip_at_full_precision(tmp_path):
    v = 0.1 + 0.2  # not exactly 0.3
    rep = Report("demo", ["value"])
    rep.add_row(v)
    out = tmp_path / "p.csv"
    emit_report(rep, out)
    back = float(out.read_text().splitlines()[1])
    assert back == v


def test_slope_fit_grid_recomputable():
    pairs = [(x, 2.0 * x**1.5) for x in (1.0, 2.0, 4.0, 8.0)]
    fit = scaling_exponent(pairs)
    assert isinstance(fit, SlopeFit)
    assert fit.grid == tuple(pairs)
    assert scaling_exponent(fit.grid).slope == fit.slope


_NORMAL = GaussianMixture([1.0], [[0.0]], [1.0])
_RATES = {
    "mmd_rate": lambda grid, trials: mmd_rate(_NORMAL, KernelSpec.gaussian(1.0, 1), grid, trials, 0),
    "w_rate": lambda grid, trials: w_rate(_NORMAL, 1, grid, trials, 0),
}


@pytest.mark.parametrize("rate", _RATES.values(), ids=_RATES.keys())
@pytest.mark.parametrize("grid, trials", [([8, 16, 32, 64, 128], 0), ([8, 16, 32, 64], 1)], ids=["no-trials", "4-sizes"])
def test_sampling_rates_reject_no_trials_and_short_grids(rate, grid, trials):
    with pytest.raises(ValueError):
        rate(grid, trials)
