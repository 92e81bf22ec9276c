"""The per-layer benchmark tracer still finds every name it wraps.

`bench/tracer.py` replaces module-level names and methods of wmmd with timing
wrappers; a renamed or deleted name makes `install` raise AttributeError, and
a name the code no longer calls through reads zero.
"""

import importlib.util
from pathlib import Path

import numpy as np

import wmmd
import wmmd.cli
import wmmd.lab
from wmmd.kernels import KernelSpec
from wmmd.measures import DiscreteMeasure

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("wmmd_bench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_tracer_installs_and_counts():
    tracing = _load_tracer()
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer, wmmd)
        tracer.active = True
        wmmd.sketch.draw_features(KernelSpec.gaussian(1.0, 2), 8, 0)
        rng = np.random.default_rng(3)
        pair = (
            DiscreteMeasure(rng.normal(size=(3, 2)), rng.uniform(0.1, 1, 3)),
            DiscreteMeasure(rng.normal(size=(4, 2)), rng.uniform(0.1, 1, 4)),
        )
        wmmd.lab.mmd_dominance_check(KernelSpec.gaussian(1.0, 2), [pair])
        tracer.active = False
        assert tracer.counts["kernels.spectral_sample_calls"] == 8
        assert tracer.self_s["transport.w_exact_s"] > 0
        assert tracer.self_s["discrepancy.mmd_discrete_s"] > 0
        # the pair's one LP goes through the wrapped `transport.linprog`
        assert tracer.counts["transport.lp_calls"] == 1
        assert tracer.counts["transport.lp_iterations"] > 0
        assert tracer.self_s["transport.lp_solve_s"] > 0
    finally:
        tracer.restore()
    assert not hasattr(wmmd.transport.w_exact, "__wrapped__")
