"""Per-layer self times and work counts, recorded around calls into wmmd.

The tracer replaces module-level names and class methods of the wmmd modules
with wrappers.  A span wrapper times its call and charges the time not spent in
nested spans ("self time") to its metric; a counter wrapper only adds to a
count.  Wrappers are installed only for a traced run, and record only while
``Tracer.active`` is set, so set-up and checks are not charged.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict


def _components(measure):
    """Atoms of a discrete measure, components of a mixture."""
    return measure.n if hasattr(measure, "n") else measure.K


class Tracer:
    def __init__(self):
        self.active = False
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self._open = []  # time covered by nested spans, one entry per open span
        self._saved = []

    def span(self, name, fn, count=None):
        """Wrap fn; `name` may be a callable of the call's arguments."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer._open.append(0.0)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                nested = tracer._open.pop()
                key = name(*args) if callable(name) else name
                tracer.self_s[key] += dt - nested
                if tracer._open:
                    tracer._open[-1] += dt
            if count is not None:
                for k, v in count(args, out):
                    tracer.counts[k] += v
            return out

        return wrapper

    def counter(self, fn, count):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            if tracer.active:
                for k, v in count(args, out):
                    tracer.counts[k] += v
            return out

        return wrapper

    def patch(self, owners, attr, wrap):
        """Point `attr` of every owner at one wrapper of the first owner's object."""
        wrapper = wrap(getattr(owners[0], attr))
        for owner in owners:
            self._saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapper)

    def restore(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


def install(tracer, wmmd):
    """Wrap the layer boundaries of the wmmd package (a module namespace)."""
    measures, kernels, discrepancy = wmmd.measures, wmmd.kernels, wmmd.discrepancy
    transport, sketch, tasks, lab, cli = wmmd.transport, wmmd.sketch, wmmd.tasks, wmmd.lab, wmmd.cli
    span, counter, patch = tracer.span, tracer.counter, tracer.patch

    # measures
    patch([transport], "gmm_quantiles", lambda f: span("measures.gmm_quantiles_s", f))
    patch([measures.GaussianMixture], "cdf",
          lambda f: counter(f, lambda a, out: [("measures.cdf_evals", int(out.size))]))
    patch([measures], "sample", lambda f: span("measures.sample_s", f))
    patch([cli], "load_dataset", lambda f: span("measures.load_dataset_s", f))

    # kernels
    patch([kernels.KernelSpec], "gram", lambda f: span("kernels.gram_s", f))
    patch([kernels.KernelSpec], "spectral_sample",
          lambda f: counter(f, lambda a, out: [("kernels.spectral_sample_calls", 1)]))

    # discrepancy
    patch([discrepancy, lab], "mmd_gaussian_kernel", lambda f: span(
        "discrepancy.mmd_gaussian_kernel_s", f,
        lambda a, out: [("discrepancy.gauss_pairs",
                         (_components(a[1]) + _components(a[2])) ** 2
                         - _components(a[1]) * _components(a[2]))]))
    patch([discrepancy, lab], "mmd_spectral_1d", lambda f: span("discrepancy.mmd_spectral_1d_s", f))
    patch([discrepancy], "quad", lambda f: counter(f, lambda a, out: [("discrepancy.quad_calls", 1)]))
    patch([discrepancy, lab], "mmd_discrete", lambda f: span("discrepancy.mmd_discrete_s", f))

    # transport
    def w1d_name(p, mu, nu):
        discrete = isinstance(mu, measures.DiscreteMeasure) and isinstance(nu, measures.DiscreteMeasure)
        return "transport.w1d_discrete_s" if discrete else "transport.w1d_mixture_s"

    def merge_atoms(a, out):
        mu, nu = a[1], a[2]
        if isinstance(mu, measures.DiscreteMeasure) and isinstance(nu, measures.DiscreteMeasure):
            return [("transport.merge_atoms", mu.n + nu.n)]
        return []

    patch([transport, lab], "w1d", lambda f: span(w1d_name, f, merge_atoms))
    patch([transport, lab], "w_exact", lambda f: span("transport.w_exact_s", f))
    patch([transport], "linear_sum_assignment", lambda f: span("transport.assignment_s", f))
    patch([transport], "_solve_transport_lp", lambda f: span("transport.lp_build_s", f))
    patch([transport], "linprog", lambda f: span(
        "transport.lp_solve_s", f,
        lambda a, out: [("transport.lp_calls", 1), ("transport.lp_iterations", int(out.nit))]))
    patch([transport.TransportPlan], "validate", lambda f: span("transport.validate_s", f))

    # sketch
    patch([sketch, cli], "draw_features", lambda f: span("sketch.draw_features_s", f))
    patch([sketch.FeatureMap], "phi", lambda f: span(
        "sketch.phi_s", f, lambda a, out: [("sketch.phi_entries", int(out.size))]))
    patch([sketch, cli], "sketch_samples", lambda f: span("sketch.sketch_samples_s", f))
    patch([sketch, cli], "merge", lambda f: span("sketch.merge_s", f))
    patch([cli], "save_sketch", lambda f: span("sketch.io_s", f))
    patch([cli], "load_sketch", lambda f: span("sketch.io_s", f))

    # tasks
    patch([tasks], "decode_diracs", lambda f: span("tasks.decode_s", f))
    patch([tasks], "_ascend_atom", lambda f: span("tasks.ascend_s", f))
    patch([tasks], "nnls", lambda f: span("tasks.nnls_s", f))
    patch([tasks], "_phi_single", lambda f: counter(f, lambda a, out: [("tasks.phi_single_calls", 1)]))
    patch([tasks], "lloyd", lambda f: span("tasks.lloyd_s", f))

    # lab and cli
    patch([lab], "mmd_dominance_check", lambda f: span("lab.dominance_s", f))
    patch([cli], "dispatch", lambda f: span("cli.dispatch_s", f))
