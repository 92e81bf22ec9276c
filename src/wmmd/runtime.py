"""Threads: the block pool behind the Gaussian and sketch sums, and the BLAS caps.

Row blocks of a sum run on one shared pool, one thread per CPU in the
affinity mask; `cap_threads` caps the pool and every loaded OpenBLAS.
"""

from __future__ import annotations

import contextvars
import ctypes
import os

__all__ = ["blas_threads", "cap_threads"]

# Threads for the blocks: every CPU in the affinity mask, or `cap_threads`'
# cap.  The pool starts at the first threaded sum; a forked child starts anew.
_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
_workers, _pool = _CPUS, None
os.register_at_fork(after_in_child=lambda: globals().update(_pool=None))

# Blocks per wave of a threaded sum.  A wave's values are added before the
# next wave starts, so at most this many block values (arrays, for a sketch)
# are held at once.
_WAVE = 32


def _openblas_fns(name):
    """OpenBLAS's `name` function from every OpenBLAS mapped into this process.

    numpy and scipy may each load their own copy, and a copy reads the
    environment variables only when it loads (scipy's at its first call), so
    the copies already loaded are capped through these functions.
    """
    try:
        with open("/proc/self/maps") as f:
            paths = sorted(
                {ln.split()[-1] for ln in f if "openblas" in ln.lower() and ln.rstrip().endswith(".so")}
            )
    except OSError:
        return []
    fns = []
    for path in paths:
        lib = ctypes.CDLL(path)
        for sym in (f"scipy_openblas_{name}64_", f"scipy_openblas_{name}", f"openblas_{name}64_", f"openblas_{name}"):
            if hasattr(lib, sym):
                fns.append(getattr(lib, sym))
                break
    return fns


def blas_threads():
    """Thread count of every loaded OpenBLAS, read back from the library."""
    counts = []
    for fn in _openblas_fns("get_num_threads"):
        fn.argtypes, fn.restype = [], ctypes.c_int
        counts.append(int(fn()))
    return counts


def cap_threads(n):
    """Compute on at most n threads: the block sums, and every OpenBLAS.

    n is clamped to [1, CPUs in the affinity mask], one value for the pool
    and for BLAS (a C int, which a larger n would wrap).  The OpenBLAS copies already loaded are capped at once; one that loads
    later (scipy's, at its first call) reads the cap from OMP_NUM_THREADS,
    OPENBLAS_NUM_THREADS and MKL_NUM_THREADS, which are set here.  The
    OpenBLAS count is process-wide.
    """
    global _workers
    n = _workers = min(max(1, int(n)), _CPUS)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(n)
    for fn in _openblas_fns("set_num_threads"):
        fn.argtypes, fn.restype = [ctypes.c_int], None
        fn(n)


def _block_sum(block_value, starts, threaded=True):
    """Sum of block_value(i0) over the block starts, added in block order.

    Values are floats or arrays.  Threaded, the blocks go out in waves of
    _WAVE: block i of a wave goes to pool thread i mod W, which runs it in a
    copy of the caller's context (numpy's error state included).
    """
    global _pool
    w = min(_workers, len(starts)) if threaded else 1
    total = 0.0
    if w < 2:
        for i0 in starts:
            total += block_value(i0)
        return total
    from concurrent.futures import ThreadPoolExecutor, wait

    _pool = _pool or ThreadPoolExecutor(_CPUS, thread_name_prefix="wmmd-blocks")
    share = lambda part: [block_value(i0) for i0 in part]
    for lo in range(0, len(starts), _WAVE):
        wave = starts[lo : lo + _WAVE]
        futures = [_pool.submit(contextvars.copy_context().run, share, wave[k::w]) for k in range(min(w, len(wave)))]
        wait(futures)  # no block outlives the call, even when one raises
        shares = [f.result() for f in futures]
        for i in range(len(wave)):
            total += shares[i % w][i // w]
    return total
