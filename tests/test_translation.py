"""Every distance wmmd returns depends on x - y alone, so moving both measures
by one vector c moves no value beyond the rounding of the moved inputs,
max |(x + c) - c - x|.  The pair is the 2-D one of 50 vs 40 weighted atoms
that measured the Gram-form squared distances' drift (up to 2.6e-2 at
t = 1e7)."""

import numpy as np
import pytest

from wmmd.discrepancy import mmd_discrete, mmd_gaussian_kernel
from wmmd.kernels import KernelSpec
from wmmd.lab import disjoint_segment
from wmmd.measures import DiscreteMeasure, stream_rng
from wmmd.tasks import Hypothesis, TaskSpec, risk
from wmmd.transport import w_exact

_rng = stream_rng(0x6E)
X, A = _rng.normal(size=(50, 2)), _rng.uniform(0.1, 1, 50)
Y, B = _rng.normal(size=(40, 2)) + 0.5, _rng.uniform(0.1, 1, 40)
CENTRES = _rng.normal(size=(3, 2))


def _values(c):
    mu, nu = DiscreteMeasure(X + c, A), DiscreteMeasure(Y + c, B)
    uniform = DiscreteMeasure(X[:40] + c, np.ones(40)), DiscreteMeasure(Y + c, np.ones(40))
    return {
        "W_1 by LP": w_exact(1, mu, nu)[0],
        "W_2 by LP": w_exact(2, mu, nu)[0],
        "W_1 by assignment": w_exact(1, *uniform)[0],
        "Gaussian closed form": mmd_gaussian_kernel(KernelSpec.gaussian(1.0, 2), mu, nu),
        "Laplacian double sum": mmd_discrete(KernelSpec.laplacian(1.0, 2), mu, nu),
        "k-means risk": risk(TaskSpec("kmeans", K=3), mu, Hypothesis("kmeans", CENTRES + c)),
    }


@pytest.mark.parametrize("t", [1e3, 1e5, 1e6, 1e7])
def test_a_common_shift_moves_no_value_beyond_the_input_rounding(t):
    c = np.array([t, -0.7 * t])
    floor = max(np.max(np.abs((Z + c) - c - Z)) for Z in (X, Y, CENTRES))
    base = _values(np.zeros(2))
    drift = {route: abs(v - base[route]) / base[route] for route, v in _values(c).items()}
    assert all(r <= floor for r in drift.values()), (floor, drift)


def test_disjoint_segment_refuses_a_2d_pair_that_shares_an_atom():
    """A shared atom is 0 from itself, however far from the origin it lies."""
    for i in range(200):
        rng = np.random.default_rng([1, i])
        P, Q = 10 * rng.normal(size=(5, 2)), 10 * rng.normal(size=(4, 2))
        Q[0] = P[rng.integers(5)]
        with pytest.raises(ValueError, match="supports must be disjoint"):
            disjoint_segment(DiscreteMeasure(P, np.ones(5)), DiscreteMeasure(Q, np.ones(4)), 0.5)
