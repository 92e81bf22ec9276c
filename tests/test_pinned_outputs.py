"""Outputs pinned bit for bit across refactors of the distance code.

The values below were recorded before the squared-distance formula was
shared through `kernels._sq_dists` and before `wasserstein`/`mmd` chose the
routes, on numpy 2.4.6, scipy 1.17.1 and OpenBLAS (x86-64).  Floats are
compared as hex strings, CLI output as text, and sketch files and `wmmd lab`
reports (the CSV and its summary sidecar) by SHA-256.  The `task_*` values
were recorded before the task variants became one table in `tasks`.

One value is re-recorded since 1-D squared distances are formed as
differences (x - y)^2 rather than by the Gram form x^2 + y^2 - 2xy: the
1-D Gaussian `wmmd mmd` line, `RECORDED["cli"][0]`, moved from
0.33179683462770077 to 0.33179683462770093.  The value to 50 digits
(mpmath) is 0.33179683462770100, so the new one is closer.

One report is re-recorded since the 1-D mixture integrals run by tanh-sinh
quadrature (`measures._tanh_sinh`): `embeddability --trials 10`, whose W_2
values come from `w1d`'s mixture route and whose Matern MMDs come from the
spectral route.  Its W_2 column moved by at most 1.2e-6 relative, the old
grid route's error (the new route matches closed forms to about 1e-15), its
MMD column by at most 1.1e-13, and its `pass`, `stable` and `diverging`
fields are unchanged.  It is re-recorded once more since the report dropped
two fields that never varied: the CSV's `scale` column (always 1) and the
sidecar's `diverging` (always false).  Every other column and field is the
same bytes.

One report is re-recorded since `wmmd lab fourier-bound` writes both sides of
every pair: `fourier-bound --trials 2` wrote `nan` for `w2` and `rhs` on each
pair that violates the W_2 bound (both do, as criterion 6 expects) and now
writes the numbers (W_2 0.3114 and 0.2275 against rhs 0.1300 and 0.0787).
Its summary sidecar, `pass` false included, is the same bytes.

Two pins are re-recorded since the Laplacian is built as the Matern kernel
with nu = 1/2, whose profile is now computed in closed form:
- `RECORDED["cli"][2]`, the `wmmd mmd --kernel matern` line (nu = 1/2),
  moved from 0.21484672229342724 to 0.21484672229342711.  The profile
  np.exp(-t) replaces the Bessel form 2^(1-nu)/Gamma(nu) t^nu K_nu(t): on
  4,000 radii t uniform on (0, 8), the first is correctly rounded on 95.8% of
  them against 0.6% for the second, with mean relative errors of 4.0e-17
  against 2.8e-16 (mpmath reference).  The end-to-end value cannot tell the
  two apart: both lie 6.8e-11 below the mpmath value 0.21484672236154268567,
  an error that came from the Gram-form squared distances of
  `kernels._sq_dists` (self-distances up to 2.1e-8 met the kernel's kink at
  0; see the next paragraph).  The Laplacian line `RECORDED["cli"][1]` and the
  `counterexample --kernel laplacian` report kept their bytes.
- `RECORDED["w_rate"][3]` returns to -0x1.03cba6bd1fb8cp-1, its value before
  the power-of-two cost scaling, since the transport LP is solved at a 1e-10
  dual feasibility tolerance: at HiGHS's default 1e-7 one of its ten W_2
  values stopped at a vertex one ulp off.

Twenty pins and four reports are re-recorded since squared distances are
formed from coordinate differences in every dimension, not by the Gram form
x^2 + y^2 - 2xy for d >= 2.  Every changed float is listed below as old ->
new, against a 40-digit mpmath reference: for an MMD line the double sum
over the CSV values; for a W_p value the same plan's cost over mpmath
distances (every plan is unchanged); for a risk the weighted sum of mpmath
losses; for a `w_rate` slope the least-squares slope over the mean mpmath
costs of the same plans.  The error is in ulps of the reference.
- `RECORDED["cli"][1]`, `wmmd mmd --kernel laplacian` (d = 2):
  0.42172066788923324 -> 0.42172066810705283, mpmath 0.42172066810705282611
  (error -3.9e6 -> +0.1 ulp).
- `RECORDED["cli"][2]`, `wmmd mmd --kernel matern`: 0.21484672229342711 ->
  0.21484672236154242, mpmath 0.21484672236154268567 (-2.5e6 -> -9.4 ulp; the
  9.4 ulp are the float double sum's, whose terms are 11 times the squared MMD).
- `RECORDED["cli"][7]`, `wmmd wass --p 1` (d = 2): 0.61989984169433032 ->
  0.61989984169433021, reference 0.61989984169433021144 (+1 -> 0 ulp).
- The rest, as (pin, old, new, reference, error old -> new):

      w_exact[0]        0x1.d027df111d697p+0   0x1.d027df111d696p+0   1.8131083885940931    +1 -> 0
      w_exact[8]        0x1.6c0e8c7818a84p+0   0x1.6c0e8c7818a85p+0   1.4220969956592464     0 -> +1
      w_exact[14]       0x1.fc857b606040dp-1   0x1.fc857b606040bp-1   0.9932058863779516    +1 -> -1
      w_exact[18]       0x1.a646cc8cf4c7ap-1   0x1.a646cc8cf4c79p-1   0.82475890370041249   +1 -> 0
      w_exact[20]       0x1.4d0564d0b895fp+0   0x1.4d0564d0b8960p+0   1.3008635530064439    -1 -> 0
      w_exact[23]       0x1.928393c0d220ep+0   0x1.928393c0d220dp+0   1.5723202081445635    +1 -> 0
      w_exact[28]       0x1.62d45d48c38bdp-1   0x1.62d45d48c38bbp-1   0.69302646172743421   +1 -> -1
      w_exact[32]       0x1.d0263a2713a5dp-1   0x1.d0263a2713a5cp-1   0.90654165007601817   +1 -> 0
      w_exact[33]       0x1.82b989309b0c7p+0   0x1.82b989309b0c8p+0   1.5106435531297833    +1 -> +2
      w_exact[35]       0x1.7b7540f951cc3p+0   0x1.7b7540f951cc2p+0   1.4822579010668029     0 -> -1
      w_exact[36]       0x1.13c444a8b8ba1p+0   0x1.13c444a8b8ba0p+0   1.0772135650556507    +1 -> 0
      risk_d2[0]        0x1.d65582be55151p+0   0x1.d65582be55152p+0   1.8372422899893379    -2 -> -1
      risk_d3[0]        0x1.81c9ceeb78f2fp+1   0x1.81c9ceeb78f37p+1   3.013971199967183     -7 -> +1
      risk_d3[1]        0x1.9999ddce71009p+0   0x1.9999ddce7100ep+0   1.6000040654189465    -5 -> 0
      task_kmedians[1]  0x1.db8b1b696da59p-1   0x1.db8b1b696da5ap-1   0.92879567777601857    0 -> +1
      w_rate[1]         -0x1.52be592287440p-2  -0x1.52be592287436p-2  -0.33080424569363093  -7 -> +3
      w_rate[2]         -0x1.3a7b97a4db9acp-2  -0x1.3a7b97a4db9adp-2  -0.30711209243500087  +1 -> 0

  Over all 40 `w_exact` pins the absolute errors sum to 15 ulp before and
  12 after, with 25 and 29 values exact.  Four of the moved values are one
  ulp farther from their reference: at that level the last bit is set by the
  float cost sum and the root, not by the distances.
- Reports: `rates --which w --d 2 --trials 2` (6 CSV values, at most 4.9e-15
  relative, all closer to a rerun whose squared distances are formed in
  64-bit-mantissa precision and rounded once; its sidecar slope
  -0.3568078579010327 -> -0.3568078579010304, the rerun's value),
  `smoothing` (3 values of `w_p`, 1 ulp each, all closer to that rerun),
  `dominance --trials 10` (4 values, 1 ulp each: two MMDs, -2 -> -1 and
  0 -> +1 ulp from mpmath, one W_2 0 -> +1, and its bound) and
  `learnability --trials 4` (one bound, 1 ulp, whose W_2 goes 0 -> -1 ulp from
  mpmath).  Every `pass` field, and every other sidecar field, is unchanged.

Two pins are re-recorded since the 1-D quantile cost of `w1d` is added by
numpy's pairwise sum, not by a BLAS dot whose bits changed with OpenBLAS's
thread count (the report below read differently on one thread and on two).
The reference is the same breakpoints and gaps summed exactly in `fractions`;
errors are in ulps of it.
- `RECORDED["cli"][4]`, `wmmd wass --p 1` (d = 1, 40 vs 55 atoms):
  0.81639413158038354 -> 0.81639413158038343, reference
  0.81639413158038359132 (-0.5 -> -1.5 ulp; at 95 terms either sum is one
  rounding away).  The p = 2 line `[5]` kept its bytes.
- `rates --which w --d 1 --trials 2`: one CSV value and the sidecar slope.
  The twelve W_1 costs behind the report lie within 1.4 ulp of their exact
  sums (2.4 before), with mean absolute errors 0.73 -> 0.51 ulp.  The
  n = 1024 mean is now correctly rounded (it was 1 ulp high); its CSV value,
  exp(log(mean)), moved 0.006811320270852155 -> 0.0068113202708521489 against
  the exact 0.0068113202708521514929 (+4.0 -> -3.0 ulp, the round trip's own
  error).  The slope moved -0.3050111614873371 -> -0.30501116148733737: the
  float fit returns exactly this on the correctly rounded exact means, and
  the mpmath fit is -0.30501116148733713100 (+0.7 -> -4.0 ulp, the fit's own
  error).  Every other CSV value and sidecar field, `pass` included, is the
  same.
Over 16 pairs of n and 64n uniform atoms (n = 512, 2048) the pairwise sum's
worst error is 0.93 ulp, against 4.08 for `np.einsum` and 3.71 for the dot on
one OpenBLAS thread.  `w_rate`'s pins kept their bits.

Two reports are re-recorded since the 1-D spectral MMD is one tanh-sinh
integral of kappa0_hat |mu_hat - nu_hat|^2, not a sum of per-pair integrals,
and `_tanh_sinh` adds each level as a numpy sum, not a BLAS dot:
`fourier-bound --trials 2` and `embeddability --trials 10`.  Their MMDs are
under the Matern 1/2 kernel (sigma = 1) between same-mean mixtures; the
reference is the 40-digit sum over component pairs of the erfc closed form
of E exp(-|Z|), Z ~ N(delta, v).  As (value, old, new, reference, error in
ulps old -> new):

    fourier-bound pair 0   0.13179284420820958   0.13179284420820944   0.13179284420820941298   +6.0 -> +1.0
    fourier-bound pair 1   0.07028094741990852   0.07028094741990805   0.070280947419908047185  +34 -> +0.2
    embeddability mmd[0]   0.13179284420820958   0.13179284420820944   0.13179284420820941298   +6.0 -> +1.0
    embeddability mmd[1]   0.18558661533852036   0.1855866153385205    0.18558661533852050448   -5.2 -> -0.2
    embeddability mmd[3]   0.025365592195001837  0.025365592195003048  0.025365592195003047056  -349 -> +0.3
    embeddability mmd[4]   0.037986039125374987  0.037986039125375584  0.037986039125375574963  -84 -> +1.3
    embeddability mmd[5]   0.09831938699984126   0.098319386999840885  0.098319386999840884171  +27 -> +0.4
    embeddability mmd[6]   0.093508947957631441  0.093508947957631608  0.093508947957631598849  -11 -> +0.8
    embeddability mmd[7]   0.2224605761928172    0.22246057619281714   0.22246057619281715762   +1.5 -> -0.6
    embeddability mmd[8]   0.12976997909378732   0.12976997909378793   0.12976997909378793195   -22 -> -0.1
    embeddability mmd[9]   0.24361618134820473   0.24361618134820465   0.24361618134820465533   +2.7 -> -0.2

`embeddability mmd[2]` kept its bits.  The `fourier-bound` rhs column moved
with the square root of its MMD (0.12995467739931524 -> 0.12995467739931515,
0.078745967526672303 -> 0.078745967526672039); its Fourier-quotient
integral kept its bits.  Two `embeddability` W_2 values moved by one ulp
through the numpy sum: w[3] 0.097093582516749585 -> 0.097093582516749571
and w[6] 0.27501133180831927 -> 0.27501133180831921, against 30-digit
mpmath integrals of the squared quantile gap, 0.097093582516749565685 and
0.27501133180831928197 (+1.4 -> +0.4 and -0.2 -> -1.2 ulp).  The `ratio`
column and the sidecar's `sup` (1.7646979779007208 -> 1.764697977900721)
follow; every `pass`, `stable` and other sidecar field is unchanged.

Two pins are dropped with the code they pinned: `RECORDED["lemma24"]`, the
bootstrap estimate of `lab.lemma24_check` (criterion 13 and `wmmd lab
smoothing` check its 2 sigma sqrt(d) term in closed form), and the
`"embeddability path"` report of `lab.embeddability_probe`'s path mode
(`wmmd lab counterexample` measures W/MMD growth along the same
vanishing-moment path).

One pin and five reports are re-recorded since `mmd_discrete` sums the
signed weights against the MMD witness, a.(K_aa a - K_ab b) -
b.(K_ab^T a - K_bb b), in place of aa + bb - 2 ab.  The reference is the
40-digit mpmath double sum over the same float points and weights.
- `RECORDED["cli"][2]`, `wmmd mmd --kernel matern`: 0.21484672236154242 ->
  0.21484672236154262, mpmath 0.21484672236154268567 (-9.4 -> -2.4 ulp of
  the value; the new square is 0.26 ulp of aa + bb below the reference's).
- Reports: `counterexample`, `counterexample --k 2`, `counterexample --kernel
  laplacian`, `dominance --trials 10` and `sliced --trials 5`.  Every moved
  MMD is listed as (value, old, new, reference, error of the squared value
  in ulps of sum_ij |w_i w_j K_ij| = aa + bb + 2 ab, old -> new):

      counterexample mmd[0]      0.056221512671476924   0.056221512671477174   0.056221512671476608111   +0.08 -> +0.14
      counterexample mmd[1]      0.0045620222145961965  0.0045620222146053229  0.0045620222146318433257  -0.73 -> -0.54
      counterexample mmd[2]      0.00030549510912047299 0.00030549510898419144 0.00030549510902352574745 +0.13 -> -0.05
      counterexample mmd[3]      1.9430428548429164e-05 1.943042926265878e-05  1.9430431182043535782e-5  -0.23 -> -0.17
      counterexample mmd[4]      1.2197126108217909e-06 1.2197012328525761e-06 1.2197440992843141705e-6  -0.17 -> -0.24
      counterexample mmd[5]      7.8849533530014477e-08 7.7069404965554188e-08 7.631778067985430491e-8   +0.88 -> +0.26
      --k 2 mmd[0]               0.19563109335462478    0.19563109335462506    0.19563109335462475524    +0.02 -> +0.27
      --kernel laplacian mmd[0]  0.55014774751146633    0.55014774751146656    0.55014774751146644087    -0.26 -> +0.29
      --kernel laplacian mmd[1]  0.39365918155804436    0.39365918155804469    0.39365918155804472737    -0.66 -> -0.07
      --kernel laplacian mmd[3]  0.19759092783784238    0.19759092783784252    0.19759092783784297058    -0.53 -> -0.40
      --kernel laplacian mmd[4]  0.1397451519336152     0.13974515193361489    0.13974515193361537148    -0.11 -> -0.30
      --kernel laplacian mmd[5]  0.098819568547734618   0.098819568547734202   0.098819568547734514017   +0.05 -> -0.14
      dominance mmd[1]           0.50818316105488381    0.50818316105488393    0.5081831610548839392     -0.57 -> -0.06
      dominance mmd[2]           0.45838658695784085    0.45838658695784096    0.45838658695784099688    -0.31 -> -0.08
      dominance mmd[7]           0.96686111855714985    0.96686111855714973    0.96686111855714974868    +0.84 -> -0.12
      dominance mmd[9]           0.65614298064348964    0.65614298064348975    0.6561429806434897851     -0.87 -> -0.22
      sliced direct[1]           0.3346153227471334     0.33461532274713324    0.33461532274713319588    +0.31 -> +0.06
      sliced direct[2]           0.37724094139103082    0.37724094139103109    0.37724094139103103803    -0.38 -> +0.09
      sliced direct[3]           0.52184145810498184    0.52184145810498161    0.52184145810498154059    +0.70 -> +0.17
      sliced direct[4]           0.31583110750056087    0.31583110750056109    0.3158311075005609736     -0.15 -> +0.17
      sliced via_slices[0]       0.61116482612183465    0.61116482612183454    0.6111648261218345716     +0.21 -> -0.10
      sliced via_slices[1]       0.33461532274713313    0.33461532274713324    0.33461532274713319588    -0.11 -> +0.06
      sliced via_slices[3]       0.5218414581049815     0.52184145810498161    0.52184145810498154059    -0.09 -> +0.17

  The counterexample pairs hold 2-3 atoms a side, where neither form is
  better than half an ulp of the scale.  Their `ratio_delta1` columns and
  the sidecars' `slope_mmd` and `divergence_ratio` follow (k = 4: slope
  3.908555778521764 -> 3.9132632116583412), as do the dominance sidecar's
  `worst_margin` and the sliced `gap` column and `worst_gap`
  (3.3306690738754696e-16 -> 1.1102230246251565e-16).  Every `pass` field,
  and every W_1, W_2 and bound, is the same bytes.

Two reports are re-recorded since the mixture CDF and density add their
components one at a time in order (not by a BLAS product whose row bits
depend on the batch), and `gmm_quantiles` starts each mixture from a table
of its own span and solves a level's four quantile functions together:
`fourier-bound --trials 2` and `embeddability --trials 10`.  Only W_2
values from `w1d`'s mixture route moved, each by a few ulps within the
route's round-off (its quantiles stop at |F(x) - q| <= 4 eps q or a 2-ulp
step, and the gaps cancel).  The reference is the 45-digit mpmath integral
of (x - G^-1(F(x)))^2 f(x) over x.  As (value, old, new, reference, error in
ulps old -> new):

    fourier-bound w2[1]   0.22752914501098651   0.22752914501098656   0.2275291450109864597034  +1.8 -> +3.6
    embeddability w[3]    0.097093582516749571  0.097093582516749502  0.0970935825167495656578  +0.4 -> -4.6
    embeddability w[4]    0.12214020925890599   0.12214020925890597   0.1221402092589059584534  +2.3 -> +0.8
    embeddability w[5]    0.39346475602224135   0.39346475602224129   0.3934647560222412771354  +1.3 -> +0.2
    embeddability w[6]    0.27501133180831921   0.27501133180831927   0.2750113318083192816508  -1.3 -> -0.2
    embeddability w[9]    0.84463475135039912   0.844634751350399     0.8446347513503991696017  -0.4 -> -1.5

Over all twelve W_2 values of the two reports the absolute errors sum to
10.4 ulp before and 13.9 after.  The `ratio` column follows its W_2; every
MMD, the `fourier-bound` rhs column, and both summary sidecars are the same
bytes.

Two reports are re-recorded since the Gaussian closed form is one sum over
the signed components of mu - nu, in place of aa + bb - 2 ab, and three
since `SlopeFit.grid` holds the (n, mean) pairs themselves, so the `rates`
CSVs print n as 64, not 63.999999999999979, and each mean as computed, not
as exp(log(mean)).  The reference is `test_discrepancy._closed_form_sq_mpmath`,
the 50-digit sum over the same floats.
- `rates --trials 2` (N(0, 1) against two samples of n atoms): as (n, old
  CSV, new CSV, reference mean, relative error old -> new, and the two
  squares' errors in ulps of 4 = scale (sum_i |c_i|)^2, old -> new):

      64     0.044185234659054259   0.044185234659054259  0.04418523465905524086    -2.22e-14 -> -2.22e-14   -0.07 -> -0.07, -0.08 -> -0.08
      128    0.097725226822156244   0.097725226822156813  0.097725226822157383703   -1.17e-14 -> -5.84e-15   -0.22 -> -0.13, -0.23 -> -0.11
      256    0.037681778887469167   0.03768177888746975   0.037681778887473455049   -1.14e-13 -> -9.83e-14   -0.48 -> -0.31, -0.20 -> -0.21
      512    0.02158626820650178    0.021586268206506401  0.02158626820650599624    -1.95e-13 -> +1.88e-14   -0.08 -> +0.08, -0.37 -> -0.07
      1024   0.011659609038345221   0.011659609038348749  0.011659609038352808718   -6.51e-13 -> -3.48e-13   -0.13 -> -0.03, -0.19 -> -0.12
      2048   0.0079673396845500403  0.0079673396845553329 0.0079673396845610846706  -1.39e-12 -> -7.22e-13   -0.18 -> -0.18, -0.22 -> -0.03

  A small MMD is the root of a square that cancels to about 1e-4 of 4, so
  an error well under one ulp of 4 on the square is 1e-14 to 1e-12 of the
  value.  The sidecar's slope moved -0.638924566883492 ->
  -0.6389245668833102; the slope through the reference means is
  -0.63892456688312887364.  `pass` is unchanged.
- `smoothing`: the rhs column at sigma = 0.2 and 0.4 moved with its MMD (a
  root of the closed form under the convolution-root kernel, d = 3, 8 atoms
  a side).  As (sigma, old, new, reference, error in ulps old -> new):

      mmd 0.2   0.707080719534353     0.7070807195343533    0.70708071953435318385   -1.38 -> +0.62
      mmd 0.4   0.17617238680530714   0.176172386805307     0.17617238680530701738   +4.44 -> -0.56
      rhs 0.2   9.6880801398249634    9.6880801398249652    9.6880801398249645615    -0.65 -> +0.35
      rhs 0.4   5.6857529182106035    5.6857529182106017    5.6857529182106018366    +1.84 -> -0.16

  The rhs reference takes the reference MMD through the same float
  constant and exponents.  The sigma = 0.1 row and the sidecar are the same
  bytes.
- `rates --which w --d 1 --trials 2` and `--d 2`: only the CSVs, whose n
  column and means lose the log round trip (d = 1, n = 1024:
  0.0068113202708521489 -> 0.0068113202708521507, against the exact
  0.0068113202708521514929).  Both sidecars are the same bytes.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest

from wmmd.cli import dispatch
from wmmd.measures import DiscreteMeasure, GaussianMixture, load_dataset, save_dataset, stream_rng
from wmmd.sketch import draw_features, sketch_measure
from wmmd.kernels import KernelSpec
from wmmd.tasks import Hypothesis, TaskSpec, kmeans_project, lloyd, risk, task_metric_probe
from wmmd.lab import w_rate
from wmmd.transport import w1d, w_exact

RECORDED = {
    "lloyd_d2": [
        "0x1.757fe69e2d821p+2", "0x1.80c0695f03746p-1", "-0x1.3bd4efb0818b8p+2",
        "-0x1.1cd7417e37ab7p-2", "-0x1.ce09e47c3d0f6p+2", "0x1.8b3470aac2af1p-2",
    ],
    "risk_d2": ["0x1.d65582be55152p+0", "0x1.3255a7f10ab9ep+0"],
    "project_d2": ["0x1.6098ead65b7adp-2", "0x1.3e1f671529a34p-2", "0x1.6147ae147ae1fp-2"],
    "lloyd_d3": [
        "-0x1.f9b8f6161a4fcp+2", "0x1.1eff49c89098dp+2", "0x1.fd5ab57460a22p+1",
        "0x1.0883869516f82p-5", "0x1.93174e8875168p-3", "-0x1.c232c47e52b02p-1",
        "-0x1.67fc686eba17ap+0", "0x1.1683473e40ef5p+3", "-0x1.b5322a68c7188p+2",
    ],
    "risk_d3": ["0x1.81c9ceeb78f37p+1", "0x1.9999ddce7100ep+0"],
    "task_kmedians": ["0x1.d52da5b0c1cefp+0", "0x1.db8b1b696da5ap-1", "0x1.c1ad0655dc2dcp+0"],
    "task_linreg": ["0x1.6c935056e7d10p+0", "0x1.68bc957c71c4fp+2", "0x1.08775a4f1f315p+1"],
    "task_binclass": ["0x1.f9f00a06ed45ep-1", "0x1.b06fcb55162d6p+0", "0x1.022fea1bbc874p+0"],
    "project_d3": ["0x1.5fea27983c13cp-2", "0x1.5a740da740dacp-2", "0x1.45a1cac083119p-2"],
    "w_exact": [
        "0x1.d027df111d696p+0", "0x1.bad3dcf27d184p+0", "0x1.4d14a5160055fp+0",
        "0x1.2cf74da69e320p+1", "0x1.5bfa882289f70p+0", "0x1.4788d4b715308p+0",
        "0x1.ae4d6b18ccad9p+0", "0x1.f4aa665a47952p+0", "0x1.6c0e8c7818a85p+0",
        "0x1.f28245e311a8ap+0", "0x1.0da0e796156e5p+0", "0x1.599c3749ed3f3p+0",
        "0x1.c83aa559f540ep-1", "0x1.87fb5f6d44fedp+0", "0x1.fc857b606040bp-1",
        "0x1.80b011d034d90p+0", "0x1.0ea074c2cfa77p+0", "0x1.a03946980f3a0p+0",
        "0x1.a646cc8cf4c79p-1", "0x1.37b6c929479f7p+1", "0x1.4d0564d0b8960p+0",
        "0x1.eb588ea87729bp+0", "0x1.9e0ac99950033p-1", "0x1.928393c0d220dp+0",
        "0x1.9959199ea7e1ep+0", "0x1.8525f01f80642p+0", "0x1.ebc85a5eb2501p-1",
        "0x1.6dcb0edca57e1p+0", "0x1.62d45d48c38bbp-1", "0x1.00d5b7b408895p+1",
        "0x1.ee26b2bf8ed94p+0", "0x1.aad5ec936df92p+0", "0x1.d0263a2713a5cp-1",
        "0x1.82b989309b0c8p+0", "0x1.a6c962ed19cb3p+0", "0x1.7b7540f951cc2p+0",
        "0x1.13c444a8b8ba0p+0", "0x1.1fff8e368ccdbp+0", "0x1.19eab2cc11ef0p+0",
        "0x1.cc65743f4b116p+0",
    ],
    # The last slope is re-recorded since the LP runs at a 1e-10 dual
    # tolerance; see the module docstring.
    "w_rate": [
        "-0x1.5732ef6d343abp-1", "-0x1.52be592287436p-2", "-0x1.3a7b97a4db9adp-2",
        "-0x1.03cba6bd1fb8cp-1",
    ],
    "cli": [
        "0.33179683462770093\n", "0.42172066810705283\n", "0.21484672236154262\n",
        "1.1247349592121727\n", "0.81639413158038343\n", "0.87256574866923642\n",
        "1.5606234685757456\n", "0.61989984169433021\n",
    ],
    "sketch_sha256": [
        "0932524430d112dd4ddfee8157d3b7252c86deb069274319e6f9781c1311e4a9",
        "119e46d4ee9159f6f11b353975449fea25a6880521b45d9357fd4a4aba1c4961",
        "a98dffc888a4a8ea027c5aa7538d467ac2fd8fd5196fa808d0729550362f1543",
    ],
    # (CSV, summary sidecar) SHA-256 of `wmmd lab <key> -o r.csv`.  The
    # three counterexample sidecars are re-recorded since `divergence_ratio`
    # is W/MMD at the smallest eps over W/MMD at the largest (it was the
    # inverse); their CSVs and every other summary field are unchanged.
    "lab_sha256": {
        "counterexample": (
            "3433172f8cff9f591ad9a801ea488651882d416885703ad5c9365641a974705b",
            "23340befa6e4dff5f4e82a8e1f5317d03a60042aac2767a941c902f1303ad07b",
        ),
        "counterexample --k 2": (
            "8bdf344dbcfe0e84d728873a41099ec2153548b270e1ca2bd9034864b73d0b91",
            "070941e5c4c70f72dc1593398081a1dd3f5393022cd6a1eefca3a77a9f3e1b48",
        ),
        "counterexample --kernel laplacian": (
            "c3c5e99824fcb9fc3f8191fac6fd26472b34bb8cb2f2888a2233cf369fa36e99",
            "0a5df6bf69bc9feeb09b603c9bf710a8b2f4e55a4887e3011cce06556f9a78d1",
        ),
        "rates --trials 2": (
            "7f4f75ad953082599d86edfb04fc26e24b857957f88a90ca58a64c9011a6657f",
            "1057c4d6912c8d159c43ea3f2c37ed8355781a655f3be1887d4846d088ac27c3",
        ),
        "rates --which w --d 1 --trials 2": (
            "8cb078344f22fae31d85c7ae8753b58b74095674e2e7897de8d24d283fe5f444",
            "62f8213e8735a3db60edf0bc33b3359b0e8b960ff3df08f60145d56ecc18c082",
        ),
        "rates --which w --d 2 --trials 2": (
            "08bb11658ee6a2984f1fa69b58994bffb9a119e34766483a361626046909ce28",
            "ec4fe84c6aee15534ab28f37819fe0152b6bdbd1b49bc4bdabbe59fd619de507",
        ),
        "fourier-bound --trials 2": (
            "e6470ffd151d753ae2826180e1927bb82c946e2fa79af3af4678f9d9d6016907",
            "34275bff23dd4afcb7db7c1b503d23c0324520b0363bdb3a182870e4b0c3485a",
        ),
        "smoothing": (
            "e3ed5598c313f4616ef9f32b3c63eb7110c2d9cd719c72c67ffad9c2a450bef2",
            "124064b3157e116f42d96690aa03ca83c82828a55e3a6e99f8136cf675de925e",
        ),
        "dominance --trials 10": (
            "2858ae6e828a33366429491bf02daea94ea5b9456f22e0f40f2553e66e3ec490",
            "a62117e51afc225808a676c8cf6e77258bdaf19d23de7e37be3073ef9d53e5de",
        ),
        "sliced --trials 5": (
            "90e24e3fbf79322f23eb03bb8bab19ee2dfa86460990b0cd05b1525e47dc70a8",
            "7f27dfe8c047d6d219112f15d8582b64b9c60b0a93395b0deead257ce827e056",
        ),
        "embeddability --trials 10": (
            "0b36dd630a0b6df79391fc5afb9751d5f34ef488ee623ce2ab2c698bd36392d1",
            "4bf3f44e286425a927c3b5645a66ab4b273e0828592cbea4fd84917ca14d2542",
        ),
        "learnability --trials 4": (
            "ffed8db36c002761fa7b012991d4b6d71cf4af04c72d3669541f8d0dee471c4a",
            "5d44a3ad4515026dbb4b0977d6c592d1ec74c876b6b5a95b595b19f43b643287",
        ),
    },
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
        risks = [risk(TaskSpec("kmeans", K=3), emp, g), risk(TaskSpec("kmedians", K=3), emp, Hypothesis("kmedians", centres))]
        assert _hex(risks) == RECORDED[f"risk_d{d}"]
        assert _hex(kmeans_project(g, emp).weights) == RECORDED[f"project_d{d}"]


def test_task_risks_and_probes():
    """Risks of a fixed hypothesis on mu and nu, then `task_metric_probe`, for each non-k-means task."""
    rng = stream_rng(0x5A, 3)
    tasks = {
        "kmedians": ({"K": 3}, rng.normal(size=(3, 3))),
        "linreg": ({"R": 2.0}, np.array([0.6, -1.2])),
        "binclass": ({"L": 1.5}, (np.array([0.8, -0.4]), 0.3)),
    }
    for variant, (params, payload) in tasks.items():
        task = TaskSpec(variant, **params)
        Z1, Z2 = rng.normal(size=(7, 3)), rng.normal(size=(5, 3))
        if variant == "binclass":
            Z1[:, -1], Z2[:, -1] = np.sign(Z1[:, -1]), np.sign(Z2[:, -1])
        mu = DiscreteMeasure(Z1, rng.uniform(0.1, 1, 7))
        nu = DiscreteMeasure(Z2, rng.uniform(0.1, 1, 5))
        h = Hypothesis(variant, payload)
        vals = [risk(task, mu, h), risk(task, nu, h), task_metric_probe(task, mu, nu, 24, rng)]
        assert _hex(vals) == RECORDED[f"task_{variant}"]


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


def _w_rate_slopes():
    def u1(n, r):
        return r.uniform(0.0, 1.0, size=(n, 1))

    def u3(n, r):
        return r.uniform(0.0, 1.0, size=(n, 3))

    atoms = DiscreteMeasure(stream_rng(5).normal(size=(12, 2)), np.ones(12))
    return _hex([
        w_rate(u1, 1, [2**j for j in range(6, 11)], 2, 11).slope,
        w_rate(u3, 1, [2**j for j in range(4, 9)], 2, 11).slope,
        w_rate(u3, 2, [2**j for j in range(4, 9)], 1, 12).slope,
        w_rate(atoms, 2, [4, 6, 8, 10, 12], 2, 13).slope,
    ])


def test_w_rate_slopes():
    assert _w_rate_slopes() == RECORDED["w_rate"]


def _write_datasets(directory):
    rng = stream_rng(0x5A, 2)
    paths = {}
    for name, shape in (("a1", (40, 1)), ("b1", (55, 1)), ("a2", (30, 2)), ("b2", (30, 2)), ("c2", (25, 2))):
        paths[name] = str(Path(directory) / f"{name}.csv")
        save_dataset(paths[name], rng.normal(size=shape) + (name[0] == "b"))
    return paths


@pytest.fixture
def datasets(tmp_path):
    return _write_datasets(tmp_path)


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


def _mmd_mpmath(X, Y, profile):
    """40-digit MMD between the uniform measures on the rows of X and Y, and aa + bb."""
    with mpmath.workdps(40):

        def term(P, Q):
            dist = lambda x, y: mpmath.sqrt(mpmath.fsum((mpmath.mpf(a) - mpmath.mpf(b)) ** 2 for a, b in zip(x, y)))
            return mpmath.fsum(profile(dist(x, y)) for x in P for y in Q) / (len(P) * len(Q))

        aa, bb, ab = term(X, X), term(Y, Y), term(X, Y)
        return mpmath.sqrt(aa + bb - 2 * ab), aa + bb


@pytest.mark.parametrize(
    "a, b, kernel, profile",
    [
        ("a1", "b1", "gaussian", lambda r: mpmath.exp(-(r**2) / 2)),
        ("a2", "b2", "laplacian", lambda r: mpmath.exp(-r)),
        ("a2", "c2", "matern", lambda r: mpmath.exp(-r)),
    ],
    ids=["gaussian", "laplacian", "matern"],
)
def test_cli_mmd_lines_match_mpmath(datasets, capsys, a, b, kernel, profile):
    """The `wmmd mmd` lines of `test_cli_mmd_and_wass_output` are right, not only unmoved.

    The printed value is the root of aa + bb - 2 ab, each sum rounded in
    floats, so its error is bounded on the square, in ulps of aa + bb: 4 of
    them.  Measured: at most 1.0 here, against 1.7e6 (Laplacian) and 2.6e5
    (Matern) with the Gram-form squared distances.  The value itself lies
    within 4 of its own ulps (measured: at most 2.4, the Matern line, which
    read 9.4 before the witness form of `mmd_discrete`).
    """
    assert dispatch(["mmd", datasets[a], datasets[b], "--kernel", kernel]) == 0
    value = float(capsys.readouterr().out)
    ref, scale = _mmd_mpmath(load_dataset(datasets[a]), load_dataset(datasets[b]), profile)
    with mpmath.workdps(40):
        assert abs(mpmath.mpf(value) ** 2 - ref**2) <= 4 * np.spacing(float(scale))
        assert abs(mpmath.mpf(value) - ref) <= 4 * np.spacing(float(ref))


def test_sketch_file_bytes(datasets, tmp_path):
    files = []
    for i, name in enumerate(("a2", "b2")):
        files.append(tmp_path / f"s{i}.json")
        assert dispatch(["sketch", datasets[name], "-o", str(files[-1]), "--m", "64", "--seed", "3"]) == 0
    files.append(tmp_path / "m.json")
    assert dispatch(["merge", *map(str, files[:2]), "-o", str(files[-1])]) == 0
    assert [hashlib.sha256(f.read_bytes()).hexdigest() for f in files] == RECORDED["sketch_sha256"]


def _report_sha256(path):
    return tuple(hashlib.sha256(Path(f).read_bytes()).hexdigest() for f in (path, f"{path}.summary.json"))


@pytest.mark.parametrize("command", RECORDED["lab_sha256"])
def test_lab_report_bytes(tmp_path, capsys, command):
    out = tmp_path / "r.csv"
    assert dispatch(["lab", *command.split(), "-o", str(out)]) in (0, 2)
    assert _report_sha256(out) == RECORDED["lab_sha256"][command]


# ---------------------------------------------------------------------------
# Bits that must not depend on OpenBLAS's thread count.  Each of these sums
# was once a BLAS product whose bits changed with the thread count on long
# sums: the 1-D cost's dot at 2,048 vs 131,072 atoms, and a weighted
# sketch's matrix-vector product at m = 1 over 32,768 rows.


def _w1_uniform(n):
    """Hex of W_1 between n and 64n uniform draws on [0, 1]: 65n breakpoints."""
    rng = stream_rng(0x5A, 5, n)
    x, y = rng.uniform(size=(n, 1)), rng.uniform(size=(64 * n, 1))
    return float(w1d(1, DiscreteMeasure(x, np.ones(n)), DiscreteMeasure(y, np.ones(64 * n)))).hex()


def _weighted_sketch_m1(d):
    """Hex of a weighted sketch at m = 1 over 65,539 rows: three blocks of up to 32,768 rows."""
    rng = stream_rng(0x5A, 4, d)
    X, w = rng.normal(size=(65_539, d)), rng.uniform(0.1, 1.0, 65_539)
    s = sketch_measure(draw_features(KernelSpec.gaussian(1.0, d), 1, 3), DiscreteMeasure(X, w))
    return [_hex(s.values.real), _hex(s.values.imag)]


def _w1d_mixture_pairs():
    """Hex of W_1 over 100 pairs of 6-component mixtures, means spread by 5 and widths 0.01-2: many pieces in each integral."""
    rng = np.random.default_rng(5)
    g = lambda: GaussianMixture(rng.uniform(0.1, 1, 6), rng.normal(size=(6, 1)) * 5, rng.uniform(0.01, 2, 6))
    return [float(w1d(1, g(), g())).hex() for _ in range(100)]


def _blas_sensitive_outputs(directory):
    """`w_rate`'s pins, the 1-D `wass` lines, the `rates --which w --d 1` report and weighted sketches."""
    paths = _write_datasets(directory)
    lines = []
    for p in ("1", "2"):
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert dispatch(["wass", paths["a1"], paths["b1"], "--p", p]) == 0
        lines.append(out.getvalue())
    report = str(Path(directory) / "r.csv")
    assert dispatch(["lab", "rates", "--which", "w", "--d", "1", "--trials", "2", "-o", report]) in (0, 2)
    sketches = [_weighted_sketch_m1(d) for d in (1, 3)]
    return {"w_rate": _w_rate_slopes(), "wass": lines, "report": list(_report_sha256(report)), "sketch": sketches}


def _in_fresh_python(expr, cwd, blas):
    """JSON of `expr`, evaluated by a new interpreter that imports this module, with OpenBLAS at `blas` threads.

    blas None leaves OpenBLAS at its default: every BLAS thread variable is unset.
    """
    here = os.path.dirname(os.path.abspath(__file__))
    env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    if blas is not None:
        env["OPENBLAS_NUM_THREADS"] = str(blas)
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(os.path.dirname(here), "src"), here, os.environ.get("PYTHONPATH", "")])
    code = f"import json, test_pinned_outputs as t; print(json.dumps({expr}))"
    run = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout.splitlines()[-1])


@pytest.mark.parametrize(
    "expr",
    [
        "t._w1_uniform(2048)",
        "t._weighted_sketch_m1(1)",
        "t._weighted_sketch_m1(3)",
    ],
    ids=["quantile-cost", "weighted-sketch-d1", "weighted-sketch-d3"],
)
def test_sums_keep_their_bits_on_one_blas_thread(tmp_path, expr):
    """A 1-D W_1 of 2,048 vs 131,072 atoms and weighted m = 1 sketches: the same bits at OpenBLAS's default and on one thread."""
    assert _in_fresh_python(expr, tmp_path, None) == _in_fresh_python(expr, tmp_path, 1)


def test_mixture_w1d_keeps_its_bits_on_one_and_two_blas_threads(tmp_path):
    """`_tanh_sinh` adds each level as a numpy sum, so no mixture `w1d` depends on OpenBLAS's thread count."""
    expr = "t._w1d_mixture_pairs()"
    assert _in_fresh_python(expr, tmp_path, 1) == _in_fresh_python(expr, tmp_path, 2)


def test_blas_sensitive_pins_hold_on_one_blas_thread(tmp_path):
    """The pins once computed by BLAS products, recomputed on one OpenBLAS thread, equal this process's."""
    (tmp_path / "fresh").mkdir()
    fresh = _in_fresh_python("t._blas_sensitive_outputs('fresh')", tmp_path, 1)
    assert fresh == _blas_sensitive_outputs(tmp_path)
