"""The scalar special-function kernels the package calls, bit for bit
against scipy.special's ufuncs.

`ode`, `poisson` and `cli` call `scipy.special.cython_special` directly,
which skips numpy's per-call dispatch; the pinned thresholds and digests
assume that these kernels return the ufuncs' bits.  A scipy upgrade that
parts the two paths fails here first.  Every comparison runs with
warnings as errors: a float n selects `bdtr`/`bdtrc`'s deprecated double
variant, which warns.
"""

import math
import warnings

import numpy as np
from scipy import special

import wkorient.cli as cli
import wkorient.ode as ode
import wkorient.poisson as poisson
from wkorient.hypergraph import OrientationParams
from wkorient.ode import OdeParams

# rates from 0 to 700, with the subnormal and tiny ends where the tails
# underflow for large k and the complements underflow for small k
RATES = [0.0, 5e-324, 1e-300, 1e-100, 1e-10, 1e-3, 0.1, 0.5, 1.0, 2.5, 4.0,
         *np.geomspace(5.0, 700.0, 24).tolist(), math.nan]
# survival chances, the ends and the least subnormal included
CHANCES = [0.0, 5e-324, 1e-300, 1e-100, 1e-20, 1e-5, 0.01, 0.1, 0.25, 0.5,
           0.75, 0.9, 0.99, 1.0 - 1e-10, 1.0 - 2.0**-53, 1.0, math.nan]
SHAPES = range(1, 202)  # k and k + 1 for every k from 1 to 200


def _same(got, want):
    want = float(want)
    return repr(got) == repr(want) or (math.isnan(got) and math.isnan(want))


def test_kernels_equal_the_ufuncs_bit_for_bit():
    gamma = [(k, x) for k in SHAPES for x in RATES]
    binom = [(h, w) for h in range(2, 41) for w in range(1, h)]
    grids = [
        (poisson.gammainc, special.gammainc, gamma),
        (ode.gammainc, special.gammainc, gamma),
        (ode.gammaincc, special.gammaincc, gamma),
        # r = P(Bin(h-1, q) >= h-w) and the dead-edge share P(Bin(h, q) <= h-w)
        (ode.bdtrc, special.bdtrc, [(h - w - 1, h - 1, q) for h, w in binom for q in CHANCES]),
        (ode.bdtr, special.bdtr, [(h - w, h, q) for h, w in binom for q in CHANCES]),
        (cli.chdtrc, special.chdtrc, [(dof, x) for dof in range(1, 201) for x in RATES]),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for kernel, ufunc, calls in grids:
            bad = [args for args in calls if not _same(kernel(*args), ufunc(*args))]
            assert bad == [], kernel


def test_package_calls_equal_the_ufuncs_bit_for_bit(monkeypatch):
    # every kernel call a threshold, an ODE run and a chi-square make, with
    # the integer arguments checked to arrive as ints
    calls = []

    def spy(module, name, ufunc, ints):
        kernel = getattr(module, name)

        def call(*args):
            assert all(type(a) is int for a in args[:ints]), (name, args)
            calls.append((kernel, ufunc, args))
            return kernel(*args)

        monkeypatch.setattr(module, name, call)

    spy(ode, "gammainc", special.gammainc, 1)
    spy(ode, "gammaincc", special.gammaincc, 1)
    spy(ode, "bdtr", special.bdtr, 2)
    spy(ode, "bdtrc", special.bdtrc, 2)
    spy(poisson, "gammainc", special.gammainc, 1)
    spy(cli, "chdtrc", special.chdtrc, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for hwk in [(3, 2, 4), (2, 1, 1), (10, 2, 4)]:
            ode.find_threshold(OrientationParams(*hwk), tol=1e-4)
        ode.integrate(OdeParams(OrientationParams(3, 2, 4), mu_bar=5.0))
        counts = np.random.default_rng(0).poisson(6.0, 20000)
        cli._truncated_poisson_chi2(np.bincount(counts[counts >= 5]), 4)
        assert len({kernel for kernel, _, _ in calls}) == 5  # poisson's gammainc is ode's
        for kernel, ufunc, args in calls:
            assert _same(kernel(*args), ufunc(*args)), (kernel, args)
