"""Self-checks of the quadrature oracle for L in tests/oracle.py."""

import numpy as np
import pytest

import mqcardinal as mq
from oracle import cardinal_oracle

KERNELS = [
    mq.poisson(1.0),
    mq.gaussian(1.0),
    mq.multiquadric(-0.75, 1.0),
    mq.multiquadric(-0.75, 3.0),
    mq.multiquadric(-1.25, 3.0),
    mq.multiquadric(-2.5, 2.0),
]
OFF_GRID = np.array([0.25, 0.5, 1.5, 3.7, 7.3])


@pytest.mark.parametrize("k", KERNELS)
def test_cardinal_at_the_integers(k):
    # L(j) = delta_0j: measured within 4.5e-16 on these kernels.
    want = np.zeros(9)
    want[0] = 1.0
    assert np.max(np.abs(cardinal_oracle(k, np.arange(9.0)) - want)) <= 1e-15


@pytest.mark.parametrize("k", KERNELS)
def test_step_halving(k):
    # Steps 1/64 and 1/128 agreed within 4.5e-16.
    coarse = cardinal_oracle(k, OFF_GRID)
    fine = cardinal_oracle(k, OFF_GRID, step=1.0 / 128.0)
    assert np.max(np.abs(coarse - fine)) <= 1e-15


@pytest.mark.parametrize("k, x", [(mq.gaussian(1.0), 0.5), (mq.poisson(2.0), 2.3)])
def test_matches_mpmath_quad(k, x):
    mpmath = pytest.importorskip("mpmath")
    plan = mq.compute_tau(k, 1e-16)
    ends = [m * mpmath.pi for m in range(25)]  # Lhat is below 1e-19 past 24 pi
    with mpmath.workdps(20):
        want = mpmath.quad(
            lambda xi: mq.cardinal_hat(plan, float(xi)) * mpmath.cos(x * xi), ends
        ) / mpmath.pi
    assert float(cardinal_oracle(k, x)[0]) == pytest.approx(float(want), rel=0, abs=1e-15)


def test_table_off_the_integers():
    # A table's error off the integers is its wrap error (see cardinal.py):
    # about 1.85e-9 for poisson c = 1 and 3e-8 for alpha = -0.75, c = 1 at
    # Q = 2048, and rounding for the gaussian lambda = 1.
    x = np.arange(1, 8 * 64, 13) / 64.0
    for k, bound in [(mq.poisson(1.0), 3e-9), (mq.multiquadric(-0.75, 1.0), 5e-8),
                     (mq.gaussian(1.0), 1e-15)]:
        t = mq.build_cardinal_table(k, 1e-12, 32, 64)
        got = t.values[32 * 64 + np.arange(1, 8 * 64, 13)]
        assert np.max(np.abs(got - cardinal_oracle(k, x))) <= bound
