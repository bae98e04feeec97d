"""The benchmark's clock: time net of speed probes, and the machine's speed.

The machine the benchmark runs on is shared: its speed moves by up to 2x
and holds each level for seconds to minutes, so the raw times of one
workload spread by 15-30% between runs.  While ``Probes`` is active, a
timer interrupts the process every ``INTERVAL_S`` and times a fixed
reference unit ``UNITS_PER_PROBE`` times.  ``now`` leaves the probes'
time out, and ``Probes.scale`` turns the net seconds of a run into
*reference seconds*: net seconds times ``R0_S / r``, with ``r`` the mean
unit time over the run.  On a machine running at the speed where the unit
takes ``R0_S`` they equal raw seconds.

The unit uses numpy and scipy only, never smpnp, so a change to smpnp
cannot change it.  Its mix follows the solver's: a SuperLU factorization
and solve of a 3-D Laplacian, a pure-Python loop over dict rows (as in
the Python ILU(0)), and elementwise numpy math (as in assembly).
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu  # bound here, so tracing never wraps it

# seconds per unit on the 2-vCPU 2.1 GHz Xeon virtual machine where the
# benchmark was introduced, in its faster state
R0_S = 0.020
INTERVAL_S = 1.0
UNITS_PER_PROBE = 2

_spent = 0.0  # seconds spent in probes by this process


def now():
    """``time.perf_counter()`` minus the time spent in probes."""
    return time.perf_counter() - _spent


def _laplacian_3d(m):
    one = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(m, m))
    eye = sp.identity(m)
    A = (sp.kron(sp.kron(one, eye), eye) + sp.kron(sp.kron(eye, one), eye)
         + sp.kron(sp.kron(eye, eye), one))
    return (A + 0.1 * sp.identity(m ** 3)).tocsc()


class Reference:
    """The unit's inputs, built once before any timing."""

    PASSES = 8  # of the Python loop and of the numpy math per unit

    def __init__(self):
        self.A = _laplacian_3d(11)
        self.b = np.linspace(0.0, 1.0, self.A.shape[0])
        csr = self.A.tocsr()
        self.rows = [dict(zip(csr.indices[csr.indptr[i]:csr.indptr[i + 1]].tolist(),
                              range(csr.indptr[i], csr.indptr[i + 1])))
                     for i in range(csr.shape[0])]
        self.v = np.random.default_rng(0).random(100_000)

    def unit(self):
        x = splu(self.A).solve(self.b)
        s = 0.0
        for _ in range(self.PASSES):
            for row in self.rows:
                for j, k in row.items():
                    s += (j + k) * 1.0e-9
            w = np.exp(-self.v) * self.v + np.sqrt(self.v)
        return float(x[0] + s + w[0])


class Probes:
    """Times the reference unit at the start and every INTERVAL_S of the block.

    The probes run from a SIGALRM handler, between two Python bytecodes of
    whatever the process is doing, in its one thread.
    """

    def __init__(self, ref: Reference):
        self.ref = ref
        self.units = []  # seconds per unit, in order
        self.active = False

    def probe(self, signum=None, frame=None):
        """Time the unit now (also the SIGALRM handler); restarts the interval."""
        global _spent
        if not self.active:
            return
        entered = time.perf_counter()
        for _ in range(UNITS_PER_PROBE):
            t0 = time.perf_counter()
            self.ref.unit()
            self.units.append(time.perf_counter() - t0)
        _spent += time.perf_counter() - entered
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    def __enter__(self):
        signal.signal(signal.SIGALRM, self.probe)
        self.active = True
        self.probe()
        return self

    def __exit__(self, *exc):
        self.active = False
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        # the handler stays installed: a signal already pending finds it inactive

    def scale(self, first=0):
        """Factor from net seconds to reference seconds, for the span that
        began when ``len(self.units)`` was ``first``: from the mean of the
        units timed since, and of the last probe before it."""
        return R0_S / statistics.mean(self.units[max(0, first - UNITS_PER_PROBE):])
