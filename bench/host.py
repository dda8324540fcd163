"""Host speed: a fixed calibration kernel and times rescaled by it.

The kernel mixes the three kinds of work the jobs do: dense complex
144x144 algebra (the paper-scale solver), many small 8x8 complex calls (the
desk solver, where numpy's per-call overhead dominates) and a plain Python
loop (the runner's glue).  It takes about ``REF_S`` seconds on a 2-vCPU
Intel Xeon VM with one OpenBLAS thread.
"""

import statistics
import time

import numpy as np

REF_S = 0.08

_RNG = np.random.default_rng(2025)
_BIG = (_RNG.standard_normal((144, 144)) + 1j * _RNG.standard_normal((144, 144))
        + 144 * np.eye(144))
_SMALL = (_RNG.standard_normal((32, 8, 8)) + 1j * _RNG.standard_normal((32, 8, 8))
          + 8 * np.eye(8))


def _kernel():
    for _ in range(16):
        np.linalg.solve(_BIG, _BIG)
        _BIG @ _BIG.conj().T
    for m in _SMALL:
        for _ in range(40):
            np.linalg.inv(m)
            m @ m.conj().T
            np.real(np.trace(m))
    s = 0
    for i in range(240_000):
        s += i * i
    return s


def calibrate():
    """Wall seconds of one run of the calibration kernel."""
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0


def at_ref(times, cal):
    """Median of ``times`` at the reference host speed.

    ``cal`` holds one more calibration time than ``times``: step ``i`` ran
    between ``cal[i]`` and ``cal[i + 1]``, and the mean of the two stands for
    the host's speed during it.
    """
    assert len(cal) == len(times) + 1
    return statistics.median(t * REF_S / ((a + b) / 2)
                             for t, a, b in zip(times, cal, cal[1:]))
