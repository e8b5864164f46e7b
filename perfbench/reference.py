"""Reference kernel: fixed pieces of work that tell how fast the host runs now.

The benchmark's host is a shared virtual machine whose speed changes by up
to 2.5x within seconds and stays changed for minutes; CPU time follows wall
time, so the change comes from the host, not from waiting.  Raw job times
therefore spread more between two runs of the same code than a regression
the benchmark must catch.  The worker runs the reference between jobs and
scales every job time by ``nominal_s / (time of the reference runs around
it)``: the reported times are seconds on a host where the reference takes
its nominal time.  The kernel does not touch stabcert, so any change in the
program moves the scaled times in full.

The host's slowdowns do not hit all code alike, so the kernel has three
parts, each timed on its own, and a time is scaled by the parts that
resemble the code it measures:

- ``python``: a pure-Python loop (the interpreter);
- ``lapack``: 40 small complex LAPACK calls (call overhead at the sizes of
  the resolvent scans and of small-n jobs);
- ``blas``: one 256x256 complex solve (BLAS-3 arithmetic, as in the
  Kronecker Lyapunov solve).

On every workload the parts chosen halved the spread of scaled job times
between 25-second windows, against the sum of all three.
"""

from __future__ import annotations

import time

import numpy as np

_rng = np.random.default_rng(20210403)
_SMALL = _rng.standard_normal((24, 24)) + 1j * _rng.standard_normal((24, 24))
_LARGE = _rng.standard_normal((256, 256)) + 1j * _rng.standard_normal((256, 256))


def _python():
    acc = 0
    for i in range(100_000):
        acc += i * i % 7


def _lapack():
    for _ in range(20):
        np.linalg.svd(_SMALL)
        np.linalg.solve(_SMALL, _SMALL)


def _blas():
    np.linalg.solve(_LARGE, _LARGE)


# Each part and its nominal time: a typical time on the baseline host
# (2-core Intel Xeon VM, Python 3.11, numpy 2.4, OpenBLAS 0.3.31, one BLAS
# thread).  Only the scale of the reported times depends on these; they
# must stay fixed for the times of two commits to compare.
PARTS = {
    "python": (_python, 0.012),
    "lapack": (_lapack, 0.0065),
    "blas": (_blas, 0.011),
}


def run():
    """Run every part once; returns each part's wall time in seconds."""
    times = {}
    for name, (part, _nominal_s) in PARTS.items():
        started = time.perf_counter()
        part()
        times[name] = time.perf_counter() - started
    return times


def scale(parts, before, after):
    """Factor that turns a time measured between the reference runs
    ``before`` and ``after`` into reference seconds of ``parts``."""
    nominal_s = sum(PARTS[name][1] for name in parts)
    return nominal_s / (0.5 * sum(before[name] + after[name] for name in parts))
