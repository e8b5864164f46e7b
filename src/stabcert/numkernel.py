"""Dense linear-algebra kernels shared by every other module.

Everything here is a pure function on square numpy arrays validated by
:func:`as_matrix`: real input stays float64 and complex input is
complex128, so a real generator runs in real LAPACK and BLAS calls, which
take a third to a half of the time of their complex counterparts.  Each
kernel returns the dtype its arithmetic gives (complex as soon as one
operand is complex).  Inputs are never mutated and there is no module
state, so callers may evaluate independent operations concurrently.
Scope is desk-scale dense work (n <= 256); sparse and iterative
machinery is deliberately out.
"""

from __future__ import annotations

import math
import os
import threading

import numpy as np

__all__ = [
    "SOLVER_RESIDUAL_TOL",
    "SingularMatrixError",
    "NonHermitianError",
    "KernelPrecisionError",
    "as_matrix",
    "hermitian_part",
    "hermitian_gate",
    "expm",
    "expm_grid",
    "expm_stacks",
    "hermitian_eig",
    "singular_extremes",
    "singularity_gate",
    "solve_linear",
    "gauss_legendre_nodes",
    "gil_free_depth",
    "run_on_cpus",
]

SOLVER_RESIDUAL_TOL = 1e-10

_EPS = float(np.finfo(np.float64).eps)
_DTYPES = (np.dtype(np.float64), np.dtype(np.complex128))
# bytes of samples per stack ``expm_stacks`` yields: for a real generator the
# 64-point default grid is one stack up to n = 32 and stacks of 28 at n = 48,
# deep enough for two GIL-free SVD runs, and one sample per stack from n = 256
_GRID_BYTES = 512 * 1024


class SingularMatrixError(ValueError):
    """Coefficient matrix is singular to working precision.  For a stack,
    ``index`` is the flat position of the first singular slice (else None)."""

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


class NonHermitianError(ValueError):
    """Input exceeds the Hermitian symmetrization tolerance."""


class KernelPrecisionError(RuntimeError):
    """A kernel failed to meet its residual contract."""


def as_matrix(a, name: str = "matrix", stack: bool = False) -> np.ndarray:
    """Validate input as a finite, square array: complex128 when it is
    complex, float64 otherwise.  A complex array with zero imaginary parts
    stays complex: the dtype is decided where a matrix is made.  The array
    is C-contiguous, so that a complex one views as its float64 parts.
    ``stack=True`` also accepts an ``(..., n, n)`` stack of square matrices."""
    m = np.ascontiguousarray(a)
    if m.dtype not in _DTYPES:
        m = m.astype(complex if np.iscomplexobj(m) else float)
    if m.ndim < 2 or (m.ndim > 2 and not stack) or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    if not np.all(np.isfinite(m.view(np.float64))):
        raise ValueError(f"{name} has non-finite entries")
    return m


def hermitian_part(a: np.ndarray) -> np.ndarray:
    """(A + A^H) / 2 of a matrix, or of each slice of an ``(..., n, n)`` stack,
    halved before the sum so that no finite A overflows it; halving is exact,
    so the bits are those of 0.5 (A + A^H) in the normal range."""
    return 0.5 * a + 0.5 * a.conj().swapaxes(-1, -2)


def _pade_coefficients(m: int) -> tuple[float, ...]:
    """c_k = (2m-k)! m! / ((2m)! k! (m-k)!), k = 0..m: the numerator of the
    [m/m] Pade approximant of e^x; the denominator is the same at -x."""
    f = math.factorial  # int / int is correctly rounded however large
    return tuple(f(2 * m - k) * f(m) / (f(2 * m) * f(k) * f(m - k)) for k in range(m + 1))


# theta_m of Higham (2005), Table 2.3: the largest 1-norm of X for which the
# backward error of r_m(X) stays below the unit roundoff 2^-53.
_PADE_THETA = {3: 1.495585217958292e-2, 5: 2.539398330063230e-1,
               7: 9.504178996162932e-1, 9: 2.097847961257068e0,
               13: 5.371920351148152e0}
_PADE_COEFFS = {m: _pade_coefficients(m) for m in _PADE_THETA}


def _one_norms(x: np.ndarray):
    """1-norm of a matrix, or of each slice of a stack, summed as
    ``np.linalg.norm(x, 1)`` sums it: a slice's norm is bit for bit the one
    the slice alone gets."""
    return np.abs(x).sum(axis=-2).max(axis=-1)


def _pade_order(norm: float) -> tuple[int, int]:
    """(m, s) of Higham's Algorithm 2.3 for |X|_1 = ``norm``: the lowest degree
    m in {3, 5, 7, 9} with |X|_1 <= theta_m, else m = 13 after s halvings
    bring |X|_1 to theta_13 or below."""
    if norm <= _PADE_THETA[13]:
        return next(d for d, theta in _PADE_THETA.items() if norm <= theta), 0
    return 13, int(math.ceil(math.log2(norm / _PADE_THETA[13])))


def _pade_exp(m: np.ndarray, ts: np.ndarray, degree: int, squarings: int) -> np.ndarray:
    """exp(t m) for each t of ``ts``, every one with the same (degree,
    squarings): one stack X = t m / 2^s, its [m/m] approximant
    r_m = q_m(X)^-1 p_m(X) from one stacked solve (q_m is well conditioned
    for |X|_1 <= theta_m), squared s times."""
    x = m * ts[:, None, None]
    if squarings:
        x = x * 2.0 ** -squarings
    # the identity at x's shape, so that numpy can sum the terms in place
    ident = np.broadcast_to(np.eye(m.shape[0], dtype=m.dtype), x.shape)
    c = _PADE_COEFFS[degree]
    x2 = x @ x
    if degree == 13:
        x4 = x2 @ x2
        x6 = x4 @ x2
        u = x @ (x6 @ (c[13] * x6 + c[11] * x4 + c[9] * x2)
                 + c[7] * x6 + c[5] * x4 + c[3] * x2 + c[1] * ident)
        v = (x6 @ (c[12] * x6 + c[10] * x4 + c[8] * x2)
             + c[6] * x6 + c[4] * x4 + c[2] * x2 + c[0] * ident)
    else:
        powers = [ident, x2]
        while len(powers) <= degree // 2:
            powers.append(powers[-1] @ x2)
        u = x @ sum(c[2 * j + 1] * p for j, p in enumerate(powers))
        v = sum(c[2 * j] * p for j, p in enumerate(powers))
    result = np.linalg.solve(v - u, v + u)
    for _ in range(squarings):
        result = result @ result
    return result


def expm(a, t: float) -> np.ndarray:
    """Matrix exponential of ``t * a`` by Pade scaling and squaring.

    Higham's Algorithm 2.3 (SIAM J. Matrix Anal. Appl. 26, 2005; see also
    Moler & Van Loan, SIAM Rev. 45, 2003).  With X = t a, the lowest degree
    m in {3, 5, 7, 9} with |X|_1 <= theta_m is used unscaled; otherwise X is
    halved s times until |X|_1 <= theta_13 = 5.37 and m = 13.  The [m/m]
    approximant r_m = q_m(X)^-1 p_m(X) comes from one solve (q_m is well
    conditioned for |X|_1 <= theta_m) and is squared s times.  The backward
    error is at the unit roundoff.  ``t = 0`` returns the identity exactly.
    """
    m = as_matrix(a, "a")
    if not t >= 0.0:
        raise ValueError(f"t must be nonnegative, got {t}")
    if t == 0.0:
        return np.eye(m.shape[0], dtype=m.dtype)
    return _pade_exp(m, np.array([t], dtype=float), *_pade_order(_one_norms(m * t)))[0]


def expm_grid(a, grid):
    """Yield exp(t a) for each t of an increasing grid, bit for bit
    :func:`expm` of each t: the samples of :func:`expm_stacks`, one by one."""
    for stack in expm_stacks(a, grid):
        yield from stack


def expm_stacks(a, grid):
    """Yield exp(t a) over an increasing grid as stacks of consecutive
    samples, each sample bit for bit :func:`expm` of its t.

    When |t a|_1 > theta_13, expm(a, t) squares at least once, and halving t
    is exact, so expm(a, t/2) scales to the same X, builds the same Pade
    approximant (theta_13 / 2 > theta_9 keeps its degree at 13) and stops
    one squaring short: a point whose exact half is an earlier grid point
    takes that sample's square (barring subnormal entries, where the
    halving rounds).  Every other point takes its own approximant, and a
    run of such points that share (degree, squarings) takes them in one
    stacked evaluation; |t a|_1 grows with t, so on an increasing grid each
    (degree, squarings) group of a stack is one run.  A run of squares
    whose halves are all computed is one stacked matmul: on
    ``default_time_grid``, one octave.

    A stack holds at most _GRID_BYTES of samples, or one sample where a
    matrix is larger, and a sample is kept past its stack only until its
    square is taken: on a grid with K points per octave, besides the stack
    in hand, at most K samples and the stacks that hold them stay alive.
    Callers must not write into a yielded stack."""
    m = as_matrix(a, "a")
    ts = np.asarray(grid, dtype=float).reshape(-1)
    if not np.all(ts >= 0.0):
        raise ValueError(f"t must be nonnegative, got {ts[~(ts >= 0.0)][0]}")
    depth = max(_GRID_BYTES // m.nbytes, 1)
    norms = [v for i in range(0, ts.size, depth)
             for v in _one_norms(m * ts[i:i + depth, None, None]).tolist()]
    halves = np.full(ts.size, -1)  # the earlier point each one squares, else -1
    first = {}
    for i, t in enumerate(ts.tolist()):
        if norms[i] > _PADE_THETA[13] and 0.5 * t in first:
            halves[i] = first[0.5 * t]
        first.setdefault(t, i)
    squared = set(halves[halves >= 0].tolist())
    orders = [_pade_order(v) if t else None for v, t in zip(norms, ts)]  # None: t = 0
    kept = {}  # sample index -> its matrix, until its square is taken
    for start in range(0, ts.size, depth):
        stop = min(start + depth, ts.size)
        runs = []  # the block's runs, each one stack in grid order
        i = start
        while i < stop:
            j = i + 1
            if halves[i] < 0:  # points that take their own approximant, of one order
                while j < stop and halves[j] < 0 and orders[j] == orders[i]:
                    j += 1
                run = (np.repeat(np.eye(m.shape[0], dtype=m.dtype)[None], j - i, 0)
                       if orders[i] is None else _pade_exp(m, ts[i:j], *orders[i]))
            else:  # a run of squares whose halves are all computed
                while j < stop and 0 <= halves[j] < i:
                    j += 1
                halfway = np.stack([kept.pop(h) for h in halves[i:j].tolist()])
                run = halfway @ halfway
            runs.append(run)
            for k in squared.intersection(range(i, j)):
                kept[k] = run[k - i]
            i = j
        # a stack allocated after its temporaries are freed, not before them,
        # keeps the allocator from handing their pages back to the system
        yield runs[0] if len(runs) == 1 else np.concatenate(runs)


def _cpu_count() -> int:
    """CPUs this process may run on (the machine's where affinity is unknown)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def gil_free_depth(order: int) -> int:
    """Fewest matrices of the given order a stacked ``np.linalg`` call must
    hold for numpy to release the GIL while it runs: it releases it only
    when depth x order > 500 (``NPY_BEGIN_THREADS_THRESHOLDED`` in its
    gufunc loop), so a shallower stack runs no faster on a second thread."""
    return 500 // order + 1


def run_on_cpus(work, count: int, order: int, depth: int | None = None) -> None:
    """Call ``work(start, stop)`` on consecutive slices covering range(count),
    each one stacked call over at most ``depth`` matrices of the given order,
    or :func:`gil_free_depth` of them if that is more (None: one call per
    CPU, on as many CPUs as can each take a call that deep).  The fewest
    calls that deep round up to a multiple of the runs they fill and share
    the count evenly, the larger first, unless such a slice would be too
    shallow to release the GIL: then each call but the last takes the depth.

    The calls deep enough to release the GIL go in contiguous runs, one per
    CPU the process may run on, capped by their count: the calling thread
    takes the first run, a short-lived thread each other.  A shallower last
    call is a run of its own on the calling thread, since on a second thread
    it would only wait for the GIL.  Each call must write only its own
    slice's results, so no value depends on the CPU count.  Every thread has
    ended before the earliest failed run's error is raised."""
    cpus, free = _cpu_count(), gil_free_depth(order)
    if depth is None:
        depth = -(-count // max(min(cpus, count // free), 1))
    depth = max(depth, free)
    split = min(cpus, -(-count // depth))  # the runs the fewest calls fill
    even = split and split * -(-count // (depth * split))  # those calls in whole rounds
    if even and count // even >= free:
        bounds = [k * (count // even) + min(k, count % even) for k in range(even + 1)]
    else:
        bounds = [*range(0, count, depth), count]
    calls = list(zip(bounds, bounds[1:]))
    deep = [call for call in calls if call[1] - call[0] >= free]
    parts = min(cpus, len(deep))
    runs = [deep[r * len(deep) // parts:(r + 1) * len(deep) // parts] for r in range(parts)]
    local = [0] if runs else []  # the runs the calling thread takes, in order
    if len(deep) < len(calls):
        local.append(len(runs))
        runs.append(calls[-1:])
    failures = {}  # run -> its error

    def run(r):
        try:
            for start, stop in runs[r]:
                work(start, stop)
        except Exception as exc:  # raised once every run has ended
            failures[r] = exc

    workers = [threading.Thread(target=run, args=(r,)) for r in range(1, parts)]
    for worker in workers:
        worker.start()
    for r in local:
        run(r)
        if r in failures:  # no later run's error can be the earliest
            break
    for worker in workers:
        worker.join()
    if failures:
        raise failures[min(failures)]


def hermitian_gate(h, name: str = "matrix") -> np.ndarray:
    """Hermitian part of a matrix a caller claims is Hermitian.

    Frobenius asymmetry beyond 1e-12 of the Frobenius norm is rejected since
    it signals a caller bug rather than round-off drift.  Both norms are of
    2^-e H, 2^e just above the largest real or imaginary part (Blue, ACM TOMS
    4, 1978), so no scale over- or underflows them: 2^k H passes as H does."""
    m = as_matrix(h, name)
    e = math.frexp(float(np.abs(m.view(np.float64)).max(initial=0.0)))[1]
    s = np.ldexp(m.view(np.float64), -e).view(m.dtype)
    scale = np.linalg.norm(s, "fro")
    drift = np.linalg.norm(s - s.conj().T, "fro")
    if drift > 1e-12 * scale:
        raise NonHermitianError(
            f"{name} is not Hermitian: asymmetry {drift / scale:.3e} of its Frobenius norm"
        )
    return hermitian_part(m)


def hermitian_eig(h) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of the Hermitian part of a matrix that is Hermitian
    by construction or has passed :func:`hermitian_gate`: no claim is tested.
    Returns ascending eigenvalues and the unitary matrix of eigenvectors; for
    an ``(..., n, n)`` stack, those of each slice from one batched call.
    """
    return np.linalg.eigh(hermitian_part(as_matrix(h, stack=True)))


def _first_failure(failed) -> tuple[int, str]:
    """Flat position of the first failed slice and its name for a message;
    (0, "") for one matrix."""
    if np.ndim(failed) == 0:
        return 0, ""
    j = int(np.flatnonzero(failed)[0])
    return j, f"slice {j} "


def _slice_norms(v: np.ndarray, batch: int):
    """Frobenius norm of each of the slices over ``v``'s first ``batch`` axes."""
    return np.linalg.norm(v.reshape(v.shape[:batch] + (-1,)), axis=-1)


def singular_extremes(a):
    """Largest and smallest singular values of a square matrix; for an
    ``(..., n, n)`` stack, one array of each over the slices, from one
    batched SVD call."""
    m = as_matrix(a, "m", stack=True)
    sv = np.linalg.svd(m, compute_uv=False)
    if m.ndim == 2:
        return float(sv[0]), float(sv[-1])
    return sv[..., 0], sv[..., -1]


def singularity_gate(m: np.ndarray):
    """(sigma_max, sigma_min) of a square matrix, or of each slice of an
    ``(..., n, n)`` stack; SingularMatrixError when sigma_min <= 16 n eps
    sigma_max, for a stack at its first such slice (the error's ``index``)."""
    sigma_max, sigma_min = singular_extremes(m)
    singular = np.asarray(sigma_min <= 16.0 * np.shape(m)[-1] * _EPS * sigma_max)
    if singular.any():
        j, where = _first_failure(singular)
        raise SingularMatrixError(
            f"matrix {where}singular to working precision "
            f"(sigma_min={np.ravel(sigma_min)[j]:.3e}, sigma_max={np.ravel(sigma_max)[j]:.3e})",
            j if singular.ndim else None,
        )
    return sigma_max, sigma_min


def solve_linear(m, b, sigma_max: float | np.ndarray | None = None) -> np.ndarray:
    """Solve ``m @ x = b`` by pivoted LU.

    ``m`` is one square matrix, with ``b`` a vector or a block of columns,
    or an ``(..., n, n)`` stack solved in one batched call, with ``b`` a
    block of columns (or a stack of them) broadcast against its slices.
    The matrix first passes :func:`singularity_gate`, unless the caller's
    own gate has passed it and hands over the ``sigma_max`` it measured
    (one value per slice for a stack).  Each slice's backward-stable solve
    is post-checked against the residual contract
    ``||m x - b|| <= 1e-10 sigma_max ||x||``.
    """
    mm = as_matrix(m, "m", stack=True)
    bb = np.asarray(b)
    batch = mm.ndim - 2
    if bb.ndim < 1 + (batch > 0) or bb.shape[-2 if batch else 0] != mm.shape[-1]:
        raise ValueError(f"shape mismatch: {mm.shape} vs {bb.shape}")
    scale = singularity_gate(mm)[0] if sigma_max is None else sigma_max
    try:
        x = np.linalg.solve(mm, bb)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(str(exc)) from exc
    residual = _slice_norms(mm @ x - bb, batch)
    bound = SOLVER_RESIDUAL_TOL * np.asarray(scale) * np.maximum(_slice_norms(x, batch), 1e-300)
    floor = 16.0 * _EPS * _slice_norms(np.broadcast_to(bb, x.shape), batch)
    failed = residual > np.maximum(bound, floor)
    if failed.any():
        j, where = _first_failure(failed)
        raise KernelPrecisionError(
            f"solve {where}residual {np.ravel(residual)[j]:.3e} exceeds contract "
            f"bound {np.ravel(bound)[j]:.3e}"
        )
    return x


def gauss_legendre_nodes(upper: float, panels: int):
    """Composite Gauss-Legendre nodes and weights on [0, upper].

    Returns flat arrays of ``5 * panels`` nodes (increasing) and the
    matching weights.  The 5-point rule is exact for polynomials of
    degree 9 on each panel.
    """
    if not upper > 0.0:
        raise ValueError(f"upper limit must be positive, got {upper}")
    if panels < 1:
        raise ValueError(f"panels must be >= 1, got {panels}")
    x, w = np.polynomial.legendre.leggauss(5)
    width = upper / panels
    starts = width * np.arange(panels)
    nodes = (starts[:, None] + 0.5 * width * (x[None, :] + 1.0)).ravel()
    weights = np.tile(0.5 * width * w, panels)
    return nodes, weights
