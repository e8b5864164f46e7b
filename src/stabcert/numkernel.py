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

import numpy as np

__all__ = [
    "SOLVER_RESIDUAL_TOL",
    "SingularMatrixError",
    "NonHermitianError",
    "KernelPrecisionError",
    "as_matrix",
    "hermitian_part",
    "hermitian_gate",
    "spectral_norm",
    "expm",
    "hermitian_eig",
    "singular_extremes",
    "singularity_gate",
    "solve_linear",
    "gauss_legendre_nodes",
]

SOLVER_RESIDUAL_TOL = 1e-10

_EPS = float(np.finfo(np.float64).eps)
_DTYPES = (np.dtype(np.float64), np.dtype(np.complex128))


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
    return 0.5 * (a + a.conj().T)


def spectral_norm(a: np.ndarray) -> float:
    """Largest singular value (2-norm); 0.0 for empty input."""
    if a.size == 0:
        return 0.0
    return float(np.linalg.norm(a, 2))


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
    n = m.shape[0]
    ident = np.eye(n, dtype=m.dtype)
    if t == 0.0:
        return ident

    x = m * t
    norm = float(np.linalg.norm(x, 1))
    degree = next((d for d, theta in _PADE_THETA.items() if norm <= theta), 13)
    squarings = 0
    if norm > _PADE_THETA[13]:
        squarings = int(math.ceil(math.log2(norm / _PADE_THETA[13])))
        x = x * 2.0 ** -squarings
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


def hermitian_gate(h, name: str = "matrix") -> np.ndarray:
    """Hermitian part of a nearly Hermitian matrix.

    Frobenius asymmetry beyond 1e-12 of the Frobenius norm is rejected
    since it signals a caller bug rather than round-off drift.
    """
    m = as_matrix(h, name)
    scale = np.linalg.norm(m, "fro")
    drift = np.linalg.norm(m - m.conj().T, "fro")
    if drift > 1e-12 * max(scale, 1e-300):
        raise NonHermitianError(
            f"{name} is not Hermitian: asymmetry {drift:.3e} vs scale {scale:.3e}"
        )
    return hermitian_part(m)


def hermitian_eig(h) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a (nearly) Hermitian matrix, symmetrized by
    :func:`hermitian_gate` first.  Returns eigenvalues in ascending order
    and the unitary matrix of eigenvectors.
    """
    w, v = np.linalg.eigh(hermitian_gate(h))
    return w, v


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
