"""Dense complex linear-algebra kernels shared by every other module.

Everything here is a pure function on square numpy arrays promoted to
complex128.  Inputs are never mutated and there is no module state, so
callers may evaluate independent operations concurrently.  Scope is
desk-scale dense work (n <= 256); sparse and iterative machinery is
deliberately out.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

__all__ = [
    "DEFAULT_EXPM_TOL",
    "SOLVER_RESIDUAL_TOL",
    "SingularMatrixError",
    "NonHermitianError",
    "KernelPrecisionError",
    "as_complex_matrix",
    "hermitian_part",
    "hermitian_gate",
    "spectral_norm",
    "expm",
    "hermitian_eig",
    "singular_extremes",
    "singularity_gate",
    "solve_linear",
    "gauss_legendre_nodes",
    "quad_integral",
]

DEFAULT_EXPM_TOL = 1e-12
SOLVER_RESIDUAL_TOL = 1e-10

_EPS = float(np.finfo(np.float64).eps)


class SingularMatrixError(ValueError):
    """Coefficient matrix is singular to working precision."""


class NonHermitianError(ValueError):
    """Input exceeds the Hermitian symmetrization tolerance."""


class KernelPrecisionError(RuntimeError):
    """A kernel failed to meet its residual contract."""


def as_complex_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and promote input to a finite, square complex128 array."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
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


def expm(a, t: float, tol: float = DEFAULT_EXPM_TOL) -> np.ndarray:
    """Matrix exponential of ``t * a`` by scaling and squaring.

    The scaled block is brought to 1-norm <= 0.5, expanded in a truncated
    Taylor series until the next term falls below the (squaring-adjusted)
    tolerance, then repeatedly squared.  ``t = 0`` returns the identity
    exactly.  ``tol`` must lie in (0, 1e-3]; the kernel saturates at
    machine precision regardless of how small it is.
    """
    m = as_complex_matrix(a, "a")
    if not t >= 0.0:
        raise ValueError(f"t must be nonnegative, got {t}")
    if not (0.0 < tol <= 1e-3):
        raise ValueError(f"tol must be in (0, 1e-3], got {tol}")
    n = m.shape[0]
    if t == 0.0:
        return np.eye(n, dtype=complex)

    b = m * t
    scale = np.linalg.norm(b, 1)
    squarings = 0 if scale <= 0.5 else int(np.ceil(np.log2(scale / 0.5)))
    if squarings:
        b = b / (2.0 ** squarings)

    # each squaring roughly doubles the series error, so tighten up front
    floor = max(tol / (4.0 * 2.0 ** squarings), 2.0 * _EPS)
    result = np.eye(n, dtype=complex)
    term = np.eye(n, dtype=complex)
    for k in range(1, 40):
        term = term @ b / k
        result = result + term
        if np.linalg.norm(term, 1) <= floor * max(1.0, np.linalg.norm(result, 1)):
            break
    for _ in range(squarings):
        result = result @ result
    return result


def hermitian_gate(h, name: str = "matrix") -> np.ndarray:
    """Hermitian part of a nearly Hermitian matrix.

    Frobenius asymmetry beyond 1e-12 of the Frobenius norm is rejected
    since it signals a caller bug rather than round-off drift.
    """
    m = as_complex_matrix(h, name)
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


def singular_extremes(a) -> tuple[float, float]:
    """Largest and smallest singular values of a square matrix."""
    m = as_complex_matrix(a, "m")
    sv = np.linalg.svd(m, compute_uv=False)
    return float(sv[0]), float(sv[-1])


def singularity_gate(m: np.ndarray) -> tuple[float, float]:
    """(sigma_max, sigma_min) of a square matrix; SingularMatrixError when
    sigma_min <= 16 n eps sigma_max."""
    sigma_max, sigma_min = singular_extremes(m)
    if sigma_min <= 16.0 * m.shape[0] * _EPS * sigma_max:
        raise SingularMatrixError(
            f"matrix singular to working precision (sigma_min={sigma_min:.3e}, "
            f"sigma_max={sigma_max:.3e})"
        )
    return sigma_max, sigma_min


def solve_linear(m, b, check_singularity: bool = True) -> np.ndarray:
    """Solve ``m @ x = b`` by pivoted LU.

    With ``check_singularity`` the matrix first passes
    :func:`singularity_gate`.  The backward-stable solve is post-checked
    against the residual contract ``||m x - b|| <= 1e-10 ||m|| ||x||``.
    """
    mm = as_complex_matrix(m, "m")
    bb = np.asarray(b, dtype=complex)
    if bb.shape[0] != mm.shape[0]:
        raise ValueError(f"shape mismatch: {mm.shape} vs {bb.shape}")
    scale = singularity_gate(mm)[0] if check_singularity else spectral_norm(mm)
    try:
        x = np.linalg.solve(mm, bb)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(str(exc)) from exc
    residual = np.linalg.norm(mm @ x - bb)
    bound = SOLVER_RESIDUAL_TOL * scale * max(np.linalg.norm(x), 1e-300)
    if residual > max(bound, 16.0 * _EPS * np.linalg.norm(bb)):
        raise KernelPrecisionError(
            f"solve residual {residual:.3e} exceeds contract bound {bound:.3e}"
        )
    return x


def gauss_legendre_nodes(upper: float, panels: int, order: int = 5):
    """Composite Gauss-Legendre nodes and weights on [0, upper].

    Returns flat arrays of ``panels * order`` nodes (increasing) and the
    matching weights.  The 5-point rule is exact for polynomials of
    degree 9 on each panel.
    """
    if not upper > 0.0:
        raise ValueError(f"upper limit must be positive, got {upper}")
    if panels < 1:
        raise ValueError(f"panels must be >= 1, got {panels}")
    x, w = np.polynomial.legendre.leggauss(order)
    width = upper / panels
    starts = width * np.arange(panels)
    nodes = (starts[:, None] + 0.5 * width * (x[None, :] + 1.0)).ravel()
    weights = np.tile(0.5 * width * w, panels)
    return nodes, weights


def quad_integral(f: Callable[[float], float], upper: float, panels: int):
    """Integrate ``f`` over [0, upper] with composite 5-point Gauss-Legendre."""
    if panels < 4:
        raise ValueError(f"panels must be >= 4, got {panels}")
    nodes, weights = gauss_legendre_nodes(upper, panels)
    values = np.array([f(float(t)) for t in nodes])
    if not np.all(np.isfinite(values.view(np.float64) if np.iscomplexobj(values) else values)):
        raise ValueError("integrand produced non-finite samples")
    total = np.dot(weights, values)
    return complex(total) if np.iscomplexobj(values) else float(total)
