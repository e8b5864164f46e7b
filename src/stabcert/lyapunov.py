"""Membership in the Lyapunov-inequality cone, refutation, certificate
construction, and the derived decay envelopes.

A Hermitian PSD matrix Q is a member for the generator A (relative to a
norm model W) when A* Q + Q A + W is negative semidefinite.  Membership
is decided by one whitened eigensolve: the margin is the largest
eigenvalue of the whitened residual, so nonpositive margin means member
and the quantified inequality never has to be sampled.  From any member
the package derives an explicit decay envelope |T(t)| <= M e^{-eps t}
with eps = 1/(2 |Q|) and M = sqrt(|Q| / theta).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .numkernel import (
    KernelPrecisionError,
    as_complex_matrix,
    expm,
    gauss_legendre_nodes,
    hermitian_eig,
    hermitian_part,
    spectral_norm,
)
from .semigroup import UnstableGeneratorError, certified_decay, evaluate, spectral_bound
from .space import NormModel, RieszMap, dual_map_norm, form_eigenvalues, op_norm, whiten_form

__all__ = [
    "DEFAULT_MEMBERSHIP_TOL",
    "NotPositiveSemidefiniteError",
    "NotAMemberError",
    "NotStronglyPositiveError",
    "Witness",
    "LyapunovCandidate",
    "StabilityCertificate",
    "membership_margin",
    "refute_stability",
    "solve_algebraic",
    "construct_q0",
    "certificate",
    "scale_member",
]

DEFAULT_MEMBERSHIP_TOL = 1e-8
SIGN_MAX_STEPS = 50

_REFUTE_REAL_PART_TOL = 1e-10


class NotPositiveSemidefiniteError(ValueError):
    """Candidate matrix fails the PSD gate (distinct from non-membership)."""


class NotAMemberError(ValueError):
    """Operation requires a cone member but the margin is positive."""


class NotStronglyPositiveError(RuntimeError):
    """Member lacks a positive theta: stability still follows from the
    square-integral route, but no explicit envelope constants exist."""


class Witness(NamedTuple):
    """Eigenpair with Re lambda >= 0 refuting every candidate at once."""

    eigenvalue: complex
    vector: np.ndarray


@dataclass(frozen=True)
class LyapunovCandidate:
    """Hermitian PSD candidate with its cached membership margin, dual-map
    norm, and strong-positivity constant."""

    q: np.ndarray
    margin: float
    q_norm: float
    theta: float
    tol: float = DEFAULT_MEMBERSHIP_TOL

    @property
    def is_member(self) -> bool:
        return self.margin <= self.tol


@dataclass(frozen=True)
class StabilityCertificate:
    """Decay envelope |T(t)| <= M e^{-epsilon t} derived from a member,
    with the grid verification outcome."""

    candidate: LyapunovCandidate
    epsilon: float
    overshoot: float  # the constant M >= 1
    grid_pass: bool
    worst_ratio: float
    t_grid: list


def membership_margin(
    q, a, nm: NormModel, tol: float = DEFAULT_MEMBERSHIP_TOL
) -> LyapunovCandidate:
    """Build a candidate and decide membership by the whitened eigensolve.

    The margin is the largest eigenvalue of the whitened
    A* Q + Q A + W; it is also the smallest rho such that the quadratic
    form stays below -(1 - rho) |x|^2 on unit vectors.  One eigensolve of
    the whitened Q gives the PSD gate, theta and |Q|; non-PSD input is
    rejected as a distinct error before any membership question is asked.
    """
    qq = as_complex_matrix(q, "q")
    aa = as_complex_matrix(a, "a")
    if qq.shape != aa.shape or qq.shape[0] != nm.n:
        raise ValueError(f"dimension mismatch: q {qq.shape}, a {aa.shape}, w {nm.w.shape}")
    lam_q = form_eigenvalues(qq, nm)
    q_norm = max(abs(lam_q[0]), abs(lam_q[-1]))
    if lam_q[0] < -1e-10 * q_norm:
        raise NotPositiveSemidefiniteError(
            f"candidate has whitened eigenvalue {lam_q[0]:.6e}; not positive semidefinite"
        )
    qs = hermitian_part(qq)
    residual = hermitian_part(aa.conj().T @ qs + qs @ aa + nm.w)
    lam_s, _ = hermitian_eig(whiten_form(residual, nm))
    return LyapunovCandidate(
        q=qs,
        margin=float(lam_s[-1]),
        q_norm=float(q_norm),
        theta=float(lam_q[0]),
        tol=tol,
    )


def refute_stability(a) -> Optional[Witness]:
    """Return an eigenpair with Re lambda >= 0 when one exists, else None.

    Such a pair refutes every PSD candidate at once: along the
    eigenvector the Lyapunov form equals 2 Re(lambda) <Qv, v> >= 0, which
    can never reach -|v|^2.  The real-part test allows -1e-10 of slack for
    eigensolver round-off.
    """
    aa = as_complex_matrix(a, "a")
    vals, vecs = np.linalg.eig(aa)
    hits = [i for i in range(len(vals)) if vals[i].real >= -_REFUTE_REAL_PART_TOL]
    if not hits:
        return None
    best = max(hits, key=lambda i: (vals[i].real, vals[i].imag))
    v = vecs[:, best]
    return Witness(eigenvalue=complex(vals[best]), vector=v / np.linalg.norm(v))


def solve_algebraic(a, rhs) -> np.ndarray:
    """Unique Hermitian PD solution of A* Q + Q A = -RHS for a stable A.

    Scaled Newton iteration for the matrix sign function (Roberts, Int. J.
    Control 1980; Benner & Quintana-Ortí, Numer. Algorithms 20, 1999):
    sign([[A, 0], [RHS, -A*]]) = [[-I, 0], [2Q, I]], reached by the steps
    E <- (E/c + c E^-1)/2, Q <- (Q/c + c E^-* Q E^-1)/2 from E = A, Q = RHS.
    The scale c = |det E|^(1/n) is dropped once |E + I|_1 < 1e-2.  The
    iteration stops at |E + I|_1 <= 1e-13 n, or when that norm stops falling
    below 1e-6; more than SIGN_MAX_STEPS steps raise KernelPrecisionError.
    O(n^3) time, O(n^2) memory.  A second Q pass on the residual equation
    refines the result, which must meet |A* Q + Q A + RHS| <= 1e-8 |RHS|.
    """
    aa = as_complex_matrix(a, "a")
    rr = as_complex_matrix(rhs, "rhs")
    if aa.shape != rr.shape:
        raise ValueError(f"shape mismatch: a {aa.shape}, rhs {rr.shape}")
    lam_r, _ = hermitian_eig(rr)
    if lam_r[0] <= 0.0:
        raise ValueError(
            f"right-hand side must be positive definite, min eigenvalue {lam_r[0]:.6e}"
        )
    witness = refute_stability(aa)
    if witness is not None:
        raise UnstableGeneratorError(
            f"no Lyapunov solution: eigenvalue {witness.eigenvalue:.6e} has "
            "nonnegative real part",
            witness=witness,
        )
    n = aa.shape[0]
    e, steps, prev, err = aa, [], math.inf, math.inf
    while err > 1e-13 * n and not prev <= err < 1e-6:
        if len(steps) == SIGN_MAX_STEPS:
            raise KernelPrecisionError(
                f"sign iteration did not converge in {SIGN_MAX_STEPS} steps (|E + I|_1 {err:.1e})"
            )
        e_inv = np.linalg.inv(e)
        c = 1.0 if err < 1e-2 else math.exp(np.linalg.slogdet(e)[1] / n)
        e = 0.5 * (e / c + c * e_inv)
        steps.append((c, e_inv))
        prev, err = err, float(np.linalg.norm(e + np.eye(n), 1))
    q = np.zeros_like(rr)
    for _ in range(2):  # the second pass solves for the correction
        d = aa.conj().T @ q + q @ aa + rr
        for c, e_inv in steps:
            d = 0.5 * (d / c + c * (e_inv.conj().T @ d @ e_inv))
        q = q + hermitian_part(0.5 * d)
    residual = spectral_norm(aa.conj().T @ q + q @ aa + rr)
    if residual > 1e-8 * spectral_norm(rr):
        raise KernelPrecisionError(
            f"Lyapunov residual {residual:.3e} exceeds 1e-8 * |RHS|"
        )
    return q


def construct_q0(
    a,
    riesz: RieszMap,
    nm: NormModel,
    t_max: float | None = None,
    panels: int | None = None,
    tol: float = DEFAULT_MEMBERSHIP_TOL,
) -> LyapunovCandidate:
    """Member built by quadrature: Q0 = (1/theta) int_0^T T(t)* P T(t) dt.

    When ``t_max`` is omitted it is chosen so the neglected tail satisfies
    m_hat^2 |P| e^{2 s_hat T} / theta <= 1e-9, which keeps both the value
    error and the induced membership margin under the membership
    tolerance.  The quadrature reuses one panel-step exponential and
    five node exponentials, accumulating panel sandwiches in a fixed
    order so results are reproducible.
    """
    aa = as_complex_matrix(a, "a")
    if riesz.theta <= 0.0:
        raise ValueError(f"Riesz map must have positive theta, got {riesz.theta:.3e}")
    s = spectral_bound(aa)
    if s >= 0.0:
        raise UnstableGeneratorError(
            f"cannot build the quadrature member: spectral bound {s:.6e} >= 0",
            witness=refute_stability(aa),
        )
    p = as_complex_matrix(riesz.p, "p")
    p_norm = dual_map_norm(p, nm)
    s_hat, m_hat = certified_decay(aa, nm)
    if t_max is None:
        t_max = math.log(m_hat ** 2 * p_norm / (riesz.theta * 1e-9)) / (2.0 * abs(s_hat))
        t_max = max(t_max, 1.0 / abs(s_hat))
    if not t_max > 0.0:
        raise ValueError(f"t_max must be positive, got {t_max}")
    if panels is None:
        # the membership residual amplifies the quadrature error by 2|A|,
        # so panels are chosen finer here than for plain value integrals
        stiffness = max(op_norm(aa, nm), abs(s_hat))
        panels = max(64, int(math.ceil(t_max * 2.0 * stiffness / 1.5)))
    if panels < 1:
        raise ValueError(f"panels must be >= 1, got {panels}")

    delta = t_max / panels
    nodes, weights = gauss_legendre_nodes(delta, 1)
    step = expm(aa, delta)
    weighted = np.zeros_like(p)
    for t, w in zip(nodes, weights):
        e = expm(aa, float(t))
        weighted = weighted + w * (e.conj().T @ p @ e)
    weighted = hermitian_part(weighted)

    acc = np.zeros_like(p)
    g = np.eye(aa.shape[0], dtype=complex)
    for _ in range(panels):
        acc = acc + g.conj().T @ weighted @ g
        g = step @ g
    q0 = hermitian_part(acc / riesz.theta)
    return membership_margin(q0, aa, nm, tol=tol)


def certificate(
    cand: LyapunovCandidate,
    a,
    nm: NormModel,
    t_grid=None,
    slack: float = 1e-8,
) -> StabilityCertificate:
    """Explicit decay envelope from a member, verified on a grid.

    Differentiating <Q T(t)x, T(t)x> along the semigroup and feeding the
    membership inequality back into itself gives the closed-form
    constants epsilon = 1/(2 |Q|) and M = sqrt(|Q| / theta); the grid
    check then measures the worst ratio |T(t)| / (M e^{-eps t}).
    Members sitting exactly on the tolerance boundary can exceed the
    envelope by O(margin * t), which the grid check reports honestly.
    """
    aa = as_complex_matrix(a, "a")
    if not cand.is_member:
        raise NotAMemberError(
            f"margin {cand.margin:.6e} exceeds tolerance {cand.tol:.1e}"
        )
    if cand.theta <= 0.0:
        raise NotStronglyPositiveError(
            "member is not strongly positive: exponential stability holds via the "
            "square-integral criterion but no envelope constants are available"
        )
    epsilon = 1.0 / (2.0 * cand.q_norm)
    overshoot = math.sqrt(cand.q_norm / cand.theta)
    if t_grid is None:
        t_grid = np.linspace(0.0, 10.0 / epsilon, 200)
    grid = np.asarray(t_grid, dtype=float).reshape(-1)
    if grid.size == 0:
        raise ValueError("verification grid is empty")
    worst = 0.0
    for t in grid:
        ratio = op_norm(evaluate(aa, float(t)), nm) / (overshoot * math.exp(-epsilon * t))
        worst = max(worst, ratio)
    return StabilityCertificate(
        candidate=cand,
        epsilon=epsilon,
        overshoot=overshoot,
        grid_pass=worst <= 1.0 + slack,
        worst_ratio=worst,
        t_grid=[float(t) for t in grid],
    )


def scale_member(cand: LyapunovCandidate, c: float) -> LyapunovCandidate:
    """Scale a member by c >= 1; membership is preserved because the
    residual transforms as c S - (c - 1) W.

    c < 1 is rejected: scaling down genuinely leaves the cone (for the
    scalar generator -I the member I/2 scaled by 0.5 already has margin
    +1/2), so no sound margin transform exists there.
    """
    if not cand.is_member:
        raise NotAMemberError(
            f"margin {cand.margin:.6e} exceeds tolerance {cand.tol:.1e}"
        )
    if c < 1.0:
        raise ValueError(
            f"scale factor must be >= 1 (got {c}): scaling down leaves the cone"
        )
    return LyapunovCandidate(
        q=c * cand.q,
        margin=c * cand.margin - (c - 1.0),
        q_norm=c * cand.q_norm,
        theta=c * cand.theta,
        tol=cand.tol,
    )
