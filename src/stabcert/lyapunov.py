"""Membership in the Lyapunov-inequality cone, refutation, certificate
construction, and the derived decay envelopes.

A Hermitian PSD matrix Q is a member for the generator A (relative to a
norm model W) when A* Q + Q A + W is negative semidefinite.  Membership
is decided by one whitened eigensolve: the margin is the largest
eigenvalue of the whitened residual, so nonpositive margin means member
and the quantified inequality never has to be sampled.  A candidate
carries the generator and norm it was decided for.  From any member the
package derives an explicit decay envelope |T(t)| <= M e^{-eps t} with
eps = 1/(2 |Q|) and M = sqrt(|Q| / theta).  Those constants and the
resolvent bound 2|Q| / (1 + 2|Q| min(Re lambda, 0)) depend on |Q| and theta
alone, and each is stated once, on the candidate: ``decay_rate``,
``envelope(t)`` (M = ``envelope(0.0)``) and ``resolvent_bound(re)``.  The
certificate, both resolvent scans, the perturbation limit and ``recheck``
all read them there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import numkernel
from .numkernel import (_EPS, KernelPrecisionError, as_matrix, expm, hermitian_eig,
                        hermitian_gate, hermitian_part, run_on_cpus, singular_extremes)
from .semigroup import (REFUTE_REAL_PART_TOL, Witness, certified_decay, gramian_quadrature,
                        refute_stability, stability_gate)
from .space import NormModel, RieszMap, dual_map_norm, op_norm, whiten_form, whiten_operator

__all__ = [
    "DEFAULT_MEMBERSHIP_TOL",
    "REFUTE_REAL_PART_TOL",
    "NotPositiveSemidefiniteError",
    "NotAMemberError",
    "NotStronglyPositiveError",
    "Witness",
    "LyapunovCandidate",
    "StabilityCertificate",
    "membership_margin",
    "refute_stability",
    "solve_algebraic",
    "check_quadrature",
    "construct_q0",
    "certificate",
    "scale_member",
]

DEFAULT_MEMBERSHIP_TOL = 1e-8
CERTIFICATE_SLACK = 1e-8  # envelope ratio the certificate grid may reach above 1
CERTIFICATE_HORIZON = 10.0  # the certificate grid spans [0, CERTIFICATE_HORIZON / epsilon]
CERTIFICATE_POINTS = 200
SIGN_MAX_STEPS = 50


class NotPositiveSemidefiniteError(ValueError):
    """Candidate matrix fails the PSD gate (distinct from non-membership)."""


class NotAMemberError(ValueError):
    """Operation requires a cone member but the margin is positive."""


class NotStronglyPositiveError(RuntimeError):
    """Member lacks a positive theta: stability still follows from the
    square-integral route, but no explicit envelope constants exist."""


@dataclass(frozen=True)
class LyapunovCandidate:
    """Hermitian PSD candidate Q with the generator A (a read-only copy) and norm
    model it was decided for, and its margin, dual-map norm |Q| and theta."""

    q: np.ndarray
    a: np.ndarray
    nm: NormModel
    margin: float
    q_norm: float
    theta: float
    tol: float = DEFAULT_MEMBERSHIP_TOL

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """The spectrum of A, from its stability gate, decided once per candidate."""
        return stability_gate(self.a)

    @property
    def is_member(self) -> bool:
        return self.margin <= self.tol

    @property
    def decay_rate(self) -> float:  # eps = 1/(2 |Q|), also the perturbation limit
        return 1.0 / (2.0 * self.q_norm)

    def envelope(self, t: float) -> float:  # M e^{-eps t}, M = sqrt(|Q|/theta) = envelope(0.0)
        return math.sqrt(self.q_norm / self.theta) * math.exp(-self.decay_rate * t)

    def resolvent_bound(self, re: float) -> float:  # the bound on |R(lambda)| at Re lambda = re
        return 2.0 * self.q_norm / (1.0 + 2.0 * self.q_norm * min(re, 0.0))

    def require_member(self) -> None:
        """The membership precondition of every operation on a member."""
        if not self.is_member:
            raise NotAMemberError(f"margin {self.margin:.6e} exceeds {self.tol:.1e}")


@dataclass(frozen=True)
class StabilityCertificate:
    """Decay envelope |T(t)| <= M e^{-epsilon t} derived from a member,
    with the grid verification outcome."""

    epsilon: float
    overshoot: float  # the constant M >= 1
    grid_pass: bool
    worst_ratio: float
    t_grid: list
    worst_t: float  # grid time of the worst ratio
    evaluated: int  # grid points that took an SVD


def _residual_margin(q: np.ndarray, a: np.ndarray, nm: NormModel):
    """Largest eigenvalue of the whitened A* Q + Q A + W for a Hermitian Q;
    for an ``(..., n, n)`` stack of generators, an array of one per slice
    from one batched eigensolve."""
    residual = hermitian_part(a.conj().swapaxes(-1, -2) @ q + q @ a + nm.w)
    lam = hermitian_eig(whiten_form(residual, nm))[..., -1]
    return float(lam) if a.ndim == 2 else lam


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
    qq = hermitian_gate(q, "q")
    aa = as_matrix(a, "a").copy()
    aa.flags.writeable = False
    if qq.shape != aa.shape or qq.shape[0] != nm.n:
        raise ValueError(f"dimension mismatch: q {qq.shape}, a {aa.shape}, w {nm.w.shape}")
    lam_q = hermitian_eig(whiten_form(qq, nm))
    q_norm = max(abs(lam_q[0]), abs(lam_q[-1]))
    if lam_q[0] < -1e-10 * q_norm:
        raise NotPositiveSemidefiniteError(
            f"candidate has whitened eigenvalue {lam_q[0]:.6e}; not positive semidefinite"
        )
    return LyapunovCandidate(
        q=qq,
        a=aa,
        nm=nm,
        margin=_residual_margin(qq, aa, nm),
        q_norm=float(q_norm),
        theta=float(lam_q[0]),
        tol=tol,
    )


def solve_algebraic(a, rhs) -> np.ndarray:
    """Unique Hermitian PD solution of A* Q + Q A = -RHS for a stable A.

    Scaled Newton iteration for the matrix sign function (Roberts, Int. J.
    Control 1980; Benner & Quintana-Ortí, Numer. Algorithms 20, 1999):
    sign([[A, 0], [RHS, -A*]]) = [[-I, 0], [2Q, I]], reached by the steps
    E <- (E/c + c E^-1)/2, Q <- (Q/c + c E^-* Q E^-1)/2 from E = A - i b I, Q = RHS,
    with b = Im(tr A)/n (none for b = 0), a shift that leaves A* Q + Q A unchanged.
    The scale c = |det E|^(1/n) is dropped once |E + I|_1 < 1e-2.  The
    iteration stops at |E + I|_1 <= 1e-13 n, or when that norm stops falling
    below 1e-6; more than SIGN_MAX_STEPS steps raise KernelPrecisionError.
    O(n^3) time, O(n^2) memory.  A second Q pass on the residual equation
    refines the result, which must be finite and meet
    |A* Q + Q A + RHS| <= 1e-8 |RHS|; either failure raises KernelPrecisionError.
    """
    aa = as_matrix(a, "a")
    rr = hermitian_gate(rhs, "right-hand side")
    if aa.shape != rr.shape:
        raise ValueError(f"shape mismatch: a {aa.shape}, rhs {rr.shape}")
    stability_gate(aa)  # before any decomposition: it is a job's refutation
    lam_r = hermitian_eig(rr)
    if lam_r[0] <= 0.0:
        raise ValueError(
            f"right-hand side must be positive definite, min eigenvalue {lam_r[0]:.6e}"
        )
    n = aa.shape[0]
    k = math.frexp(float(np.linalg.norm(aa, 1)))[1]  # |A|_1 = x 2^k, x in [1/2, 1)
    k = k if abs(k) > 256 else 0  # iterate on 2^-k A, whose solution is 2^k Q
    aa_k = np.ldexp(aa.view(np.float64), -k).view(aa.dtype)
    shift = aa_k.trace().imag / n
    e, steps, prev, err = aa_k - 1j * shift * np.eye(n) if shift else aa_k, [], math.inf, math.inf
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # Q is checked below
        while err > 1e-13 * n and not prev <= err < 1e-6:
            if len(steps) == SIGN_MAX_STEPS:
                raise KernelPrecisionError(f"sign iteration did not converge in {SIGN_MAX_STEPS}"
                                           f" steps (|E + I|_1 {err:.1e})")
            e_inv = np.linalg.inv(e)
            c = 1.0 if err < 1e-2 else math.exp(np.linalg.slogdet(e)[1] / n)
            e = 0.5 * (e / c + c * e_inv)
            steps.append((c, e_inv))
            prev, err = err, float(np.linalg.norm(e + np.eye(n), 1))
        q = np.zeros(rr.shape, dtype=np.result_type(aa, rr))
        for _ in range(2):  # the second pass solves for the correction
            d = aa_k.conj().T @ q + q @ aa_k + rr
            for c, e_inv in steps:
                d = 0.5 * (d / c) + 0.5 * (c * (e_inv.conj().T @ d @ e_inv))
            q = q + hermitian_part(0.5 * d)
        q = np.ldexp(q.view(np.float64), -k).view(q.dtype)
    if not np.isfinite(q).all():
        raise KernelPrecisionError("Lyapunov solution overflows float64: |Q| is not representable")
    residual = singular_extremes(aa.conj().T @ q + q @ aa + rr)[0]
    if residual > 1e-8 * lam_r[-1]:  # |RHS| of a PD RHS
        raise KernelPrecisionError(
            f"Lyapunov residual {residual:.3e} exceeds 1e-8 * |RHS| at "
            f"|Q| = {singular_extremes(q)[0]:.3e} (1/eps = {1.0 / _EPS:.1e})"
        )
    return q


def check_quadrature(t_max: float | None, panels: int | None) -> None:
    """The argument checks of an explicit :func:`construct_q0` quadrature,
    which need no decomposition: a caller gating stability first can make
    them first."""
    if t_max is not None and not 0.0 < t_max < math.inf:
        raise ValueError(f"t_max must be positive and finite, got {t_max}")
    if panels is not None and panels < 1:
        raise ValueError(f"panels must be >= 1, got {panels}")


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
    tolerance.  The integral is ``gramian_quadrature`` over ``panels``
    panels, so results are reproducible.
    """
    aa = as_matrix(a, "a")
    check_quadrature(t_max, panels)
    if riesz.theta <= 0.0:
        raise ValueError(f"Riesz map must have positive theta, got {riesz.theta:.3e}")
    s_hat, m_hat = certified_decay(aa, nm)  # gates the stability of A
    p = as_matrix(riesz.p, "p")
    p_norm = dual_map_norm(p, nm)
    if t_max is None:
        rate = 2.0 * abs(s_hat)
        t_max = (2.0 * math.log(m_hat) + math.log(p_norm / (riesz.theta * 1e-9))) / rate
        t_max = max(t_max, 1.0 / abs(s_hat))
    if panels is None:
        # the membership residual amplifies the quadrature error by 2|A|,
        # so panels are chosen finer here than for plain value integrals
        stiffness = max(op_norm(aa, nm), abs(s_hat))
        panels = max(64, int(math.ceil(t_max * 2.0 * stiffness / 1.5)))
    q0 = gramian_quadrature(aa, p, t_max, panels) / riesz.theta
    return membership_margin(q0, aa, nm, tol=tol)


def _norm_bounds(stack: np.ndarray, mag: np.ndarray) -> np.ndarray:
    """(1 + 8 n eps) min(|T|_F, sqrt(|T|_1 |T|_inf)) + n 2^-537 for each
    slice T of an ``(d, n, n)`` stack: O(n^2) upper bounds of each computed
    |T|_2, from ``mag``, a float64 buffer of the stack's shape that takes |T|.

    Every sum here adds at most n nonnegative terms: the column and row sums,
    each row's sum of squares and the sum of those n row totals.  In any
    order BLAS or numpy adds them, such a sum is within (n - 1) eps of its
    exact value, so each computed norm is at least (1 - (n + 1) eps) of the
    exact one, itself at least |T|_2; the rest of the factor covers the
    computed sigma_max, within a few eps |T|_2 of the exact one.  Squares
    and products that underflow lose less than 2^-1074 each, which the
    n 2^-537 covers."""
    n = stack.shape[-1]
    np.abs(stack, out=mag)
    ones = np.ones(n)
    one_inf = (ones @ mag).max(axis=-1) * (mag @ ones).max(axis=-1)
    frobenius = (mag[..., None, :] @ mag[..., None]).reshape(len(mag), -1).sum(axis=-1)
    return (1.0 + 8.0 * n * _EPS) * np.sqrt(np.minimum(frobenius, one_inf)) + math.ldexp(n, -537)


def certificate(cand: LyapunovCandidate) -> StabilityCertificate:
    """Explicit decay envelope from a member, verified on a grid.

    Differentiating <Q T(t)x, T(t)x> along the semigroup and feeding the
    membership inequality back into itself gives the closed-form
    constants epsilon = 1/(2 |Q|) and M = sqrt(|Q| / theta); the grid
    check then measures the worst ratio |T(t)| / (M e^{-eps t}) at 200
    equally spaced times over [0, 10/eps].  The whitened semigroup is
    propagated over the grid (Moler & Van Loan, SIAM Rev. 45, 2003):
    T_w(k delta) = T_w(delta) T_w((k-1) delta), one exponential per call,
    into one reused buffer of _GRID_BYTES of points (one point where a
    matrix is larger).

    Only the worst ratio is reported, so each block of the buffer takes its
    bounds b_k = :func:`_norm_bounds` / (M e^{-eps t_k}) in one pass and an
    SVD only where b_k reaches the best exact ratio so far: one at the
    largest bound, then one stacked call, split among the CPUs, over the
    rest whose bound still reaches it.  A skipped point has ratio
    <= b_k < best, so it can neither win nor tie, and as the best is
    replaced only by a larger ratio or an equal one at an earlier time,
    ``worst_t`` is the earliest time of the largest ratio, as over the full
    grid.  ``evaluated`` counts the SVDs; it depends on the block depth (the
    order and dtype of A), not on the CPU count.  Members sitting exactly on
    the tolerance boundary can exceed the envelope by O(margin * t), which
    the grid check reports honestly.
    """
    cand.require_member()
    if cand.theta <= 0.0:
        raise NotStronglyPositiveError(
            "member is not strongly positive: exponential stability holds via the "
            "square-integral criterion but no envelope constants are available"
        )
    grid = np.linspace(0.0, CERTIFICATE_HORIZON / cand.decay_rate, CERTIFICATE_POINTS)
    envelopes = np.array([cand.envelope(t) for t in grid.tolist()])
    step = expm(whiten_operator(cand.a, cand.nm), float(grid[1]))
    depth = min(max(numkernel._GRID_BYTES // step.nbytes, 1), grid.size)
    # two halves: the one not in hand holds the previous block's last point
    # until the first product, then takes |T| and the picked points
    halves, prev = np.empty((2, depth) + step.shape, step.dtype), None
    best, worst, evaluated = -math.inf, 0, 0
    for start in range(0, grid.size, depth):
        block = halves[start // depth % 2, :min(depth, grid.size - start)]
        spare = halves[1 - start // depth % 2]
        for tw in block:
            if prev is None:
                tw[...] = np.eye(step.shape[0])  # T_w(0)
            else:
                np.dot(step, prev, out=tw)  # bit for bit step @ prev
            prev = tw
        mag = spare.reshape(-1).view(np.float64)[:block.size].reshape(block.shape)
        bounds = _norm_bounds(block, mag) / envelopes[start:start + len(block)]
        live = np.flatnonzero(bounds >= best)
        if not live.size:
            continue
        first = int(live[np.argmax(bounds[live])])
        ratio = singular_extremes(block[first])[0] / float(envelopes[start + first])
        if ratio > best:  # every earlier block's points are earlier
            best, worst = ratio, start + first
        rest = live[(live != first) & (bounds[live] >= best)]
        evaluated += 1 + rest.size
        if not rest.size:
            continue
        picked, sigma = np.take(block, rest, axis=0, out=spare[:rest.size]), np.empty(rest.size)

        def svd(i, j):
            sigma[i:j] = singular_extremes(picked[i:j])[0]

        run_on_cpus(svd, rest.size, step.shape[0])
        ratios = sigma / envelopes[start + rest]
        top = int(np.argmax(ratios))  # the earliest of the rest's largest ratio
        if ratios[top] > best or (ratios[top] == best and start + rest[top] < worst):
            best, worst = float(ratios[top]), int(start + rest[top])
    return StabilityCertificate(
        epsilon=cand.decay_rate,
        overshoot=cand.envelope(0.0),
        grid_pass=best <= 1.0 + CERTIFICATE_SLACK,
        worst_ratio=best,
        t_grid=grid.tolist(),
        worst_t=float(grid[worst]),
        evaluated=evaluated,
    )


def scale_member(cand: LyapunovCandidate, c: float) -> LyapunovCandidate:
    """Scale a member by c >= 1; membership is preserved because the
    residual transforms as c S - (c - 1) W.

    c < 1 is rejected: scaling down genuinely leaves the cone (for the
    scalar generator -I the member I/2 scaled by 0.5 already has margin
    +1/2), so no sound margin transform exists there.
    """
    cand.require_member()
    if c < 1.0:
        raise ValueError(
            f"scale factor must be >= 1 (got {c}): scaling down leaves the cone"
        )
    return replace(
        cand,
        q=c * cand.q,
        margin=c * cand.margin - (c - 1.0),
        q_norm=c * cand.q_norm,
        theta=c * cand.theta,
    )
