"""Robustness of cone membership under bounded generator perturbation.

A member Q for A survives any perturbation B with |B| <= 1/(2 alpha |Q|),
alpha > 1: the perturbed Lyapunov form stays below -((alpha-1)/alpha)|x|^2.
That relaxed constant is what the argument actually yields; literal
membership for A + B is restored by rescaling Q with alpha/(alpha-1).
Both facts are verified and reported, neither silently substituted for
the other.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .lyapunov import LyapunovCandidate, _residual_margin
from .numkernel import as_matrix
from .space import op_norm

__all__ = [
    "RadiusExceededError",
    "PerturbationReport",
    "MaxAlpha",
    "admissible_radius",
    "verify_perturbation",
    "max_alpha",
]


class RadiusExceededError(ValueError):
    """Perturbation norm exceeds the admissible radius."""

    def __init__(self, message: str, excess: float):
        super().__init__(message)
        self.excess = excess


class PerturbationReport(NamedTuple):
    radius: float
    b_norm: float
    margin_after: float  # whitened lambda_max of (A+B)*Q + Q(A+B) + ((a-1)/a) W
    rescaled_member: bool
    rescaled_margin: float


class MaxAlpha(NamedTuple):
    alpha: float
    decay: float  # the guaranteed constant (alpha - 1)/alpha


def admissible_radius(cand: LyapunovCandidate, alpha: float) -> float:
    """Largest perturbation norm covered by the guarantee: 1/(2 alpha |Q|)."""
    if not alpha > 1.0:
        raise ValueError(f"alpha must exceed 1, got {alpha}")
    cand.require_member()
    return 1.0 / (2.0 * alpha * cand.q_norm)


def verify_perturbation(cand: LyapunovCandidate, b, alpha: float) -> PerturbationReport:
    """Check the perturbed Lyapunov form and the rescaled literal membership.

    ``margin_after`` is the whitened largest eigenvalue of
    (A+B)* Q + Q (A+B) + ((alpha-1)/alpha) W, nonpositive whenever |B| stays
    within the admissible radius (in the weighted operator norm the
    inequality uses).  The whitened W is I, so with m the membership margin
    of Q for A + B it is m - 1/alpha, and k Q, k = alpha/(alpha-1), has the
    margin k m - (k - 1) = k margin_after (``scale_member``'s transform).
    An infinite alpha (``max_alpha`` of B = 0) takes the limit k = 1.  One
    eigensolve gives m; Q's PSD gate, theta and |Q| are the candidate's.
    """
    bb = as_matrix(b, "b")
    if cand.a.shape != bb.shape:
        raise ValueError(f"shape mismatch: a {cand.a.shape}, b {bb.shape}")
    radius = admissible_radius(cand, alpha)
    b_norm = op_norm(bb, cand.nm)
    if b_norm > radius * (1.0 + 1e-12):
        raise RadiusExceededError(
            f"|B| = {b_norm:.9e} exceeds the admissible radius {radius:.9e}",
            excess=b_norm - radius,
        )
    m = _residual_margin(cand.q, cand.a + bb, cand.nm)
    k = alpha / (alpha - 1.0) if math.isfinite(alpha) else 1.0
    rescaled_margin = k * m - (k - 1.0)
    return PerturbationReport(
        radius=radius,
        b_norm=b_norm,
        margin_after=m - 1.0 / alpha,
        rescaled_member=rescaled_margin <= cand.tol,
        rescaled_margin=rescaled_margin,
    )


def max_alpha(cand: LyapunovCandidate, b) -> MaxAlpha:
    """Strongest applicable guarantee for a given B: alpha* = 1/(2 |B| |Q|).

    Only meaningful when |B| < 1/(2 |Q|); at or beyond that norm no
    alpha > 1 exists and the corollary gives nothing.  B = 0 returns an
    infinite alpha with full decay constant 1.
    """
    bb = as_matrix(b, "b")
    if cand.a.shape != bb.shape:
        raise ValueError(f"shape mismatch: a {cand.a.shape}, b {bb.shape}")
    cand.require_member()
    b_norm = op_norm(bb, cand.nm)
    limit = 1.0 / (2.0 * cand.q_norm)
    if b_norm >= limit:
        raise RadiusExceededError(
            f"|B| = {b_norm:.9e} >= 1/(2|Q|) = {limit:.9e}: no admissible alpha > 1",
            excess=b_norm - limit,
        )
    if b_norm == 0.0:
        return MaxAlpha(alpha=float("inf"), decay=1.0)
    alpha = 1.0 / (2.0 * b_norm * cand.q_norm)
    return MaxAlpha(alpha=alpha, decay=(alpha - 1.0) / alpha)
