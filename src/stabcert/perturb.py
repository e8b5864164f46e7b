"""Robustness of cone membership under bounded generator perturbation.

A member Q for A survives any perturbation B with |B| <= 1/(2 alpha |Q|),
alpha > 1: the perturbed Lyapunov form stays below -((alpha-1)/alpha)|x|^2.
That relaxed constant is what the argument actually yields; literal
membership for A + B is restored by rescaling Q with alpha/(alpha-1).
Both facts are verified and reported, neither silently substituted for
the other.  Seeded random trials test the guarantee at the radius itself.
The limit 1/(2|Q|) beyond which no alpha > 1 exists is the candidate's
``decay_rate``, the rate of its envelope.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import numkernel
from .lyapunov import LyapunovCandidate, _residual_margin
from .models import SplitMix64, random_hermitian, random_matrix
from .numkernel import as_matrix, singular_extremes
from .space import op_norm, whiten_operator

__all__ = [
    "RadiusExceededError",
    "PerturbationReport",
    "MaxAlpha",
    "TrialReport",
    "admissible_radius",
    "perturbation_holds",
    "verify_perturbation",
    "random_trials",
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


class TrialReport(NamedTuple):
    radius: float
    passes: int
    worst_trial: int  # the trial with the largest margin_after, the earliest on a tie
    worst_margin_after: float
    worst_rescaled_member: bool
    worst_b: np.ndarray


class MaxAlpha(NamedTuple):
    alpha: float
    decay: float  # the guaranteed constant (alpha - 1)/alpha


def admissible_radius(cand: LyapunovCandidate, alpha: float) -> float:
    """Largest perturbation norm covered by the guarantee: 1/(2 alpha |Q|), a normal float."""
    if not alpha > 1.0:
        raise ValueError(f"alpha must exceed 1, got {alpha}")
    cand.require_member()
    radius = 1.0 / (2.0 * alpha * cand.q_norm)
    if alpha < math.inf and not np.finfo(float).tiny <= radius < math.inf:  # B = 0 takes inf
        raise ValueError(f"alpha {alpha!r} leaves the radius {radius!r}, not a normal float")
    return radius


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
    margin_after, rescaled_margin = _perturbed_margins(
        alpha, _residual_margin(cand.q, cand.a + bb, cand.nm))
    return PerturbationReport(
        radius=radius,
        b_norm=b_norm,
        margin_after=margin_after,
        rescaled_member=rescaled_margin <= cand.tol,
        rescaled_margin=rescaled_margin,
    )


def _perturbed_margins(alpha: float, m: float) -> tuple[float, float]:
    """(margin_after, rescaled_margin) of the membership margin m of Q for A + B."""
    k = alpha / (alpha - 1.0) if math.isfinite(alpha) else 1.0
    return m - 1.0 / alpha, k * m - (k - 1.0)


def perturbation_holds(margin_after: float, rescaled_member: bool, tol: float) -> bool:
    """The guarantee for one B: the perturbed margin and the rescaled member both hold."""
    return margin_after <= tol and rescaled_member


def random_trials(cand: LyapunovCandidate, alpha: float, trials: int, seed: int) -> TrialReport:
    """Check the guarantee on ``trials`` seeded B scaled to the admissible
    radius, Hermitian for even trials and general for odd ones, drawn in
    trial order from one SplitMix64 stream of ``seed``.

    Trials run in blocks of _GRID_BYTES of draws (one where a draw is
    larger), each with one stacked SVD for the norms that scale its draws
    and one stacked eigensolve for their margins: every trial's numbers are
    :func:`verify_perturbation`'s on its B, bit for bit.  A trial's |B| is
    not measured again.  The scaling rounds each real part once, so
    fl(s raw) is within sqrt(n) eps radius of s raw (kappa(W) times that in
    a weighted norm), and the SVD's |raw| is good to a few n eps: both far
    inside the 1e-12 relative slack :func:`verify_perturbation` allows a
    measured |B|.  The margin is measured on the rounded B itself.
    """
    nm = cand.nm
    radius = admissible_radius(cand, alpha)
    rng = SplitMix64(seed)
    depth = max(numkernel._GRID_BYTES // (16 * nm.n ** 2), 1)  # complex128 draws
    passes, worst = 0, None
    for start in range(0, trials, depth):
        raw = np.stack([random_hermitian(nm.n, rng) if i % 2 == 0 else random_matrix(nm.n, rng)
                        for i in range(start, min(start + depth, trials))])
        b = raw * (radius / singular_extremes(whiten_operator(raw, nm))[0])[:, None, None]
        margins = _residual_margin(cand.q, cand.a + b, nm)
        for i, m in enumerate(margins.tolist(), start):
            margin_after, rescaled_margin = _perturbed_margins(alpha, m)
            member = rescaled_margin <= cand.tol
            passes += perturbation_holds(margin_after, member, cand.tol)
            if worst is None or margin_after > worst[0]:
                worst = (margin_after, member, i, b[i - start].copy())
    margin_after, member, index, b = worst
    return TrialReport(radius=radius, passes=passes, worst_trial=index,
                       worst_margin_after=margin_after, worst_rescaled_member=member, worst_b=b)


def max_alpha(cand: LyapunovCandidate, b) -> MaxAlpha:
    """Strongest applicable guarantee for a given B: alpha* = 1/(2 |B| |Q|).

    Only meaningful when |B| < 1/(2 |Q|); at or beyond that norm no
    alpha > 1 exists and the corollary gives nothing.  B = 0 returns an
    infinite alpha with full decay constant 1.  A subnormal |B| can put
    alpha* past 2^1021 / max(|Q|, 1), where 2 alpha |Q| would leave the
    float range and the radius 1/(2 alpha |Q|) round to 0.  Every alpha in
    (1, alpha*] keeps the guarantee, so that cap stands in there: its
    radius is a normal float of at least |B|.
    """
    bb = as_matrix(b, "b")
    if cand.a.shape != bb.shape:
        raise ValueError(f"shape mismatch: a {cand.a.shape}, b {bb.shape}")
    cand.require_member()
    b_norm = op_norm(bb, cand.nm)
    limit = cand.decay_rate
    if b_norm >= limit:
        raise RadiusExceededError(
            f"|B| = {b_norm:.9e} >= 1/(2|Q|) = {limit:.9e}: no admissible alpha > 1",
            excess=b_norm - limit,
        )
    if b_norm == 0.0:
        return MaxAlpha(alpha=float("inf"), decay=1.0)
    cap = math.ldexp(1.0, 1021) / max(cand.q_norm, 1.0)
    product = 2.0 * b_norm * cand.q_norm
    alpha = 1.0 / product if product * cap > 1.0 else cap
    return MaxAlpha(alpha=alpha, decay=(alpha - 1.0) / alpha)
