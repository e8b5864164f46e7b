"""Semigroup evaluation, the stability refutation and its gate, growth
quantities, square-integrals, and left-invertibility measurements.

The semigroup is always the matrix exponential family T(t) = exp(t A).
Grid-based estimates here (growth bound, decay envelopes) are the
workhorses behind certificate verification: they never overclaim, in the
sense that fitted envelopes hold at every sample by construction and the
growth-bound estimate always upper-bounds the true limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .numkernel import (
    KernelPrecisionError,
    as_matrix,
    expm,
    expm_grid,
    expm_stacks,
    gauss_legendre_nodes,
    hermitian_part,
    run_on_cpus,
    singular_extremes,
)
from .space import NormModel, _as_vector, op_norm, vec_norm, whiten_operator

__all__ = [
    "REFUTE_REAL_PART_TOL",
    "UnstableGeneratorError",
    "Witness",
    "SpectralSummary",
    "EnvelopeFit",
    "spectral_bound",
    "refute_stability",
    "refutation_slack",
    "stability_gate",
    "default_time_grid",
    "growth_bound_estimate",
    "certified_decay",
    "gramian_quadrature",
    "datko_integral",
    "lower_envelope",
    "left_invertibility_witness",
    "envelope_witness_search",
]

WITNESS_SLACK = 1e-6  # relative room below e^{-rate t0} a witness m0 may take
REFUTE_REAL_PART_TOL = 1e-10
DATKO_TAIL_TOL = 1e-9  # the certified tail datko_integral may neglect
_EPS = float(np.finfo(np.float64).eps)
_GRID_POINTS = 64
_DECAY_SAFETY = 2.0


class Witness(NamedTuple):
    """Eigenpair with Re lambda >= 0 refuting every candidate at once."""

    eigenvalue: complex
    vector: np.ndarray


class UnstableGeneratorError(RuntimeError):
    """The generator has an eigenvalue with Re lambda >= -slack, the
    :func:`refutation_slack` of A, so no Lyapunov member exists; carries that
    refuting eigenpair."""

    def __init__(self, witness: Witness, slack: float):
        super().__init__(f"eigenvalue {witness.eigenvalue:.6e} has real part >= "
                         f"-{slack:g}: no Lyapunov member exists")
        self.witness = witness


@dataclass(frozen=True)
class SpectralSummary:
    """Spectral bound, grid growth-bound estimate, and the sampled |T(t)|
    the estimate was taken from."""

    s: float
    omega0_hat: float
    norms: list


@dataclass(frozen=True)
class EnvelopeFit:
    """Exponential lower envelope c e^{-alpha t} of m(t) = sigma_min of the
    whitened semigroup, true at every grid sample by construction."""

    c: float
    alpha: float
    grid: list  # (t, m(t)) samples


def spectral_bound(a) -> float:
    """Largest real part of the spectrum."""
    m = as_matrix(a, "a")
    return float(np.max(np.linalg.eigvals(m).real))


def refutation_slack(a) -> float:
    """REFUTE_REAL_PART_TOL |A|_1: the rule's room below Re lambda = 0 scales
    with A, so scaling A by a power of two keeps its verdict."""
    return REFUTE_REAL_PART_TOL * float(np.linalg.norm(a, 1))


def stability_gate(a) -> np.ndarray:
    """The spectrum of A when every Re lambda < -1e-10 |A|_1, else UnstableGeneratorError
    with a witness eigenpair, which refutes every PSD candidate: along it the
    Lyapunov form is 2 Re(lambda) <Qv, v> >= 0 and never reaches -|v|^2.  The
    slack covers round-off.  Only a refuted A takes a second solve, with
    eigenvectors, for the witness: the largest real part (ties by imaginary
    part) among those meeting the rule."""
    aa = as_matrix(a, "a")
    eigs = np.linalg.eigvals(aa)
    slack = refutation_slack(aa)
    if np.all(eigs.real < -slack):
        return eigs
    vals, vecs = np.linalg.eig(aa)
    hits = [i for i in range(len(vals)) if vals[i].real >= -slack]
    if not hits:  # the two solves differ in the last bits at the line
        return eigs
    best = max(hits, key=lambda i: (vals[i].real, vals[i].imag))
    v = vecs[:, best]
    raise UnstableGeneratorError(Witness(complex(vals[best]), v / np.linalg.norm(v)), slack)


def refute_stability(a) -> Optional[Witness]:
    """The non-raising form of :func:`stability_gate`: its witness, or None."""
    try:
        stability_gate(a)
    except UnstableGeneratorError as exc:
        return exc.witness
    return None


def default_time_grid(a, horizon: float | None = None) -> np.ndarray:
    """64 samples ending exactly at the horizon 20/|s|, K per octave, built
    by ``math.ldexp`` from the top octave so that t[j + K] == 2 t[j] exactly
    (``expm_grid`` then squares its way up the grid).  K is the largest
    count whose grid reaches down to the least of 0.01, horizon/1000 and
    1/rho(A), before the fastest mode decays by e (K = 1 if none does).
    Without a horizon A must pass the stability gate; an explicit horizon's
    grid reaches down to min(0.01, horizon/1000)."""
    start = 0.01
    if horizon is None:
        eigs = stability_gate(a)
        horizon = 20.0 / abs(float(np.max(eigs.real)))
        start = min(start, 1.0 / float(np.max(np.abs(eigs))))
    if not horizon > 0.0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    start = min(start, horizon / 1000.0)

    def point(r: int, k: int) -> float:  # r steps of 2^(-1/k) below the horizon
        return math.ldexp(horizon * 2.0 ** (-(r % k) / k), -(r // k))

    last = _GRID_POINTS - 1
    k = max((k for k in range(1, _GRID_POINTS) if point(last, k) <= start), default=1)
    return np.array([point(r, k) for r in range(last, -1, -1)])


def _validated_grid(t_grid) -> np.ndarray:
    grid = np.asarray(t_grid, dtype=float).reshape(-1)
    if grid.size == 0:
        raise ValueError("time grid is empty")
    if grid[0] <= 0.0 or np.any(np.diff(grid) <= 0.0):
        raise ValueError("time grid must be strictly positive and increasing")
    return grid


def _grid_extremes(a, grid, nm: NormModel | None = None):
    """Yield (t, sigma_max, sigma_min) of exp(t a), whitened by ``nm`` when
    given, at each time of the grid in order.  Each stack ``expm_stacks``
    yields takes its SVDs in stacked calls on every CPU (``run_on_cpus``),
    and a consumer that stops early leaves the later stacks unevaluated."""
    done = 0
    for block in expm_stacks(a, grid):
        sigma = np.empty((2, len(block)))

        def svd(start, stop):
            part = block[start:stop]
            sigma[:, start:stop] = singular_extremes(part if nm is None
                                                     else whiten_operator(part, nm))

        run_on_cpus(svd, len(block), block.shape[-1])
        yield from zip(grid[done:done + len(block)], sigma[0].tolist(), sigma[1].tolist())
        done += len(block)


def growth_bound_estimate(a, nm: NormModel, t_grid) -> SpectralSummary:
    """Estimate the growth bound as min over the grid of log|T(t)| / t.

    The estimate upper-bounds the true growth bound and converges to the
    spectral bound as the grid horizon grows; samples where |T(t)| has
    underflowed to 0.0 are skipped.
    """
    m = as_matrix(a, "a")
    grid = _validated_grid(t_grid)
    if grid.size < 8:
        raise ValueError(f"time grid needs >= 8 points, got {grid.size}")
    # whitening each T(t), not A once: exp(t A_w) loses the structure that
    # keeps exp(t A) accurate deep into the decay for triangular generators
    norms = [sigma_max for _, sigma_max, _ in _grid_extremes(m, grid, nm)]
    return SpectralSummary(
        s=spectral_bound(m),
        omega0_hat=float(min(math.log(v) / t for v, t in zip(norms, grid) if v > 0.0)),
        norms=norms,
    )


def certified_decay(a, nm: NormModel) -> tuple[float, float]:
    """Decay model (s_hat, m_hat) with |T(t)| <= m_hat e^{s_hat t}.

    s_hat is the midpoint of the spectral bound s and the grid growth-bound
    estimate (the spectral bound alone ignores transient growth of
    nonnormal generators); m_hat is the grid supremum of |T(t)| e^{-s_hat t}
    padded by a safety factor of 2.

    The horizon starts at 20/|s| and doubles until the decay is visible at
    its end: each horizon H is probed at one time, H itself (the last point
    of its ``default_time_grid``), and passes when |T(H)| has underflowed
    to 0.0 or log|T(H)| / H <= s/2.  Only the horizon that passes (or the
    8th, after 7 failed probes) is sampled on its 64-point grid.  The probed
    horizons double, so ``expm_grid`` squares each probe into the next.  A
    probe that passes by its value is one of that grid's samples and the
    estimate is their minimum, so the estimate is then at most s/2 and s_hat
    at most 3s/4, well inside the decaying regime.
    """
    m = as_matrix(a, "a")
    s = float(np.max(stability_gate(m).real))
    probes = 20.0 / abs(s) * 2.0 ** np.arange(7)
    horizon = 2.0 * probes[-1]
    for t, e in zip(probes, expm_grid(m, probes)):
        v = op_norm(e, nm)
        if v == 0.0 or math.log(v) / t <= 0.5 * s:
            horizon = t
            break
    grid = default_time_grid(m, horizon=horizon)
    summary = growth_bound_estimate(m, nm, grid)
    if summary.omega0_hat >= 0.0:
        raise KernelPrecisionError(
            "could not certify a decaying growth-bound estimate; transient growth "
            "exceeds the searched horizons"
        )
    s_hat = 0.5 * (s + summary.omega0_hat)
    peaks = [1.0]
    for v, t in zip(summary.norms, grid):
        try:
            peaks.append(v * math.exp(-s_hat * t))
        except OverflowError:  # only far into the decay, where v is tiny or 0.0
            peaks.append(math.exp(math.log(v) - s_hat * t) if v > 0.0 else 0.0)
    return s_hat, _DECAY_SAFETY * max(peaks)


def gramian_quadrature(a, weight, t_max: float, panels: int) -> np.ndarray:
    """Composite 5-point Gauss-Legendre value of int_0^t_max T(t)* W T(t) dt:
    the sum over k < panels of (S^k)* Wp S^k, with S = T(t_max / panels)
    and Wp the node-weighted sandwich of one panel.  Squared Smith doubling
    (Smith, SIAM J. Appl. Math. 16, 1968) takes O(log panels) matmuls:
    X_2m = X_m + (S^m)* X_m S^m with S^2m = (S^m)^2, and X_m is folded in
    at every 1 bit of ``panels`` by X_(m+r) = X_m + (S^m)* X_r S^m."""
    if panels < 1:
        raise ValueError(f"panels must be >= 1, got {panels}")
    nodes, weights = gauss_legendre_nodes(t_max / panels, 1)
    *exps, power = expm_grid(a, np.append(nodes, t_max / panels))
    x = 0.0
    for e, w in zip(exps, weights):
        x = x + w * (e.conj().T @ weight @ e)
    x, total = hermitian_part(x), None
    while True:
        if panels & 1:
            total = x if total is None else x + power.conj().T @ total @ power
        panels >>= 1
        if not panels:
            return hermitian_part(total)
        x = x + power.conj().T @ x @ power
        power = power @ power


def datko_integral(a, nm: NormModel, x) -> float:
    """Integral over [0, inf) of |T(t) x|^2 in the weighted norm.

    x* G x for the ``gramian_quadrature`` G with weight W, run to a horizon
    T* where the certified tail m_hat^2 |x|^2 e^{2 s_hat T*} / (2 |s_hat|)
    falls below ``DATKO_TAIL_TOL``; panel count tracks the stiffness
    2 |A| so the composite rule resolves the fastest mode.
    """
    m = as_matrix(a, "a")
    s_hat, m_hat = certified_decay(m, nm)  # gates the stability of A
    xv = _as_vector(x, m.shape[0])
    x2 = vec_norm(xv, nm) ** 2
    if x2 == 0.0:
        return 0.0
    rate = 2.0 * abs(s_hat)
    t_star = (2.0 * math.log(m_hat) + math.log(x2 / (rate * DATKO_TAIL_TOL))) / rate
    t_star = max(t_star, 1.0 / abs(s_hat))

    stiffness = max(op_norm(m, nm), abs(s_hat))
    panels = max(64, int(math.ceil(t_star * 2.0 * stiffness / 3.0)))
    g = gramian_quadrature(m, nm.w, t_star, panels)
    return float(np.real(np.vdot(xv, g @ xv)))


def lower_envelope(a, nm: NormModel, t_grid=None) -> EnvelopeFit:
    """Fit the conservative exponential lower envelope of m(t).

    alpha is the steepest discrete decay rate between consecutive samples
    and c the smallest intercept m(t_i) e^{alpha t_i}, so the envelope
    inequality holds at every sample exactly.  Every sample is checked
    against the finite-dimensional floor m(t) >= e^{-t |A|}, and sampling
    stops once sigma_min drops under sqrt(eps) sigma_max: beyond that
    point the computed values lose relative accuracy, and fitting through
    such noise invents decay rates steeper than |A| and intercepts above
    m(0), i.e. the one thing a certificate must never do.
    """
    m = as_matrix(a, "a")
    grid = _validated_grid(t_grid if t_grid is not None else default_time_grid(m))
    a_w = whiten_operator(m, nm)  # exp(t A_w) is accurate above the sqrt(eps) stop
    nrm_a = singular_extremes(a_w)[0]
    samples = []
    for t, sigma_max, sigma_min in _grid_extremes(a_w, grid):
        if sigma_min <= math.sqrt(_EPS) * sigma_max:
            break
        noise = 64.0 * _EPS * sigma_max
        floor = math.exp(-t * nrm_a) if t * nrm_a < 700.0 else 0.0
        if sigma_min + noise < floor * (1.0 - 1e-9):
            raise KernelPrecisionError(
                f"sigma_min {sigma_min:.3e} at t={t:.3e} violates the "
                f"finite-dimensional floor {floor:.3e}"
            )
        samples.append((float(t), float(sigma_min)))
    if len(samples) < 2:
        raise KernelPrecisionError(
            "fewer than two lower-bound samples above the round-off floor; "
            "shrink the grid horizon"
        )

    logs = np.log(np.clip([mv for _, mv in samples], 1e-300, None))
    ts = np.array([t for t, _ in samples])
    slopes = -(logs[1:] - logs[:-1]) / (ts[1:] - ts[:-1])
    alpha = max(0.0, float(np.max(slopes)))
    log_c = float(np.min(logs + alpha * ts))
    return EnvelopeFit(c=math.exp(log_c), alpha=alpha, grid=samples)


def left_invertibility_witness(a, nm: NormModel, t0: float) -> float:
    """Single-time lower-bound constant m0 = sigma_min of the whitened T(t0);
    the pair (t0, m0) certifies |T(t0) x| >= m0 |x| for every x."""
    if not t0 > 0.0:
        raise ValueError(f"t0 must be positive, got {t0}")
    tw = whiten_operator(expm(as_matrix(a, "a"), t0), nm)
    return singular_extremes(tw)[1]


def envelope_witness_search(fit: EnvelopeFit, rate: float):
    """First grid sample (t0, m0) with m0 >= e^{-rate t0} (1 - WITNESS_SLACK), or None.

    This is the grid replacement for the existence argument that turns a
    strongly positive certificate into a single-time left-invertibility
    witness.  It reads the sigma_min samples ``lower_envelope`` took, so
    the witness costs no second pass over the grid.
    """
    for t, m in fit.grid:
        if m >= math.exp(-rate * t) * (1.0 - WITNESS_SLACK):
            return t, m
    return None
