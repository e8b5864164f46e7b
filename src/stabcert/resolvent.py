"""Resolvent norms and grid verification of the certificate-derived bounds.

Two bounds follow from any cone member Q: the closed right half-plane
satisfies sup |R(lambda)| <= 2 |Q|, and a strip to the left of the axis
satisfies the pointwise bound |R(lambda)| <= 2|Q| / (1 + 2 |Q| Re lambda)
down to Re lambda = -delta0 as long as 2 delta0 |Q| < 1.  Both are one
formula, ``LyapunovCandidate.resolvent_bound`` (2|Q| at Re lambda >= 0), and
the strip reaches no further left than -1/(2|Q|), the candidate's
``decay_rate``; the scans, their CSVs and ``recheck`` read the same bounds.
Verification is grid-based on purpose: a dense grid plus refinement is
auditable, whereas a failed global optimizer could certify silently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lyapunov import LyapunovCandidate
from .models import SplitMix64, random_vector, write_atomic
from .numkernel import (
    SingularMatrixError,
    as_matrix,
    run_on_cpus,
    singularity_gate,
    solve_linear,
)
from .semigroup import spectral_bound
from .space import NormModel, op_norm, whiten_operator

__all__ = [
    "ResolventSingularError",
    "ScanReport",
    "resolvent_norm",
    "check_right_grid",
    "check_left_strip",
    "verify_bound_right",
    "verify_bound_left_strip",
    "abscissa_profile",
    "export_scan_csv",
]

DEFAULT_SCAN_TOL = 1e-9
# points one grid may take, checked before it is built: each scan point is
# one SVD (about 16 ms at n = 256), each time sample one exponential
MAX_GRID_POINTS = 100_000
_PROOF_SAMPLES = 3
# bytes of shifted matrices per stacked SVD and solve, which shares one
# call's overhead among the block's shifts.  ``run_on_cpus`` deepens a block
# to the depth at which numpy releases the GIL in its SVD, 500 // n + 1
# shifts, which is the deeper rule above n = 32 (11 shifts at n = 48, 2 at
# n = 256).  A scan holds one block in flight per thread it runs on
_BLOCK_BYTES = 256 * 1024
_PROFILE_STABLE_REL = 1e-6
_PROFILE_MAX_REFINEMENTS = 12


class ResolventSingularError(SingularMatrixError):
    """Shift sits on the spectrum to working precision."""

    def __init__(self, message: str, nearest_eigenvalue: complex):
        super().__init__(message)
        self.nearest_eigenvalue = nearest_eigenvalue


@dataclass(frozen=True)
class ScanReport:
    """Grid scan outcome; every grid shift lies in the resolvent set and
    pass holds exactly when the worst ratio stays within tolerance."""

    kind: str
    grid: list
    norms: list
    pointwise_bounds: list
    bound: float
    worst_ratio: float
    passed: bool
    argmax: complex
    proof_slack: float | None = None
    tail_ratio: float | None = None
    evaluated: int | None = None  # shifts that took an SVD
    delta0: float | None = None  # the strip's offset (left strip only)


def resolvent_norm(a, lam: complex, nm: NormModel) -> float:
    """Weighted operator norm of (lambda I - A)^{-1}: a one-point scan."""
    return float(_scan_norms(whiten_operator(as_matrix(a, "a"), nm), [complex(lam)])[0][0])


def _symmetric_axis(extent: float, count: int) -> np.ndarray:
    """``count`` points spanning [-extent, extent] evenly, exactly antisymmetric
    (x[::-1] == -x bit for bit, an odd count's middle point exactly 0) so that
    every point's conjugate on a grid built from them is found by equality."""
    x = np.linspace(-extent, extent, count)
    return 0.5 * (x - x[::-1])


def _lattice(re, im) -> np.ndarray:
    """The points complex(r, i) for r in ``re`` (outer) and i in ``im``."""
    return np.stack(np.broadcast_arrays(np.asarray(re)[:, None], im), -1).view(complex).ravel()


def _scan_norms(aw: np.ndarray, grid, wy: np.ndarray | None = None):
    """|R_w(lambda)| at every grid point (an array), the column norms of
    R_w(lambda) wy at every point (one row per point) when right-hand sides
    ``wy`` are given (else None), and the number of shifts that took an SVD.

    |R_w(lambda)| = 1/sigma_min(lambda I - A_w) for A_w = W^{1/2} A W^{-1/2}
    (Trefethen & Embree, *Spectra and Pseudospectra*, 2005), and the same SVD
    gates the shift: one on the spectrum to working precision raises
    ResolventSingularError, for the first such shift in grid order.

    For a real A_w the shift at conj(lambda) is the entrywise conjugate of the
    one at lambda, so |R_w(conj lambda)| = |R_w(lambda)| (the pseudospectra of
    a real matrix are symmetric about the real axis) and R_w(conj lambda) z =
    conj(R_w(lambda) conj z).  For a real A_w a point whose exact conjugate or
    copy came earlier takes the first one's values, and every other point's
    solve covers [wy, conj wy].  The evaluated shifts go in grid order in
    blocks of at most _BLOCK_BYTES, one stacked SVD and one stacked solve
    each, which ``run_on_cpus`` sizes evenly and takes in contiguous runs, one
    per CPU; each block fills its own rows, so no value depends on the CPU
    count, and the first failed run raises.
    """
    mirror = np.isrealobj(aw)
    aw = aw.astype(complex)  # every shift is complex: cast A_w once, not per block
    shifts = np.asarray(grid, dtype=complex)
    rows, flipped = np.arange(shifts.size), np.zeros(shifts.size, dtype=bool)
    if mirror and shifts.size > 1:  # one key per conjugate pair, 0.0 == -0.0 as in ``==``
        firsts, key = np.unique(shifts.real + 1j * np.abs(shifts.imag),
                                return_index=True, return_inverse=True)[1:]
        source, evaluated = firsts[key], np.sort(firsts)  # each point's first of its key
        rows, flipped = np.searchsorted(evaluated, source), shifts.imag != shifts[source].imag
        shifts = shifts[evaluated]
    norms = np.empty(len(shifts))
    if wy is not None:
        k = wy.shape[1]
        rhs = np.hstack([wy, wy.conj()]) if mirror else wy
        cols = np.empty((len(shifts), rhs.shape[1]))
    eye = np.eye(aw.shape[0], dtype=complex)

    def scan(start, stop):
        shifted = shifts[start:stop, None, None] * eye - aw
        try:
            sigma_max, sigma_min = singularity_gate(shifted)
        except SingularMatrixError as exc:
            lam = complex(shifts[start + exc.index])
            # A_w is similar to A, so its eigenvalues are A's
            eigs = np.linalg.eigvals(aw)
            nearest = complex(min(eigs, key=lambda e: abs(e - lam)))
            raise ResolventSingularError(
                f"shift {lam:.6e} is on the spectrum to working precision "
                f"(nearest eigenvalue {nearest:.6e})",
                nearest_eigenvalue=nearest,
            ) from exc
        norms[start:stop] = 1.0 / sigma_min
        if wy is not None:
            # the gate's sigma_max scales each slice's residual contract
            cols[start:stop] = np.linalg.norm(solve_linear(shifted, rhs, sigma_max), axis=-2)

    run_on_cpus(scan, len(shifts), aw.shape[0], _BLOCK_BYTES // aw.nbytes)
    proofs = None
    if wy is not None:
        # a mirrored point reads its conjugate's [conj wy] columns, the last k
        proofs = np.where(flipped[:, None], cols[rows, -k:], cols[rows, :k])
    return norms[rows], proofs, len(shifts)


def _scan_report(kind, grid, norms, pointwise, bound, **diagnostics) -> ScanReport:
    ratios = norms / pointwise
    worst = float(ratios.max())
    ties = grid[ratios == worst]
    return ScanReport(kind=kind, grid=grid.tolist(), norms=norms.tolist(),
                      pointwise_bounds=pointwise.tolist(), bound=bound, worst_ratio=worst,
                      passed=worst <= 1.0 + DEFAULT_SCAN_TOL,
                      argmax=complex(ties[np.lexsort((ties.imag, ties.real))[0]]), **diagnostics)


def check_right_grid(omega_max: float | None, n_axis: int, n_interior: int) -> None:
    """The argument checks of :func:`verify_bound_right`, which need no
    decomposition: a caller running other scans first can make them first."""
    if omega_max is not None and not omega_max > 0.0:
        raise ValueError(f"omega_max must be positive, got {omega_max}")
    if n_axis < 1:
        raise ValueError(f"n_axis must be >= 1, got {n_axis}")
    if n_interior < 0:
        raise ValueError(f"n_interior must be >= 0, got {n_interior}")
    points = (n_axis | 1) + n_interior  # the axis takes n_axis | 1 points
    if points > MAX_GRID_POINTS:
        raise ValueError(f"n_axis + n_interior = {n_axis + n_interior} exceeds "
                         f"{MAX_GRID_POINTS} grid points once the axis count is odd "
                         f"({points} points)")


def check_left_strip(delta0: float | None, n_grid: int) -> None:
    """The argument checks of :func:`verify_bound_left_strip` that need no
    member: a caller can make them before its Lyapunov solve."""
    if delta0 is not None and not 0.0 < delta0 < math.inf:
        raise ValueError(f"delta0 must be positive and finite, got {delta0}")
    if n_grid < 1:
        raise ValueError(f"n_grid must be >= 1, got {n_grid}")
    points = n_grid * (n_grid | 1)  # the imaginary axis takes n_grid | 1 points
    if points > MAX_GRID_POINTS:
        raise ValueError(f"n_grid = {n_grid} takes {points} strip points, "
                         f"more than {MAX_GRID_POINTS}")


def verify_bound_right(
    cand: LyapunovCandidate,
    omega_max: float | None = None,
    n_axis: int = 129,
    n_interior: int = 16,
) -> ScanReport:
    """Check sup over the right half-plane of |R(lambda)| against 2 |Q|
    for the member Q of A.

    The grid takes ``n_axis | 1`` imaginary-axis shifts (an odd count puts
    one on 0) clustered log-symmetrically around 0 plus ``n_interior``
    coarse interior points with Re lambda in (0, 2 omega_max]; interior
    points are included even though a maximum-principle argument would let
    the boundary suffice, because the scan verifies rather than assumes.
    Beyond the sampled disk the Neumann bound 1/(|lambda| - |A|) takes
    over.  The underlying
    quadratic inequality |Ry|^2 <= 2|Q| |Ry| |y| is re-checked on seeded
    sample vectors and its worst normalized slack reported.
    """
    cand.require_member()
    check_right_grid(omega_max, n_axis, n_interior)
    aa, nm = cand.a, cand.nm
    cand.eigenvalues  # the stability gate, decided once per candidate
    bound = cand.resolvent_bound(0.0)
    nrm_a = op_norm(aa, nm)
    if omega_max is None:
        omega_max = 10.0 * max(nrm_a, 1.0)

    half = (n_axis | 1) // 2
    decades = np.logspace(math.log10(omega_max * 1e-6), math.log10(omega_max), half)
    omegas = np.concatenate([-decades[::-1], [0.0], decades])
    k = max(int(math.ceil(math.sqrt(n_interior))), 1)
    interior_re = np.logspace(math.log10(2.0 * omega_max * 1e-3), math.log10(2.0 * omega_max), k)
    interior = _lattice(interior_re, _symmetric_axis(omega_max, k))
    grid = np.concatenate([_lattice([0.0], omegas), interior[:n_interior]])

    rng = SplitMix64(0x5EED)
    samples = np.array([random_vector(nm.n, rng) for _ in range(_PROOF_SAMPLES)])
    wy = nm.sqrt_w @ samples.T
    y_norms = np.linalg.norm(wy, axis=0)
    # W^{1/2} R y solves (lambda I - A_w) x = W^{1/2} y
    norms, ry_norms, evaluated = _scan_norms(whiten_operator(aa, nm), grid, wy)
    rhs = bound * ry_norms * y_norms
    slack = np.min((rhs - ry_norms ** 2) / np.maximum(rhs, 1e-300))

    # outside the sampled disk the Neumann series gives
    # |R(lambda)| <= 1/(|lambda| - |A|); with the default extent this is
    # below the certificate bound automatically since 2|Q| >= 1/|A|
    tail_ratio = math.inf
    if omega_max > nrm_a:
        tail_ratio = (1.0 / (omega_max - nrm_a)) / bound

    return _scan_report(
        "right-half-plane", grid, norms, np.full(grid.size, bound), bound,
        proof_slack=float(slack),
        tail_ratio=float(tail_ratio),
        evaluated=evaluated,
    )


def verify_bound_left_strip(
    cand: LyapunovCandidate,
    delta0: float | None = None,
    n_grid: int = 24,
) -> ScanReport:
    """Check the pointwise strip bound |R| <= 2|Q| / (1 + 2|Q| Re lambda)
    on a grid over (max(s(A), -1/(2|Q|)), -delta0] x [-10|A|, 10|A|] i.

    The reported headline bound is the endpoint value
    2|Q| / (1 - 2 delta0 |Q|), which the pointwise bound reaches exactly on
    the line Re lambda = -delta0; the precondition 2 delta0 |Q| < 1 keeps
    it finite.  On violation the error suggests the largest admissible
    delta0 for this member.  ``delta0=None`` takes 0.5 min(|s(A)|, 1/(2|Q|)),
    and the report carries the offset scanned.  s(A) comes from the
    candidate's stability gate, so a refuted A raises UnstableGeneratorError.
    """
    cand.require_member()
    check_left_strip(delta0, n_grid)
    aa, nm, qn = cand.a, cand.nm, cand.q_norm
    if delta0 is not None and 2.0 * delta0 * qn >= 1.0:
        raise ValueError(
            f"2 * delta0 * |Q| = {2.0 * delta0 * qn:.6e} is not below 1; scale the member up "
            f"to widen the admissible region, or use 0 < delta0 <= "
            f"{(1.0 - 1e-6) * cand.decay_rate:.6e}"
        )
    s = float(np.max(cand.eigenvalues.real))
    if delta0 is None:
        delta0 = 0.5 * min(abs(s), cand.decay_rate)
    lower = max(s, -cand.decay_rate)
    if lower >= -delta0:
        raise ValueError(
            f"strip is empty: need delta0 < {-lower:.6e} for this generator and member"
        )
    re_pts = np.linspace(lower, -delta0, n_grid + 1)[1:]
    im_extent = 10.0 * op_norm(aa, nm)
    im_pts = _symmetric_axis(im_extent, n_grid | 1)  # an odd count puts a point on 0
    grid = _lattice(re_pts, im_pts)

    norms, _, evaluated = _scan_norms(whiten_operator(aa, nm), grid)
    pointwise = np.repeat([cand.resolvent_bound(re) for re in re_pts.tolist()], im_pts.size)
    return _scan_report("left-strip", grid, norms, pointwise, cand.resolvent_bound(-delta0),
                        evaluated=evaluated, delta0=delta0)


def abscissa_profile(
    a,
    nm: NormModel,
    a_values,
    omega_max: float | None = None,
    n: int = 64,
):
    """Vertical-line sup profile: for each abscissa the sup over
    omega in [-omega_max, omega_max] of |R(a + i omega)|.

    Each line is refined by doubling the sample count, at most 12 times,
    until the sup is stable to 1e-6 relative change.  Finite for every abscissa
    to the right of the spectral bound, and blowing up as the abscissa
    approaches it.
    """
    aa = as_matrix(a, "a")
    s = spectral_bound(aa)
    if omega_max is None:
        omega_max = 10.0 * max(op_norm(aa, nm), 1.0)
    aw = whiten_operator(aa, nm)
    profile = []
    for abscissa in a_values:
        abscissa = float(abscissa)
        if abscissa <= s:
            raise ValueError(
                f"abscissa {abscissa:.6e} is not to the right of the spectral bound {s:.6e}"
            )
        count = max(int(n) | 1, 5)
        sup = None
        for _ in range(_PROFILE_MAX_REFINEMENTS):
            line = _lattice([abscissa], _symmetric_axis(omega_max, count))
            previous, sup = sup, _scan_norms(aw, line)[0].max()
            if previous is not None and abs(sup - previous) <= _PROFILE_STABLE_REL * sup:
                break
            count = 2 * count - 1
        profile.append((abscissa, float(sup)))
    return profile


def export_scan_csv(report: ScanReport, path) -> None:
    """Write one row per grid point: re_lambda, im_lambda, resolvent_norm,
    bound, ratio.  Plain '.' decimals, shortest round-trip floats."""
    grid, norms, bounds = map(np.array, (report.grid, report.norms, report.pointwise_bounds))
    columns = []
    for column in (grid.real, grid.imag, norms, bounds, norms / bounds):
        # one repr per distinct float64 bit pattern, so 0.0 and -0.0 stay apart
        distinct, where = np.unique(column.view(np.uint64), return_inverse=True)
        text = [repr(value) for value in distinct.view(np.float64).tolist()]
        columns.append([text[i] for i in where.tolist()])
    lines = ["re_lambda,im_lambda,resolvent_norm,bound,ratio", *map(",".join, zip(*columns))]
    write_atomic(path, "\n".join(lines) + "\n")
