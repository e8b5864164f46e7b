"""Acceptance gate: one test per criterion, each at its stated tolerance,
printing one pass/fail line.  Criterion 10 is a documented defect (see the
decisions ledger): it is implemented exactly as stated and expected to
fail, so it is marked xfail(strict=True)."""

import json
import math
import time

import numpy as np
import pytest

from stabcert.cli import main
from stabcert.lyapunov import (
    certificate,
    construct_q0,
    membership_margin,
    refute_stability,
    scale_member,
    solve_algebraic,
)
from stabcert.models import (
    SplitMix64,
    heat_dirichlet,
    jordan_block,
    random_hermitian,
    random_matrix,
    random_psd,
    random_stable,
    random_vector,
    upwind_shift,
)
from stabcert.perturb import admissible_radius, verify_perturbation
from stabcert.resolvent import abscissa_profile, verify_bound_left_strip, verify_bound_right
from stabcert.semigroup import (
    datko_integral,
    default_time_grid,
    growth_bound_estimate,
    lower_envelope,
    spectral_bound,
)
from stabcert.space import NormModel, RieszMap, op_norm, pairing

ROTATION = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)


def announce(number: int, name: str, ok: bool) -> None:
    print(f"criterion {number:2d} ({name}): {'PASS' if ok else 'FAIL'}")


def test_criterion_01_tight_scalar_family():
    started = time.perf_counter()
    ok = True
    try:
        for a_coef in (0.5, 1.0, 2.0):
            a = -a_coef * np.eye(2, dtype=complex)
            nm = NormModel.identity(2)
            q = solve_algebraic(a, nm.w)
            assert np.max(np.abs(q - np.eye(2) / (2.0 * a_coef))) <= 1e-10
            cand = membership_margin(q, a, nm)

            right = verify_bound_right(cand)
            assert 1.0 - 1e-6 <= right.worst_ratio <= 1.0

            for factor in (0.5, 0.9):
                delta0 = factor * a_coef
                strip = verify_bound_left_strip(cand, delta0)
                assert strip.passed
                line = [
                    nrm / bnd
                    for lam, nrm, bnd in zip(strip.grid, strip.norms,
                                             strip.pointwise_bounds)
                    if lam.real == -delta0 and lam.imag == 0.0
                ]
                assert line, "endpoint Re lambda = -delta0 must be sampled"
                assert abs(max(line) - 1.0) <= 1e-6
        elapsed = time.perf_counter() - started
        assert elapsed < 1.0, f"runtime {elapsed:.3f}s exceeds 1 s"
    except BaseException:
        ok = False
        raise
    finally:
        announce(1, "tight scalar family", ok)


def test_criterion_02_q0_matches_algebraic():
    started = time.perf_counter()
    ok = True
    try:
        cases = [heat_dirichlet(16, 1.0), random_stable(12, 0.5, 7)]
        for a in cases:
            nm = NormModel.identity(a.shape[0])
            riesz = RieszMap.from_matrix(nm.w, nm)
            cand = construct_q0(a, riesz, nm)  # certified horizon
            q_alg = solve_algebraic(a, nm.w)
            gap = np.linalg.norm(cand.q - q_alg, "fro") / np.linalg.norm(q_alg, "fro")
            assert gap <= 1e-6
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0, f"runtime {elapsed:.3f}s exceeds 10 s"
    except BaseException:
        ok = False
        raise
    finally:
        announce(2, "quadrature member matches algebraic solve", ok)


DATKO_FAMILIES = {
    "heat16": lambda: heat_dirichlet(16, 1.0),
    "jordan5": lambda: jordan_block(5, -1.0),
    "random10": lambda: random_stable(10, 0.3, 1),
}


def test_criterion_03_datko_identity():
    ok = True
    try:
        for name, maker in sorted(DATKO_FAMILIES.items()):
            a = maker()
            nm = NormModel.identity(a.shape[0])
            q = solve_algebraic(a, nm.w)
            for trial in range(20):
                x = random_vector(a.shape[0], 10_000 + trial)
                expected = pairing(q, x, x).real
                value = datko_integral(a, nm, x)
                assert value == pytest.approx(expected, rel=1e-6), (name, trial)
    except BaseException:
        ok = False
        raise
    finally:
        announce(3, "square integral equals the quadratic form", ok)


def test_criterion_04_certificate_envelope():
    ok = True
    try:
        for name, maker in sorted(DATKO_FAMILIES.items()):
            a = maker()
            nm = NormModel.identity(a.shape[0])
            cand = membership_margin(solve_algebraic(a, nm.w), a, nm)
            cert = certificate(cand)  # 200 points over [0, 10/eps]
            assert cert.epsilon == pytest.approx(1.0 / (2.0 * cand.q_norm), rel=1e-12)
            assert cert.overshoot == pytest.approx(
                math.sqrt(cand.q_norm / cand.theta), rel=1e-12
            )
            assert len(cert.t_grid) == 200
            assert cert.t_grid[-1] == pytest.approx(10.0 / cert.epsilon)
            assert cert.grid_pass, name
            assert cert.worst_ratio <= 1.0 + 1e-8
    except BaseException:
        ok = False
        raise
    finally:
        announce(4, "certificate envelope dominates the norms", ok)


def test_criterion_05_refutation_soundness():
    ok = True
    try:
        generators = [jordan_block(3, 0.5), np.diag([1.0, -1.0]).astype(complex), ROTATION]
        for a in generators:
            witness = refute_stability(a)
            assert witness is not None
            assert witness.eigenvalue.real >= -1e-10
            nm = NormModel.identity(a.shape[0])
            for trial in range(100):
                q = random_psd(a.shape[0], 20_000 + trial)
                cand = membership_margin(q, a, nm)
                assert cand.margin > 0.0
    except BaseException:
        ok = False
        raise
    finally:
        announce(5, "refutation defeats every PSD candidate", ok)


def test_criterion_06_perturbation_corollary():
    ok = True
    try:
        a = heat_dirichlet(12, 1.0)
        nm = NormModel.identity(12)
        cand = membership_margin(solve_algebraic(a, nm.w), a, nm)
        total = 0
        for alpha in (1.5, 2.0, 10.0):
            radius = admissible_radius(cand, alpha)
            rng = SplitMix64(606 + int(10 * alpha))
            for trial in range(100):
                raw = random_hermitian(12, rng) if trial % 2 else random_matrix(12, rng)
                b = raw * (radius / op_norm(raw, nm))
                rep = verify_perturbation(cand, b, alpha)
                # margin_after <= 1e-9 is the stated
                # "perturbed margin <= -(alpha-1)/alpha + 1e-9" after the
                # ((alpha-1)/alpha) W shift is folded in
                assert rep.margin_after <= 1e-9
                assert rep.rescaled_member
                total += 1
        assert total == 300
    except BaseException:
        ok = False
        raise
    finally:
        announce(6, "perturbation margins at the radius", ok)


def test_criterion_07_left_invertibility_inequality():
    ok = True
    try:
        equality_cases = []
        for a_coef in (0.5, 1.0, 2.0):
            equality_cases.append(-a_coef * np.eye(2, dtype=complex))
        equality_cases.append(ROTATION - 0.1 * np.eye(2))
        general_cases = [jordan_block(4, -1.0), upwind_shift(8, 1.0, 1.0)]

        for a in equality_cases + general_cases:
            nm = NormModel.identity(a.shape[0])
            cand = membership_margin(solve_algebraic(a, nm.w), a, nm)
            fit = lower_envelope(a, nm)
            assert fit.alpha > 0.0
            bound = fit.c**2 / (2.0 * fit.alpha)
            assert cand.theta >= bound - 1e-8
        for a in equality_cases:
            nm = NormModel.identity(a.shape[0])
            cand = membership_margin(solve_algebraic(a, nm.w), a, nm)
            fit = lower_envelope(a, nm)
            assert cand.theta == pytest.approx(
                fit.c**2 / (2.0 * fit.alpha), abs=1e-9
            )
    except BaseException:
        ok = False
        raise
    finally:
        announce(7, "strong positivity dominates the envelope constant", ok)


def test_criterion_08_cone_behavior():
    ok = True
    try:
        # scaling preserves membership on 50 seeded trials
        rng = SplitMix64(808)
        for trial in range(50):
            n = 3 + trial % 4
            a = random_stable(n, 0.5, 30_000 + trial)
            nm = NormModel.identity(n)
            cand = membership_margin(solve_algebraic(a, nm.w), a, nm)
            c = 1.0 + 19.0 * (0.5 * (rng.uniform_symmetric() + 1.0))
            scaled = scale_member(cand, c)
            assert scaled.is_member
            assert membership_margin(scaled.q, a, nm).is_member

        # the c = 0.5 counterexample on -I is rejected
        nm2 = NormModel.identity(2)
        base = membership_margin(np.eye(2) / 2.0, -np.eye(2), nm2)
        with pytest.raises(ValueError):
            scale_member(base, 0.5)
        assert membership_margin(np.eye(2) / 4.0, -np.eye(2), nm2).margin == pytest.approx(0.5)

        # closedness probe up to n = 10^6 on a contraction family
        a = heat_dirichlet(10, 1.0)
        nm = NormModel.identity(10)
        member = membership_margin(solve_algebraic(a, nm.w), a, nm)
        drift = op_norm(a.conj().T @ nm.w + nm.w @ a, nm)
        for n in (1, 10, 100, 1_000, 10_000, 100_000, 1_000_000):
            probe = membership_margin(member.q + nm.w / n, a, nm)
            assert probe.is_member
            assert abs(probe.margin - member.margin) <= drift / n + 1e-12
    except BaseException:
        ok = False
        raise
    finally:
        announce(8, "cone scaling and closedness probes", ok)


def test_criterion_09_spectral_chain():
    ok = True
    try:
        for a in (heat_dirichlet(16, 1.0), random_stable(10, 0.3, 1)):
            nm = NormModel.identity(a.shape[0])
            s = spectral_bound(a)
            grid = default_time_grid(a, horizon=50.0 / abs(s))
            summary = growth_bound_estimate(a, nm, grid)
            assert abs(summary.s - summary.omega0_hat) <= 0.05
            assert summary.omega0_hat >= summary.s - 1e-9

        a = heat_dirichlet(8, 1.0)
        nm = NormModel.identity(8)
        s = spectral_bound(a)
        profile = dict(abscissa_profile(a, nm, [s + 1e-4, s + 1.0, 0.0, 1.0]))
        assert all(np.isfinite(v) for v in profile.values())
        assert profile[s + 1e-4] > 1e3
    except BaseException:
        ok = False
        raise
    finally:
        announce(9, "finite-dimensional spectral chain", ok)


@pytest.mark.xfail(
    strict=True,
    reason="spec defect: with the specified envelope fit the intercept c "
    "increases toward 1 as n grows (the cell-size-fixed family tends to an "
    "isometry-like semigroup whose envelope is exact), so c(64) < c(8) "
    "cannot hold; the pointwise degradation m_n(t) strictly decreasing in n "
    "is real and verified elsewhere.  See the decisions ledger.",
)
def test_criterion_10_refinement_study():
    ok = True
    try:
        grid = np.logspace(math.log10(0.01), math.log10(20.0), 64)
        fits = {}
        for n in (8, 64):
            fits[n] = lower_envelope(upwind_shift(n, 1.0, 1.0), NormModel.identity(n), grid)
        assert fits[64].c < fits[8].c
    except BaseException:
        ok = False
        raise
    finally:
        announce(10, "refinement study: fitted c decreases", ok)


def _run(args):
    return main([str(arg) for arg in args])


def _strip_timings(path):
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    doc.pop("timings", None)
    return json.dumps(doc, indent=2)


def test_criterion_11_determinism_and_recheck(tmp_path):
    ok = True
    try:
        battery = [
            (0, ["certify", "--family", "heat", "--n", "16"]),
            (0, ["certify", "--family", "random-stable", "--n", "12", "--seed", "7"]),
            (2, ["certify", "--family", "jordan", "--n", "3", "--lambda", "0.5"]),
            (0, ["q0", "--family", "heat", "--n", "16"]),
            (0, ["q0", "--family", "random-stable", "--n", "12", "--seed", "7"]),
            (0, ["resolvent", "--family", "heat", "--n", "16", "--delta0", "auto"]),
            (0, ["perturb", "--family", "heat", "--n", "12", "--random-trials", "15",
                 "--alpha", "2"]),
            (0, ["leftinv", "--family", "upwind", "--n", "8"]),
            (0, ["leftinv", "--family", "jordan", "--n", "4"]),
        ]
        for expected, args in battery:
            assert _run(args + ["--out-dir", tmp_path]) == expected, args

        # determinism: the same certify twice, byte-identical modulo timings
        target = tmp_path / "certify-random-stable-n12-s7.json"
        first = _strip_timings(target)
        assert _run(["certify", "--family", "random-stable", "--n", "12", "--seed", "7",
                     "--out-dir", tmp_path]) == 0
        second = _strip_timings(target)
        assert first == second

        reports = sorted(str(p) for p in tmp_path.iterdir() if p.suffix == ".json")
        assert len(reports) >= len(battery)
        assert _run(["recheck", *reports]) == 0
    except BaseException:
        ok = False
        raise
    finally:
        announce(11, "deterministic reports and recheck", ok)
