import math
import sys
import threading

import numpy as np
import pytest

import stabcert.numkernel
import stabcert.resolvent
import stabcert.space
from stabcert.lyapunov import membership_margin, scale_member, solve_algebraic
from stabcert.models import (
    SplitMix64,
    heat_dirichlet,
    jordan_block,
    random_psd,
    random_stable,
    random_vector,
    upwind_shift,
)
from stabcert.numkernel import singular_extremes, solve_linear
from stabcert.resolvent import (
    MAX_GRID_POINTS,
    ResolventSingularError,
    ScanReport,
    abscissa_profile,
    check_right_grid,
    export_scan_csv,
    resolvent_norm,
    verify_bound_left_strip,
    verify_bound_right,
)
from stabcert.semigroup import spectral_bound
from stabcert.space import NormModel, whiten_operator


def member_for(a, nm):
    return membership_margin(solve_algebraic(a, nm.w), a, nm)


class TestResolventNorm:
    def test_scalar_at_origin(self):
        nm = NormModel.identity(2)
        assert resolvent_norm(-np.eye(2), 0.0, nm) == pytest.approx(1.0, rel=1e-12)

    def test_scalar_on_axis(self):
        nm = NormModel.identity(2)
        assert resolvent_norm(-np.eye(2), 1.0, nm) == pytest.approx(0.5, rel=1e-12)

    def test_two_by_two_closed_form(self):
        a = np.array([[-1.0, 4.0], [0.0, -2.0]], dtype=complex)
        lam = 1j
        det = (lam + 1.0) * (lam + 2.0)
        inverse = np.array([[lam + 2.0, 4.0], [0.0, lam + 1.0]]) / det
        expected = np.linalg.norm(inverse, 2)
        nm = NormModel.identity(2)
        assert resolvent_norm(a, lam, nm) == pytest.approx(expected, rel=1e-12)

    def test_spectrum_shift_raises_with_nearest_eigenvalue(self):
        nm = NormModel.identity(2)
        with pytest.raises(ResolventSingularError) as excinfo:
            resolvent_norm(np.diag([-1.0, -2.0]), -1.0, nm)
        assert excinfo.value.nearest_eigenvalue == pytest.approx(-1.0)

    def test_weighted_norm_matches_the_inverse(self):
        from scipy.linalg import eigh

        n = 24
        a = random_stable(n, 0.5, 13)
        w = random_psd(n, 14) + np.eye(n)
        for lam in (0.0, 0.3 + 1.7j, -0.2 - 5.0j):
            r = np.linalg.inv(lam * np.eye(n) - a)
            # |R|_W^2 is the top eigenvalue of the pencil (R* W R, W)
            expected = math.sqrt(eigh(r.conj().T @ w @ r, w, eigvals_only=True)[-1])
            got = resolvent_norm(a, lam, NormModel.from_weight(w))
            assert got == pytest.approx(expected, rel=1e-12)


class TestVerifyBoundRight:
    @pytest.mark.parametrize("a_coef", [0.5, 1.0, 2.0])
    def test_scalar_family_tight(self, a_coef):
        a = -a_coef * np.eye(2)
        nm = NormModel.identity(2)
        report = verify_bound_right(member_for(a, nm))
        assert report.bound == pytest.approx(1.0 / a_coef, rel=1e-12)
        assert report.passed
        assert 1.0 - 1e-6 <= report.worst_ratio <= 1.0
        assert report.argmax == 0.0  # the sup sits at the origin

    def test_diagonal_tight(self):
        a = np.diag([-1.0, -2.0])
        nm = NormModel.identity(2)
        report = verify_bound_right(member_for(a, nm))
        assert report.bound == pytest.approx(1.0, rel=1e-12)
        assert 1.0 - 1e-6 <= report.worst_ratio <= 1.0

    def test_upper_triangular_grid_oracle(self):
        a = np.array([[-1.0, 4.0], [0.0, -2.0]], dtype=complex)
        nm = NormModel.identity(2)
        report = verify_bound_right(member_for(a, nm))
        assert report.passed
        # recompute every scanned point independently
        for lam, nrm in zip(report.grid[:: len(report.grid) // 15],
                            report.norms[:: len(report.grid) // 15]):
            assert nrm == pytest.approx(resolvent_norm(a, lam, nm), rel=1e-12)
        assert report.worst_ratio == pytest.approx(
            max(n / report.bound for n in report.norms), rel=1e-15
        )

    def test_proof_inequality_slack_nonnegative(self):
        a = heat_dirichlet(6, 1.0)
        nm = NormModel.identity(6)
        report = verify_bound_right(member_for(a, nm))
        assert report.proof_slack is not None
        assert report.proof_slack >= -1e-9

    def test_analytic_tail_closes_at_default_extent(self):
        # 2|Q| >= 1/|A| always, so the Neumann tail beyond 10|A| is covered
        for a in (heat_dirichlet(6, 1.0), random_stable(5, 0.5, 11)):
            nm = NormModel.identity(a.shape[0])
            report = verify_bound_right(member_for(a, nm))
            assert report.tail_ratio is not None
            assert report.tail_ratio <= 1.0

    def test_resolvent_identity_residual_on_scan(self):
        a = random_stable(5, 0.5, 3)
        nm = NormModel.identity(5)
        report = verify_bound_right(member_for(a, nm), n_axis=17, n_interior=4)
        eye = np.eye(5, dtype=complex)
        for lam in report.grid:
            r = solve_linear(lam * eye - a, eye)
            assert np.linalg.norm((lam * eye - a) @ r - eye, 2) <= 1e-9

    @pytest.mark.parametrize("n_axis", [1, 2, 4, 128, 129])
    def test_axis_takes_n_axis_or_one_more_points(self, n_axis):
        # an odd count: the axis is antisymmetric and holds 0
        report = verify_bound_right(member_for(-np.eye(2), NormModel.identity(2)),
                                    n_axis=n_axis, n_interior=4)
        assert len(report.grid) == (n_axis | 1) + 4
        axis = np.array([lam.imag for lam in report.grid[:n_axis | 1]])
        assert np.array_equal(axis, -axis[::-1]) and axis[n_axis // 2] == 0.0
        assert all(lam.real == 0.0 for lam in report.grid[:n_axis | 1])

    def test_grid_size_is_capped_before_the_grid_is_built(self):
        # the axis takes n_axis | 1 points: an even n_axis costs one more
        check_right_grid(None, MAX_GRID_POINTS - 17, 17)
        check_right_grid(None, MAX_GRID_POINTS - 16, 15)
        with pytest.raises(ValueError, match="n_axis \\+ n_interior.*100001 points"):
            check_right_grid(None, MAX_GRID_POINTS - 16, 16)
        cand = member_for(-np.eye(2), NormModel.identity(2))
        with pytest.raises(ValueError, match="strip points"):
            verify_bound_left_strip(cand, 0.1, n_grid=317)  # 317 x 317 > 100000

    def test_requires_stable_generator(self):
        # Q = I/2 has margin 1.5 for this A: a member only under a loose tolerance,
        # which the stability gate still refuses
        cand = membership_margin(np.eye(2) / 2.0, np.diag([0.5, -1.0]), NormModel.identity(2),
                                 tol=2.0)
        assert cand.is_member
        from stabcert.semigroup import UnstableGeneratorError

        with pytest.raises(UnstableGeneratorError):
            verify_bound_right(cand)


class TestVerifyBoundLeftStrip:
    def test_scalar_tight_at_half(self):
        a = -np.eye(2)
        nm = NormModel.identity(2)
        cand = member_for(a, nm)
        report = verify_bound_left_strip(cand, delta0=0.5)
        assert report.bound == pytest.approx(2.0, rel=1e-12)
        assert report.passed
        line = [
            (lam, n, b)
            for lam, n, b in zip(report.grid, report.norms, report.pointwise_bounds)
            if lam.real == pytest.approx(-0.5, abs=1e-12) and lam.imag == 0.0
        ]
        assert line
        lam, n, b = line[0]
        assert n == pytest.approx(2.0, rel=1e-9)
        assert n / b == pytest.approx(1.0, rel=1e-9)

    def test_scalar_tight_at_nine_tenths(self):
        a = -np.eye(2)
        nm = NormModel.identity(2)
        report = verify_bound_left_strip(member_for(a, nm), delta0=0.9)
        assert report.bound == pytest.approx(10.0, rel=1e-9)
        assert report.passed
        assert report.worst_ratio == pytest.approx(1.0, rel=1e-9)

    def test_heat_strip_passes(self):
        a = heat_dirichlet(8, 1.0)
        nm = NormModel.identity(8)
        cand = member_for(a, nm)
        delta0 = 0.1 * abs(spectral_bound(a))
        report = verify_bound_left_strip(cand, delta0)
        assert report.passed
        for lam, nrm in zip(report.grid[:: 37], report.norms[:: 37]):
            assert nrm == pytest.approx(resolvent_norm(a, lam, nm), rel=1e-12)

    def test_pointwise_slack_across_families(self):
        for a in (jordan_block(4, -1.0), random_stable(5, 0.5, 7), heat_dirichlet(6, 1.0)):
            nm = NormModel.identity(a.shape[0])
            cand = member_for(a, nm)
            delta0 = 0.25 * min(abs(spectral_bound(a)), 1.0 / (2.0 * cand.q_norm))
            report = verify_bound_left_strip(cand, delta0, n_grid=12)
            for nrm, bound in zip(report.norms, report.pointwise_bounds):
                assert nrm <= bound * (1.0 + 1e-9)

    @pytest.mark.parametrize("a", [heat_dirichlet(8, 1.0), random_stable(6, 0.5, 7)],
                             ids=["heat", "random-stable"])
    def test_auto_delta0_is_the_rule_bit_for_bit(self, a):
        nm = NormModel.from_weight(tridiagonal_weight(a.shape[0]))
        cand = member_for(a, nm)
        rule = 0.5 * min(abs(spectral_bound(a)), 1.0 / (2.0 * cand.q_norm))
        auto = verify_bound_left_strip(cand, n_grid=6)
        assert auto.delta0 == rule
        assert auto == verify_bound_left_strip(cand, rule, n_grid=6)

    def test_delta0_precondition_error_suggests_maximum(self):
        a = -np.eye(2)
        nm = NormModel.identity(2)
        cand = member_for(a, nm)  # |Q| = 1/2
        with pytest.raises(ValueError, match="delta0 <="):
            verify_bound_left_strip(cand, delta0=10.0)

    def test_scaling_coherence(self):
        """Scaling the member by c > 1 weakens the right bound by exactly c
        and widens the admissible strip to Re lambda > -1/(2 c |Q|)."""
        a = -np.eye(2)
        nm = NormModel.identity(2)
        cand = member_for(a, nm)
        scaled = scale_member(cand, 4.0)
        right_base = verify_bound_right(cand)
        right_scaled = verify_bound_right(scaled)
        assert right_scaled.bound == pytest.approx(4.0 * right_base.bound, rel=1e-12)
        # delta0 = 0.9 violates the precondition for |Q| = 1/2 ...
        with pytest.raises(ValueError):
            verify_bound_left_strip(scale_member(cand, 1.0), delta0=1.2)
        # ... yet with the truncated strip the scaled member admits it:
        # 2 * 1.2 * |Q|/... no: widening means smaller delta0 lower bound;
        # check the admissible endpoint moved as 1/(2 c |Q|)
        report = verify_bound_left_strip(scaled, delta0=0.2)
        assert report.passed
        lower_scaled = max(spectral_bound(a), -1.0 / (2.0 * scaled.q_norm))
        assert min(l.real for l in report.grid) >= lower_scaled


class TestWeightedNormScans:
    def test_both_bounds_in_a_weighted_norm(self):
        from stabcert.models import random_psd

        a = random_stable(5, 0.5, 41)
        nm = NormModel.from_weight(random_psd(5, 42) + np.eye(5))
        cand = member_for(a, nm)
        right = verify_bound_right(cand, n_axis=33, n_interior=4)
        assert right.passed
        delta0 = 0.25 * min(abs(spectral_bound(a)), 1.0 / (2.0 * cand.q_norm))
        strip = verify_bound_left_strip(cand, delta0, n_grid=10)
        assert strip.passed


class TestMonotoneDomination:
    def test_hermitian_negative_definite_sup_at_origin(self):
        a = heat_dirichlet(8, 1.0)
        nm = NormModel.identity(8)
        cand = member_for(a, nm)
        report = verify_bound_right(cand)
        s = spectral_bound(a)
        origin_norm = resolvent_norm(a, 0.0, nm)
        assert origin_norm == pytest.approx(1.0 / abs(s), rel=1e-10)
        assert max(report.norms) == pytest.approx(origin_norm, rel=1e-12)
        # normal-case tightness: the bound is exactly 2 |Q| = 1/|s|
        assert report.bound == pytest.approx(1.0 / abs(s), rel=1e-10)
        assert report.worst_ratio == pytest.approx(1.0, rel=1e-9)


class TestAbscissaProfile:
    def test_scalar_values(self):
        nm = NormModel.identity(2)
        profile = abscissa_profile(-np.eye(2), nm, [0.0, -0.5])
        values = dict(profile)
        assert values[0.0] == pytest.approx(1.0, rel=1e-9)
        assert values[-0.5] == pytest.approx(2.0, rel=1e-9)

    def test_jordan_against_refined_oracle(self):
        a = jordan_block(3, -1.0)
        nm = NormModel.identity(3)
        profile = dict(abscissa_profile(a, nm, [-0.5, 0.0], n=65))
        for abscissa in (-0.5, 0.0):
            count, sup, prev = 129, None, None
            omega_max = 10.0 * np.linalg.norm(a, 2)
            while True:
                omegas = np.linspace(-omega_max, omega_max, count)
                sup = max(resolvent_norm(a, abscissa + 1j * w, nm) for w in omegas)
                if prev is not None and abs(sup - prev) <= 1e-6 * sup:
                    break
                prev, count = sup, 2 * count - 1
            assert profile[abscissa] == pytest.approx(sup, rel=1e-5)

    def test_blows_up_near_spectral_bound(self):
        a = heat_dirichlet(8, 1.0)
        nm = NormModel.identity(8)
        s = spectral_bound(a)
        profile = dict(abscissa_profile(a, nm, [s + 1e-4, s + 1.0, 0.0]))
        assert profile[s + 1e-4] > 1e3
        assert all(np.isfinite(v) for v in profile.values())

    def test_rejects_abscissa_in_spectrum_closure(self):
        nm = NormModel.identity(2)
        with pytest.raises(ValueError):
            abscissa_profile(-np.eye(2), nm, [-1.0], n=9)

    def test_shift_on_the_spectrum_raises(self):
        # one ulp right of the eigenvalue -1 passes the abscissa check, and
        # the odd grid puts a shift on the real axis next to the eigenvalue
        nm = NormModel.identity(2)
        with pytest.raises(ResolventSingularError) as excinfo:
            abscissa_profile(np.diag([-1.0, -2.0]), nm, [np.nextafter(-1.0, 0.0)], n=5)
        assert excinfo.value.nearest_eigenvalue == pytest.approx(-1.0)


class TestPerPointWork:
    """Each scan point costs one SVD; the right scan adds one solve for its
    proof vectors.  The one further SVD per scan is |A|.  The scans stack
    their shifts, so the counts are of matrices: the leading dimension of
    each stack handed to the SVD and solve kernels."""

    def counted(self, monkeypatch, scan):
        counts = {"svd": 0, "solve": 0}

        def counting(key, fn):
            def wrapper(m, *args, **kwargs):
                counts[key] += 1 if np.ndim(m) == 2 else len(m)
                return fn(m, *args, **kwargs)
            return wrapper

        svd = counting("svd", stabcert.numkernel.singular_extremes)
        monkeypatch.setattr(stabcert.numkernel, "singular_extremes", svd)
        monkeypatch.setattr(stabcert.space, "singular_extremes", svd)
        monkeypatch.setattr(stabcert.resolvent, "solve_linear",
                            counting("solve", stabcert.numkernel.solve_linear))
        report = scan()
        monkeypatch.undo()
        return report, counts

    def test_strip_points_make_one_svd_and_no_solve(self, monkeypatch):
        a = random_stable(6, 0.5, 5)
        nm = NormModel.from_weight(random_psd(6, 6) + np.eye(6))
        cand = member_for(a, nm)
        delta0 = 0.25 * min(abs(spectral_bound(a)), 1.0 / (2.0 * cand.q_norm))
        report, counts = self.counted(
            monkeypatch, lambda: verify_bound_left_strip(cand, delta0, n_grid=6))
        assert counts == {"svd": len(report.grid) + 1, "solve": 0}

    def test_right_points_make_one_svd_and_one_solve(self, monkeypatch):
        a = random_stable(6, 0.5, 5)
        nm = NormModel.from_weight(random_psd(6, 6) + np.eye(6))
        cand = member_for(a, nm)
        report, counts = self.counted(
            monkeypatch, lambda: verify_bound_right(cand, n_axis=17, n_interior=4))
        assert counts == {"svd": len(report.grid) + 1, "solve": len(report.grid)}

    def test_real_strip_evaluates_one_point_per_conjugate_pair(self, monkeypatch):
        a = heat_dirichlet(6)
        nm = NormModel.from_weight(tridiagonal_weight(6))
        cand = member_for(a, nm)
        delta0 = 0.25 * min(abs(spectral_bound(a)), 1.0 / (2.0 * cand.q_norm))
        report, counts = self.counted(
            monkeypatch, lambda: verify_bound_left_strip(cand, delta0, n_grid=6))
        # 6 lines of 7 points: 3 conjugate pairs and one real point each
        assert (len(report.grid), report.evaluated) == (42, 24)
        assert counts == {"svd": report.evaluated + 1, "solve": 0}

    @pytest.mark.parametrize("weighted", [False, True])
    def test_real_right_scan_solves_once_per_evaluated_point(self, monkeypatch, weighted):
        a = random_stable(6, 0.5, 5)
        nm = NormModel.from_weight(tridiagonal_weight(6)) if weighted else NormModel.identity(6)
        cand = member_for(a, nm)
        report, counts = self.counted(
            monkeypatch, lambda: verify_bound_right(cand, n_axis=17, n_interior=4))
        # 17 axis points: 8 pairs and 0; 2 x 2 interior points: 2 pairs
        assert (len(report.grid), report.evaluated) == (21, 11)
        assert counts == {"svd": report.evaluated + 1, "solve": report.evaluated}


def per_row_csv(report) -> str:
    """Reference for ``export_scan_csv``: one f-string per row."""
    lines = ["re_lambda,im_lambda,resolvent_norm,bound,ratio"]
    for lam, nrm, bnd in zip(report.grid, report.norms, report.pointwise_bounds):
        lines.append(f"{lam.real!r},{lam.imag!r},{nrm!r},{bnd!r},{nrm / bnd!r}")
    return "\n".join(lines) + "\n"


class TestCsvExport:
    def test_bytes_equal_the_per_row_writer(self, tmp_path):
        # repeated values, 0.0 beside -0.0 in every column, and subnormals:
        # one repr per distinct value must key on the bits, not on ==
        grid = [0j, complex(-0.0, -0.0), complex(-0.0, 1e-310), complex(0.5, 0.1),
                complex(0.5, -0.1), 0j, complex(0.0, -0.0)]
        norms = [0.0, -0.0, 5e-324, 0.1 + 0.2, 0.1 + 0.2, 2.0, -0.0]
        bounds = [2.0, 2.0, 3.0, 2.0, 2.0, 2.0, -2.0]
        hand = ScanReport(kind="left-strip", grid=grid, norms=norms, pointwise_bounds=bounds,
                          bound=3.0, worst_ratio=1.0, passed=True, argmax=0j)
        cand = member_for(heat_dirichlet(8), NormModel.identity(8))
        for report in (hand, verify_bound_right(cand), verify_bound_left_strip(cand)):
            export_scan_csv(report, tmp_path / "scan.csv")
            assert (tmp_path / "scan.csv").read_bytes() == per_row_csv(report).encode()
        expected = per_row_csv(hand)
        assert "-0.0,-0.0,-0.0,2.0,-0.0" in expected and "5e-324" in expected

    def test_schema_and_roundtrip(self, tmp_path):
        a = -np.eye(2)
        nm = NormModel.identity(2)
        report = verify_bound_right(member_for(a, nm), n_axis=9, n_interior=4)
        path = tmp_path / "scan.csv"
        export_scan_csv(report, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "re_lambda,im_lambda,resolvent_norm,bound,ratio"
        assert len(lines) == len(report.grid) + 1
        for line, lam, nrm in zip(lines[1:], report.grid, report.norms):
            fields = line.split(",")
            assert float(fields[0]) == lam.real
            assert float(fields[1]) == lam.imag
            assert float(fields[2]) == nrm
            assert float(fields[4]) == pytest.approx(nrm / float(fields[3]), rel=1e-15)
            assert all(ch not in line for ch in (" ", ";"))


def tridiagonal_weight(n):
    """A real SPD weight: tridiag(-1, 3, -1)."""
    return 3.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)


REAL_FAMILIES = {
    "heat": heat_dirichlet,
    "upwind": upwind_shift,
    "jordan": lambda n: jordan_block(n, -1.0),
    "random-stable": lambda n: random_stable(n, 0.5, 7),
}


class TestConjugateSymmetry:
    """For a real generator a shift and its conjugate have the same resolvent
    norm, so the scans take one SVD per conjugate pair."""

    def scans(self, a, nm):
        cand = member_for(a, nm)
        # 7 of 9 interior points: the last row's conjugate partner is cut
        right = verify_bound_right(cand, n_axis=33, n_interior=7)
        strip = verify_bound_left_strip(cand, n_grid=8)
        return cand, right, strip

    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("n", [16, 48])
    @pytest.mark.parametrize("family", sorted(REAL_FAMILIES))
    def test_mirrored_norms_equal_direct_ones(self, family, n, weighted):
        a = REAL_FAMILIES[family](n)
        nm = NormModel.from_weight(tridiagonal_weight(n)) if weighted else NormModel.identity(n)
        _, right, strip = self.scans(a, nm)
        # 16 axis pairs and 0; interior rows (-w, 0, w), (-w, 0, w), (-w)
        assert right.evaluated == 17 + 2 + 2 + 1
        assert strip.evaluated == 8 * 5
        for scan in (right, strip):
            direct = [resolvent_norm(a, lam, nm) for lam in scan.grid]
            np.testing.assert_allclose(scan.norms, direct, rtol=1e-12, atol=0.0)

    def test_grids_are_exactly_conjugate_symmetric(self):
        a = random_stable(12, 0.5, 3)
        nm = NormModel.identity(12)
        cand, right, strip = self.scans(a, nm)
        for scan in (verify_bound_right(cand), verify_bound_left_strip(cand, 0.1)):
            points = set(scan.grid)
            assert all(lam.conjugate() in points for lam in scan.grid)
        # every strip line is antisymmetric, its middle point exactly real
        lines = np.array([lam.imag for lam in strip.grid]).reshape(8, 9)
        assert np.array_equal(lines, -lines[:, ::-1])
        assert np.all(lines[:, 4] == 0.0)
        axis = np.array([lam.imag for lam in right.grid[:33]])
        assert np.array_equal(axis, -axis[::-1])
        interior = np.array([lam.imag for lam in right.grid[33:39]]).reshape(2, 3)
        assert np.array_equal(interior, -interior[:, ::-1])

    def test_complex_generator_evaluates_every_point(self):
        a = jordan_block(8, -0.5 + 1.0j)
        _, right, strip = self.scans(a, NormModel.identity(8))
        assert right.evaluated == len(right.grid)
        assert strip.evaluated == len(strip.grid)

    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("family", sorted(REAL_FAMILIES))
    def test_proof_slack_covers_the_full_grid(self, family, weighted):
        n = 16
        a = REAL_FAMILIES[family](n)
        nm = NormModel.from_weight(tridiagonal_weight(n)) if weighted else NormModel.identity(n)
        cand, right, _ = self.scans(a, nm)
        rng = SplitMix64(0x5EED)
        samples = np.array([random_vector(n, rng)
                            for _ in range(stabcert.resolvent._PROOF_SAMPLES)])
        wy = nm.sqrt_w @ samples.T
        y_norms = np.linalg.norm(wy, axis=0)
        aw = whiten_operator(a, nm)
        bound = 2.0 * cand.q_norm
        slack = math.inf
        for lam in right.grid:
            ry = np.linalg.norm(np.linalg.solve(lam * np.eye(n) - aw, wy), axis=0)
            rhs = bound * ry * y_norms
            slack = min(slack, float(np.min((rhs - ry ** 2) / np.maximum(rhs, 1e-300))))
        assert right.proof_slack == pytest.approx(slack, rel=0.0, abs=1e-12)


def per_point_scan(aw, grid, wy=None):
    """Reference for the stacked scans: one SVD and one solve per shift, in
    grid order, a real A_w mirroring each point whose conjugate came earlier."""
    mirror = np.isrealobj(aw)
    aw = aw.astype(complex)
    eye = np.eye(aw.shape[0], dtype=complex)
    done, norms, proofs = {}, [], []
    for lam in grid:
        mate = lam.conjugate()
        if mirror and mate in done:
            nrm, cols = done[mate]
        else:
            shifted = lam * eye - aw
            sigma_max, sigma_min = singular_extremes(shifted)
            assert sigma_min > 16.0 * aw.shape[0] * np.finfo(float).eps * sigma_max
            nrm, cols = 1.0 / sigma_min, None
            mate_cols = None
            if wy is not None:
                paired = mirror and mate != lam
                both = np.linalg.norm(solve_linear(
                    shifted, np.hstack([wy, wy.conj()]) if paired else wy, sigma_max), axis=0)
                cols = both[:wy.shape[1]]
                mate_cols = both[wy.shape[1]:] if paired else cols
            done[lam] = (nrm, mate_cols)
        norms.append(nrm)
        proofs.append(cols)
    return np.array(norms), None if wy is None else np.array(proofs), len(done)


SCAN_CASES = {
    **{family: (make, False) for family, make in REAL_FAMILIES.items()},
    "jordan-complex": (lambda n: jordan_block(n, -0.5 + 1.0j), False),
    "random-stable-weighted": (REAL_FAMILIES["random-stable"], True),
    "upwind-weighted": (REAL_FAMILIES["upwind"], True),
}


class TestStackedScans:
    """The scans stack their shifts in blocks of a fixed byte budget; every
    block size gives the per-point reference's report bit for bit."""

    @staticmethod
    def scans(cand):
        return verify_bound_right(cand), verify_bound_left_strip(cand)

    @pytest.mark.parametrize("case", sorted(SCAN_CASES))
    def test_reports_equal_the_per_point_reference(self, monkeypatch, case):
        make, weighted = SCAN_CASES[case]
        n = 16
        a = make(n)
        nm = NormModel.from_weight(tridiagonal_weight(n)) if weighted else NormModel.identity(n)
        cand = member_for(a, nm)
        with monkeypatch.context() as patch:
            patch.setattr(stabcert.resolvent, "_scan_norms", per_point_scan)
            reference = self.scans(cand)
        assert reference[0].evaluated < len(reference[0].grid) or case == "jordan-complex"
        matrix_bytes = n * n * 16
        for budget in (matrix_bytes, stabcert.resolvent._BLOCK_BYTES, 10 ** 9):
            monkeypatch.setattr(stabcert.resolvent, "_BLOCK_BYTES", budget)
            assert self.scans(cand) == reference, budget

    @pytest.mark.parametrize("budget", [1, 10 ** 9])
    @pytest.mark.parametrize("first", [-1.0, -2.0])
    def test_first_singular_shift_in_grid_order_raises(self, monkeypatch, budget, first):
        monkeypatch.setattr(stabcert.resolvent, "_BLOCK_BYTES", budget)
        aw = np.diag([-1.0, -2.0, -3.0, -4.0])
        other = -3.0 - first
        # both eigenvalue shifts sit mid-block, behind regular and mirrored points
        grid = [0.5j, -0.5j, 1.0 + 1.0j, complex(first), 0.25 + 0.0j, complex(other), 2.0j]
        with pytest.raises(ResolventSingularError) as excinfo:
            stabcert.resolvent._scan_norms(aw, grid)
        assert excinfo.value.nearest_eigenvalue == first
        assert str(excinfo.value) == (
            f"shift {complex(first):.6e} is on the spectrum to working precision "
            f"(nearest eigenvalue {complex(first):.6e})")
        # the right scan's solves do not run ahead of the gate
        with pytest.raises(ResolventSingularError) as excinfo:
            stabcert.resolvent._scan_norms(aw, grid, np.ones((4, 3), dtype=complex))
        assert excinfo.value.nearest_eigenvalue == first
        # blocks as shallow as the GIL rule lets a run split off (126 shifts
        # at n = 4) on three CPUs: one block per run, the calling thread's,
        # then a worker's led by ``first`` and a worker's led by ``other``
        depth = stabcert.numkernel.gil_free_depth(len(aw))
        monkeypatch.setattr(stabcert.numkernel, "_cpu_count", lambda: 3)
        monkeypatch.setattr(stabcert.resolvent, "_BLOCK_BYTES", 1)
        grid = [lam for k, lead in enumerate([0.5j, complex(first), complex(other)])
                for lam in [lead, *(complex(0.5, k + (j + 1) / depth) for j in range(depth - 1))]]
        threads = threading.active_count()
        lone = [0.75 + 0.0j if lam == first else lam for lam in grid]
        regular = [0.75 + 0.0j if lam.imag == 0.0 and lam.real < 0.0 else lam for lam in grid]
        assert len(stabcert.resolvent._scan_norms(aw, regular)[0]) == len(grid)
        assert threading.active_count() == threads
        for shifts, raised in ((lone, other), (grid, first)):
            for wy in (None, np.ones((4, 3), dtype=complex)):
                with pytest.raises(ResolventSingularError) as excinfo:
                    stabcert.resolvent._scan_norms(aw, shifts, wy)
                assert excinfo.value.nearest_eigenvalue == raised
                assert threading.active_count() == threads

    @pytest.mark.parametrize("case, n", [
        *((case, 16) for case in sorted(SCAN_CASES)),
        *((case, n) for n in (48, 64) for case in ("heat", "random-stable-weighted")),
    ])
    def test_reports_do_not_depend_on_the_cpu_count(self, monkeypatch, case, n):
        # blocks as shallow as the GIL rule allows: 32 shifts at n = 16, 11 at
        # n = 48 and 8 at n = 64
        make, weighted = SCAN_CASES[case]
        a = make(n)
        nm = NormModel.from_weight(tridiagonal_weight(n)) if weighted else NormModel.identity(n)
        cand = member_for(a, nm)
        monkeypatch.setattr(stabcert.resolvent, "_BLOCK_BYTES", 1)
        reports = []
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # threads interleave as often as they can
        try:
            for cpus in (1, 2, 3, 64):  # 64: up to 63 worker threads at once
                monkeypatch.setattr(stabcert.numkernel, "_cpu_count", lambda: cpus)
                reports.append(self.scans(cand))
        finally:
            sys.setswitchinterval(switch)
        assert all(report == reports[0] for report in reports[1:])

    @staticmethod
    def strip_stacks(monkeypatch, n, n_grid):
        """The stacked SVDs of a heat strip scan on two CPUs, the threads that
        took them, and the scan's report."""
        cand = member_for(heat_dirichlet(n), NormModel.identity(n))
        monkeypatch.setattr(stabcert.numkernel, "_cpu_count", lambda: 2)
        stacks = []  # (stack, the thread that took its SVD)
        svd = np.linalg.svd

        def recording(m, *args, **kwargs):
            stacks.append((m, threading.current_thread()))
            return svd(m, *args, **kwargs)

        monkeypatch.setattr(stabcert.numkernel.np.linalg, "svd", recording)
        report = verify_bound_left_strip(cand, n_grid=n_grid)
        monkeypatch.undo()
        return [(m, thread) for m, thread in stacks if m.ndim == 3], report

    @pytest.mark.parametrize("n, n_grid, blocks, runs", [
        (32, 16, [16] * 9, 2), (32, 6, [16, 8], 1), (48, 6, [11, 11, 2], 2),
        (128, 6, [4] * 6, 2),
    ])
    def test_stacks_stay_within_the_block_budget(self, monkeypatch, n, n_grid, blocks, runs):
        # a block takes _BLOCK_BYTES of shifts (16 at n = 32, 7 at n = 48, 1 at
        # n = 128), or as many as numpy needs to release the GIL in its SVD,
        # 500 // n + 1, where that is more
        stacks, report = self.strip_stacks(monkeypatch, n, n_grid)
        depth = max(stabcert.resolvent._BLOCK_BYTES // (16 * n * n), 500 // n + 1)
        assert sorted((len(m) for m, _ in stacks), reverse=True) == blocks
        assert sum(blocks) == report.evaluated and max(blocks) == depth
        # two CPUs take the blocks that release the GIL in two runs, and the
        # calling thread one of them and every shallower block
        threads = {thread for _, thread in stacks}
        assert len(threads) == runs and threading.current_thread() in threads
        assert all(thread is threading.current_thread()
                   for m, thread in stacks if len(m) < 500 // n + 1)

    def test_a_lone_deep_block_keeps_the_scan_on_one_thread(self, monkeypatch):
        # the n = 8 strip's 312 shifts fit two blocks of 256, and two even
        # blocks of 156 each hold 156 x 8 > 500 SVD rows: one per CPU
        stacks, _ = self.strip_stacks(monkeypatch, 8, 24)
        assert [len(m) for m, _ in stacks] == [156, 156]
        assert len({thread for _, thread in stacks}) == 2
        # the n = 32 six-line strip's 24 shifts take one block of 16 and one
        # of 8 (two even blocks of 12 would hold the GIL, 12 x 32 < 500): the
        # lone deep block keeps the scan on the calling thread
        stacks, _ = self.strip_stacks(monkeypatch, 32, 6)
        assert [len(m) for m, _ in stacks] == [16, 8]
        assert {thread for _, thread in stacks} == {threading.current_thread()}
