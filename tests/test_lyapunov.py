import inspect
import math
import re
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from stabcert import numkernel
from stabcert.cli import _recheck_one, main
from stabcert.lyapunov import (
    LyapunovCandidate,
    NotAMemberError,
    NotPositiveSemidefiniteError,
    _norm_bounds,
    certificate,
    construct_q0,
    membership_margin,
    refute_stability,
    scale_member,
    solve_algebraic,
)
from stabcert.models import (
    heat_dirichlet,
    jordan_block,
    random_matrix,
    random_psd,
    random_stable,
    random_vector,
    upwind_shift,
)
from stabcert.numkernel import KernelPrecisionError, expm, singular_extremes
from stabcert.perturb import admissible_radius, max_alpha, verify_perturbation
from stabcert.resolvent import verify_bound_left_strip, verify_bound_right
from stabcert.semigroup import (
    UnstableGeneratorError,
    certified_decay,
    datko_integral,
    default_time_grid,
    envelope_witness_search,
    lower_envelope,
    refutation_slack,
    spectral_bound,
    stability_gate,
)
from stabcert.space import (
    NormModel,
    RieszMap,
    dual_map_norm,
    op_norm,
    pairing,
    strong_positivity_theta,
    vec_norm,
    whiten_form,
    whiten_operator,
)

ROTATION = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)


def kron_lyapunov_oracle(a, rhs):
    n = a.shape[0]
    eye = np.eye(n, dtype=complex)
    k = np.kron(eye, a.conj().T) + np.kron(a.T, eye)
    q = np.linalg.solve(k, -np.asarray(rhs, complex).reshape(-1, order="F"))
    q = q.reshape((n, n), order="F")
    return 0.5 * (q + q.conj().T)


class TestMembershipMargin:
    def test_boundary_member(self):
        nm = NormModel.identity(2)
        cand = membership_margin(np.eye(2) / 2, -np.eye(2), nm)
        assert cand.margin == pytest.approx(0.0, abs=1e-12)
        assert cand.is_member

    def test_non_member(self):
        nm = NormModel.identity(2)
        cand = membership_margin(np.eye(2) / 4, -np.eye(2), nm)
        assert cand.margin == pytest.approx(0.5, abs=1e-12)
        assert not cand.is_member

    def test_member_with_slack(self):
        nm = NormModel.identity(2)
        cand = membership_margin(np.eye(2), -np.eye(2), nm)
        assert cand.margin == pytest.approx(-1.0, abs=1e-12)
        assert cand.is_member

    def test_margin_is_the_smallest_inequality_defect(self):
        # margin mu is the smallest rho with the form <= -(1 - rho)|x|^2:
        # random unit vectors stay below it and the top eigenvector of the
        # residual attains it exactly
        nm = NormModel.identity(3)
        a = random_stable(3, 0.5, 3)
        q = random_psd(3, 4)
        cand = membership_margin(q, a, nm)
        for seed in range(100):
            x = random_vector(3, 500 + seed)
            x = x / vec_norm(x, nm)
            form = 2.0 * pairing(q, a @ x, x).real
            assert form + 1.0 <= cand.margin + 1e-9
        from stabcert.numkernel import hermitian_part

        residual = hermitian_part(a.conj().T @ q + q @ a + nm.w)
        _, vectors = np.linalg.eigh(residual)
        top = vectors[:, -1]
        attained = 2.0 * pairing(q, a @ top, top).real + 1.0
        assert attained == pytest.approx(cand.margin, rel=1e-9, abs=1e-12)

    def test_rejects_non_psd(self):
        nm = NormModel.identity(2)
        with pytest.raises(NotPositiveSemidefiniteError):
            membership_margin(np.diag([1.0, -0.5]), -np.eye(2), nm)

    def test_weighted_psd_gate_keeps_the_inertia(self):
        # congruence whitening keeps eigenvalue signs, so the gate rejects
        # an indefinite Q in a weighted norm as well
        nm = NormModel.from_weight(np.array([[2.0, 0.5], [0.5, 1.0]]))
        with pytest.raises(NotPositiveSemidefiniteError):
            membership_margin(np.diag([1.0, -1e-3]), -np.eye(2), nm)

    def test_one_whitened_eigensolve_per_candidate(self, monkeypatch):
        import stabcert.lyapunov
        import stabcert.numkernel
        import stabcert.space

        nm = NormModel.from_weight(random_psd(6, 21) + 0.5 * np.eye(6))
        a = random_stable(6, 0.5, 9)
        q = solve_algebraic(a, nm.w)
        calls = []

        def counting(h):
            calls.append(h)
            return stabcert.numkernel.hermitian_eig(h)

        monkeypatch.setattr(stabcert.lyapunov, "hermitian_eig", counting)
        monkeypatch.setattr(stabcert.space, "hermitian_eig", counting)
        cand = membership_margin(q, a, nm)
        monkeypatch.undo()
        assert len(calls) == 2  # the whitened Q and the whitened residual
        assert cand.theta == strong_positivity_theta(q, nm)
        assert cand.q_norm == dual_map_norm(q, nm)
        sv = np.linalg.svd(whiten_form(cand.q, nm), compute_uv=False)
        assert cand.q_norm == pytest.approx(sv[0], rel=1e-13)

    def test_rejects_non_hermitian(self):
        nm = NormModel.identity(2)
        with pytest.raises(ValueError, match="Hermitian"):
            membership_margin(np.array([[1.0, 1.0], [0.0, 1.0]]), -np.eye(2), nm)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            membership_margin(np.eye(2), -np.eye(2), NormModel.identity(3))


class TestCandidateBinding:
    """A candidate carries the generator and norm model it was decided for."""

    def test_generator_is_a_read_only_copy(self):
        a = heat_dirichlet(6, 1.0)
        nm = NormModel.from_weight(np.diag(np.arange(1.0, 7.0)))
        cand = membership_margin(solve_algebraic(a, nm.w), a, nm)
        assert cand.nm is nm
        assert np.array_equal(cand.a, a) and cand.a is not a
        with pytest.raises(ValueError, match="read-only"):
            cand.a[0, 0] = 0.0
        a[0, 0] = 1.0  # the caller's array, edited after the decision
        assert cand.a[0, 0] == heat_dirichlet(6, 1.0)[0, 0]
        assert certificate(cand).grid_pass

    def test_construct_q0_and_scale_member_keep_the_pair(self):
        a = upwind_shift(5, 1.0, 1.0)
        nm = NormModel.from_weight(np.diag(np.arange(1.0, 6.0)))
        cand = construct_q0(a, RieszMap.from_matrix(nm.w, nm), nm)
        assert np.array_equal(cand.a, a) and not cand.a.flags.writeable
        assert cand.nm is nm
        scaled = scale_member(cand, 2.0)
        assert scaled.a is cand.a and scaled.nm is nm and scaled.tol == cand.tol

    @pytest.mark.parametrize("operation", [certificate, verify_bound_right,
                                           verify_bound_left_strip, verify_perturbation,
                                           max_alpha, admissible_radius])
    def test_member_operations_take_the_candidate_alone(self, operation):
        params = list(inspect.signature(operation).parameters)
        assert params[0] == "cand"
        assert not {"a", "nm"} & set(params)


class TestTheoremConstants:
    """Every constant a member implies is read off the candidate's |Q| and theta."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(q=st.floats(1e-100, 1e100), theta_share=st.floats(1e-12, 1.0),
           re=st.floats(-1e3, 1e3), depth=st.floats(0.0, 1.0, exclude_max=True),
           t_share=st.floats(0.0, 50.0))
    def test_the_derived_values_are_the_inline_formulas_bit_for_bit(self, q, theta_share, re,
                                                                     depth, t_share):
        # the expressions each site wrote out before the candidate stated them
        theta = q * theta_share
        cand = LyapunovCandidate(q=np.eye(1), a=-np.eye(1), nm=NormModel.identity(1),
                                 margin=0.0, q_norm=q, theta=theta)
        epsilon, m = 1.0 / (2.0 * q), math.sqrt(q / theta)
        t = t_share / epsilon
        delta0 = depth / (2.0 * q)  # 2 delta0 |Q| < 1
        assert cand.decay_rate == epsilon and -cand.decay_rate == -1.0 / (2.0 * q)
        assert cand.envelope(0.0) == m
        assert cand.envelope(t) == m * math.exp(-epsilon * t)
        assert cand.resolvent_bound(0.0) == 2.0 * q  # the right scan's bound
        assert cand.resolvent_bound(re) == 2.0 * q / (1.0 + 2.0 * q * min(re, 0.0))
        assert cand.resolvent_bound(-delta0) == 2.0 * q / (1.0 - 2.0 * delta0 * q)  # headline
        strip_re = -depth * epsilon  # a strip point's real part
        assert cand.resolvent_bound(strip_re) == 2.0 * q / (1.0 + 2.0 * q * strip_re)

    def test_every_site_follows_the_candidate(self, tmp_path, monkeypatch):
        # reports written before the patch, so recheck must then disagree
        assert main(["certify", "--family", "heat", "--n", "6", "--out-dir", str(tmp_path)]) == 0
        assert main(["resolvent", "--family", "heat", "--n", "6",
                     "--out-dir", str(tmp_path)]) == 0
        a, nm = heat_dirichlet(6, 1.0), NormModel.identity(6)
        cand = membership_margin(solve_algebraic(a, nm.w), a, nm)
        bound, envelope = LyapunovCandidate.resolvent_bound, LyapunovCandidate.envelope
        monkeypatch.setattr(LyapunovCandidate, "resolvent_bound",
                            lambda self, re: 3.0 * bound(self, re))
        monkeypatch.setattr(LyapunovCandidate, "envelope", lambda self, t: 5.0 * envelope(self, t))
        assert verify_bound_right(cand).bound == 3.0 * bound(cand, 0.0)
        strip = verify_bound_left_strip(cand)
        assert strip.pointwise_bounds == [3.0 * bound(cand, lam.real) for lam in strip.grid]
        assert strip.bound == 3.0 * bound(cand, -strip.delta0)
        assert certificate(cand).overshoot == 5.0 * envelope(cand, 0.0)
        for report, fields in (("resolvent-heat-n6.json", {"scans.right.bound",
                                                           "scans.strip.bound"}),
                               ("certify-heat-n6.json", {"certificate.M"})):
            _, _, problems = _recheck_one(str(tmp_path / report))
            assert fields <= {problem.split(":")[0] for problem in problems}


class TestRefuteStability:
    def test_unstable_diagonal(self):
        witness = refute_stability(np.diag([1.0, -1.0]))
        assert witness is not None
        assert witness.eigenvalue == pytest.approx(1.0)
        assert np.allclose(np.abs(witness.vector), [1.0, 0.0], atol=1e-12)

    def test_stable_returns_none(self):
        assert refute_stability(-np.eye(2)) is None

    def test_rotation_boundary_case(self):
        # purely imaginary spectrum already defeats every candidate
        witness = refute_stability(ROTATION)
        assert witness is not None
        assert witness.eigenvalue.real == pytest.approx(0.0, abs=1e-12)
        assert abs(witness.eigenvalue.imag) == pytest.approx(1.0, rel=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**31), n=st.integers(1, 12),
           gap=st.floats(1e-6, 2.0), below=st.booleans())
    def test_none_iff_spectral_bound_below_threshold(self, seed, n, gap, below):
        # a dense seeded matrix shifted so its spectral bound sits `gap`
        # below or above the -1e-10 refutation threshold
        g = random_matrix(n, seed)
        target = -1e-10 - gap if below else -1e-10 + gap
        a = g + (target - spectral_bound(g)) * np.eye(n)
        stable = spectral_bound(a) < -1e-10
        assert stable == below
        assert (refute_stability(a) is None) == stable

    def test_witness_is_an_eigenpair(self):
        a = jordan_block(3, 0.5)
        witness = refute_stability(a)
        residual = np.linalg.norm(a @ witness.vector - witness.eigenvalue * witness.vector)
        assert residual <= 1e-10

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**31))
    def test_refutation_soundness(self, seed):
        """Whenever a witness exists, no PSD candidate can be a member."""
        a = jordan_block(3, 0.5)
        assert refute_stability(a) is not None
        nm = NormModel.identity(3)
        q = random_psd(3, seed)
        cand = membership_margin(q, a, nm)
        assert cand.margin > 0.0

    @pytest.mark.parametrize("operation", [
        pytest.param(lambda a, nm: solve_algebraic(a, nm.w), id="solve_algebraic"),
        pytest.param(lambda a, nm: construct_q0(a, RieszMap.from_matrix(nm.w, nm), nm),
                     id="construct_q0"),
        pytest.param(lambda a, nm: datko_integral(a, nm, np.ones(2)), id="datko_integral"),
        pytest.param(certified_decay, id="certified_decay"),
        # Q = diag(1e10, 1/2) has margin 0 for this A, so only the stability gate refuses
        pytest.param(lambda a, nm: verify_bound_right(
            membership_margin(np.diag([1e10, 0.5]), a, nm)), id="verify_bound_right"),
        pytest.param(lambda a, nm: verify_bound_left_strip(
            membership_margin(np.diag([1e10, 0.5]), a, nm)), id="verify_bound_left_strip"),
        pytest.param(lower_envelope, id="lower_envelope"),  # its default time grid
    ])
    def test_refutation_window_gates_every_stable_operation(self, operation):
        # s(A) = -5e-11 is negative but inside the -1e-10 refutation window
        a = np.diag([-5e-11, -1.0])
        assert membership_margin(np.diag([1e10, 0.5]), a, NormModel.identity(2)).is_member
        with pytest.raises(UnstableGeneratorError, match="real part >= -1e-10") as excinfo:
            operation(a, NormModel.identity(2))
        assert excinfo.value.witness.eigenvalue == -5e-11

    @pytest.mark.parametrize("k", [-200, -40, 0, 40, 200])
    def test_the_window_scales_with_a(self, k):
        # the window is 1e-10 |A|_1: 2^k A keeps the verdict of A, and the
        # error names the slack it used
        for s, refuted in ((-5e-11, True), (-2e-10, False)):
            a = np.diag([s, -1.0]) * 2.0 ** k
            assert refutation_slack(a) == 1e-10 * 2.0 ** k
            assert (refute_stability(a) is not None) == refuted
        slack = re.escape(f"real part >= -{1e-10 * 2.0 ** k:g}")
        with pytest.raises(UnstableGeneratorError, match=slack):
            stability_gate(np.diag([-5e-11, -1.0]) * 2.0 ** k)

    @pytest.mark.parametrize("a", [heat_dirichlet(8, 1.0), jordan_block(4, -0.5 + 1j),
                                   random_stable(6, 0.5, 3)], ids=["heat", "jordan", "random"])
    def test_gate_returns_the_spectrum_and_takes_eig_only_to_refute(self, monkeypatch, a):
        expected, calls = np.linalg.eigvals(a), []
        for name in ("eig", "eigvals"):
            monkeypatch.setattr(np.linalg, name, lambda *args, f=getattr(np.linalg, name),
                                name=name: calls.append(name) or f(*args))
        assert np.array_equal(stability_gate(a), expected)
        assert calls == ["eigvals"]
        with pytest.raises(UnstableGeneratorError):
            stability_gate(-a)
        assert calls == ["eigvals", "eigvals", "eig"]

    def test_candidate_spectrum_is_decided_once_for_both_scans(self, monkeypatch):
        a, nm = heat_dirichlet(6, 1.0), NormModel.identity(6)
        cand = membership_margin(solve_algebraic(a, nm.w), a, nm)
        calls = []
        monkeypatch.setattr(np.linalg, "eigvals", lambda m, f=np.linalg.eigvals:
                            calls.append(m.shape) or f(m))
        monkeypatch.setattr(np.linalg, "eig", lambda m: pytest.fail("eig on a stable A"))
        verify_bound_left_strip(cand)
        verify_bound_right(cand)
        assert calls == [(6, 6)]
        assert np.array_equal(cand.eigenvalues, np.linalg.eigvals(a))


class TestSolveAlgebraic:
    @pytest.mark.parametrize("a_coef", [0.5, 1.0, 2.0])
    def test_scalar_family(self, a_coef):
        q = solve_algebraic(-a_coef * np.eye(2), np.eye(2))
        assert np.allclose(q, np.eye(2) / (2.0 * a_coef), atol=1e-10)

    def test_diagonal(self):
        q = solve_algebraic(np.diag([-1.0, -2.0]), np.eye(2))
        assert np.allclose(q, np.diag([0.5, 0.25]), atol=1e-12)

    def test_upper_triangular_against_oracles(self):
        a = np.array([[-1.0, 4.0], [0.0, -2.0]], dtype=complex)
        q = solve_algebraic(a, np.eye(2))
        oracle = kron_lyapunov_oracle(a, np.eye(2))
        assert np.allclose(q, oracle, rtol=1e-12)
        ref = scipy.linalg.solve_continuous_lyapunov(a.conj().T, -np.eye(2))
        assert np.allclose(q, ref, rtol=1e-9)
        residual = np.linalg.norm(a.conj().T @ q + q @ a + np.eye(2), 2)
        assert residual <= 1e-8

    def test_unstable_raises_with_witness(self):
        with pytest.raises(UnstableGeneratorError) as excinfo:
            solve_algebraic(jordan_block(2, 0.3), np.eye(2))
        assert excinfo.value.witness is not None
        assert excinfo.value.witness.eigenvalue.real >= 0.0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_an_overflowing_residual_is_refused(self):
        # Q = 1e300 / 2e-9 overflows; the solve names the overflow instead
        # of comparing a nan residual with its bound
        with pytest.raises(KernelPrecisionError, match="Lyapunov solution overflows float64"):
            solve_algebraic(np.array([[-1e-9]]), np.array([[1e300]]))

    def test_rejects_indefinite_rhs(self):
        with pytest.raises(ValueError, match="positive definite"):
            solve_algebraic(-np.eye(2), np.diag([1.0, -1.0]))

    def test_a_solve_takes_one_svd(self, monkeypatch):
        # |RHS| is the top eigenvalue of the positive-definiteness gate, so
        # the residual check is the only SVD
        calls, svd = [], np.linalg.svd

        def counting(*args, **kwargs):
            calls.append(args)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting)
        solve_algebraic(random_stable(6, 0.5, 3), random_psd(6, 5) + np.eye(6))
        assert len(calls) == 1

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**31), n=st.integers(2, 20), c=st.floats(-10.0, 10.0),
           jordan=st.booleans())
    def test_imaginary_shift_leaves_the_solution(self, seed, n, c, jordan):
        # (A + i c I)* Q + Q (A + i c I) = A* Q + Q A for a real c
        a = jordan_block(n, -0.5) if jordan else random_stable(n, 0.5, seed)
        q = solve_algebraic(a, np.eye(n))
        shifted = solve_algebraic(a + 1j * c * np.eye(n), np.eye(n))
        assert np.linalg.norm(shifted - q, 2) <= 1e-12 * np.linalg.norm(q, 2)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**31), n=st.integers(2, 6))
    def test_solution_is_hermitian_pd_member(self, seed, n):
        a = random_stable(n, 0.5, seed)
        nm = NormModel.identity(n)
        q = solve_algebraic(a, nm.w)
        assert np.allclose(q, q.conj().T)
        cand = membership_margin(q, a, nm)
        assert cand.is_member
        assert cand.theta > 0.0


SIZED_FAMILIES = {
    "heat": lambda n: heat_dirichlet(n, 1.0),
    "upwind": lambda n: upwind_shift(n, 1.0, 1.0),
    "jordan(-1)": lambda n: jordan_block(n, -1.0),
    "random-stable": lambda n: random_stable(n, 0.5, 11),
}


def lyapunov_residual(a, q, rhs):
    return np.linalg.norm(a.conj().T @ q + q @ a + rhs, 2) / np.linalg.norm(rhs, 2)


class TestSignFunctionSolve:
    @pytest.mark.parametrize("n", [8, 48, 150, 256])
    @pytest.mark.parametrize("family", sorted(SIZED_FAMILIES))
    def test_matches_bartels_stewart(self, family, n):
        a = SIZED_FAMILIES[family](n)
        rhs = np.eye(n)
        q = solve_algebraic(a, rhs)
        ref = scipy.linalg.solve_continuous_lyapunov(a.conj().T, -rhs)
        assert np.linalg.norm(q - ref, 2) <= 1e-9 * np.linalg.norm(ref, 2)
        assert lyapunov_residual(a, q, rhs) <= 1e-8

    def test_weighted_rhs_matches_bartels_stewart(self):
        a = random_stable(48, 0.5, 12)
        nm = NormModel.from_weight(random_psd(48, 13) + 0.5 * np.eye(48))
        q = solve_algebraic(a, nm.w)
        # a complex A: scipy's solver mishandles a real A with a complex RHS
        ref = scipy.linalg.solve_continuous_lyapunov(a.astype(complex).conj().T, -nm.w)
        assert np.linalg.norm(q - ref, 2) <= 1e-9 * np.linalg.norm(ref, 2)

    def test_matches_kronecker_oracle_at_small_n(self):
        for family, make in SIZED_FAMILIES.items():
            a = make(12)
            q = solve_algebraic(a, np.eye(12))
            oracle = kron_lyapunov_oracle(a, np.eye(12))
            assert np.linalg.norm(q - oracle, 2) <= 1e-12 * np.linalg.norm(oracle, 2), family

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**31), n=st.integers(1, 64),
           margin=st.floats(1e-3, 10.0))
    def test_residual_contract_on_random_stable(self, seed, n, margin):
        a = random_stable(n, margin, seed)
        rhs = random_psd(n, seed + 1) + np.eye(n)
        q = solve_algebraic(a, rhs)
        assert np.array_equal(q, q.conj().T)
        assert lyapunov_residual(a, q, rhs) <= 1e-8

    @settings(max_examples=40, deadline=None, database=None, derandomize=True)
    @given(family=st.sampled_from([*sorted(SIZED_FAMILIES), "jordan(-0.5+1i)"]),
           n=st.integers(2, 12), k=st.integers(-1000, 1000))
    def test_a_power_of_two_scales_the_solution_back(self, family, n, k):
        # (2^k A)* Q + Q (2^k A) = -W is solved by 2^-k Q_A: 2^-k A cannot
        # overflow or underflow the sign iteration, whatever k
        a = (jordan_block(n, -0.5 + 1j) if family == "jordan(-0.5+1i)"
             else SIZED_FAMILIES[family](n))
        w = random_psd(n, n) + np.eye(n)
        q = solve_algebraic(a, w)
        scaled = 2.0 ** k * solve_algebraic(a * 2.0 ** k, w)
        assert np.linalg.norm(scaled - q, 2) <= 1e-12 * np.linalg.norm(q, 2)

    def test_heat_256_keeps_tenfold_headroom(self):
        a = heat_dirichlet(256, 1.0)
        q = solve_algebraic(a, np.eye(256))
        assert lyapunov_residual(a, q, np.eye(256)) <= 1e-9

    def test_step_cap_raises_precision_error(self, monkeypatch):
        monkeypatch.setattr("stabcert.lyapunov.SIGN_MAX_STEPS", 1)
        with pytest.raises(KernelPrecisionError, match="did not converge in 1 steps"):
            solve_algebraic(heat_dirichlet(8, 1.0), np.eye(8))


class TestConstructQ0:
    def test_scalar(self):
        nm = NormModel.identity(2)
        riesz = RieszMap.from_matrix(nm.w, nm)
        cand = construct_q0(-np.eye(2), riesz, nm)
        assert np.allclose(cand.q, np.eye(2) / 2.0, atol=1e-9)
        assert cand.is_member

    def test_theta_scaling_cancels(self):
        nm = NormModel.identity(2)
        riesz = RieszMap.from_matrix(2.0 * nm.w, nm)
        assert riesz.theta == pytest.approx(2.0)
        cand = construct_q0(-np.eye(2), riesz, nm)
        assert np.allclose(cand.q, np.eye(2) / 2.0, atol=1e-9)

    def test_heat_matches_algebraic(self):
        a = heat_dirichlet(8, 1.0)
        nm = NormModel.identity(8)
        cand = construct_q0(a, RieszMap.from_matrix(nm.w, nm), nm)
        q_alg = solve_algebraic(a, nm.w)
        gap = np.linalg.norm(cand.q - q_alg, "fro") / np.linalg.norm(q_alg, "fro")
        assert gap <= 1e-6
        assert cand.is_member

    def test_general_riesz_map_still_a_member(self):
        a = heat_dirichlet(6, 1.0)
        nm = NormModel.identity(6)
        p = random_psd(6, 99) + 0.5 * np.eye(6)
        cand = construct_q0(a, RieszMap.from_matrix(p, nm), nm)
        assert cand.is_member

    def test_unstable_rejected(self):
        nm = NormModel.identity(2)
        riesz = RieszMap.from_matrix(nm.w, nm)
        with pytest.raises(UnstableGeneratorError):
            construct_q0(jordan_block(2, 0.1), riesz, nm)

    @pytest.mark.parametrize("k", [-100, -1000])
    def test_slow_heat_generator_is_a_member(self, k):
        # the first samples of the growth-bound grid have |T(t)| = 1 up to
        # round-off; their rates once put the decay model below s(A)
        a = heat_dirichlet(16) * math.ldexp(1.0, k)
        nm = NormModel.identity(16)
        assert construct_q0(a, RieszMap.from_matrix(nm.w, nm), nm).is_member


class TestCertificate:
    def test_scalar_tight(self):
        nm = NormModel.identity(2)
        cand = membership_margin(np.eye(2) / 2.0, -np.eye(2), nm)
        cert = certificate(cand)
        assert cert.epsilon == pytest.approx(1.0)
        assert cert.overshoot == pytest.approx(1.0)
        assert cert.grid_pass
        assert cert.worst_ratio == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("a_coef", [0.5, 3.0])
    def test_scalar_rate(self, a_coef):
        nm = NormModel.identity(2)
        a = -a_coef * np.eye(2)
        cand = membership_margin(solve_algebraic(a, nm.w), a, nm)
        cert = certificate(cand)
        assert cert.epsilon == pytest.approx(a_coef, rel=1e-12)
        assert cert.overshoot == pytest.approx(1.0, rel=1e-12)

    def test_envelope_against_direct_norms(self):
        a = np.array([[-1.0, 4.0], [0.0, -2.0]], dtype=complex)
        nm = NormModel.identity(2)
        cand = membership_margin(solve_algebraic(a, nm.w), a, nm)
        cert = certificate(cand)
        assert cert.grid_pass
        assert cert.worst_ratio <= 1.0 + 1e-10
        for t in cert.t_grid[:: len(cert.t_grid) // 20]:
            direct = op_norm(expm(a, t), nm)
            assert direct <= cert.overshoot * math.exp(-cert.epsilon * t) * (1 + 1e-8)

    def test_rejects_non_member(self):
        nm = NormModel.identity(2)
        cand = membership_margin(np.eye(2) / 4.0, -np.eye(2), nm)
        with pytest.raises(NotAMemberError):
            certificate(cand)

    @pytest.mark.parametrize("weighted", [False, True], ids=["identity", "spd"])
    @pytest.mark.parametrize("family", ["heat", "upwind", "jordan", "random-stable"])
    def test_propagated_ratios_match_direct_expm(self, family, weighted, monkeypatch):
        """Every slice the certificate hands ``singular_extremes``, alone or in
        a stack, is a distinct propagated grid point, the slices total
        ``evaluated``, and each one's envelope ratio agrees with the
        direct-expm ratio to 1e-11 absolute (3e-13 seen)."""
        a, nm = _certificate_case(family, weighted)
        cand = membership_margin(solve_algebraic(a, nm.w), a, nm)
        seen = []

        def recording(m):
            seen.extend(np.array(m).reshape((-1,) + m.shape[-2:]))  # copies: the buffer is reused
            return singular_extremes(m)

        monkeypatch.setattr("stabcert.lyapunov.singular_extremes", recording)
        cert = certificate(cand)
        assert len(seen) == cert.evaluated >= 1
        index = {tw.tobytes(): k for k, tw in enumerate(_propagation(cert, a, nm))}
        assert len({index[m.tobytes()] for m in seen}) == cert.evaluated
        for m in seen:
            t = cert.t_grid[index[m.tobytes()]]
            envelope = cert.overshoot * math.exp(-cert.epsilon * t)
            direct = op_norm(expm(a, t), nm) / envelope
            assert abs(singular_extremes(m)[0] / envelope - direct) <= 1e-11, t

    @pytest.mark.parametrize("weighted", [False, True, "real"],
                             ids=["identity", "spd", "real-spd"])
    @pytest.mark.parametrize("family", ["heat", "upwind", "jordan", "random-stable",
                                        "jordan-complex"])
    def test_pruned_grid_matches_the_exhaustive_grid(self, family, weighted):
        """The pruned grid reports the worst ratio and time an SVD at every one
        of the 200 points gives, bit for bit, in the generator's own dtype."""
        a, nm = _certificate_case(family, weighted)
        cand = membership_margin(solve_algebraic(a, nm.w), a, nm)
        cert = certificate(cand)
        ratios = [singular_extremes(tw)[0] / (cert.overshoot * math.exp(-cert.epsilon * t))
                  for t, tw in zip(cert.t_grid, _propagation(cert, a, nm))]
        worst = int(np.argmax(ratios))
        assert cert.worst_ratio == ratios[worst]
        assert cert.worst_t == cert.t_grid[worst]
        assert cert.grid_pass == (ratios[worst] <= 1.0 + 1e-8)
        assert 1 <= cert.evaluated <= 200

    @settings(max_examples=40, deadline=None, database=None, derandomize=True)
    @given(family=st.sampled_from(["random-stable", "upwind", "jordan"]), n=st.integers(2, 8),
           scale=st.floats(0.5, 2.0), seed=st.integers(0, 2**31), weighted=st.booleans())
    def test_single_pass_matches_an_svd_at_every_point(self, family, n, scale, seed, weighted):
        """The single pass reports the worst ratio, its time and the verdict an
        SVD at every one of the 200 points gives, bit for bit."""
        a = {"random-stable": lambda: random_stable(n, scale, seed),
             "upwind": lambda: upwind_shift(n, scale),
             "jordan": lambda: jordan_block(n, -scale)}[family]()
        nm = (NormModel.from_weight(random_psd(n, seed) / n + np.eye(n)) if weighted
              else NormModel.identity(n))
        cert = certificate(membership_margin(solve_algebraic(a, nm.w), a, nm))
        ratios = [singular_extremes(tw)[0] / (cert.overshoot * math.exp(-cert.epsilon * t))
                  for t, tw in zip(cert.t_grid, _propagation(cert, a, nm))]
        worst = int(np.argmax(ratios))
        assert (cert.worst_ratio, cert.worst_t) == (ratios[worst], cert.t_grid[worst])
        assert cert.grid_pass == (ratios[worst] <= 1.0 + 1e-8)
        assert 1 <= cert.evaluated <= 200

    @pytest.mark.parametrize("a", [heat_dirichlet(4), heat_dirichlet(10),
                                   -np.diag([1.0, 2.0, 3.0])],
                             ids=["heat-4", "heat-10", "diagonal-3"])
    def test_the_earliest_time_wins_a_tie(self, a):
        """On x86-64 with OpenBLAS these grids reach their largest ratio at two
        or more points, bit for bit; ``worst_t`` is the earliest of them."""
        nm = NormModel.identity(a.shape[0])
        cert = certificate(membership_margin(solve_algebraic(a, nm.w), a, nm))
        ratios = [singular_extremes(tw)[0] / (cert.overshoot * math.exp(-cert.epsilon * t))
                  for t, tw in zip(cert.t_grid, _propagation(cert, a, nm))]
        assert cert.worst_t == cert.t_grid[ratios.index(max(ratios))]

    @pytest.mark.parametrize("depth", [1, 2])
    def test_the_earliest_time_wins_a_tie_in_small_blocks(self, depth, monkeypatch):
        """The tie grids of the test above in blocks of one point (each first
        SVD meets an earlier tie) and of two (heat-10's stacked SVDs come to a
        tied point before an earlier one)."""
        for a in (heat_dirichlet(4), heat_dirichlet(10), -np.diag([1.0, 2.0, 3.0])):
            monkeypatch.setattr(numkernel, "_GRID_BYTES", depth * a.nbytes)
            worst_t, earliest = _worst_and_earliest_time(a)
            assert worst_t == earliest, a.shape

    @settings(max_examples=40, deadline=None, database=None, derandomize=True)
    @given(family=st.sampled_from(["jordan-complex", "random-stable", "upwind", "heat"]),
           n=st.integers(2, 16), seed=st.integers(0, 2**31), weighted=st.booleans())
    def test_stacked_bounds_cover_every_computed_ratio(self, family, n, seed, weighted):
        """The block bounds b_k are at least the computed sigma_max / envelope
        at every one of the 200 points.  Every sum behind a bound adds at most
        n nonnegative terms, which in any order stays within (n - 1) eps of
        its exact value: stacking changes the order BLAS and numpy add them
        in, not that count, so 1 + 8 n eps still covers their rounding and
        the computed sigma_max's own error of a few eps.  The n 2^-537 covers
        the squares that underflow deep in the decay, as jordan(-0.5+1i)'s
        do by t = 10/eps."""
        a = {"jordan-complex": lambda: jordan_block(n, -0.5 + 1j),
             "random-stable": lambda: random_stable(n, 0.5, seed),
             "upwind": lambda: upwind_shift(n),
             "heat": lambda: heat_dirichlet(n)}[family]()
        nm = (NormModel.from_weight(random_psd(n, seed) / n + np.eye(n)) if weighted
              else NormModel.identity(n))
        cert = certificate(membership_margin(solve_algebraic(a, nm.w), a, nm))
        stack = np.stack(_propagation(cert, a, nm))
        envelopes = np.array([cert.overshoot * math.exp(-cert.epsilon * t) for t in cert.t_grid])
        bounds = _norm_bounds(stack, np.empty(stack.shape)) / envelopes
        sigma_max = np.array([singular_extremes(tw)[0] for tw in stack])
        assert np.all(bounds >= sigma_max / envelopes)

    @pytest.mark.parametrize("case", [("heat", False, 8), ("heat", False, 48),
                                      ("random-stable", True, 24), ("upwind", False, 32)],
                             ids=lambda c: f"{c[0]}-{'spd' if c[1] else 'identity'}-{c[2]}")
    def test_the_certificate_does_not_depend_on_the_cpu_count(self, monkeypatch, case):
        """For blocks of one point, three, or the default budget's, the
        certificate is the same on 1, 2, 3 or 64 CPUs, ``evaluated``
        included; only ``evaluated`` depends on the block depth."""
        family, weighted, n = case
        a, nm = _certificate_case(family, weighted, n)
        cand = membership_margin(solve_algebraic(a, nm.w), a, nm)
        matrix_bytes = whiten_operator(a, nm).nbytes
        certs = {}
        for depth in (1, 3, None):
            for cpus in (1, 2, 3, 64):
                monkeypatch.setattr(numkernel, "_cpu_count", lambda: cpus)
                if depth is not None:
                    monkeypatch.setattr(numkernel, "_GRID_BYTES", depth * matrix_bytes)
                certs[depth, cpus] = certificate(cand)
                monkeypatch.undo()
            assert all(certs[depth, cpus] == certs[depth, 1] for cpus in (2, 3, 64)), depth
        reference = certs[1, 1]
        for cert in certs.values():
            assert replace(cert, evaluated=reference.evaluated) == reference

    def test_one_point_blocks_take_the_time_order_count(self, monkeypatch):
        """With one point per block the rule is the time-order walk's: an SVD
        wherever the bound reaches the best ratio so far."""
        a, nm = upwind_shift(16), NormModel.identity(16)
        monkeypatch.setattr(numkernel, "_GRID_BYTES", 1)
        cert = certificate(membership_margin(solve_algebraic(a, nm.w), a, nm))
        assert cert.evaluated == 13


def _worst_and_earliest_time(a):
    """The certificate's ``worst_t`` and the earliest time of the largest
    ratio an SVD at every point gives, in the identity norm."""
    nm = NormModel.identity(a.shape[0])
    cert = certificate(membership_margin(solve_algebraic(a, nm.w), a, nm))
    ratios = [singular_extremes(tw)[0] / (cert.overshoot * math.exp(-cert.epsilon * t))
              for t, tw in zip(cert.t_grid, _propagation(cert, a, nm))]
    return cert.worst_t, cert.t_grid[ratios.index(max(ratios))]


def _certificate_case(family, weighted, n=64):
    a = {"heat": heat_dirichlet, "upwind": upwind_shift,
         "jordan": lambda n: jordan_block(n, -1.0),
         "jordan-complex": lambda n: jordan_block(n, -1.0 + 0.5j),
         "random-stable": lambda n: random_stable(n, 0.5, 3)}[family](n)
    if not weighted:
        return a, NormModel.identity(n)
    w = random_psd(n, 5) / n + np.eye(n)  # complex Hermitian: a complex whitened A
    return a, NormModel.from_weight(w.real if weighted == "real" else w)


def _propagation(cert, a, nm):
    """The certificate's 200 propagated points T_w(k delta), in the generator's dtype."""
    step = expm(whiten_operator(a, nm), cert.t_grid[1])
    points = [np.eye(a.shape[0], dtype=step.dtype)]
    while len(points) < len(cert.t_grid):
        points.append(step @ points[-1])
    return points


class TestScaleMember:
    def test_identity_scale(self):
        nm = NormModel.identity(2)
        cand = membership_margin(np.eye(2) / 2.0, -np.eye(2), nm)
        scaled = scale_member(cand, 1.0)
        assert np.allclose(scaled.q, cand.q)
        assert scaled.margin == pytest.approx(cand.margin, abs=1e-14)

    def test_scale_three(self):
        nm = NormModel.identity(2)
        cand = membership_margin(np.eye(2) / 2.0, -np.eye(2), nm)
        scaled = scale_member(cand, 3.0)
        assert np.allclose(scaled.q, 1.5 * np.eye(2))
        assert scaled.margin == pytest.approx(-2.0, abs=1e-12)
        assert scaled.q_norm == pytest.approx(3.0 * cand.q_norm, rel=1e-14)

    def test_downscaling_rejected_with_counterexample(self):
        nm = NormModel.identity(2)
        cand = membership_margin(np.eye(2) / 2.0, -np.eye(2), nm)
        with pytest.raises(ValueError, match="leaves the cone"):
            scale_member(cand, 0.5)
        # and the counterexample is real: I/4 has margin +1/2
        direct = membership_margin(np.eye(2) / 4.0, -np.eye(2), nm)
        assert direct.margin == pytest.approx(0.5, abs=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**31), c=st.floats(1.0, 50.0))
    def test_membership_preserved_and_margin_formula_exact(self, seed, c):
        a = random_stable(4, 0.5, seed)
        nm = NormModel.identity(4)
        cand = membership_margin(solve_algebraic(a, nm.w), a, nm)
        scaled = scale_member(cand, c)
        assert scaled.is_member
        direct = membership_margin(scaled.q, a, nm)
        assert scaled.margin == pytest.approx(direct.margin, abs=1e-9)


FAMILIES = {
    "heat16": lambda: heat_dirichlet(16, 1.0),
    "jordan5": lambda: jordan_block(5, -1.0),
    "random10": lambda: random_stable(10, 0.3, 1),
}


class TestPaperChainInvariants:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_datko_pairing_identity(self, family):
        """The square integral equals <Qx, x> exactly for the algebraic
        solution; quadrature must reproduce it to 1e-6 relative."""
        a = FAMILIES[family]()
        nm = NormModel.identity(a.shape[0])
        q = solve_algebraic(a, nm.w)
        for seed in range(5):
            x = random_vector(a.shape[0], 300 + seed)
            expected = pairing(q, x, x).real
            assert datko_integral(a, nm, x) == pytest.approx(expected, rel=1e-6)

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_integral_pairing_norm_chain(self, family):
        a = FAMILIES[family]()
        nm = NormModel.identity(a.shape[0])
        cand = membership_margin(solve_algebraic(a, nm.w), a, nm)
        for seed in range(5):
            x = random_vector(a.shape[0], 400 + seed)
            integral = datko_integral(a, nm, x)
            quad_form = pairing(cand.q, x, x).real
            assert integral <= quad_form * (1.0 + 1e-6)
            assert quad_form <= cand.q_norm * vec_norm(x, nm) ** 2 * (1.0 + 1e-12)

    def test_closedness_probe_on_dissipative_family(self):
        # heat is a contraction family, so even the boundary member
        # tolerates the +W/n perturbation for every n
        a = heat_dirichlet(8, 1.0)
        nm = NormModel.identity(8)
        base = membership_margin(solve_algebraic(a, nm.w), a, nm)
        drift = op_norm(a.conj().T @ nm.w + nm.w @ a, nm)
        for n in (1, 10, 100, 10_000, 1_000_000):
            probe = membership_margin(base.q + nm.w / n, a, nm)
            assert probe.is_member
            assert abs(probe.margin - base.margin) <= drift / n + 1e-12

    def test_closedness_probe_on_slack_member(self):
        # for a non-contraction family the probe needs interior slack
        a = random_stable(6, 0.5, 12)
        nm = NormModel.identity(6)
        base = scale_member(membership_margin(solve_algebraic(a, nm.w), a, nm), 2.0)
        drift = op_norm(a.conj().T @ nm.w + nm.w @ a, nm)
        margins = []
        for n in (1, 10, 100, 10_000, 1_000_000):
            probe = membership_margin(base.q + nm.w / n, a, nm)
            assert probe.is_member
            assert abs(probe.margin - base.margin) <= drift / n + 1e-12
            margins.append(probe.margin)
        assert margins[-1] == pytest.approx(base.margin, abs=1e-5)

    @pytest.mark.parametrize(
        "maker",
        [
            lambda: -1.5 * np.eye(3),
            lambda: ROTATION - 0.1 * np.eye(2),
            lambda: jordan_block(4, -1.0),
            lambda: heat_dirichlet(6, 1.0),
        ],
    )
    def test_strong_positivity_dominates_envelope_constant(self, maker):
        a = maker().astype(complex)
        nm = NormModel.identity(a.shape[0])
        cand = membership_margin(solve_algebraic(a, nm.w), a, nm)
        fit = lower_envelope(a, nm)
        assert fit.alpha > 0.0
        assert cand.theta >= fit.c**2 / (2.0 * fit.alpha) - 1e-8

    def test_q0_strong_positivity_yields_grid_witness(self):
        for maker in (lambda: heat_dirichlet(6, 1.0), lambda: random_stable(5, 0.5, 8)):
            a = maker()
            nm = NormModel.identity(a.shape[0])
            cand = construct_q0(a, RieszMap.from_matrix(nm.w, nm), nm)
            assert cand.theta > 0.0
            rate = dual_map_norm(nm.w, nm) / (2.0 * cand.theta)
            hit = envelope_witness_search(lower_envelope(a, nm, default_time_grid(a)), rate)
            assert hit is not None


class TestWeightedNorm:
    """The whole chain in a genuinely non-Euclidean norm model."""

    @staticmethod
    def _setup(seed=31):
        a = random_stable(5, 0.5, seed)
        w = random_psd(5, seed + 1) + np.eye(5)
        nm = NormModel.from_weight(w)
        return a, nm

    def test_algebraic_member_and_certificate(self):
        a, nm = self._setup()
        q = solve_algebraic(a, nm.w)
        cand = membership_margin(q, a, nm)
        assert cand.is_member
        cert = certificate(cand)
        assert cert.grid_pass
        for t in cert.t_grid[::40]:
            direct = op_norm(expm(a, t), nm)
            assert direct <= cert.overshoot * math.exp(-cert.epsilon * t) * (1 + 1e-8)

    def test_datko_identity_in_weighted_norm(self):
        a, nm = self._setup(57)
        q = solve_algebraic(a, nm.w)
        for seed in range(3):
            x = random_vector(5, 700 + seed)
            assert datko_integral(a, nm, x) == pytest.approx(
                pairing(q, x, x).real, rel=1e-6
            )

    def test_q0_matches_algebraic_in_weighted_norm(self):
        a, nm = self._setup(93)
        cand = construct_q0(a, RieszMap.from_matrix(nm.w, nm), nm)
        q_alg = solve_algebraic(a, nm.w)
        gap = np.linalg.norm(cand.q - q_alg, "fro") / np.linalg.norm(q_alg, "fro")
        assert gap <= 1e-6
        assert cand.is_member

    def test_envelope_strong_positivity_chain(self):
        a, nm = self._setup(111)
        cand = membership_margin(solve_algebraic(a, nm.w), a, nm)
        fit = lower_envelope(a, nm)
        assert fit.alpha > 0.0
        assert cand.theta >= fit.c**2 / (2.0 * fit.alpha) - 1e-8
