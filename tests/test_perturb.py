import math

import numpy as np
import pytest

from stabcert.lyapunov import certificate, membership_margin, solve_algebraic
from stabcert.models import SplitMix64, heat_dirichlet, random_hermitian, random_matrix
from stabcert.numkernel import hermitian_eig
from stabcert.perturb import (
    RadiusExceededError,
    admissible_radius,
    max_alpha,
    verify_perturbation,
)
from stabcert.space import NormModel, op_norm


def member_for(a, nm):
    return membership_margin(solve_algebraic(a, nm.w), a, nm)


class TestAdmissibleRadius:
    def test_examples(self):
        nm = NormModel.identity(2)
        cand = membership_margin(np.eye(2) / 2.0, -np.eye(2), nm)
        assert admissible_radius(cand, 2.0) == pytest.approx(0.5)
        assert admissible_radius(cand, 10.0) == pytest.approx(0.1)

    def test_quarter_norm_member(self):
        nm = NormModel.identity(2)
        cand = membership_margin(np.eye(2) / 4.0, -2.0 * np.eye(2), nm)
        assert cand.is_member
        assert admissible_radius(cand, 2.0) == pytest.approx(1.0)

    def test_rejects_alpha_at_most_one(self):
        nm = NormModel.identity(2)
        cand = membership_margin(np.eye(2) / 2.0, -np.eye(2), nm)
        with pytest.raises(ValueError):
            admissible_radius(cand, 1.0)

    @pytest.mark.parametrize("q_norm, alpha", [
        (0.5, 5e307),  # radius 2e-308, subnormal
        (0.5, 2.0 ** 1022 * 1.5),  # radius 2^-1022 / 1.5, just below the normal range
        (1e6, 1e303),  # 2 alpha |Q| overflows: radius 0
    ])
    def test_rejects_an_alpha_whose_radius_is_not_a_normal_float(self, q_norm, alpha):
        nm = NormModel.identity(2)
        cand = membership_margin(q_norm * np.eye(2), -np.eye(2) / (2.0 * q_norm), nm)
        with pytest.raises(ValueError, match="not a normal float"):
            admissible_radius(cand, alpha)
        # the infinite alpha that max_alpha gives B = 0 keeps its radius 0
        assert admissible_radius(cand, math.inf) == 0.0


class TestVerifyPerturbation:
    def test_zero_perturbation(self):
        nm = NormModel.identity(2)
        cand = membership_margin(np.eye(2) / 2.0, -np.eye(2), nm)
        rep = verify_perturbation(cand, np.zeros((2, 2)), 2.0)
        # the form keeps the full -|x|^2 and only (alpha-1)/alpha is added back
        assert rep.margin_after == pytest.approx(-0.5, abs=1e-12)
        assert rep.rescaled_member

    def test_nilpotent_perturbation_at_the_radius(self):
        a = -np.eye(2)
        nm = NormModel.identity(2)
        cand = membership_margin(np.eye(2) / 2.0, a, nm)
        b = np.array([[0.0, 0.5], [0.0, 0.0]])
        rep = verify_perturbation(cand, b, 2.0)
        assert rep.b_norm == pytest.approx(0.5, rel=1e-14)
        assert rep.radius == pytest.approx(0.5)
        # eigenvalue oracle: (A+B)* Q + Q (A+B) = -I + [[0, 1/4], [1/4, 0]]
        lam = hermitian_eig(-np.eye(2) + np.array([[0.0, 0.25], [0.25, 0.0]]))
        assert lam[-1] == pytest.approx(-0.75, abs=1e-14)
        assert rep.margin_after == pytest.approx(lam[-1] + 0.5, abs=1e-12)
        assert rep.rescaled_member

    def test_beyond_radius_rejected(self):
        a = -np.eye(2)
        nm = NormModel.identity(2)
        cand = membership_margin(np.eye(2) / 2.0, a, nm)
        with pytest.raises(RadiusExceededError) as excinfo:
            verify_perturbation(cand, np.eye(2), 2.0)
        assert excinfo.value.excess == pytest.approx(0.5, rel=1e-12)

    def test_margin_shift_identity_in_alpha(self):
        """For fixed admissible B the alpha dependence is an exact shift:
        margin_after(a2) - margin_after(a1) = 1/a1 - 1/a2, so the margin
        grows with alpha yet stays nonpositive at every admissible alpha."""
        a = heat_dirichlet(6, 1.0)
        nm = NormModel.identity(6)
        cand = member_for(a, nm)
        b = random_hermitian(6, 5)
        b = b * (admissible_radius(cand, 10.0) / op_norm(b, nm))
        alphas = (1.5, 2.0, 4.0, 10.0)
        margins = [
            verify_perturbation(cand, b, alpha).margin_after
            for alpha in alphas
        ]
        for (a1, m1), (a2, m2) in zip(zip(alphas, margins), zip(alphas[1:], margins[1:])):
            assert m2 - m1 == pytest.approx(1.0 / a1 - 1.0 / a2, abs=1e-12)
        assert all(m <= 1e-9 for m in margins)

    def test_randomized_suite_at_the_radius(self):
        a = heat_dirichlet(8, 1.0)
        nm = NormModel.identity(8)
        cand = member_for(a, nm)
        rng = SplitMix64(2024)
        for alpha in (1.5, 2.0):
            radius = admissible_radius(cand, alpha)
            for trial in range(15):
                raw = random_hermitian(8, rng) if trial % 2 else random_matrix(8, rng)
                b = raw * (radius / op_norm(raw, nm))
                rep = verify_perturbation(cand, b, alpha)
                assert rep.margin_after <= 1e-9
                assert rep.rescaled_member


class TestMaxAlpha:
    def test_closed_form(self):
        nm = NormModel.identity(2)
        cand = membership_margin(np.eye(2) / 2.0, -np.eye(2), nm)
        b = np.diag([0.25, 0.25])
        best = max_alpha(cand, b)
        assert best.alpha == pytest.approx(4.0, rel=1e-12)
        assert best.decay == pytest.approx(0.75, rel=1e-12)

    def test_at_the_limit_no_alpha_exists(self):
        nm = NormModel.identity(2)
        cand = membership_margin(np.eye(2) / 2.0, -np.eye(2), nm)
        with pytest.raises(RadiusExceededError):
            max_alpha(cand, np.eye(2))

    def test_symmetric_flip_alpha_ten(self):
        nm = NormModel.identity(2)
        a = -np.eye(2)
        cand = membership_margin(np.eye(2) / 2.0, a, nm)
        b = 0.1 * np.array([[0.0, 1.0], [1.0, 0.0]])
        best = max_alpha(cand, b)
        assert best.alpha == pytest.approx(10.0, rel=1e-12)
        rep = verify_perturbation(cand, b, best.alpha - 1e-9)
        assert rep.margin_after <= 1e-9

    def test_zero_perturbation_gives_unbounded_alpha(self):
        nm = NormModel.identity(2)
        cand = membership_margin(np.eye(2) / 2.0, -np.eye(2), nm)
        best = max_alpha(cand, np.zeros((2, 2)))
        assert math.isinf(best.alpha)
        assert best.decay == 1.0

    @pytest.mark.parametrize("q_norm", [0.5, 1e6])
    @pytest.mark.parametrize("entry", [1e-310, 5e-324, 1e-300])
    def test_a_tiny_b_keeps_a_finite_alpha_whose_radius_covers_it(self, q_norm, entry):
        # alpha* = 1/(2 |B| |Q|) overflows, or 2 alpha* |Q| would: the radius
        # 1/(2 alpha |Q|) must stay above |B| for the one-B check to pass
        nm = NormModel.identity(2)
        cand = membership_margin(q_norm * np.eye(2), -np.eye(2) / (2.0 * q_norm), nm)
        b = np.diag([entry, 0.0])
        best = max_alpha(cand, b)
        assert 1.0 < best.alpha < math.inf and best.decay == 1.0
        assert admissible_radius(cand, best.alpha) >= np.finfo(float).tiny
        rep = verify_perturbation(cand, b, best.alpha)
        assert rep.b_norm <= rep.radius and rep.margin_after <= cand.tol
        assert rep.rescaled_member


class TestCertificateConsistency:
    def test_rescaled_chain_after_perturbation(self):
        """After a passing check, the rescaled member certifies A + B with
        the decay rate the rescaling predicts."""
        a = heat_dirichlet(6, 1.0)
        nm = NormModel.identity(6)
        cand = member_for(a, nm)
        rng = SplitMix64(77)
        for alpha in (2.0, 4.0):
            radius = admissible_radius(cand, alpha)
            raw = random_matrix(6, rng)
            b = raw * (radius / op_norm(raw, nm))
            rep = verify_perturbation(cand, b, alpha)
            assert rep.margin_after <= 1e-9 and rep.rescaled_member
            rescaled = membership_margin(
                (alpha / (alpha - 1.0)) * cand.q, a + b, nm
            )
            cert = certificate(rescaled)
            assert cert.grid_pass
            predicted = (alpha - 1.0) / (2.0 * alpha * cand.q_norm * (alpha / (alpha - 1.0)))
            assert cert.epsilon >= predicted * (1.0 - 1e-6)
