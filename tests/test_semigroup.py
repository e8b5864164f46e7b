import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabcert import numkernel, semigroup
from stabcert.models import (
    heat_dirichlet,
    jordan_block,
    random_psd,
    random_stable,
    random_vector,
    upwind_shift,
)
from stabcert.numkernel import (
    expm,
    gauss_legendre_nodes,
    hermitian_part,
    singular_extremes,
)
from stabcert.semigroup import (
    UnstableGeneratorError,
    certified_decay,
    datko_integral,
    default_time_grid,
    envelope_witness_search,
    gramian_quadrature,
    growth_bound_estimate,
    left_invertibility_witness,
    lower_envelope,
    spectral_bound,
)
from stabcert.space import NormModel, op_norm, vec_norm, whiten_operator

ROTATION = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)


def kron_lyapunov_oracle(a: np.ndarray) -> np.ndarray:
    """Independent dense Kronecker solve of A* Q + Q A = -I."""
    n = a.shape[0]
    eye = np.eye(n, dtype=complex)
    k = np.kron(eye, a.conj().T) + np.kron(a.T, eye)
    vec_q = np.linalg.solve(k, -eye.reshape(-1, order="F"))
    q = vec_q.reshape((n, n), order="F")
    return 0.5 * (q + q.conj().T)


class TestEvaluate:
    def test_time_zero(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(expm(a, 0.0), np.eye(2, dtype=complex))

    def test_scalar_decay(self):
        t = 1.3
        assert np.allclose(expm(-np.eye(3), t), np.exp(-t) * np.eye(3), rtol=1e-12)

    def test_rotation(self):
        t = 0.7
        expected = np.array(
            [[np.cos(t), np.sin(t)], [-np.sin(t), np.cos(t)]], dtype=complex
        )
        assert np.allclose(expm(ROTATION, t), expected, atol=1e-13)


class TestGrowthBound:
    def test_scalar_exact_at_every_grid_point(self):
        nm = NormModel.identity(2)
        grid = np.linspace(0.5, 10.0, 12)
        summary = growth_bound_estimate(-np.eye(2), nm, grid)
        assert summary.s == pytest.approx(-1.0, abs=1e-12)
        for t in grid:
            rate = math.log(op_norm(expm(-np.eye(2), t), nm)) / t
            assert rate == pytest.approx(-1.0, abs=1e-10)
        assert summary.omega0_hat == pytest.approx(-1.0, abs=1e-10)

    def test_diagonal_converges_to_spectral_bound(self):
        nm = NormModel.identity(2)
        a = np.diag([-1.0, -2.0])
        summary = growth_bound_estimate(a, nm, np.linspace(1.0, 60.0, 16))
        assert summary.s == pytest.approx(-1.0, abs=1e-12)
        assert summary.omega0_hat == pytest.approx(-1.0, abs=1e-2)
        assert summary.omega0_hat >= summary.s - 1e-9

    def test_nilpotent_shift_against_closed_form(self):
        # |T(t)| for [[0,1],[0,0]] has the closed form below; the grid
        # estimate must match it point by point and decrease toward s = 0
        nm = NormModel.identity(2)
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        grid = np.linspace(1.0, 40.0, 10)
        summary = growth_bound_estimate(a, nm, grid)
        assert summary.s == pytest.approx(0.0, abs=1e-12)
        rates = []
        for t in grid:
            sigma = math.sqrt((t * t + 2.0 + t * math.sqrt(t * t + 4.0)) / 2.0)
            assert op_norm(expm(a, t), nm) == pytest.approx(sigma, rel=1e-10)
            rates.append(math.log(sigma) / t)
        assert summary.omega0_hat == pytest.approx(min(rates), rel=1e-10)
        assert all(x > y for x, y in zip(rates, rates[1:]))
        assert summary.omega0_hat > 0.0

    def test_grid_validation(self):
        nm = NormModel.identity(2)
        with pytest.raises(ValueError):
            growth_bound_estimate(-np.eye(2), nm, [])
        with pytest.raises(ValueError):
            growth_bound_estimate(-np.eye(2), nm, [1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            growth_bound_estimate(-np.eye(2), nm, [0.0, 1, 2, 3, 4, 5, 6, 7])

    def test_underflowed_samples_are_skipped(self):
        # exp(-1000 t) is exactly 0.0 from t = 0.75 on; the estimate comes
        # from the samples that are still positive
        nm = NormModel.identity(2)
        summary = growth_bound_estimate(-1000.0 * np.eye(2), nm, np.linspace(0.1, 10.0, 8))
        assert summary.norms[0] > 0.0
        assert summary.norms[1:] == [0.0] * 7
        assert summary.omega0_hat == pytest.approx(-1000.0, rel=1e-12)

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(family=st.sampled_from(["heat", "upwind", "jordan", "random-stable"]),
           n=st.integers(2, 16), k=st.integers(-1000, 1000))
    def test_estimate_stays_at_the_spectral_bound_at_every_scale(self, family, n, k):
        # a sample with |T(t)| = 1 up to round-off has a rate of unknown sign,
        # which once put the estimate of a slow generator many |s| below s
        make = {"heat": heat_dirichlet, "upwind": upwind_shift,
                "jordan": lambda n: jordan_block(n, -1.0),
                "random-stable": lambda n: random_stable(n, 0.5, 7)}[family]
        a = make(n) * math.ldexp(1.0, k)
        summary = growth_bound_estimate(a, NormModel.identity(n), default_time_grid(a))
        assert summary.omega0_hat >= summary.s - 0.01 * abs(summary.s)

    def test_round_off_samples_alone_give_an_infinite_estimate(self):
        # exp(-t) rounds to 1.0 on this grid, so no sample has a rate
        grid = np.linspace(1e-18, 8e-18, 8)
        assert growth_bound_estimate(-np.eye(2), NormModel.identity(2), grid).omega0_hat == math.inf

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**31), n=st.integers(2, 6))
    def test_estimate_upper_bounds_spectral_bound(self, seed, n):
        a = random_stable(n, 0.4, seed)
        nm = NormModel.identity(n)
        summary = growth_bound_estimate(a, nm, default_time_grid(a))
        assert summary.omega0_hat >= summary.s - 1e-9


def _octave(grid: np.ndarray) -> int:
    """K, the points per octave of an octave-structured grid."""
    return int(np.flatnonzero(grid == 2.0 * grid[0])[0])


class TestDefaultTimeGrid:
    @pytest.mark.parametrize("a", [
        heat_dirichlet(8), heat_dirichlet(40), heat_dirichlet(128), upwind_shift(40),
        jordan_block(40, -1.0), jordan_block(8, -0.5 + 1j), random_stable(40, 0.5, 3),
    ], ids=["heat-n8", "heat-n40", "heat-n128", "upwind", "jordan", "jordan-complex",
            "random-stable"])
    def test_k_points_per_octave_end_at_the_horizon(self, a):
        eigs = np.linalg.eigvals(a)
        horizon = 20.0 / abs(float(np.max(eigs.real)))
        old_start = min(0.01, horizon / 1000.0, 1.0 / float(np.max(np.abs(eigs))))
        grid = default_time_grid(a)
        k = _octave(grid)
        assert grid.size == 64 and grid[-1] == horizon
        assert np.all(np.diff(grid) > 0.0)
        assert all(grid[j + k] == 2.0 * grid[j] for j in range(64 - k))
        # K is the largest count whose grid reaches down to the old start
        assert grid[0] <= old_start < horizon * 2.0 ** (-63 / (k + 1))

    def test_an_explicit_horizon_reaches_down_to_min_of_001_and_a_thousandth(self):
        for horizon, start in ((50.0, 0.01), (2.0, 0.002)):
            grid = default_time_grid(-np.eye(2), horizon=horizon)
            k = _octave(grid)
            assert grid[-1] == horizon
            assert grid[0] <= start < horizon * 2.0 ** (-63 / (k + 1))

    def test_a_range_beyond_63_octaves_takes_one_point_per_octave(self):
        # a horizon above 0.01 * 2^63 (that of A = -2e-16 I, say) spans more
        # than 63 octaves down to 0.01
        grid = default_time_grid(-np.eye(2), horizon=1e20)
        assert _octave(grid) == 1
        assert np.array_equal(grid, 1e20 * 2.0 ** np.arange(-63.0, 1.0))


class TestDatkoIntegral:
    def test_scalar(self):
        nm = NormModel.identity(2)
        x = np.array([3.0, 4.0])
        value = datko_integral(-np.eye(2), nm, x)
        assert value == pytest.approx(25.0 / 2.0, rel=1e-9)

    @pytest.mark.parametrize("a_coef", [0.5, 2.0])
    def test_scalar_rate(self, a_coef):
        nm = NormModel.identity(2)
        x = np.array([1.0, 1.0])
        value = datko_integral(-a_coef * np.eye(2), nm, x)
        assert value == pytest.approx(2.0 / (2.0 * a_coef), rel=1e-9)

    def test_upper_triangular_against_kronecker_oracle(self):
        a = np.array([[-1.0, 4.0], [0.0, -2.0]], dtype=complex)
        q = kron_lyapunov_oracle(a)
        nm = NormModel.identity(2)
        x = np.array([0.0, 1.0])
        expected = float(np.real(x.conj() @ q @ x))
        assert datko_integral(a, nm, x) == pytest.approx(expected, rel=1e-6)

    def test_divergence_error(self):
        nm = NormModel.identity(2)
        with pytest.raises(UnstableGeneratorError):
            datko_integral(np.diag([0.5, -1.0]), nm, np.array([1.0, 0.0]))

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**31), s=st.floats(0.1, 2.0))
    def test_additivity_split(self, seed, s):
        """int_0^inf = int_0^s + int over the propagated tail state."""
        a = random_stable(4, 0.6, seed)
        nm = NormModel.identity(4)
        x = random_vector(4, seed + 1)
        whole = datko_integral(a, nm, x)
        nodes, weights = gauss_legendre_nodes(s, 64)
        head = weights @ [vec_norm(expm(a, t) @ x, nm) ** 2 for t in nodes]
        tail = datko_integral(a, nm, expm(a, s) @ x)
        assert whole == pytest.approx(head + tail, rel=1e-6, abs=1e-10)


class TestLowerEnvelope:
    def test_scalar_family(self):
        nm = NormModel.identity(2)
        fit = lower_envelope(-2.0 * np.eye(2), nm)
        assert fit.c == pytest.approx(1.0, rel=1e-10)
        assert fit.alpha == pytest.approx(2.0, rel=1e-10)

    def test_unitary_group(self):
        nm = NormModel.identity(2)
        fit = lower_envelope(ROTATION, nm, t_grid=np.linspace(0.5, 20.0, 16))
        assert fit.c == pytest.approx(1.0, abs=1e-12)
        assert fit.alpha == pytest.approx(0.0, abs=1e-12)

    def test_upwind_brute_force_oracle(self):
        a = upwind_shift(8, 1.0, 1.0)
        nm = NormModel.identity(8)
        fit = lower_envelope(a, nm)
        for t, m in fit.grid:
            assert m == pytest.approx(singular_extremes(expm(a, t))[1], rel=1e-9)
            assert m >= fit.c * math.exp(-fit.alpha * t) * (1.0 - 1e-12)
        ms = [m for _, m in fit.grid]
        assert all(x > y for x, y in zip(ms, ms[1:]))

    def test_finite_dimensional_floor(self):
        a = jordan_block(5, -1.0)
        nm = NormModel.identity(5)
        nrm = op_norm(a, nm)
        fit = lower_envelope(a, nm)
        for t, m in fit.grid:
            assert m >= math.exp(-t * nrm) * (1.0 - 1e-9) - 1e-13

    def test_envelope_invariant_by_construction(self):
        for seed in range(5):
            a = random_stable(5, 0.5, seed)
            nm = NormModel.identity(5)
            fit = lower_envelope(a, nm)
            for t, m in fit.grid:
                assert m >= fit.c * math.exp(-fit.alpha * t) * (1.0 - 1e-12)


class TestLeftInvertibilityWitness:
    def test_scalar(self):
        nm = NormModel.identity(2)
        assert left_invertibility_witness(-np.eye(2), nm, 1.0) == pytest.approx(
            math.exp(-1.0), rel=1e-12
        )

    def test_rotation_is_isometric(self):
        nm = NormModel.identity(2)
        assert left_invertibility_witness(ROTATION, nm, 7.0) == pytest.approx(
            1.0, rel=1e-12
        )

    def test_jordan_against_polynomial_oracle(self):
        # T(2) for a 4x4 Jordan block at -1 in explicit polynomial form
        t0 = 2.0
        nilpotent_part = np.array(
            [
                [1.0, t0, t0**2 / 2.0, t0**3 / 6.0],
                [0.0, 1.0, t0, t0**2 / 2.0],
                [0.0, 0.0, 1.0, t0],
                [0.0, 0.0, 0.0, 1.0],
            ]
        )
        explicit = math.exp(-t0) * nilpotent_part
        expected = singular_extremes(explicit)[1]
        nm = NormModel.identity(4)
        m0 = left_invertibility_witness(jordan_block(4, -1.0), nm, t0)
        assert m0 == pytest.approx(expected, rel=1e-10)
        assert 0.0 < m0 < math.exp(-t0)

    def test_rejects_nonpositive_time(self):
        with pytest.raises(ValueError):
            left_invertibility_witness(-np.eye(2), NormModel.identity(2), 0.0)


class TestRefinementBehavior:
    def test_sigma_min_pointwise_decreasing_in_n(self):
        # the sound refinement statement: at any fixed time the
        # lower-bound function strictly degrades as cells are added
        for t in (0.5, 1.0, 3.0):
            values = [
                singular_extremes(expm(upwind_shift(n, 1.0, 1.0), t))[1]
                for n in (4, 8, 16)
            ]
            assert values[0] > values[1] > values[2]

    def test_fixed_rate_intercepts_decrease_in_n(self):
        # comparing envelope intercepts at one shared rate shows the
        # degradation that the per-model fits hide
        nm = {n: NormModel.identity(n) for n in (4, 8, 16)}
        grid = np.linspace(1.0, 10.0, 32)
        fits = {n: lower_envelope(upwind_shift(n, 1.0, 1.0), nm[n], grid) for n in nm}
        shared_rate = max(fit.alpha for fit in fits.values())
        intercepts = {}
        for n, fit in fits.items():
            intercepts[n] = min(
                m * math.exp(shared_rate * t) for t, m in fit.grid
            )
        assert intercepts[4] > intercepts[8] > intercepts[16]

    @pytest.mark.xfail(
        strict=True,
        reason="with the specified per-model fit the intercept c increases "
        "toward 1 as n grows (the h-fixed family converges to an "
        "isometry-like semigroup), so the claimed monotonicity fails; "
        "see the decisions ledger",
    )
    def test_fitted_c_nonincreasing_in_n_as_specified(self):
        cs = []
        grid = np.logspace(math.log10(0.01), math.log10(20.0), 64)
        for n in (4, 8, 16):
            fit = lower_envelope(upwind_shift(n, 1.0, 1.0), NormModel.identity(n), grid)
            cs.append(fit.c)
        assert cs[0] >= cs[1] >= cs[2]


class TestEnvelopeWitnessSearch:
    def test_scalar_equality_case(self):
        nm = NormModel.identity(2)
        grid = default_time_grid(-np.eye(2))
        hit = envelope_witness_search(lower_envelope(-np.eye(2), nm, grid), 1.0)
        assert hit is not None
        t0, m0 = hit
        assert t0 == pytest.approx(grid[0])
        assert m0 == pytest.approx(math.exp(-t0), rel=1e-10)

    def test_unreachable_rate_returns_none(self):
        nm = NormModel.identity(2)
        grid = np.linspace(1.0, 5.0, 8)
        assert envelope_witness_search(lower_envelope(-np.eye(2), nm, grid), 0.25) is None


def test_certified_decay_model_bounds_the_norms():
    for seed in range(3):
        a = random_stable(5, 0.4, seed)
        nm = NormModel.identity(5)
        s_hat, m_hat = certified_decay(a, nm)
        assert spectral_bound(a) < s_hat < 0.0
        for t in np.linspace(0.1, 30.0, 25):
            assert op_norm(expm(a, t), nm) <= m_hat * math.exp(s_hat * t) * (1 + 1e-9)


def _two_pass_certified_decay(a, nm, safety=2.0):
    """Reference: the growth-bound pass, then a second semigroup pass over
    the final grid for the peaks."""
    s = spectral_bound(a)
    horizon = 20.0 / abs(s)
    for _ in range(8):
        grid = default_time_grid(a, horizon=horizon)
        summary = growth_bound_estimate(a, nm, grid)
        if summary.omega0_hat <= 0.5 * s:
            break
        horizon *= 2.0
    s_hat = 0.5 * (s + summary.omega0_hat)
    peaks = [1.0]
    for t in grid:
        peaks.append(op_norm(expm(a, t), nm) * math.exp(-s_hat * t))
    return s_hat, safety * max(peaks)


@pytest.mark.parametrize("a, weight", [
    (heat_dirichlet(16), None),
    (upwind_shift(16), None),
    (jordan_block(16, -1.0), None),
    (random_stable(16, 0.5, 3), None),
    (upwind_shift(40), None),
    (jordan_block(40, -1.0), None),
    (jordan_block(16, -0.5 + 1j), None),
    (jordan_block(40, -1.0), random_psd(40, 11) / 40.0 + np.eye(40)),
], ids=["heat", "upwind", "jordan", "random-stable", "upwind-n40", "jordan-n40",
        "jordan-complex", "jordan-n40-spd"])
def test_certified_decay_reuses_the_growth_bound_samples(a, weight):
    """Bitwise against the reference, which samples the full grid of every
    horizon it tries; the n = 40 cases try 5 horizons."""
    n = a.shape[0]
    nm = NormModel.identity(n) if weight is None else NormModel.from_weight(weight)
    assert certified_decay(a, nm) == _two_pass_certified_decay(a, nm)


def test_certified_decay_samples_one_grid(monkeypatch):
    """One probe per horizon tried, then the 64-point grid of the passing
    one: upwind at n = 40 tries 5 horizons, whose grids hold 320 samples.
    Every sample comes through ``numkernel.expm_stacks``, which evaluates a
    Pade approximant (``numkernel._pade_exp``, one per time) wherever it
    cannot square an earlier sample: 37 times here, within the 64 + 7 of
    one grid and its probes."""
    counts = {"expm": 0, "growth_bound_estimate": 0}
    for module, name, key in ((numkernel, "_pade_exp", "expm"),
                              (semigroup, "growth_bound_estimate", "growth_bound_estimate")):
        original = getattr(module, name)

        def counting(*args, key=key, original=original):
            counts[key] += len(args[1]) if key == "expm" else 1
            return original(*args)

        monkeypatch.setattr(module, name, counting)
    certified_decay(upwind_shift(40), NormModel.identity(40))
    assert counts["growth_bound_estimate"] == 1
    assert counts["expm"] == 37


def test_certified_decay_past_underflow():
    """Upwind n=128 doubles its horizon until |T(t)| underflows to 0.0 and
    e^{-s_hat t} overflows; the model stays finite and bounds the norms."""
    a = upwind_shift(128)
    nm = NormModel.identity(128)
    s_hat, m_hat = certified_decay(a, nm)
    assert spectral_bound(a) < s_hat < 0.0
    assert math.isfinite(m_hat)
    for t in (1.0, 100.0, 400.0):
        assert op_norm(expm(a, t), nm) <= m_hat * math.exp(s_hat * t)


def test_certified_decay_in_a_weighted_norm_bounds_the_norms():
    """The growth-bound samples reach |T(t)| ~ 1e-30 and below; whitening A
    once before the exponential would inflate them to round-off there and
    overflow m_hat, so each T(t) is whitened instead."""
    a = jordan_block(64, -1.0)
    nm = NormModel.from_weight(random_psd(64, 11) / 64.0 + np.eye(64))
    s_hat, m_hat = certified_decay(a, nm)
    assert spectral_bound(a) < s_hat < 0.0
    assert m_hat < 1e60
    for t in (1.0, 30.0, 200.0):
        assert op_norm(expm(a, t), nm) <= m_hat * math.exp(s_hat * t)


def _panel_loop_gramian(a, weight, t_max, panels):
    """Reference: the panel-by-panel sum the Smith doubling replaced."""
    nodes, weights = gauss_legendre_nodes(t_max / panels, 1)
    panel = sum(w * (expm(a, t).conj().T @ weight @ expm(a, t)) for t, w in zip(nodes, weights))
    step = expm(a, t_max / panels)
    acc, g = 0.0, np.eye(a.shape[0], dtype=complex)
    for _ in range(panels):
        acc = acc + g.conj().T @ hermitian_part(panel) @ g
        g = step @ g
    return hermitian_part(acc)


GRAMIAN_FAMILIES = {
    "heat": heat_dirichlet(64, 1.0),
    "upwind": upwind_shift(64),
    "jordan": jordan_block(64, -1.0),
    "random-stable": random_stable(64, 0.5, 3),
}


@pytest.mark.parametrize("weighted", [False, True], ids=["identity", "spd"])
@pytest.mark.parametrize("family", sorted(GRAMIAN_FAMILIES))
def test_gramian_doubling_matches_the_panel_loop(family, weighted):
    """Doubling and the panel loop sum the same panels in another order, so
    they agree to 1e-12 relative Frobenius (2.4e-14 seen)."""
    a = GRAMIAN_FAMILIES[family].astype(complex)
    weight = random_psd(64, 5) / 64.0 + np.eye(64) if weighted else np.eye(64, dtype=complex)
    t_max = 10.0 / abs(spectral_bound(a))
    for panels in (1, 2, 3, 64, 65, 1000):
        ref = _panel_loop_gramian(a, weight, t_max, panels)
        got = gramian_quadrature(a, weight, t_max, panels)
        assert np.array_equal(got, got.conj().T)
        assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref), panels


def _per_node_gramian(a, weight, t_max, panels):
    """Reference: ``gramian_quadrature`` with one ``expm`` per node and one
    for the panel step."""
    nodes, weights = gauss_legendre_nodes(t_max / panels, 1)
    x = 0.0
    for t, w in zip(nodes, weights):
        e = expm(a, float(t))
        x = x + w * (e.conj().T @ weight @ e)
    x, power, total = hermitian_part(x), expm(a, t_max / panels), None
    while True:
        if panels & 1:
            total = x if total is None else x + power.conj().T @ total @ power
        panels >>= 1
        if not panels:
            return hermitian_part(total)
        x = x + power.conj().T @ x @ power
        power = power @ power


@pytest.mark.parametrize("family", sorted(GRAMIAN_FAMILIES))
def test_gramian_nodes_are_bitwise_expm(family):
    """The five nodes and the panel step come from one ``expm_grid`` walk;
    with |h A|_1 > theta_13 the step squares the middle node, h/2."""
    a = GRAMIAN_FAMILIES[family][:16, :16]
    weight = random_psd(16, 5) / 16.0 + np.eye(16)
    for t_max, panels in ((1.0, 1), (40.0, 3), (400.0, 64)):
        got = gramian_quadrature(a, weight, t_max, panels)
        assert np.array_equal(got, _per_node_gramian(a, weight, t_max, panels)), (t_max, panels)


GRID_CASES = {
    "heat": (lambda n: heat_dirichlet(n), False),
    "upwind": (upwind_shift, False),
    "jordan-complex": (lambda n: jordan_block(n, -0.5 + 1j), False),
    "random-stable-spd": (lambda n: random_stable(n, 0.5, 3), True),
}


@pytest.mark.parametrize("n", [8, 48])
@pytest.mark.parametrize("case", sorted(GRID_CASES))
def test_grid_singular_values_equal_a_per_sample_reference(monkeypatch, case, n):
    """The growth bound's |T(t)| and the envelope's sigma_min samples, taken
    from stacked SVDs on 1 to 3 CPUs over stacks of one sample, five, or the
    default budget's, are bit for bit one ``expm`` and one SVD per sample."""
    make, weighted = GRID_CASES[case]
    a = make(n)
    nm = NormModel.from_weight(random_psd(n, 11) / n + np.eye(n)) if weighted \
        else NormModel.identity(n)
    grid = default_time_grid(a)
    norms = [op_norm(expm(a, t), nm) for t in grid]
    a_w = whiten_operator(a, nm)
    samples = []
    for t in grid:
        sigma_max, sigma_min = singular_extremes(expm(a_w, t))
        if sigma_min <= math.sqrt(np.finfo(float).eps) * sigma_max:
            break
        samples.append((float(t), sigma_min))
    for depth in (1, 5, None):
        for cpus in (1, 2, 3):
            monkeypatch.setattr(numkernel, "_cpu_count", lambda: cpus)
            if depth is not None:
                monkeypatch.setattr(numkernel, "_GRID_BYTES", depth * a.nbytes)
            summary = growth_bound_estimate(a, nm, grid)
            assert summary.norms == norms, (depth, cpus)
            assert summary.omega0_hat == min(math.log(v) / t for v, t in zip(norms, grid) if v > 0.0)
            assert lower_envelope(a, nm).grid == samples, (depth, cpus)
            monkeypatch.undo()
