import cmath
import math
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from stabcert import numkernel
from stabcert.numkernel import (
    NonHermitianError,
    SingularMatrixError,
    as_matrix,
    expm,
    expm_grid,
    expm_stacks,
    gauss_legendre_nodes,
    hermitian_eig,
    hermitian_gate,
    hermitian_part,
    singular_extremes,
    run_on_cpus,
    singularity_gate,
    solve_linear,
)
from stabcert.lyapunov import solve_algebraic
from stabcert.models import (
    heat_dirichlet,
    jordan_block,
    random_hermitian,
    random_matrix,
    random_psd,
    random_stable,
    upwind_shift,
)
from stabcert.semigroup import default_time_grid
from stabcert.space import NormModel, whiten_operator


class TestExpm:
    def test_t_zero_is_exact_identity(self):
        a = np.array([[3.0, -2.0], [7.0, 1.0]])
        assert np.array_equal(expm(a, 0.0), np.eye(2, dtype=complex))

    def test_diagonal(self):
        a = np.diag([-1.0, -2.0])
        expected = np.diag([np.exp(-1.0), np.exp(-2.0)])
        assert np.allclose(expm(a, 1.0), expected, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("t", [0.1, 0.5, 2.0, 7.0])
    def test_nilpotent_series_terminates(self, t):
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        expected = np.array([[1.0, t], [0.0, 1.0]])
        assert np.allclose(expm(a, t), expected, rtol=1e-14, atol=1e-14)

    def test_against_scipy_on_random_stable(self):
        for seed in range(5):
            a = random_stable(6, 0.5, seed)
            for t in (0.3, 1.7, 4.0):
                ours = expm(a, t)
                ref = scipy.linalg.expm(a * t)
                assert np.linalg.norm(ours - ref, 2) <= 1e-11 * np.linalg.norm(ref, 2)

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            expm(np.eye(2), -1.0)

    def test_rejects_nonsquare_and_nonfinite(self):
        with pytest.raises(ValueError):
            expm(np.ones((2, 3)), 1.0)
        with pytest.raises(ValueError):
            expm(np.array([[np.nan, 0], [0, 1]]), 1.0)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**31),
        n=st.integers(2, 6),
        s=st.floats(0.0, 5.0),
        t=st.floats(0.0, 5.0),
    )
    def test_semigroup_law(self, seed, n, s, t):
        a = random_stable(n, 0.5, seed)
        ts, tt, tst = expm(a, s), expm(a, t), expm(a, s + t)
        slack = 10 * 1e-12 * (
            np.linalg.norm(ts, 2) * np.linalg.norm(tt, 2) + np.linalg.norm(tst, 2) + 1.0
        )
        assert np.linalg.norm(ts @ tt - tst, 2) <= slack


_FAMILIES = {
    "heat": heat_dirichlet,
    "upwind": upwind_shift,
    "jordan": lambda n: jordan_block(n, -1.0),
    "random-stable": lambda n: random_stable(n, 0.5, 3),
}
_U = float(np.finfo(np.float64).eps)


class TestPadeKernel:
    @pytest.mark.parametrize("n", [8, 48, 150, 256])
    @pytest.mark.parametrize("family", sorted(_FAMILIES))
    def test_against_scipy_over_six_decades_of_t(self, family, n):
        # Both kernels are backward stable, and the relative condition
        # number of exp at tA is about t|A| (exactly t|A|_2 for normal A),
        # so either may be off by a few u max(1, t|A|_1) relative; allow
        # 100 of them in the 2-norm.  Where e^{tA} underflows to 0 (heat at
        # large t) the floor is the smallest normal double.
        a = _FAMILIES[family](n)
        a_norm = np.linalg.norm(a, 1)
        for t in np.logspace(-3.0, 3.0, 7):
            ref = scipy.linalg.expm(a * t)
            bound = 100.0 * _U * max(1.0, t * a_norm) * np.linalg.norm(ref, 2)
            assert np.linalg.norm(expm(a, t) - ref, 2) <= max(bound, np.finfo(np.float64).tiny), t

    @pytest.mark.parametrize("n", [32, 128])
    def test_upwind_against_the_analytic_semigroup(self, n):
        # A = S - I with S the lower shift: T(t) = e^{-t} sum_k t^k S^k / k!,
        # whose k-th subdiagonal is e^{-t + k log t - lgamma(k + 1)}.  Both
        # sides are scaled by the same power of two before the norm so the
        # SVD never sees values near the underflow threshold.
        a = upwind_shift(n)
        for t in (0.5, 10.0, 100.0, 200.0, 400.0, 800.0):
            diagonals = [math.exp(-t + k * math.log(t) - math.lgamma(k + 1)) for k in range(n)]
            exact = sum(np.diag(np.full(n - k, d), -k) for k, d in enumerate(diagonals))
            shift = -math.frexp(max(diagonals))[1]
            ref = np.linalg.norm(exact * 2.0 ** shift, 2)
            ours = np.linalg.norm(expm(a, t) * 2.0 ** shift, 2)
            assert abs(ours - ref) <= 1e-12 * ref, (t, ours, ref)

    @pytest.mark.parametrize("degree", [3, 5, 7, 9, 13])
    def test_each_pade_degree_at_the_edge_of_its_range(self, degree):
        # |X|_1 just inside theta_m selects degree m unscaled, where the
        # approximant must already be exact to the unit roundoff; one
        # degree lower would be off by far more than the bounds here.
        theta = numkernel._PADE_THETA[degree]
        for x in (0.999 * theta, -0.999 * theta, 0.999j * theta):
            got = expm(np.array([[x]]), 1.0)[0, 0]
            # exp's relative condition number at x is |x|
            assert abs(got - cmath.exp(x)) <= 4.0 * _U * max(1.0, abs(x)) * abs(cmath.exp(x)), x
        b = random_matrix(6, degree)
        b *= 0.999 * theta / np.linalg.norm(b, 1)
        ref = scipy.linalg.expm(b)
        assert np.linalg.norm(expm(b, 1.0) - ref, 2) <= 50.0 * _U * np.linalg.norm(ref, 2)

    @pytest.mark.parametrize("t", [1e-3, 1.0, 1e3])
    def test_zero_matrix_gives_the_exact_identity(self, t):
        assert np.array_equal(expm(np.zeros((5, 5)), t), np.eye(5, dtype=complex))


def _grid_generator(family: str, n: int) -> np.ndarray:
    """A generator whose default time grid ``expm_grid`` walks; the weighted
    case is the whitened operator ``lower_envelope`` exponentiates."""
    if family == "random-stable-spd":
        nm = NormModel.from_weight(random_psd(n, 11) / n + np.eye(n))
        return whiten_operator(random_stable(n, 0.5, 3), nm)
    return {"heat": heat_dirichlet(n), "upwind": upwind_shift(n),
            "jordan": jordan_block(n, -1.0), "jordan-complex": jordan_block(n, -0.5 + 1j),
            "random-stable": random_stable(n, 0.5, 3)}[family]


class TestExpmGrid:
    @pytest.mark.parametrize("n", [8, 40])
    @pytest.mark.parametrize("family", ["heat", "upwind", "jordan", "jordan-complex",
                                        "random-stable", "random-stable-spd"])
    def test_every_default_grid_sample_is_bitwise_expm(self, family, n):
        a = _grid_generator(family, n)
        grid = default_time_grid(a)
        samples = list(expm_grid(a, grid))
        assert len(samples) == grid.size == 64
        for t, e in zip(grid, samples):
            assert np.array_equal(e, expm(a, t))

    def _counting_expm(self, monkeypatch):
        """The times of every Pade approximant the kernel evaluates, in order."""
        calls, original = [], numkernel._pade_exp

        def counting(m, ts, degree, squarings):
            calls.extend(ts.tolist())
            return original(m, ts, degree, squarings)

        monkeypatch.setattr(numkernel, "_pade_exp", counting)
        return calls

    def test_a_logspace_grid_takes_one_expm_per_point(self, monkeypatch):
        calls = self._counting_expm(monkeypatch)
        grid = np.logspace(math.log10(0.01), math.log10(20.0), 64)
        list(expm_grid(upwind_shift(8), grid))
        assert calls == list(grid)

    def test_only_samples_below_theta_13_take_expm(self, monkeypatch):
        # a point squares its half exactly when |t A|_1 > theta_13
        a = heat_dirichlet(40)
        grid = default_time_grid(a)
        calls = self._counting_expm(monkeypatch)
        list(expm_grid(a, grid))
        theta = numkernel._PADE_THETA[13]
        k = int(np.flatnonzero(grid == 2.0 * grid[0])[0])
        assert calls == [t for j, t in enumerate(grid)
                         if j < k or np.linalg.norm(a * t, 1) <= theta]
        assert len(calls) == 18

    @pytest.mark.parametrize("family", ["upwind", "heat", "jordan-complex"])
    @pytest.mark.parametrize("depth", [1, 4, None])  # None: the default budget
    def test_a_walk_stays_within_its_byte_budget(self, family, depth):
        # stacks of consecutive samples, none above the budget; while they
        # are walked, the samples of one octave (K per octave) and the stack
        # in hand stay alive, plus the Pade working set of one stack.  With a
        # one-sample budget, a walk that kept the grid (64 samples) fails it
        a = _grid_generator(family, 40)
        grid = default_time_grid(a)
        k = int(np.flatnonzero(grid == 2.0 * grid[0])[0])
        budget = numkernel._GRID_BYTES if depth is None else depth * a.nbytes
        with mock.patch.object(numkernel, "_GRID_BYTES", budget):
            tracemalloc.start()
            try:
                sizes = []
                for stack in expm_stacks(a, grid):
                    sizes.append(len(stack))
                    del stack
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        most = max(budget // a.nbytes, 1)
        assert sum(sizes) == 64 and max(sizes) == most and set(sizes[:-1]) == {most}
        assert peak <= (k + 1 + 12 * most) * a.nbytes

    def test_the_desk_scale_limit_walks_one_sample_at_a_time(self):
        # at n = 256 one real matrix fills the default budget
        stacks = expm_stacks(upwind_shift(256), [0.01, 0.02, 0.04, 0.08])
        assert [len(stack) for stack in stacks] == [1, 1, 1, 1]

    @settings(max_examples=60, deadline=None, database=None, derandomize=True)
    @given(family=st.sampled_from(["jordan-complex", "random-stable-spd", "upwind", "heat"]),
           n=st.integers(2, 12),
           times=st.lists(st.tuples(st.floats(1e-3, 40.0), st.integers(0, 4)),
                          min_size=1, max_size=12),
           depth=st.sampled_from([1, 3, None]))
    def test_every_sample_is_bitwise_expm(self, family, n, times, depth):
        # an increasing grid where t, 2t, ..., 2^d t are exact doubles of each
        # base time t, walked in stacks of 1, 3 or the default budget's samples
        a = _grid_generator(family, n)
        grid = np.unique([math.ldexp(t, j) for t, d in times for j in range(d + 1)])
        budget = numkernel._GRID_BYTES if depth is None else depth * a.nbytes
        with mock.patch.object(numkernel, "_GRID_BYTES", budget):
            samples = list(expm_grid(a, grid))
        assert len(samples) == grid.size
        for t, e in zip(grid, samples):
            assert e.dtype == a.dtype and np.array_equal(e, expm(a, t))


class TestRunOnCpus:
    @staticmethod
    def calls(count, order, depth=None, cpus=2):
        """The (start, stop, thread) of every call, in the order they ran."""
        seen = []
        with mock.patch.object(numkernel, "_cpu_count", lambda: cpus):
            run_on_cpus(lambda start, stop: seen.append((start, stop, threading.current_thread())),
                        count, order, depth)
        return seen

    @pytest.mark.parametrize("count, order, depth, cpus, slices, threads", [
        (64, 48, None, 2, [(0, 32), (32, 64)], 2),  # one run per CPU, 32 x 48 > 500
        (20, 48, None, 2, [(0, 20)], 1),  # two runs of 10 would hold the GIL
        (8, 8, None, 3, [(0, 8)], 1),
        (0, 8, None, 2, [], 0),
        # five calls of at most 64 round up to six, three per CPU
        (300, 16, 64, 2, [(0, 50), (50, 100), (100, 150), (150, 200), (200, 250),
                          (250, 300)], 2),
        # ten even calls of 30 would hold the GIL (30 x 16 < 500), so each
        # takes 32 and the last 12 runs on the calling thread after its run
        (300, 16, 1, 2, [(0, 32), (32, 64), (64, 96), (96, 128), (128, 160), (160, 192),
                         (192, 224), (224, 256), (256, 288), (288, 300)], 2),
        (312, 8, 256, 2, [(0, 156), (156, 312)], 2),  # the n = 8 strip
        (312, 8, 256, 1, [(0, 156), (156, 312)], 1),
        (73, 16, 64, 2, [(0, 37), (37, 73)], 2),  # the n = 16 right scan
        (0, 16, 64, 2, [], 0),
    ])
    def test_runs_cover_the_count_in_calls_deep_enough_to_split(
            self, count, order, depth, cpus, slices, threads):
        seen = self.calls(count, order, depth, cpus)
        assert sorted(call[:2] for call in seen) == slices
        assert len({call[2] for call in seen}) == threads
        if seen:
            assert threading.current_thread() in {call[2] for call in seen}

    def test_the_earliest_failed_run_raises_after_every_run_ends(self):
        # four runs of one 8-deep call at n = 64: the calling thread's passes,
        # runs 1 and 3 fail on workers, and run 2 is still going when they do
        ended, threads = [], threading.active_count()

        def work(start, stop):
            if start == 16:
                threading.Event().wait(0.05)
            ended.append(start)
            if start in (8, 24):
                raise ValueError(start)

        with mock.patch.object(numkernel, "_cpu_count", lambda: 4):
            with pytest.raises(ValueError) as excinfo:
                run_on_cpus(work, 32, 64, 8)
        assert excinfo.value.args == (8,)
        assert sorted(ended) == [0, 8, 16, 24] and threading.active_count() == threads


class TestHermitianEig:
    def test_identity(self):
        w, v = hermitian_eig(np.eye(3))
        assert np.allclose(w, [1.0, 1.0, 1.0])
        assert np.allclose(v @ v.conj().T, np.eye(3), atol=1e-12)

    def test_rank_one_shift(self):
        w, _ = hermitian_eig(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert np.allclose(w, [1.0, 3.0], atol=1e-12)

    def test_diagonal_ascending(self):
        w, _ = hermitian_eig(np.diag([3.0, -1.0]))
        assert np.allclose(w, [-1.0, 3.0], atol=1e-14)

    def test_reconstruction_residual_on_100_random(self):
        sizes = [2, 3, 5, 8, 13, 21, 34, 55, 64]
        for i in range(100):
            n = sizes[i % len(sizes)]
            h = random_hermitian(n, 1000 + i)
            w, v = hermitian_eig(h)
            scale = max(np.linalg.norm(h, 2), 1e-300)
            assert np.linalg.norm(h - (v * w) @ v.conj().T, 2) <= 1e-9 * scale

    @pytest.mark.parametrize("depth", [5, 3], ids=["k=n", "k!=n"])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_a_stack_is_its_slices_bit_for_bit(self, depth, dtype):
        # not Hermitian: each slice's Hermitian part is decomposed
        stack = np.stack([random_matrix(5, 60 + k) for k in range(depth)])
        stack = stack.real.copy() if dtype is float else stack
        w, v = hermitian_eig(stack)
        for k, m in enumerate(stack):
            wk, vk = hermitian_eig(m)
            assert np.array_equal(w[k], wk) and np.array_equal(v[k], vk)

    def test_rejects_plainly_nonhermitian(self):
        # hermitian_eig tests no claim: it solves the Hermitian part, and the
        # claim is refused by the gate alone
        m = np.array([[0.0, 1.0], [0.0, 0.0]])
        w, v = hermitian_eig(m)
        assert np.array_equal(w, [-0.5, 0.5])
        assert np.allclose((v * w) @ v.conj().T, [[0.0, 0.5], [0.5, 0.0]], atol=1e-15)
        with pytest.raises(NonHermitianError):
            hermitian_gate(m)


class TestHermitianGate:
    def test_returns_the_hermitian_part_of_round_off_drift(self):
        h = random_hermitian(6, 5)
        drifted = h.copy()
        drifted[0, 1] += 1e-15
        out = hermitian_gate(drifted)
        assert np.array_equal(out, out.conj().T)
        assert np.allclose(out, h, atol=1e-14)

    def test_rejects_asymmetry_beyond_tolerance_and_names_the_input(self):
        with pytest.raises(NonHermitianError, match="weight is not Hermitian"):
            hermitian_gate(np.array([[1.0, 1e-6], [0.0, 1.0]]), "weight")

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**31), n=st.integers(2, 8), k=st.integers(-900, 900),
           real=st.booleans())
    def test_the_decision_is_exact_at_every_scale(self, seed, n, k, real):
        h, m = random_hermitian(n, seed), random_matrix(n, seed + 1)
        if real:
            h, m = h.real, m.real
        assert np.linalg.norm(m - m.conj().T) > 1e-12 * np.linalg.norm(m)
        assert np.array_equal(hermitian_gate(2.0 ** k * h), 2.0 ** k * hermitian_gate(h))
        with pytest.raises(NonHermitianError):
            hermitian_gate(2.0 ** k * m)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale", [1e-300, 1e-200, 1e200, 1e300])
    def test_neither_norm_overflows_or_underflows(self, scale):
        with pytest.raises(NonHermitianError, match="asymmetry 4.714e-01 of its Frobenius"):
            hermitian_gate(scale * np.array([[1.0, 0.0], [0.5, 1.0]]))
        assert np.array_equal(hermitian_gate(scale * np.eye(2)), scale * np.eye(2))
        assert np.array_equal(hermitian_gate(np.zeros((2, 2))), np.zeros((2, 2)))


class TestHermitianPart:
    @pytest.mark.filterwarnings("error")
    def test_halves_before_the_sum_so_no_finite_matrix_overflows(self):
        assert np.array_equal(hermitian_part(np.full((2, 2), 1.5e308)), np.full((2, 2), 1.5e308))

    @pytest.mark.parametrize("seed", range(5))
    def test_same_bits_as_the_sum_halved_in_the_normal_range(self, seed):
        m = random_matrix(7, seed)
        assert np.array_equal(hermitian_part(m), 0.5 * (m + m.conj().T))

    @pytest.mark.parametrize("depth", [4, 3], ids=["k=n", "k!=n"])
    def test_a_stack_is_its_slices_bit_for_bit(self, depth):
        # the transpose swaps the last two axes only: a reversal of all three
        # mixes the slices of a 4x4x4 stack and fails to broadcast on 3x4x4
        stack = np.stack([random_matrix(4, 40 + k) for k in range(depth)])
        assert np.array_equal(hermitian_part(stack), [hermitian_part(m) for m in stack])


class TestSingularExtremes:
    def test_identity(self):
        assert singular_extremes(np.eye(3)) == (1.0, 1.0)

    def test_rank_deficient(self):
        hi, lo = singular_extremes(np.array([[1.0, 0.0], [0.0, 0.0]]))
        assert hi == pytest.approx(1.0, abs=1e-14)
        assert lo == pytest.approx(0.0, abs=1e-14)

    def test_antidiagonal(self):
        hi, lo = singular_extremes(np.array([[0.0, 2.0], [3.0, 0.0]]))
        assert hi == pytest.approx(3.0, rel=1e-14)
        assert lo == pytest.approx(2.0, rel=1e-14)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**31), n=st.integers(2, 8))
    def test_inverse_duality_on_well_conditioned(self, seed, n):
        m = np.eye(n, dtype=complex) + 0.1 * random_matrix(n, seed)
        _, sigma_min = singular_extremes(m)
        sigma_max_inv, _ = singular_extremes(np.linalg.inv(m))
        assert sigma_min * sigma_max_inv == pytest.approx(1.0, rel=1e-8)


class TestSolveLinear:
    def test_identity(self):
        b = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.allclose(solve_linear(np.eye(2), b), b, rtol=1e-14)

    def test_diagonal_inverse(self):
        x = solve_linear(np.diag([2.0, 4.0]), np.eye(2))
        assert np.allclose(x, np.diag([0.5, 0.25]), rtol=1e-14)

    def test_triangular_back_solve(self):
        m = 2.0 * np.eye(2) - np.array([[0.0, 1.0], [0.0, 0.0]])
        x = solve_linear(m, np.eye(2))
        assert np.allclose(x, [[0.5, 0.25], [0.0, 0.5]], rtol=1e-14)

    def test_exactly_singular(self):
        with pytest.raises(SingularMatrixError):
            solve_linear(np.array([[1.0, 0.0], [0.0, 0.0]]), np.eye(2))

    def test_singular_to_working_precision(self):
        with pytest.raises(SingularMatrixError):
            solve_linear(np.diag([1.0, 1e-18]), np.eye(2))

    def test_residual_contract_on_random(self):
        for seed in range(10):
            m = np.eye(6, dtype=complex) + 0.3 * random_matrix(6, seed)
            b = random_matrix(6, 77 + seed)
            x = solve_linear(m, b)
            assert (
                np.linalg.norm(m @ x - b, 2)
                <= 1e-10 * np.linalg.norm(m, 2) * max(np.linalg.norm(x, 2), 1e-300)
            )


class TestStacks:
    """The SVD, the singularity gate and the solve take an (..., n, n) stack
    in one call and give each slice what it gives alone."""

    @staticmethod
    def stack(k=5, n=6):
        return np.array([np.eye(n) + 0.3 * random_matrix(n, seed) for seed in range(k)])

    def test_singular_extremes_per_slice(self):
        m = self.stack()
        hi, lo = singular_extremes(m)
        assert hi.shape == lo.shape == (5,)
        for j, slice_ in enumerate(m):
            assert (hi[j], lo[j]) == singular_extremes(slice_)

    def test_gate_names_the_first_singular_slice(self):
        m = self.stack()
        assert np.array_equal(singularity_gate(m)[1], singular_extremes(m)[1])
        m[3, :, 0] = 0.0
        m[1, 2] = 0.0
        with pytest.raises(SingularMatrixError, match="slice 1 singular") as excinfo:
            singularity_gate(m)
        assert excinfo.value.index == 1
        with pytest.raises(SingularMatrixError) as excinfo:
            singularity_gate(m[1])
        assert excinfo.value.index is None

    def test_solve_per_slice_with_broadcast_right_hand_side(self):
        m = self.stack()
        b = random_matrix(6, 99)[:, :3]
        x = solve_linear(m, b, singular_extremes(m)[0])
        assert x.shape == (5, 6, 3)
        for j, slice_ in enumerate(m):
            assert np.array_equal(x[j], solve_linear(slice_, b))
        with pytest.raises(ValueError, match="shape mismatch"):
            solve_linear(m, b[:, 0])
        with pytest.raises(ValueError, match="must be square"):
            singular_extremes(m[:, :, :5])

    def test_residual_contract_names_the_failing_slice(self):
        m = self.stack()
        b = random_matrix(6, 98)
        # slice 2 is ill conditioned, so its residual stands above the floor
        # 16 eps |b|, and a sigma_max far below the true one puts the
        # contract below that residual
        u, _, vh = np.linalg.svd(m[2])
        m[2] = u @ np.diag([1.0, 1.0, 1.0, 1.0, 1.0, 1e-10]) @ vh
        scale = singular_extremes(m)[0]
        scale[2] = 1e-30
        with pytest.raises(numkernel.KernelPrecisionError, match="solve slice 2 residual"):
            solve_linear(m, b, scale)


def _stable(n, seed, dtype):
    """A seeded stable matrix: the real random-stable family, or a complex
    matrix shifted to spectral bound -0.5 the same way."""
    if dtype is np.float64:
        return random_stable(n, 0.5, seed)
    g = random_matrix(n, seed)
    return g - (np.max(np.linalg.eigvals(g).real) + 0.5) * np.eye(n)


@pytest.mark.parametrize("dtype", [np.float64, np.complex128], ids=["real", "complex"])
class TestBothDtypes:
    """Each kernel against its scipy oracle, on real and on complex input, in
    the input's own dtype."""

    @pytest.mark.parametrize("t", [0.01, 0.7, 30.0])
    def test_expm(self, dtype, t):
        a = _stable(24, 1, dtype)
        ours = expm(a, t)
        assert ours.dtype == dtype
        ref = scipy.linalg.expm(a * t)
        assert np.linalg.norm(ours - ref, 2) <= 1e-11 * np.linalg.norm(ref, 2)

    def test_singular_extremes(self, dtype):
        a = _stable(24, 2, dtype)
        ref = scipy.linalg.svdvals(a)
        assert singular_extremes(a) == pytest.approx((ref[0], ref[-1]), rel=1e-12)

    def test_hermitian_eig(self, dtype):
        m = _stable(24, 3, dtype)
        h = m + m.conj().T
        w, v = hermitian_eig(h)
        assert v.dtype == dtype
        assert np.allclose(w, scipy.linalg.eigvalsh(h), rtol=0, atol=1e-12 * np.linalg.norm(h, 2))
        assert np.linalg.norm(v @ np.diag(w) @ v.conj().T - h, 2) <= 1e-12 * np.linalg.norm(h, 2)

    def test_solve_linear(self, dtype):
        m = _stable(24, 4, dtype)
        b = _stable(24, 5, dtype)[:, :3]
        x = solve_linear(m, b)
        assert x.dtype == dtype
        ref = scipy.linalg.solve(m, b)
        assert np.linalg.norm(x - ref, 2) <= 1e-11 * np.linalg.norm(ref, 2)

    def test_solve_algebraic(self, dtype):
        a = _stable(24, 6, dtype)
        g = _stable(24, 7, dtype)
        rhs = g.conj().T @ g + np.eye(24)
        q = solve_algebraic(a, rhs)
        assert q.dtype == dtype
        ref = scipy.linalg.solve_continuous_lyapunov(a.conj().T, -rhs)
        assert np.linalg.norm(q - ref, 2) <= 1e-9 * np.linalg.norm(ref, 2)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31), n=st.integers(1, 12), weighted=st.booleans())
def test_real_input_stays_float64(seed, n, weighted):
    a = random_stable(n, 0.5, seed)
    nm = NormModel.from_weight(np.eye(n) + np.diag(np.arange(n, dtype=float))) if weighted \
        else NormModel.identity(n)
    assert as_matrix(a).dtype == np.float64
    assert as_matrix(a.tolist()).dtype == np.float64
    assert as_matrix(np.rint(a).astype(int)).dtype == np.float64
    assert expm(a, 0.5).dtype == np.float64
    assert expm(a, 0.0).dtype == np.float64
    assert whiten_operator(a, nm).dtype == np.float64
    assert solve_algebraic(a, nm.w).dtype == np.float64
    # complex input stays complex, zero imaginary parts included
    assert as_matrix(a.astype(complex)).dtype == np.complex128
    assert expm(a.astype(complex), 0.5).dtype == np.complex128


def test_as_matrix_accepts_any_memory_layout():
    m = random_matrix(5, 3)
    for layout in (m.T, np.asfortranarray(m), m[::-1, ::-1], m.real.T):
        assert np.array_equal(as_matrix(layout), layout)
        assert singular_extremes(layout) == pytest.approx(singular_extremes(layout.copy()),
                                                          rel=1e-14)


class TestQuadIntegral:
    @staticmethod
    def quad(f, upper, panels):
        nodes, weights = gauss_legendre_nodes(upper, panels)
        return weights @ f(nodes)

    def test_linear(self):
        assert self.quad(lambda t: t, 1.0, 4) == pytest.approx(0.5, abs=1e-15)

    def test_exponential(self):
        value = self.quad(np.exp, 1.0, 8)
        assert value == pytest.approx(np.e - 1.0, rel=1e-13)

    def test_constant(self):
        assert self.quad(np.ones_like, 1.0, 4) == pytest.approx(1.0, abs=1e-15)

    def test_degree_nine_exactness(self):
        assert self.quad(lambda t: t**9, 1.0, 4) == pytest.approx(0.1, rel=1e-13)

    def test_order_of_convergence(self):
        exact = 1.0 - np.exp(-10.0)
        errors = {
            panels: abs(self.quad(lambda t: np.exp(-t), 10.0, panels) - exact)
            for panels in (4, 8, 16)
        }
        # 5-point Gauss-Legendre is order 10: each doubling should gain
        # far more than two decades until the floating floor
        assert errors[8] <= errors[4] / 100.0
        assert errors[16] <= max(errors[8] / 50.0, 5e-15)

    def test_nodes_cover_interval(self):
        nodes, weights = gauss_legendre_nodes(2.0, 6)
        assert nodes.shape == weights.shape == (30,)
        assert np.all(np.diff(nodes) > 0)
        assert 0.0 < nodes[0] and nodes[-1] < 2.0
        assert weights.sum() == pytest.approx(2.0, rel=1e-14)
