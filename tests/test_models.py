import json

import numpy as np
import pytest

from stabcert.models import (
    MatrixFormatError,
    ModelSpec,
    SplitMix64,
    build_model,
    heat_dirichlet,
    jordan_block,
    load_matrix,
    matrix_from_json_dict,
    matrix_to_json_dict,
    random_stable,
    save_matrix,
    upwind_shift,
    write_atomic,
)
from stabcert.numkernel import hermitian_eig, singular_extremes
from stabcert.semigroup import evaluate, spectral_bound


def test_splitmix64_reference_stream():
    # reference outputs of the standard finalizer for seed 0
    rng = SplitMix64(0)
    assert rng.next_u64() == 0xE220A8397B1DCDAF
    assert rng.next_u64() == 0x6E789E6AA1B965F4
    assert rng.next_u64() == 0x06C45D188009454F


def test_splitmix64_uniform_range():
    rng = SplitMix64(12345)
    draws = [rng.uniform_symmetric() for _ in range(1000)]
    assert all(-1.0 <= d < 1.0 for d in draws)
    assert abs(np.mean(draws)) < 0.1


class TestHeat:
    def test_two_by_two_hand_eigensolve(self):
        a = heat_dirichlet(2, 1.0)
        assert np.allclose(a, 9.0 * np.array([[-2.0, 1.0], [1.0, -2.0]]))
        w, _ = hermitian_eig(a)
        assert np.allclose(w, [-27.0, -9.0], atol=1e-12)

    def test_negative_definite(self):
        assert spectral_bound(heat_dirichlet(8, 1.0)) < 0.0

    def test_eigenvalue_formula_n16(self):
        n = 16
        a = heat_dirichlet(n, 1.0)
        w, _ = hermitian_eig(a)
        k = np.arange(1, n + 1)
        formula = -4.0 * (n + 1) ** 2 * np.sin(k * np.pi / (2 * (n + 1))) ** 2
        assert np.allclose(w, np.sort(formula), rtol=1e-10)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            heat_dirichlet(1, 1.0)


class TestUpwind:
    def test_small_case(self):
        assert np.allclose(upwind_shift(2, 1.0, 1.0), [[-1.0, 0.0], [1.0, -1.0]])

    def test_spectral_bound_exact(self):
        for n, c, h in [(4, 1.0, 1.0), (8, 2.0, 0.5), (5, 3.0, 1.5)]:
            assert spectral_bound(upwind_shift(n, c, h)) == pytest.approx(-c / h, abs=1e-14)

    def test_sigma_min_decreasing_in_dimension(self):
        values = []
        for n in (4, 8, 16):
            t1 = evaluate(upwind_shift(n, 1.0, 1.0), 1.0)
            values.append(singular_extremes(t1)[1])
        assert values[0] > values[1] > values[2]

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            upwind_shift(1, 1.0, 1.0)
        with pytest.raises(ValueError):
            upwind_shift(4, -1.0, 1.0)


class TestJordan:
    def test_scalar(self):
        assert np.allclose(jordan_block(1, -2.0), [[-2.0]])

    def test_spectral_bound(self):
        assert spectral_bound(jordan_block(3, -1.0)) == pytest.approx(-1.0, abs=1e-12)

    def test_semigroup_entries(self):
        t = 1.7
        tt = evaluate(jordan_block(3, -1.0), t)
        assert tt[0, 0] == pytest.approx(np.exp(-t), rel=1e-12)
        assert tt[0, 2] == pytest.approx(t**2 * np.exp(-t) / 2.0, rel=1e-12)


class TestRandomStable:
    def test_forced_spectral_bound(self):
        a = random_stable(8, 0.5, 42)
        assert spectral_bound(a) == pytest.approx(-0.5, abs=1e-10)

    def test_determinism(self):
        assert np.array_equal(random_stable(6, 0.3, 9), random_stable(6, 0.3, 9))

    def test_different_seeds_differ(self):
        a1 = random_stable(4, 0.5, 1)
        a2 = random_stable(4, 0.5, 2)
        assert a1[0, 0] != a2[0, 0]

    def test_spec_build_is_deterministic(self):
        spec = ModelSpec(family="random-stable", n=5, params={"margin": 0.7}, seed=3)
        assert np.array_equal(build_model(spec), build_model(spec))


class TestMatrixJson:
    def test_complex_document(self):
        doc = {"rows": 2, "cols": 2,
               "data": [[-1, 0], [0, 0], [0, 0], [-1, 0]]}
        assert np.array_equal(matrix_from_json_dict(doc), -np.eye(2, dtype=complex))

    def test_real_shortcut(self):
        doc = {"rows": 2, "cols": 2, "data_real": [-1, 0, 0, -1]}
        m = matrix_from_json_dict(doc)
        assert m.dtype == complex
        assert np.array_equal(m, -np.eye(2, dtype=complex))

    def test_ragged_data_names_the_count(self):
        doc = {"rows": 2, "cols": 2, "data_real": [1.0, 2.0, 3.0]}
        with pytest.raises(MatrixFormatError, match="3 entries, expected rows\\*cols = 4"):
            matrix_from_json_dict(doc)

    def test_nonfinite_entry_names_the_offset(self):
        doc = {"rows": 2, "cols": 2, "data_real": [1.0, float("inf"), 0.0, 1.0]}
        with pytest.raises(MatrixFormatError, match="offset"):
            matrix_from_json_dict(doc)

    def test_requires_exactly_one_payload(self):
        with pytest.raises(MatrixFormatError, match="exactly one"):
            matrix_from_json_dict({"rows": 1, "cols": 1, "data": [[1, 0]], "data_real": [1]})
        with pytest.raises(MatrixFormatError, match="exactly one"):
            matrix_from_json_dict({"rows": 1, "cols": 1})

    def test_bad_pair_shape(self):
        with pytest.raises(MatrixFormatError, match="pair"):
            matrix_from_json_dict({"rows": 1, "cols": 1, "data": [[1, 0, 3]]})

    def test_malformed_file_diagnostics(self, tmp_path):
        bad = tmp_path / "notamatrix.json"
        bad.write_text("this is not json")
        with pytest.raises(MatrixFormatError, match="not valid JSON"):
            load_matrix(bad)

    def test_round_trip(self, tmp_path):
        m = random_stable(4, 0.5, 17)
        path = tmp_path / "m.json"
        save_matrix(path, m)
        assert np.array_equal(load_matrix(path), m)
        doc = json.loads(path.read_text())
        assert set(doc) == {"rows", "cols", "data"}

    def test_failed_write_leaves_target_and_no_temporary(self, tmp_path, monkeypatch):
        path = tmp_path / "m.json"
        path.write_text("old contents")

        def broken_replace(src, dst):
            raise OSError("simulated failure")

        monkeypatch.setattr("stabcert.models.os.replace", broken_replace)
        with pytest.raises(OSError, match="simulated"):
            write_atomic(path, "new contents")
        with pytest.raises(OSError, match="simulated"):
            save_matrix(path, np.eye(2))
        assert path.read_text() == "old contents"
        assert list(tmp_path.glob("*.tmp")) == []

    def test_vector_round_trip(self):
        v = np.array([1.0 + 2.0j, -3.0])
        doc = matrix_to_json_dict(v)
        assert doc["rows"] == 2 and doc["cols"] == 1
        assert np.array_equal(matrix_from_json_dict(doc).reshape(-1), v)


def test_build_model_families():
    assert build_model(ModelSpec("heat", 4, {"length": 2.0})).shape == (4, 4)
    assert build_model(ModelSpec("upwind", 4, {"speed": 1.0, "h": 0.5})).shape == (4, 4)
    assert build_model(ModelSpec("jordan", 3, {"lambda": 1.0}))[0, 0] == 1.0
    with pytest.raises(ValueError, match="unknown family"):
        build_model(ModelSpec("mystery", 2))
