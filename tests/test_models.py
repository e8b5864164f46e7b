import base64
import json
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from stabcert.models import (
    MAX_N,
    MatrixFormatError,
    ModelSpec,
    SplitMix64,
    build_model,
    heat_dirichlet,
    jordan_block,
    load_matrix,
    matrix_from_json_dict,
    matrix_to_json_dict,
    random_hermitian,
    random_matrix,
    random_stable,
    random_vector,
    save_matrix,
    upwind_shift,
    write_atomic,
)
from stabcert.numkernel import expm, hermitian_eig, singular_extremes
from stabcert.semigroup import spectral_bound

# signed zeros, subnormals and the edge of the float range
_EDGE_FLOATS = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3,
                                1.7e308, -1.7e308, 1.7976931348623157e308,
                                -1.7976931348623157e308, 1.0, -1.0])


def test_splitmix64_reference_stream():
    # reference outputs of the standard finalizer for seed 0
    rng = SplitMix64(0)
    assert rng.next_u64() == 0xE220A8397B1DCDAF
    assert rng.next_u64() == 0x6E789E6AA1B965F4
    assert rng.next_u64() == 0x06C45D188009454F


def test_splitmix64_block_draw_equals_the_scalar_stream():
    scalar, block = SplitMix64(2**64 - 5), SplitMix64(2**64 - 5)
    expected = [scalar.next_u64() for _ in range(10_000)]
    drawn = block.next_u64_block(10_000)
    assert drawn.dtype == np.uint64
    assert [int(z) for z in drawn] == expected
    assert block.next_u64() == scalar.next_u64()
    uniforms = [scalar.uniform_symmetric() for _ in range(1000)]
    assert block.uniform_block(1000).tolist() == uniforms


def _scalar_fill(shape, rng, complex_entries=True):
    # the entry-by-entry fill the block draw replaced: row-major, real part
    # first, then the imaginary part
    m = np.empty(shape, dtype=complex)
    for index in np.ndindex(*shape):
        re = rng.uniform_symmetric()
        im = rng.uniform_symmetric() if complex_entries else 0.0
        m[index] = complex(re, im)
    return m


def test_shared_rng_continues_one_stream_across_calls():
    # perturb's random trials draw every B from one shared stream
    shared, reference = SplitMix64(2024), SplitMix64(2024)
    for _ in range(6):
        expected = _scalar_fill((5, 5), reference)
        assert random_matrix(5, shared).tobytes() == expected.tobytes()
        raw = _scalar_fill((4, 4), reference)
        assert random_hermitian(4, shared).tobytes() == (0.5 * (raw + raw.conj().T)).tobytes()
        expected = _scalar_fill((3,), reference)
        assert random_vector(3, shared).tobytes() == expected.tobytes()
    assert shared.next_u64() == reference.next_u64()


def test_random_stable_draws_the_scalar_stream_row_major():
    g = _scalar_fill((7, 7), SplitMix64(5), complex_entries=False).real
    s = float(np.max(np.linalg.eigvals(g).real))
    expected = g - (s + 0.5) * np.eye(7)
    got = random_stable(7, 0.5, 5)
    assert got.dtype == np.float64
    assert np.array_equal(got, expected)


def test_splitmix64_uniform_range():
    rng = SplitMix64(12345)
    draws = [rng.uniform_symmetric() for _ in range(1000)]
    assert all(-1.0 <= d < 1.0 for d in draws)
    assert abs(np.mean(draws)) < 0.1


class TestHeat:
    def test_two_by_two_hand_eigensolve(self):
        a = heat_dirichlet(2, 1.0)
        assert np.allclose(a, 9.0 * np.array([[-2.0, 1.0], [1.0, -2.0]]))
        w = hermitian_eig(a)
        assert np.allclose(w, [-27.0, -9.0], atol=1e-12)

    def test_negative_definite(self):
        assert spectral_bound(heat_dirichlet(8, 1.0)) < 0.0

    def test_eigenvalue_formula_n16(self):
        n = 16
        a = heat_dirichlet(n, 1.0)
        w = hermitian_eig(a)
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
            t1 = expm(upwind_shift(n, 1.0, 1.0), 1.0)
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
        tt = expm(jordan_block(3, -1.0), t)
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
        assert m.dtype == np.float64
        assert np.array_equal(m, -np.eye(2))

    def test_ragged_data_names_the_count(self):
        doc = {"rows": 2, "cols": 2, "data_real": [1.0, 2.0, 3.0]}
        with pytest.raises(MatrixFormatError, match="3 entries, expected rows\\*cols = 4"):
            matrix_from_json_dict(doc)

    def test_nonfinite_entry_names_the_offset(self):
        doc = {"rows": 2, "cols": 2, "data_real": [1.0, float("inf"), 0.0, 1.0]}
        with pytest.raises(MatrixFormatError, match="offset"):
            matrix_from_json_dict(doc)

    @pytest.mark.parametrize("doc", [
        {"rows": 1, "cols": 2, "data": [[0, 0], [10 ** 400, 0]]},
        {"rows": 1, "cols": 2, "data": [[0, 0], [0, -10 ** 400]]},
        {"rows": 1, "cols": 2, "data_real": [0, 10 ** 400]},
    ], ids=["data-re", "data-im", "data_real"])
    def test_integer_beyond_the_float_range_names_the_offset(self, doc):
        with pytest.raises(MatrixFormatError, match="offset 1 is beyond the float range"):
            matrix_from_json_dict(doc)

    def test_requires_exactly_one_payload(self):
        with pytest.raises(MatrixFormatError, match="exactly one"):
            matrix_from_json_dict({"rows": 1, "cols": 1, "data": [[1, 0]], "data_real": [1]})
        with pytest.raises(MatrixFormatError, match="exactly one"):
            matrix_from_json_dict({"rows": 1, "cols": 1})

    def test_bad_pair_shape(self):
        with pytest.raises(MatrixFormatError, match="pair"):
            matrix_from_json_dict({"rows": 1, "cols": 1, "data": [[1, 0, 3]]})

    @pytest.mark.parametrize("bad", [[True, 0.0], ["1", 0.0], [None, 0.0], [1.0, 2.0, 3.0],
                                     [[1.0], 0.0], True, "1", None])
    def test_irregular_pair_keeps_its_message(self, bad):
        doc = {"rows": 2, "cols": 2, "data": [[1.0, 0.0], [0, 2], bad, [3.5, -1.0]]}
        message = f"data[2] must be a [re, im] number pair, got {bad!r}"
        with pytest.raises(MatrixFormatError) as excinfo:
            matrix_from_json_dict(doc)
        assert str(excinfo.value) == message

    @pytest.mark.parametrize("bad", [True, "1", None, [1.0], [1.0, 0.0]])
    def test_irregular_real_entry_keeps_its_message(self, bad):
        doc = {"rows": 2, "cols": 2, "data_real": [1.0, 2, bad, -3.5]}
        message = f"data_real[2] is not a number: {bad!r}"
        with pytest.raises(MatrixFormatError) as excinfo:
            matrix_from_json_dict(doc)
        assert str(excinfo.value) == message

    def test_real_float_subclass_is_accepted(self):
        got = matrix_from_json_dict({"rows": 1, "cols": 2, "data_real": [np.float64(1.5), -2]})
        assert got.dtype == np.float64
        assert np.array_equal(got, [[1.5, -2.0]])

    def test_decoding_matches_entry_by_entry_conversion(self):
        pairs = [[1, -0.0], [2**60 + 1, 0.1], [-3, 7], [1e-310, -2.5e300]]
        expected = np.array([complex(float(re), float(im)) for re, im in pairs]).reshape(2, 2)
        got = matrix_from_json_dict({"rows": 2, "cols": 2, "data": pairs})
        assert got.tobytes() == expected.tobytes()
        # float subclasses take the per-entry path and are still accepted
        doc = {"rows": 1, "cols": 2, "data": [[np.float64(1.5), 0], [2, 1]]}
        assert np.array_equal(matrix_from_json_dict(doc), [[1.5, 2 + 1j]])

    @settings(max_examples=200, deadline=None)
    @given(arrays(np.complex128, array_shapes(min_dims=2, max_dims=2, max_side=6),
                  elements=st.complex_numbers(allow_nan=False, allow_infinity=False)
                  | st.builds(complex, _EDGE_FLOATS, _EDGE_FLOATS)))
    def test_encoding_matches_entry_by_entry_and_round_trips(self, m):
        for arr in (m, m.T, m[:, 0], m.real):
            doc = matrix_to_json_dict(arr)
            # f64le exactly when every imaginary part is zero (-0.0 included),
            # each layout the base64 of its entry-by-entry little-endian bytes
            if np.any(arr.imag):
                assert set(doc) == {"rows", "cols", "c128le"}
                reference = b"".join(struct.pack("<dd", v.real, v.imag) for v in np.ravel(arr))
                assert doc["c128le"] == base64.b64encode(reference).decode()
            else:
                assert set(doc) == {"rows", "cols", "f64le"}
                reference = b"".join(struct.pack("<d", v.real) for v in np.ravel(arr))
                assert doc["f64le"] == base64.b64encode(reference).decode()
            back = matrix_from_json_dict(json.loads(json.dumps(doc)))
            assert back.shape == (doc["rows"], doc["cols"])
            # float64 exactly when every imaginary part is zero (-0.0 included)
            assert back.dtype == (complex if np.any(arr.imag) else np.float64)
            expected = np.ascontiguousarray(arr if np.any(arr.imag) else arr.real)
            assert back.tobytes() == expected.reshape(back.shape).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(arrays(np.float64, array_shapes(min_dims=2, max_dims=2, max_side=6).map(
                      lambda shape: (shape[0], 2 * shape[1])),
                  elements=st.floats(allow_nan=False, allow_infinity=False) | _EDGE_FLOATS),
           st.booleans())
    def test_binary_layouts_round_trip_every_bit(self, parts, pairs):
        # as a complex matrix, each two columns of ``parts`` are [re, im]
        m = parts.view(np.complex128) if pairs else parts
        back = matrix_from_json_dict(json.loads(json.dumps(matrix_to_json_dict(m))))
        expected = m if np.any(m.imag) else m.real
        assert back.dtype == expected.dtype
        assert np.array_equal(back.view(np.int64), np.ascontiguousarray(expected).view(np.int64))

    @pytest.mark.parametrize("doc, message", [
        ({"rows": 1, "cols": 2, "f64le": "!" * 24}, "not valid base64"),
        ({"rows": 1, "cols": 2, "f64le": "AAAAAAAA8D8=" + "=" * 12}, "not valid base64"),
        ({"rows": 1, "cols": 1, "c128le": "A" * 24}, "holds 18 bytes, expected 16"),
        ({"rows": 1, "cols": 2, "f64le": "AAAAAAAA8D8="}, "has 12 base64 characters, expected 24"),
        ({"rows": MAX_N, "cols": MAX_N, "f64le": "AAAAAAAA8D8="},
         "has 12 base64 characters, expected 699052 for rows\\*cols = 65536"),
        ({"rows": MAX_N, "cols": MAX_N, "c128le": ""}, "has 0 base64 characters"),
        ({"rows": 1, "cols": 1, "f64le": [1.0]}, "must be a base64 string, got list"),
        ({"rows": 1, "cols": 1, "f64le": "AAAAAAAA8D\u00e9="}, "not valid base64"),
    ], ids=["alphabet", "padding", "unpadded", "length", "large-header", "empty",
            "not-a-string", "non-ascii"])
    def test_malformed_binary_is_refused_without_a_large_allocation(self, doc, message):
        tracemalloc.start()
        try:
            with pytest.raises(MatrixFormatError, match=message):
                matrix_from_json_dict(doc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    @pytest.mark.parametrize("key, values, offset", [
        ("f64le", [1.0, 2.0, float("nan")], 2),
        ("f64le", [float("-inf"), 0.0, 1.0], 0),
        ("c128le", [1.0, 0.0, 2.0, float("inf"), 3.0, 0.0], 1),
        ("c128le", [1.0, 0.0, 2.0, 1.0, float("nan"), 0.0], 2),
    ])
    def test_nonfinite_bits_are_refused_with_their_offset(self, key, values, offset):
        raw = struct.pack(f"<{len(values)}d", *values)
        doc = {"rows": 1, "cols": 3, key: base64.b64encode(raw).decode()}
        with pytest.raises(MatrixFormatError, match=f"non-finite entry at offset {offset}$"):
            matrix_from_json_dict(doc)

    @pytest.mark.parametrize("extra", [{"data_real": [1.0]}, {"data": [[1.0, 0.0]]},
                                       {"c128le": "AAAAAAAA8D8AAAAAAAAAAA=="}])
    def test_more_than_one_layout_is_refused(self, extra):
        with pytest.raises(MatrixFormatError, match="exactly one of"):
            matrix_from_json_dict({"rows": 1, "cols": 1, "f64le": "AAAAAAAA8D8=", **extra})

    def test_a_real_c128le_document_reads_as_float64(self):
        raw = struct.pack("<4d", -0.0, 0.0, 1.5, -0.0)
        got = matrix_from_json_dict({"rows": 2, "cols": 1, "c128le": base64.b64encode(raw).decode()})
        assert got.dtype == np.float64
        assert got.tobytes() == struct.pack("<2d", -0.0, 1.5)

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
        assert set(doc) == {"rows", "cols", "f64le"}

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


class TestSizeGate:
    def test_largest_size_builds(self):
        assert build_model(ModelSpec("upwind", MAX_N)).shape == (MAX_N, MAX_N)

    @pytest.mark.parametrize("family", ["heat", "upwind", "jordan", "random-stable"])
    def test_build_rejects_before_the_constructor(self, family, monkeypatch):
        def no_construction(*args, **kwargs):
            raise AssertionError("constructor called before the size gate")

        for name in ("heat_dirichlet", "upwind_shift", "jordan_block", "random_stable"):
            monkeypatch.setattr(f"stabcert.models.{name}", no_construction)
        with pytest.raises(ValueError, match="size limit n <= 256"):
            build_model(ModelSpec(family, MAX_N + 1))

    def test_matrix_document_rejected_before_allocation(self, monkeypatch):
        def no_allocation(*args, **kwargs):
            raise AssertionError("allocated before the size gate")

        monkeypatch.setattr("stabcert.models.np.empty", no_allocation)
        doc = {"rows": 100_000, "cols": 100_000, "data_real": []}
        with pytest.raises(MatrixFormatError, match="size limit n <= 256"):
            matrix_from_json_dict(doc)
        with pytest.raises(MatrixFormatError, match="size limit"):
            matrix_from_json_dict({"rows": 1, "cols": MAX_N + 1, "data_real": []})
