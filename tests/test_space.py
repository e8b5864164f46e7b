import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabcert.models import random_matrix, random_psd, random_vector
from stabcert.numkernel import NonHermitianError
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


def test_vec_norm_examples():
    e1 = np.array([1.0, 0.0])
    assert vec_norm(e1, NormModel.identity(2)) == pytest.approx(1.0, abs=1e-15)
    nm = NormModel.from_weight(np.diag([4.0, 1.0]))
    assert vec_norm(e1, nm) == pytest.approx(2.0, rel=1e-14)
    assert vec_norm([1.0, 1.0], NormModel.identity(2)) == pytest.approx(
        np.sqrt(2.0), rel=1e-14
    )


def test_vec_norm_zero_iff_zero():
    nm = NormModel.from_weight(np.diag([4.0, 1.0]))
    assert vec_norm([0.0, 0.0], nm) == 0.0
    assert vec_norm([1e-150, 0.0], nm) > 0.0


def test_pairing_examples():
    x = np.array([1.0 + 1.0j, 2.0])
    assert pairing(np.eye(2), x, x) == pytest.approx(np.linalg.norm(x) ** 2)
    assert pairing(np.zeros((2, 2)), x, [1.0, 1.0]) == 0.0
    e2 = np.array([0.0, 1.0])
    assert pairing(np.diag([1.0, 2.0]), e2, e2) == pytest.approx(2.0)


def test_pairing_conjugate_symmetry_for_hermitian():
    q = random_psd(3, 5)
    x = random_vector(3, 6)
    y = random_vector(3, 7)
    assert pairing(q, x, y) == pytest.approx(np.conj(pairing(q, y, x)), rel=1e-12)


def test_op_norm_examples():
    assert op_norm(np.diag([2.0, 1.0]), NormModel.identity(2)) == pytest.approx(2.0)
    nm = NormModel.from_weight(np.diag([4.0, 1.0]))
    assert op_norm(np.array([[0.0, 1.0], [0.0, 0.0]]), nm) == pytest.approx(2.0, rel=1e-14)
    assert op_norm(np.eye(2), nm) == pytest.approx(1.0, rel=1e-14)


def test_dual_map_norm_examples():
    nm = NormModel.identity(2)
    assert dual_map_norm(np.eye(2) / 2, nm) == pytest.approx(0.5)
    w = np.array([[2.0, 0.5], [0.5, 1.0]])
    nmw = NormModel.from_weight(w)
    assert dual_map_norm(w, nmw) == pytest.approx(1.0, rel=1e-12)
    assert dual_map_norm(np.diag([0.5, 0.25]), nm) == pytest.approx(0.5)


def test_dual_map_norm_rejects_nonhermitian():
    with pytest.raises(NonHermitianError):
        dual_map_norm(np.array([[0.0, 1.0], [0.0, 0.0]]), NormModel.identity(2))


def test_strong_positivity_examples():
    w = np.array([[2.0, 0.5], [0.5, 1.0]])
    nmw = NormModel.from_weight(w)
    assert strong_positivity_theta(w, nmw) == pytest.approx(1.0, rel=1e-12)
    nm = NormModel.identity(2)
    assert strong_positivity_theta(np.eye(2) / 2, nm) == pytest.approx(0.5)
    assert strong_positivity_theta(np.diag([1.0, 0.0]), nm) == pytest.approx(0.0, abs=1e-14)


def test_norm_model_rejects_bad_weights():
    with pytest.raises(NonHermitianError):
        NormModel.from_weight(np.array([[1.0, 1.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        NormModel.from_weight(np.diag([1.0, -2.0]))
    with pytest.raises(ValueError):
        NormModel.from_weight(np.diag([1.0, 0.0]))


def test_norm_model_root_invariants():
    w = random_psd(5, 11) + 0.5 * np.eye(5)
    nm = NormModel.from_weight(w)
    assert np.allclose(nm.sqrt_w @ nm.sqrt_w, nm.w, atol=1e-10 * np.linalg.norm(w, 2))
    assert np.allclose(nm.inv_sqrt_w @ nm.sqrt_w, np.eye(5), atol=1e-10)


def test_from_weight_roots_on_100_random_spd():
    # the eigenvectors of from_weight's one eigh build both roots: each is
    # Hermitian PD, the root squares back to W, and the inverse root whitens W
    sizes = [2, 3, 5, 8, 13, 21, 34, 55, 64]
    for i in range(100):
        n = sizes[i % len(sizes)]
        w = random_psd(n, 1000 + i) / n + 0.1 * np.eye(n)
        nm = NormModel.from_weight(w)
        scale = np.linalg.norm(w, 2)
        for root in (nm.sqrt_w, nm.inv_sqrt_w):
            assert np.linalg.norm(root - root.conj().T, 2) <= 1e-12 * np.linalg.norm(root, 2)
            assert np.linalg.eigvalsh(root)[0] > 0.0
        assert np.linalg.norm(nm.sqrt_w @ nm.sqrt_w - w, 2) <= 1e-9 * scale
        assert np.linalg.norm(nm.inv_sqrt_w @ w @ nm.inv_sqrt_w - np.eye(n), 2) <= 1e-9


def test_norm_model_takes_two_svds(monkeypatch):
    # |W| is the top eigenvalue of the root's eigensolve; the SVDs are the
    # two residual checks
    calls, svd = [], np.linalg.svd

    def counting(*args, **kwargs):
        calls.append(args)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    NormModel.from_weight(random_psd(5, 11) + 0.5 * np.eye(5))
    assert len(calls) == 2


def test_riesz_map_requires_strong_positivity():
    nm = NormModel.identity(2)
    r = RieszMap.from_matrix(2.0 * np.eye(2), nm)
    assert r.theta == pytest.approx(2.0)
    with pytest.raises(ValueError):
        RieszMap.from_matrix(np.diag([1.0, 0.0]), nm)


def test_whitening_shapes_and_consistency():
    w = random_psd(4, 21) + np.eye(4)
    nm = NormModel.from_weight(w)
    t = random_matrix(4, 22)
    # operator whitening is a similarity, form whitening a congruence
    assert np.allclose(
        whiten_operator(t, nm), nm.sqrt_w @ t @ nm.inv_sqrt_w, atol=1e-12
    )
    q = random_psd(4, 23)
    assert np.allclose(whiten_form(q, nm), nm.inv_sqrt_w @ q @ nm.inv_sqrt_w, atol=1e-12)


@pytest.mark.parametrize("depth", [4, 3], ids=["k=n", "k!=n"])
def test_form_whitening_of_a_stack_is_its_slices_bit_for_bit(depth):
    nm = NormModel.from_weight(random_psd(4, 21) + np.eye(4))
    stack = np.stack([random_psd(4, 30 + k) for k in range(depth)])
    assert np.array_equal(whiten_form(stack, nm), [whiten_form(q, nm) for q in stack])


def test_identity_whitening_is_an_exact_copy():
    nm = NormModel.identity(5)
    t = random_matrix(5, 24)
    for whiten in (whiten_operator, whiten_form):
        out = whiten(t, nm)
        # I T I = T exactly, and the caller owns the result
        assert np.array_equal(out, nm.sqrt_w @ t @ nm.inv_sqrt_w)
        assert out is not t and not np.shares_memory(out, t)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31), n=st.integers(2, 8))
def test_norm_matches_pairing(seed, n):
    w = random_psd(n, seed) + np.eye(n)
    nm = NormModel.from_weight(w)
    x = random_vector(n, seed + 1)
    norm2 = vec_norm(x, nm) ** 2
    assert norm2 == pytest.approx(pairing(nm.w, x, x).real, rel=1e-12)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31), c=st.floats(0.01, 100.0))
def test_dual_norm_positive_homogeneity(seed, c):
    nm = NormModel.from_weight(random_psd(4, seed) + np.eye(4))
    q = random_psd(4, seed + 1)
    assert dual_map_norm(c * q, nm) == pytest.approx(c * dual_map_norm(q, nm), rel=1e-12)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31), n=st.integers(2, 8))
def test_theta_below_dual_norm_for_psd(seed, n):
    nm = NormModel.from_weight(random_psd(n, seed) + np.eye(n))
    q = random_psd(n, seed + 1)
    assert strong_positivity_theta(q, nm) <= dual_map_norm(q, nm) + 1e-12


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31), n=st.integers(2, 8))
def test_cauchy_schwarz_surrogate(seed, n):
    """|<Qx, y>| <= |Q| |x| |y| drives both resolvent bounds."""
    nm = NormModel.from_weight(random_psd(n, seed) + np.eye(n))
    q = random_psd(n, seed + 1)
    x = random_vector(n, seed + 2)
    y = random_vector(n, seed + 3)
    lhs = abs(pairing(q, x, y))
    rhs = dual_map_norm(q, nm) * vec_norm(x, nm) * vec_norm(y, nm)
    assert lhs <= rhs * (1.0 + 1e-10)


def test_dimension_mismatches_raise():
    nm = NormModel.identity(3)
    with pytest.raises(ValueError):
        vec_norm([1.0, 2.0], nm)
    with pytest.raises(ValueError):
        pairing(np.eye(3), [1.0, 2.0], [1.0, 2.0, 3.0])
