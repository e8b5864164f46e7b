"""Weighted inner-product norm models.

A norm model is an SPD weight W defining ``|x|^2 = x* W x`` together with
its cached symmetric square root and inverse root.  Whitening by those
roots converts every question asked in this package (membership margins,
operator norms, positivity constants) into an ordinary Euclidean one.
Two whitenings appear: a similarity for operators on the state space and
a congruence for state-to-dual maps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numkernel import (
    as_matrix,
    hermitian_eig,
    hermitian_gate,
    hermitian_part,
    singular_extremes,
)

__all__ = [
    "NormModel",
    "RieszMap",
    "vec_norm",
    "pairing",
    "op_norm",
    "dual_map_norm",
    "strong_positivity_theta",
    "form_eigenvalues",
    "whiten_operator",
    "whiten_form",
]


@dataclass(frozen=True)
class NormModel:
    """SPD norm weight with cached symmetric square root and inverse root."""

    w: np.ndarray
    sqrt_w: np.ndarray
    inv_sqrt_w: np.ndarray
    is_identity: bool = False  # W = I: whitening is a copy

    @property
    def n(self) -> int:
        return self.w.shape[0]

    @classmethod
    def from_weight(cls, w) -> "NormModel":
        ww = hermitian_gate(w, "norm weight")
        lam, v = hermitian_eig(ww)
        if lam[0] <= 0.0:
            raise ValueError(
                f"norm weight must be positive definite, min eigenvalue {lam[0]:.3e}"
            )
        sqrt_w = (v * np.sqrt(lam)) @ v.conj().T
        inv_sqrt_w = (v / np.sqrt(lam)) @ v.conj().T
        if singular_extremes(sqrt_w @ sqrt_w - ww)[0] > 1e-10 * lam[-1]:  # |W| of a PD W
            raise ValueError("square root of norm weight failed its residual check")
        if singular_extremes(inv_sqrt_w @ sqrt_w - np.eye(ww.shape[0]))[0] > 1e-10:
            raise ValueError("inverse root of norm weight failed its residual check")
        return cls(w=ww, sqrt_w=sqrt_w, inv_sqrt_w=inv_sqrt_w)

    @classmethod
    def identity(cls, n: int) -> "NormModel":
        eye = np.eye(n)
        return cls(w=eye, sqrt_w=eye.copy(), inv_sqrt_w=eye.copy(), is_identity=True)


@dataclass(frozen=True)
class RieszMap:
    """SPD map identifying the space with its dual, with its strong-positivity
    constant theta relative to a norm model: <Px, x> >= theta |x|^2."""

    p: np.ndarray
    theta: float

    @classmethod
    def from_matrix(cls, p, nm: NormModel) -> "RieszMap":
        pp = as_matrix(p, "p")
        theta = strong_positivity_theta(pp, nm)
        if theta <= 0.0:
            raise ValueError(f"Riesz map must be strongly positive, theta={theta:.3e}")
        return cls(p=hermitian_part(pp), theta=theta)


def _as_vector(x, n: int):
    v = np.asarray(x, dtype=complex).reshape(-1)
    if v.shape[0] != n:
        raise ValueError(f"vector has length {v.shape[0]}, expected {n}")
    return v


def vec_norm(x, nm: NormModel) -> float:
    """Weighted norm sqrt(x* W x); zero exactly when x is zero."""
    v = _as_vector(x, nm.n)
    return float(np.linalg.norm(nm.sqrt_w @ v))


def pairing(q, x, y) -> complex:
    """Dual pairing <Qx, y> = y* (Q x): linear in x, conjugated in y.

    With this convention <Qx, x> is real for Hermitian Q, which is what
    every inequality downstream relies on.
    """
    qq = as_matrix(q, "q")
    xv = _as_vector(x, qq.shape[0])
    yv = _as_vector(y, qq.shape[0])
    return complex(yv.conj() @ (qq @ xv))


def whiten_operator(t, nm: NormModel) -> np.ndarray:
    """Similarity whitening for operators on the state space, or for each
    of an ``(..., n, n)`` stack of them."""
    tt = as_matrix(t, "t", stack=True)
    return tt.copy() if nm.is_identity else nm.sqrt_w @ tt @ nm.inv_sqrt_w


def whiten_form(q, nm: NormModel) -> np.ndarray:
    """Congruence whitening for state-to-dual maps (quadratic forms), or for
    each of an ``(..., n, n)`` stack of them."""
    qq = as_matrix(q, "q", stack=True)
    return qq.copy() if nm.is_identity else nm.inv_sqrt_w @ qq @ nm.inv_sqrt_w


def op_norm(t, nm: NormModel) -> float:
    """Operator norm of a state-space map in the weighted norm."""
    return singular_extremes(whiten_operator(t, nm))[0]


def form_eigenvalues(q, nm: NormModel) -> np.ndarray:
    """Ascending eigenvalues of the congruence-whitened Hermitian map.

    By Sylvester's law of inertia they carry the signs of Q's own
    eigenvalues, so this one eigensolve decides positivity and yields
    both the positivity constant and the dual-map norm.
    """
    w, _ = hermitian_eig(whiten_form(hermitian_gate(q, "q"), nm))
    return w


def dual_map_norm(q, nm: NormModel) -> float:
    """State-to-dual operator norm of a Hermitian map.

    This is the ``|Q|`` appearing in every resolvent and perturbation
    bound: the largest whitened eigenvalue in magnitude.
    """
    w = form_eigenvalues(q, nm)
    return float(max(abs(w[0]), abs(w[-1])))


def strong_positivity_theta(q, nm: NormModel) -> float:
    """Largest theta with <Qx, x> >= theta |x|^2; positive iff Q is
    strongly positive.  Computed exactly as the smallest whitened
    eigenvalue."""
    return float(form_eigenvalues(q, nm)[0])
