"""Deterministic generator families and matrix JSON ingestion.

Every constructor is bit-reproducible: the random family draws from a
SplitMix64 stream with the standard additive constant and finalizer, so
identical (n, margin, seed) yields identical matrices on any platform.
"""

from __future__ import annotations

import itertools
import json
import os
import tempfile
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "MAX_N",
    "MatrixFormatError",
    "SplitMix64",
    "ModelSpec",
    "heat_dirichlet",
    "upwind_shift",
    "jordan_block",
    "random_stable",
    "build_model",
    "load_matrix",
    "save_matrix",
    "write_atomic",
    "matrix_to_json_dict",
    "matrix_from_json_dict",
    "random_matrix",
    "random_hermitian",
    "random_psd",
    "random_vector",
]

MAX_N = 256

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class MatrixFormatError(ValueError):
    """Matrix JSON failed to parse or validate."""


class SplitMix64:
    """SplitMix64 stream: golden-gamma increment plus the standard finalizer.

    seed 0 produces 0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, ... which is
    pinned in the test suite as the cross-implementation contract.
    """

    def __init__(self, seed: int):
        self._state = int(seed) & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def next_u64_block(self, count: int) -> np.ndarray:
        """The next ``count`` outputs as uint64, equal to ``count`` calls of
        next_u64; the state of draw k is seed + k * gamma modulo 2^64."""
        z = np.uint64(self._state) + np.arange(1, count + 1, dtype=np.uint64) * np.uint64(_GAMMA)
        self._state = (self._state + count * _GAMMA) & _MASK64
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
        return z ^ (z >> np.uint64(31))

    def uniform_symmetric(self) -> float:
        """Uniform draw on [-1, 1): top 53 bits mapped to a double."""
        u = (self.next_u64() >> 11) * 2.0 ** -53
        return 2.0 * u - 1.0

    def uniform_block(self, count: int) -> np.ndarray:
        """``count`` uniform_symmetric draws as a float64 array."""
        return 2.0 * ((self.next_u64_block(count) >> np.uint64(11)) * 2.0 ** -53) - 1.0


@dataclass(frozen=True)
class ModelSpec:
    """Recipe for one generator matrix; identical specs build identical
    matrices bit for bit."""

    family: str
    n: int = 0
    params: dict = field(default_factory=dict)
    seed: int = 0


def heat_dirichlet(n: int, length: float = 1.0) -> np.ndarray:
    """Tridiagonal ((n+1)/L)^2 * (1, -2, 1): Hermitian negative definite,
    eigenvalues -(4 (n+1)^2 / L^2) sin^2(k pi / (2(n+1)))."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if not length > 0.0:
        raise ValueError(f"length must be positive, got {length}")
    scale = ((n + 1) / length) ** 2
    a = np.zeros((n, n), dtype=complex)
    np.fill_diagonal(a, -2.0 * scale)
    idx = np.arange(n - 1)
    a[idx, idx + 1] = scale
    a[idx + 1, idx] = scale
    return a


def upwind_shift(n: int, speed: float = 1.0, h: float = 1.0) -> np.ndarray:
    """(speed/h) * (subdiagonal 1, diagonal -1): one eigenvalue -speed/h of
    multiplicity n, heavily nonnormal."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if not (speed > 0.0 and h > 0.0):
        raise ValueError(f"speed and h must be positive, got {speed}, {h}")
    scale = speed / h
    a = np.zeros((n, n), dtype=complex)
    np.fill_diagonal(a, -scale)
    idx = np.arange(n - 1)
    a[idx + 1, idx] = scale
    return a


def jordan_block(n: int, lam: complex) -> np.ndarray:
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    a = np.eye(n, dtype=complex) * complex(lam)
    idx = np.arange(n - 1)
    a[idx, idx + 1] = 1.0
    return a


def random_stable(n: int, margin: float, seed: int) -> np.ndarray:
    """Seeded dense matrix shifted so its spectral bound is exactly -margin.

    Entries of the raw matrix come from the SplitMix64 stream mapped to
    uniform [-1, 1], filled row-major; the diagonal shift then forces
    max Re lambda = -margin.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not margin > 0.0:
        raise ValueError(f"margin must be positive, got {margin}")
    g = SplitMix64(seed).uniform_block(n * n).reshape(n, n).astype(complex)
    s = float(np.max(np.linalg.eigvals(g).real))
    return g - (s + margin) * np.eye(n, dtype=complex)


_FAMILIES = ("heat", "upwind", "jordan", "random-stable", "file")


def build_model(spec: ModelSpec) -> np.ndarray:
    if spec.n > MAX_N:
        raise ValueError(f"n = {spec.n} exceeds the size limit n <= {MAX_N}")
    if spec.family == "heat":
        return heat_dirichlet(spec.n, spec.params.get("length", 1.0))
    if spec.family == "upwind":
        return upwind_shift(spec.n, spec.params.get("speed", 1.0), spec.params.get("h", 1.0))
    if spec.family == "jordan":
        return jordan_block(spec.n, spec.params.get("lambda", -1.0))
    if spec.family == "random-stable":
        return random_stable(spec.n, spec.params.get("margin", 0.5), spec.seed)
    if spec.family == "file":
        return load_matrix(spec.params["path"])
    raise ValueError(f"unknown family {spec.family!r}, expected one of {_FAMILIES}")


def _number_pairs(data: list) -> np.ndarray | None:
    """``data`` as complex entries when every one is a two-element list of
    exact ints and floats; None sends the caller to its per-entry checks."""
    if set(map(type, data)) != {list} or set(map(len, data)) != {2}:
        return None
    flat = list(itertools.chain.from_iterable(data))
    if not set(map(type, flat)) <= {int, float}:
        return None
    try:
        return np.array(flat, dtype=float).view(complex)
    except OverflowError:  # an int beyond the float range
        return None


def _entry_float(value, k: int) -> float:
    try:
        return float(value)
    except OverflowError:  # an int beyond the float range
        raise MatrixFormatError(f"entry at offset {k} is beyond the float range") from None


def matrix_from_json_dict(doc) -> np.ndarray:
    if not isinstance(doc, dict):
        raise MatrixFormatError(f"matrix document must be an object, got {type(doc).__name__}")
    try:
        rows = doc["rows"]
        cols = doc["cols"]
    except KeyError as exc:
        raise MatrixFormatError(f"matrix document missing key {exc}") from exc
    if not (isinstance(rows, int) and isinstance(cols, int) and rows >= 1 and cols >= 1):
        raise MatrixFormatError(f"rows/cols must be positive integers, got {rows!r}/{cols!r}")
    if rows > MAX_N or cols > MAX_N:
        raise MatrixFormatError(f"rows/cols {rows}/{cols} exceed the size limit n <= {MAX_N}")
    has_data = "data" in doc
    has_real = "data_real" in doc
    if has_data == has_real:
        raise MatrixFormatError("matrix document needs exactly one of 'data' or 'data_real'")
    total = rows * cols
    m = np.empty((rows, cols), dtype=complex)
    if has_real:
        data = doc["data_real"]
        if not isinstance(data, list) or len(data) != total:
            got = len(data) if isinstance(data, list) else type(data).__name__
            raise MatrixFormatError(f"data_real has {got} entries, expected rows*cols = {total}")
        for k, value in enumerate(data):
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise MatrixFormatError(f"data_real[{k}] is not a number: {value!r}")
            m[k // cols, k % cols] = _entry_float(value, k)
    else:
        data = doc["data"]
        if not isinstance(data, list) or len(data) != total:
            got = len(data) if isinstance(data, list) else type(data).__name__
            raise MatrixFormatError(f"data has {got} entries, expected rows*cols = {total}")
        pairs = _number_pairs(data)
        if pairs is not None:
            m[:] = pairs.reshape(rows, cols)
        else:
            for k, pair in enumerate(data):
                if (
                    not isinstance(pair, list)
                    or len(pair) != 2
                    or not all(isinstance(p, (int, float)) and not isinstance(p, bool)
                               for p in pair)
                ):
                    raise MatrixFormatError(
                        f"data[{k}] must be a [re, im] number pair, got {pair!r}")
                m[k // cols, k % cols] = complex(_entry_float(pair[0], k), _entry_float(pair[1], k))
    if not np.all(np.isfinite(m.view(np.float64))):
        bad = int(np.flatnonzero(~np.isfinite(m.reshape(-1).view(np.float64)))[0] // 2)
        raise MatrixFormatError(f"non-finite entry at offset {bad}")
    return m


def matrix_to_json_dict(m) -> dict:
    arr = np.asarray(m, dtype=complex)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    return {
        "rows": int(arr.shape[0]),
        "cols": int(arr.shape[1]),
        "data": [[float(v.real), float(v.imag)] for v in arr.reshape(-1)],
    }


def load_matrix(path) -> np.ndarray:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise MatrixFormatError(f"{path}: not valid JSON ({exc})") from exc
    try:
        return matrix_from_json_dict(doc)
    except MatrixFormatError as exc:
        raise MatrixFormatError(f"{path}: {exc}") from exc


def write_atomic(path, text: str) -> None:
    """Write ``text`` through a temporary file in the target directory and
    ``os.replace``: readers see the old file or the new one, never a
    partial write, and a failed write leaves no temporary file behind."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_matrix(path, m) -> None:
    """Serialize to the matrix JSON schema, written atomically."""
    write_atomic(path, json.dumps(matrix_to_json_dict(m), indent=2) + "\n")


def _resolve_rng(seed_or_rng) -> SplitMix64:
    if isinstance(seed_or_rng, SplitMix64):
        return seed_or_rng
    return SplitMix64(int(seed_or_rng))


def random_matrix(n: int, seed_or_rng, complex_entries: bool = True) -> np.ndarray:
    """Seeded dense test matrix, entries uniform on [-1, 1] per component."""
    return _random_array((n, n), seed_or_rng, complex_entries)


def random_hermitian(n: int, seed_or_rng) -> np.ndarray:
    m = random_matrix(n, seed_or_rng)
    return 0.5 * (m + m.conj().T)


def random_psd(n: int, seed_or_rng) -> np.ndarray:
    g = random_matrix(n, seed_or_rng)
    return g.conj().T @ g


def random_vector(n: int, seed_or_rng, complex_entries: bool = True) -> np.ndarray:
    return _random_array((n,), seed_or_rng, complex_entries)


def _random_array(shape, seed_or_rng, complex_entries: bool) -> np.ndarray:
    """Entries filled row-major, each drawing its real part and then, for
    complex entries, its imaginary part from the stream."""
    rng = _resolve_rng(seed_or_rng)
    if not complex_entries:
        return rng.uniform_block(int(np.prod(shape))).reshape(shape).astype(complex)
    return rng.uniform_block(2 * int(np.prod(shape))).view(complex).reshape(shape)
