"""Deterministic generator families and matrix JSON ingestion.

Every constructor is bit-reproducible: the random family draws from a
SplitMix64 stream with the standard additive constant and finalizer, so
identical (n, margin, seed) yields identical matrices on any platform.
"""

from __future__ import annotations

import base64
import contextlib
import itertools
import json
import math
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

# the matrix JSON payload keys, the binary ones with their element types;
# scripts/report_battery.py LAYOUTS mirrors them with the standard library
_BINARY_DTYPES = {"f64le": np.dtype("<f8"), "c128le": np.dtype("<c16")}
_LAYOUTS = ("f64le", "c128le", "data", "data_real")


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
    try:
        scale = ((n + 1) / length) ** 2
    except OverflowError:
        scale = math.inf
    if not math.isfinite(2.0 * scale):
        raise ValueError(f"heat scale ((n+1)/length)^2 = (({n}+1)/{length!r})^2 overflows "
                         f"the float range: raise --length")
    a = np.zeros((n, n))
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
    a = np.zeros((n, n))
    np.fill_diagonal(a, -scale)
    idx = np.arange(n - 1)
    a[idx + 1, idx] = scale
    return a


def jordan_block(n: int, lam: complex) -> np.ndarray:
    """lam on the diagonal, 1 on the superdiagonal; float64 for a real lam."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    lam = complex(lam)
    a = np.eye(n) * (lam.real if lam.imag == 0.0 else lam)
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
    g = SplitMix64(seed).uniform_block(n * n).reshape(n, n)
    s = float(np.max(np.linalg.eigvals(g).real))
    return g - (s + margin) * np.eye(n)


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


def _decode_entry(entry, k: int, pairs: bool) -> list:
    """The floats of entry ``k``: [re, im] of a ``data`` pair, [x] of a
    ``data_real`` number.  Float subclasses are accepted, bools are not, and
    an entry that is neither names itself in the error."""
    numbers = entry if pairs else [entry]
    if not (
        isinstance(numbers, list)
        and len(numbers) == (2 if pairs else 1)
        and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in numbers)
    ):
        raise MatrixFormatError(f"data[{k}] must be a [re, im] number pair, got {entry!r}"
                                if pairs else f"data_real[{k}] is not a number: {entry!r}")
    try:
        return [float(x) for x in numbers]
    except OverflowError:  # an int beyond the float range
        raise MatrixFormatError(f"entry at offset {k} is beyond the float range") from None


def _decode_binary(text, key: str, total: int) -> np.ndarray:
    """The ``total`` values of a base64 ``f64le`` or ``c128le`` string, as
    float64 (complex128 entries as [re, im] pairs).  The length is checked
    before anything is decoded, so a short string under a large header
    allocates nothing."""
    dtype = _BINARY_DTYPES[key]
    size = total * dtype.itemsize
    length = 4 * -(-size // 3)  # padded to whole 4-character groups
    if not isinstance(text, str):
        raise MatrixFormatError(f"{key} must be a base64 string, got {type(text).__name__}")
    if len(text) != length:
        raise MatrixFormatError(f"{key} has {len(text)} base64 characters, expected "
                                f"{length} for rows*cols = {total}")
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError as exc:  # binascii.Error, or a non-ASCII character
        raise MatrixFormatError(f"{key} is not valid base64 ({exc})") from None
    if len(raw) != size:
        raise MatrixFormatError(f"{key} holds {len(raw)} bytes, expected {size}")
    return np.frombuffer(raw, dtype).astype(dtype.type).view(np.float64)


def _decode_decimal(entries, key: str, total: int) -> np.ndarray:
    """The ``total`` values of ``data`` [re, im] pairs (as a flat float64
    array) or ``data_real`` numbers, by one numpy call when every entry is a
    regular pair or number of exact int and float type, else by
    ``_decode_entry`` one entry at a time."""
    if not isinstance(entries, list) or len(entries) != total:
        got = len(entries) if isinstance(entries, list) else type(entries).__name__
        raise MatrixFormatError(f"{key} has {got} entries, expected rows*cols = {total}")
    pairs = key == "data"
    flat = entries
    if pairs and set(map(type, entries)) == {list} and set(map(len, entries)) == {2}:
        flat = list(itertools.chain.from_iterable(entries))
    if len(flat) == (2 if pairs else 1) * total and set(map(type, flat)) <= {int, float}:
        with contextlib.suppress(OverflowError):  # the fallback names the entry
            return np.array(flat, dtype=float)
    return np.array([x for k, entry in enumerate(entries)
                     for x in _decode_entry(entry, k, pairs)], dtype=float)


def matrix_from_json_dict(doc) -> np.ndarray:
    """``rows``, ``cols`` and exactly one row-major payload: base64 bytes
    (``f64le`` little-endian float64, ``c128le`` complex128), or decimal
    ``data`` [re, im] pairs or ``data_real`` numbers.  The matrix is float64
    when every imaginary part is zero, else complex128."""
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
    keys = [key for key in _LAYOUTS if key in doc]
    if len(keys) != 1:
        raise MatrixFormatError("matrix document needs exactly one of "
                                + ", ".join(map(repr, _LAYOUTS)))
    key = keys[0]
    decode = _decode_binary if key in _BINARY_DTYPES else _decode_decimal
    values = decode(doc[key], key, rows * cols)
    width = 2 if key in ("data", "c128le") else 1
    finite = np.isfinite(values)
    if not finite.all():
        raise MatrixFormatError(f"non-finite entry at offset {int(np.argmin(finite)) // width}")
    if width == 2 and np.any(values[1::2]):
        return values.view(complex).reshape(rows, cols)
    return np.ascontiguousarray(values[::width]).reshape(rows, cols)


def matrix_to_json_dict(m) -> dict:
    """Row-major ``f64le`` when no entry has a nonzero imaginary part, else
    ``c128le``: standard base64 of the little-endian float64 or complex128
    bytes, so every bit round-trips, -0.0 and subnormals included."""
    arr = np.asarray(m)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    key = "c128le" if np.any(arr.imag) else "f64le"
    data = np.ascontiguousarray(arr if key == "c128le" else arr.real, dtype=_BINARY_DTYPES[key])
    return {"rows": int(arr.shape[0]), "cols": int(arr.shape[1]),
            key: base64.b64encode(data).decode("ascii")}


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


def random_matrix(n: int, seed_or_rng) -> np.ndarray:
    """Seeded dense test matrix, entries uniform on [-1, 1] per component."""
    return _random_array((n, n), seed_or_rng)


def random_hermitian(n: int, seed_or_rng) -> np.ndarray:
    m = random_matrix(n, seed_or_rng)
    return 0.5 * (m + m.conj().T)


def random_psd(n: int, seed_or_rng) -> np.ndarray:
    g = random_matrix(n, seed_or_rng)
    return g.conj().T @ g


def random_vector(n: int, seed_or_rng) -> np.ndarray:
    return _random_array((n,), seed_or_rng)


def _random_array(shape, seed_or_rng) -> np.ndarray:
    """Entries filled row-major, each drawing its real part and then its
    imaginary part from the stream of ``seed_or_rng``, a SplitMix64 or a seed."""
    rng = seed_or_rng if isinstance(seed_or_rng, SplitMix64) else SplitMix64(int(seed_or_rng))
    return rng.uniform_block(2 * int(np.prod(shape))).view(complex).reshape(shape)
