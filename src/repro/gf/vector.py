"""Symbol-vector helpers: axpy, dot, and byte <-> symbol conversion.

``axpy`` (the GF multiply-accumulate) backs the reference row-loop kernel
:func:`~repro.gf.kernels.mat_data_product_reference`; the matrix-times-data
product the coding hot paths run is :mod:`repro.gf.kernels`.  Data buffers
are numpy arrays whose dtype matches the field's symbol width (uint8 for
GF(2^8)).
"""

from __future__ import annotations

import numpy as np

from repro.gf.field import GF, GF256, GFError


def axpy(gf: GF, c: int, x: np.ndarray, y: np.ndarray) -> None:
    """In-place ``y ^= c * x`` (GF multiply-accumulate).

    ``y`` must be writable and the same shape as ``x``.
    """
    if x.shape != y.shape:
        raise GFError(f"axpy shape mismatch: {x.shape} vs {y.shape}")
    gf.check(c)
    if c == 0:
        return
    if c == 1:
        np.bitwise_xor(y, x, out=y)
        return
    np.bitwise_xor(y, gf.scalar_mul_array(c, x), out=y)


def dot(gf: GF, a: np.ndarray, b: np.ndarray) -> int:
    """Inner product of two 1-D symbol vectors over the field."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape or a.ndim != 1:
        raise GFError(f"dot requires equal-length 1-D vectors, got {a.shape} and {b.shape}")
    prod = gf.mul_arrays(a, b)
    return int(np.bitwise_xor.reduce(prod)) if prod.size else 0


def random_symbols(gf: GF, shape, seed: int | None = None) -> np.ndarray:
    """Uniformly random field symbols, for tests and synthetic payloads."""
    rng = np.random.default_rng(seed)
    return rng.integers(0, gf.size, size=shape, dtype=np.uint32).astype(gf.dtype)


def bytes_to_symbols(gf: GF, payload: bytes) -> np.ndarray:
    """View a byte string as a vector of field symbols.

    For GF(2^8) this is a direct byte view.  For GF(2^16) the payload length
    must be even; pairs of bytes form one little-endian symbol.
    """
    if gf is GF256 or gf.q == 8:
        return np.frombuffer(payload, dtype=np.uint8).copy()
    if gf.q == 16:
        if len(payload) % 2:
            raise GFError("GF(2^16) payloads must contain an even number of bytes")
        return np.frombuffer(payload, dtype="<u2").copy()
    raise GFError(f"no byte mapping for GF(2^{gf.q})")


def symbols_to_bytes(gf: GF, symbols: np.ndarray) -> bytes:
    """Inverse of :func:`bytes_to_symbols`."""
    symbols = np.asarray(symbols)
    if gf.q == 8:
        return symbols.astype(np.uint8).tobytes()
    if gf.q == 16:
        return symbols.astype("<u2").tobytes()
    raise GFError(f"no byte mapping for GF(2^{gf.q})")
