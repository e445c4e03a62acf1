"""Tests for the vectorized GF kernels."""

import numpy as np
import pytest

from repro.gf import (
    GF256,
    GF65536,
    GFError,
    axpy,
    bytes_to_symbols,
    dot,
    mat_data_product,
    random_symbols,
    symbols_to_bytes,
)


class TestScalAxpy:
    def test_axpy_accumulates(self, gf):
        x = random_symbols(gf, 32, seed=2)
        y = random_symbols(gf, 32, seed=3)
        expect = y ^ gf.scalar_mul_array(7, x)
        out = y.copy()
        axpy(gf, 7, x, out)
        assert np.array_equal(out, expect)

    def test_axpy_coefficient_one_is_xor(self, gf):
        x = random_symbols(gf, 32, seed=4)
        y = random_symbols(gf, 32, seed=5)
        out = y.copy()
        axpy(gf, 1, x, out)
        assert np.array_equal(out, x ^ y)

    def test_axpy_zero_is_noop(self, gf):
        x = random_symbols(gf, 16, seed=6)
        y = random_symbols(gf, 16, seed=7)
        out = y.copy()
        axpy(gf, 0, x, out)
        assert np.array_equal(out, y)

    def test_axpy_shape_mismatch(self, gf):
        with pytest.raises(GFError):
            axpy(gf, 1, np.zeros(3, dtype=np.uint8), np.zeros(4, dtype=np.uint8))


class TestDot:
    def test_dot_known(self, gf):
        a = np.array([1, 2, 0], dtype=np.uint8)
        b = np.array([3, 3, 9], dtype=np.uint8)
        assert dot(gf, a, b) == 3 ^ gf.mul(2, 3)

    def test_dot_empty(self, gf):
        assert dot(gf, np.array([], dtype=np.uint8), np.array([], dtype=np.uint8)) == 0

    def test_dot_rejects_matrices(self, gf):
        m = np.zeros((2, 2), dtype=np.uint8)
        with pytest.raises(GFError):
            dot(gf, m, m)


class TestMatDataProduct:
    def test_identity(self, gf):
        data = random_symbols(gf, (5, 40), seed=8)
        eye = np.eye(5, dtype=np.uint8)
        assert np.array_equal(mat_data_product(gf, eye, data), data)

    def test_matches_rowwise_dot(self, gf):
        coeffs = random_symbols(gf, (4, 6), seed=9)
        data = random_symbols(gf, (6, 17), seed=10)
        out = mat_data_product(gf, coeffs, data)
        for i in range(4):
            for col in range(17):
                assert out[i, col] == dot(gf, coeffs[i], data[:, col])

    def test_zero_rows_skipped(self, gf):
        coeffs = np.zeros((3, 4), dtype=np.uint8)
        data = random_symbols(gf, (4, 8), seed=11)
        assert not mat_data_product(gf, coeffs, data).any()

    def test_wide_field_fallback(self, gf16):
        coeffs = random_symbols(gf16, (3, 3), seed=12)
        data = random_symbols(gf16, (3, 5), seed=13)
        out = mat_data_product(gf16, coeffs, data)
        for i in range(3):
            for col in range(5):
                assert out[i, col] == dot(gf16, coeffs[i], data[:, col])

    def test_dimension_mismatch(self, gf):
        with pytest.raises(GFError):
            mat_data_product(gf, np.zeros((2, 3), dtype=np.uint8), np.zeros((4, 5), dtype=np.uint8))

    def test_empty_data_columns(self, gf):
        out = mat_data_product(gf, np.eye(3, dtype=np.uint8), np.zeros((3, 0), dtype=np.uint8))
        assert out.shape == (3, 0)

    def test_linearity(self, gf):
        """The kernel is linear: M(a ^ b) == M(a) ^ M(b)."""
        coeffs = random_symbols(gf, (5, 7), seed=14)
        a = random_symbols(gf, (7, 9), seed=15)
        b = random_symbols(gf, (7, 9), seed=16)
        lhs = mat_data_product(gf, coeffs, a ^ b)
        rhs = mat_data_product(gf, coeffs, a) ^ mat_data_product(gf, coeffs, b)
        assert np.array_equal(lhs, rhs)


class TestByteMapping:
    def test_gf256_roundtrip(self):
        payload = bytes(range(256))
        syms = bytes_to_symbols(GF256, payload)
        assert symbols_to_bytes(GF256, syms) == payload

    def test_gf65536_roundtrip(self):
        payload = bytes(range(200)) * 2
        syms = bytes_to_symbols(GF65536, payload)
        assert syms.dtype == np.uint16
        assert symbols_to_bytes(GF65536, syms) == payload

    def test_gf65536_odd_length_rejected(self):
        with pytest.raises(GFError):
            bytes_to_symbols(GF65536, b"abc")


class TestRandomSymbols:
    def test_deterministic(self, gf):
        a = random_symbols(gf, (3, 3), seed=42)
        b = random_symbols(gf, (3, 3), seed=42)
        assert np.array_equal(a, b)

    def test_range(self, gf16):
        arr = random_symbols(gf16, 1000, seed=1)
        assert arr.max() < gf16.size
