"""The coding kernels, their tiers, and the compiled-plan cache.

Property tests pin the accelerated kernels to the scalar field arithmetic
(bit-identical for GF(2^8) and GF(2^16), including degenerate shapes);
the tier tests pin every ``kernel=`` choice (``auto``, ``table``, ``xor``,
``native``) byte-equal to :func:`mat_data_product_reference` on 0/1 and
dense matrices, and the 0/1 rule that picks the XOR-rows path; the cache
tests pin the plan-reuse semantics the storage layer relies on: hits on
repeated patterns, fresh plans when availability changes, LRU eviction,
and the DecodingError paths for singular availability.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.gf.kernels as kernels_mod
from repro.codes import PyramidCode, ReedSolomonCode
from repro.codes.base import DecodingError
from repro.core import GalloperCode
from repro.gf import (
    GF256,
    GF65536,
    KERNEL_CHOICES,
    CodingPlan,
    GFError,
    current_kernel_choice,
    kernel_selection_info,
    mat_data_product,
    mat_data_product_reference,
    native_available,
    random_symbols,
    reset_kernel_selection,
    split_product_tables,
    validate_symbols,
)
from repro.gf.kernels import SMALL_PRODUCT_ELEMS

FIELDS = [GF256, GF65536]
FIELD_IDS = ["gf256", "gf65536"]

#: Comfortably above SMALL_PRODUCT_ELEMS, so plans run their tier.
LARGE = 4096


def _auto(label: str) -> str:
    """The label auto mode reports for a numpy-tier label.

    With a native backend in the process, auto plans make the same 0/1
    decision but execute (and label) natively.
    """
    if not native_available():
        return label
    return {"xor": "native-xor", "packed-full": "native", "packed-split": "native"}[label]


def zero_one_matrix(gf, m, n, seed):
    """Random 0/1 matrix with 1..n ones per row, plus a copy row and a zero row."""
    rng = np.random.default_rng(seed)
    coeffs = np.zeros((m + 2, n), dtype=gf.dtype)
    for row in coeffs[:m]:
        row[rng.choice(n, size=rng.integers(1, n + 1), replace=False)] = 1
    coeffs[m, rng.integers(n)] = 1  # copy row
    return coeffs[rng.permutation(m + 2)]  # the zero row lands anywhere


def scalar_product(gf, coeffs, data):
    """The definitionally-correct product: scalar gf.mul plus XOR."""
    m, n = coeffs.shape
    out = np.zeros((m, data.shape[1]), dtype=gf.dtype)
    for i in range(m):
        for j in range(n):
            for s in range(data.shape[1]):
                out[i, s] ^= gf.mul(int(coeffs[i, j]), int(data[j, s]))
    return out


# ---------------------------------------------------------------- kernels


class TestKernelEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=9),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_matches_scalar_mul_gf256(self, m, n, s, seed):
        coeffs = random_symbols(GF256, (m, n), seed=seed)
        data = random_symbols(GF256, (n, s), seed=seed + 1)
        got = mat_data_product(GF256, coeffs, data)
        assert np.array_equal(got, scalar_product(GF256, coeffs, data))

    @settings(max_examples=15, deadline=None)
    @given(
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=0, max_value=7),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_matches_scalar_mul_gf65536(self, m, n, s, seed):
        coeffs = random_symbols(GF65536, (m, n), seed=seed)
        data = random_symbols(GF65536, (n, s), seed=seed + 1)
        got = mat_data_product(GF65536, coeffs, data)
        assert np.array_equal(got, scalar_product(GF65536, coeffs, data))

    @pytest.mark.parametrize("gf", FIELDS, ids=["gf256", "gf65536"])
    @pytest.mark.parametrize("s", [0, 1, 37, SMALL_PRODUCT_ELEMS + 33])
    def test_matches_reference_with_structured_rows(self, gf, s):
        """Zero rows, identity rows and dense rows, below and above the
        small-product threshold (both dense code paths)."""
        coeffs = random_symbols(gf, (7, 5), seed=3)
        coeffs[0] = 0
        coeffs[1] = 0
        coeffs[1, 2] = 1
        data = random_symbols(gf, (5, s), seed=4)
        got = mat_data_product(gf, coeffs, data)
        ref = mat_data_product_reference(gf, coeffs, data)
        assert got.dtype == gf.dtype
        assert np.array_equal(got, ref)

    @pytest.mark.parametrize("gf", FIELDS, ids=["gf256", "gf65536"])
    def test_plan_reuse_small_then_large(self, gf):
        """One plan serves both the direct and the packed path."""
        coeffs = random_symbols(gf, (6, 8), seed=5)
        plan = CodingPlan(gf, coeffs)
        for s in (3, SMALL_PRODUCT_ELEMS + 100, 11):
            data = random_symbols(gf, (8, s), seed=s)
            assert np.array_equal(plan.apply(data), mat_data_product_reference(gf, coeffs, data))

    def test_gf65536_split_fallback_matches(self, monkeypatch):
        """Plans too big for full tables fall back to split tables."""
        monkeypatch.setattr(kernels_mod, "FULL_TABLE_LIMIT", 2)
        coeffs = random_symbols(GF65536, (9, 6), seed=6)
        data = random_symbols(GF65536, (6, SMALL_PRODUCT_ELEMS + 50), seed=7)
        plan = CodingPlan(GF65536, coeffs, kernel="table")
        assert plan.kernel == "packed-split"
        assert np.array_equal(plan.apply(data), mat_data_product_reference(GF65536, coeffs, data))

    def test_gf65536_large_uses_full_tables(self):
        plan = CodingPlan(GF65536, random_symbols(GF65536, (4, 6), seed=8), kernel="table")
        assert plan.kernel == "packed-full"

    def test_spans_multiple_chunks(self):
        """Stripes longer than one gather chunk are stitched correctly."""
        coeffs = random_symbols(GF256, (5, 4), seed=9)
        s = kernels_mod.GATHER_CHUNK_WORDS + 777
        data = random_symbols(GF256, (4, s), seed=10)
        assert np.array_equal(
            mat_data_product(GF256, coeffs, data),
            mat_data_product_reference(GF256, coeffs, data),
        )


@pytest.mark.xdist_group("kernel-global-state")
@pytest.mark.parametrize("tier", KERNEL_CHOICES)
@pytest.mark.parametrize("gf", FIELDS, ids=FIELD_IDS)
class TestTierEquality:
    """Every tier is byte-equal to the seed reference, on 0/1 and dense
    matrices alike (forced ``xor`` on a dense matrix runs the tables)."""

    @settings(max_examples=15, deadline=None)
    @given(
        st.integers(min_value=1, max_value=7),
        st.integers(min_value=2, max_value=12),
        st.integers(min_value=SMALL_PRODUCT_ELEMS, max_value=3 * SMALL_PRODUCT_ELEMS),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_zero_one_matrices(self, tier, gf, m, n, s, seed):
        coeffs = zero_one_matrix(gf, m, n, seed)
        data = random_symbols(gf, (n, s), seed=seed + 1)
        got = CodingPlan(gf, coeffs, kernel=tier).apply(data)
        assert np.array_equal(got, mat_data_product_reference(gf, coeffs, data))

    @pytest.mark.parametrize("s", [LARGE, LARGE + 1, LARGE + 7, 3 * LARGE + 5])
    def test_dense_and_zero_one_widths(self, tier, gf, s):
        """Widths that are and are not a multiple of 8 symbols."""
        for coeffs in (random_symbols(gf, (5, 9), seed=s), zero_one_matrix(gf, 5, 9, seed=s)):
            data = random_symbols(gf, (9, s), seed=s + 1)
            got = CodingPlan(gf, coeffs, kernel=tier).apply(data)
            assert np.array_equal(got, mat_data_product_reference(gf, coeffs, data))

    def test_apply_batch_ragged_segments(self, tier, gf):
        for coeffs in (zero_one_matrix(gf, 3, 6, seed=1), random_symbols(gf, (3, 6), seed=2)):
            plan = CodingPlan(gf, coeffs, kernel=tier)
            segs = [random_symbols(gf, (6, w), seed=w) for w in (900, 1024, 37, 5001)]
            for seg, got in zip(segs, plan.apply_batch(segs)):
                assert got.shape == (coeffs.shape[0], seg.shape[1])
                assert np.array_equal(got, mat_data_product_reference(gf, coeffs, seg))

    def test_non_contiguous_out(self, tier, gf):
        for coeffs in (zero_one_matrix(gf, 4, 7, seed=3), random_symbols(gf, (4, 7), seed=4)):
            data = random_symbols(gf, (7, 2 * LARGE), seed=5)[:, 1::2]
            backing = np.zeros((coeffs.shape[0], 2 * LARGE), dtype=gf.dtype)
            out = backing[:, ::2]
            CodingPlan(gf, coeffs, kernel=tier).apply(data, out=out)
            want = mat_data_product_reference(gf, coeffs, np.ascontiguousarray(data))
            assert np.array_equal(out, want)
            assert not backing[:, 1::2].any()

    @pytest.mark.parametrize("family", ["galloper", "pyramid", "rs"])
    def test_single_block_reconstruct(self, tier, gf, family):
        code = {
            "galloper": lambda: GalloperCode(4, 2, 1, gf=gf),
            "pyramid": lambda: PyramidCode(4, 2, 1, gf=gf),
            "rs": lambda: ReedSolomonCode(6, 3, gf=gf),
        }[family]()
        target = 1
        rp = code.repair_plan(target)
        coeffs = code.compile_reconstruct(target, rp.helpers).coeffs
        data = random_symbols(gf, (code.data_stripe_total, LARGE), seed=6)
        blocks = code.encode(data)
        helpers = np.concatenate([blocks[h] for h in rp.helpers], axis=0)
        got = CodingPlan(gf, coeffs, kernel=tier).apply(helpers)
        assert np.array_equal(got, mat_data_product_reference(gf, coeffs, helpers))
        assert np.array_equal(got, blocks[target])


class TestValidation:
    def test_output_dtype_normalized(self, gf):
        """Regression: the seed kernel inherited data.dtype for the output."""
        coeffs = random_symbols(gf, (2, 3), seed=1)
        data = random_symbols(gf, (3, 5), seed=2).astype(np.int64)
        out = mat_data_product(gf, coeffs, data)
        assert out.dtype == gf.dtype

    @pytest.mark.parametrize("gf", FIELDS, ids=["gf256", "gf65536"])
    def test_out_of_field_data_rejected(self, gf):
        coeffs = random_symbols(gf, (2, 2), seed=1)
        bad = np.array([[0, 1], [2, gf.size]], dtype=np.int64)
        with pytest.raises(GFError):
            mat_data_product(gf, coeffs, bad)

    def test_negative_symbols_rejected(self, gf):
        with pytest.raises(GFError):
            mat_data_product(gf, np.array([[-1, 2]]), np.zeros((2, 3), dtype=np.uint8))

    def test_float_data_rejected(self, gf):
        with pytest.raises(GFError):
            mat_data_product(gf, np.ones((1, 2), dtype=np.uint8), np.ones((2, 3)))

    def test_shape_mismatch_rejected(self, gf):
        with pytest.raises(GFError):
            mat_data_product(gf, np.ones((1, 2), dtype=np.uint8), np.zeros((3, 4), dtype=np.uint8))

    def test_validate_symbols_passthrough(self, gf):
        arr = random_symbols(gf, (4,), seed=3)
        assert validate_symbols(gf, arr, "x") is arr

    def test_apply_out_buffer_checked(self, gf):
        plan = CodingPlan(gf, random_symbols(gf, (2, 3), seed=4))
        data = random_symbols(gf, (3, 6), seed=5)
        with pytest.raises(GFError):
            plan.apply(data, out=np.zeros((2, 5), dtype=gf.dtype))
        out = np.zeros((2, 6), dtype=gf.dtype)
        assert plan.apply(data, out=out) is out


class TestSplitTables:
    def test_requires_gf65536(self, gf):
        with pytest.raises(GFError):
            split_product_tables(gf, [1, 2, 3])

    def test_tables_reproduce_products(self, gf16):
        coeffs = [0, 1, 2, 0x1234, 0xFFFF]
        lo, hi = split_product_tables(gf16, coeffs)
        assert lo.shape == hi.shape == (len(coeffs), 256)
        rng = np.random.default_rng(11)
        for i, c in enumerate(coeffs):
            for x in rng.integers(0, gf16.size, 32):
                x = int(x)
                assert lo[i, x & 0xFF] ^ hi[i, x >> 8] == gf16.mul(c, x)


# ------------------------------------------------------------- plan cache


class TestPlanCache:
    def test_decode_repeat_hits_cache(self):
        code = ReedSolomonCode(4, 2)
        data = random_symbols(code.gf, (code.data_stripe_total, 64), seed=1)
        blocks = code.encode(data)
        available = {b: blocks[b] for b in (0, 2, 3, 5)}
        first = code.decode(available)
        info = code.plan_cache_info()
        assert info["misses"] == 1
        second = code.decode(available)
        info = code.plan_cache_info()
        assert info["hits"] == 1 and info["misses"] == 1
        assert np.array_equal(first, second)
        assert np.array_equal(first, data)

    def test_availability_change_compiles_fresh_plan(self):
        """A cached plan is keyed by the availability set: changing the
        surviving blocks must bypass it, not reuse stale coefficients."""
        code = ReedSolomonCode(4, 2)
        data = random_symbols(code.gf, (code.data_stripe_total, 32), seed=2)
        blocks = code.encode(data)
        a = {b: blocks[b] for b in (0, 1, 2, 3)}
        b_set = {b: blocks[b] for b in (1, 2, 4, 5)}
        assert np.array_equal(code.decode(a), data)
        assert np.array_equal(code.decode(b_set), data)
        info = code.plan_cache_info()
        assert info["misses"] == 2 and info["size"] == 2
        plan_a = code.compile_decode(a)
        plan_b = code.compile_decode(b_set)
        assert plan_a is not plan_b
        assert plan_a.ids != plan_b.ids

    def test_lru_eviction(self):
        code = ReedSolomonCode(4, 2)
        code.PLAN_CACHE_SIZE = 2
        data = random_symbols(code.gf, (code.data_stripe_total, 16), seed=3)
        blocks = code.encode(data)
        sets = [(0, 1, 2, 3), (1, 2, 3, 4), (2, 3, 4, 5)]
        for ids in sets:
            code.decode({b: blocks[b] for b in ids})
        info = code.plan_cache_info()
        assert info["size"] == 2
        # The oldest pattern was evicted: decoding it again is a miss.
        misses = info["misses"]
        code.decode({b: blocks[b] for b in sets[0]})
        assert code.plan_cache_info()["misses"] == misses + 1

    def test_clear_plan_cache(self):
        code = ReedSolomonCode(4, 2)
        data = random_symbols(code.gf, (code.data_stripe_total, 16), seed=4)
        blocks = code.encode(data)
        code.decode({b: blocks[b] for b in (0, 1, 2, 3)})
        code.clear_plan_cache()
        info = code.plan_cache_info()
        assert info == {"size": 0, "maxsize": code.PLAN_CACHE_SIZE, "hits": 0, "misses": 0}

    def test_reconstruct_repeat_hits_cache(self):
        code = PyramidCode(4, 2, 1)
        data = random_symbols(code.gf, (code.data_stripe_total, 48), seed=5)
        blocks = code.encode(data)
        target = 0
        avail = {b: blocks[b] for b in range(code.n) if b != target}
        plan = code.repair_plan(target)
        rebuilt, _ = code.reconstruct(target, avail, plan)
        hits0 = code.plan_cache_info()["hits"]
        rebuilt2, _ = code.reconstruct(target, avail, plan)
        assert code.plan_cache_info()["hits"] == hits0 + 1
        assert np.array_equal(rebuilt, blocks[target])
        assert np.array_equal(rebuilt2, blocks[target])

    def test_encode_plan_compiled_once(self):
        code = ReedSolomonCode(4, 2)
        assert code.compile_encode() is code.compile_encode()
        code.clear_plan_cache()
        # A fresh plan after clearing, still correct.
        data = random_symbols(code.gf, (code.data_stripe_total, 8), seed=6)
        assert np.array_equal(
            code.compile_encode().apply(data),
            mat_data_product_reference(code.gf, code.generator, data),
        )


class TestDecodingErrors:
    def test_singular_availability_raises(self):
        """A k-sized but dependent block set must raise, not mis-decode."""
        code = PyramidCode(4, 2, 1)
        dependent = next(
            ids
            for ids in __import__("itertools").combinations(range(code.n), code.k)
            if not code.can_decode(ids)
        )
        with pytest.raises(DecodingError, match="cannot decode"):
            code.compile_decode(dependent)

    def test_empty_availability_raises(self):
        with pytest.raises(DecodingError):
            ReedSolomonCode(4, 2).compile_decode([])

    def test_bad_helpers_raise(self):
        code = ReedSolomonCode(4, 2)
        with pytest.raises(DecodingError, match="cannot express"):
            code.compile_reconstruct(0, (1, 2))  # k-1 helpers cannot span a data block


# ----------------------------------------------------- wide-field round trip


class TestWideFieldRoundTrip:
    def test_gf65536_encode_decode_reconstruct(self):
        code = ReedSolomonCode(4, 2, gf=GF65536)
        data = random_symbols(code.gf, (code.data_stripe_total, SMALL_PRODUCT_ELEMS + 9), seed=7)
        blocks = code.encode(data)
        assert np.array_equal(code.decode({b: blocks[b] for b in (1, 2, 4, 5)}), data)
        target = 3
        avail = {b: blocks[b] for b in range(code.n) if b != target}
        rebuilt, _ = code.reconstruct(target, avail)
        assert np.array_equal(rebuilt, blocks[target])


# ------------------------------------------------------ XOR rows and tiers


class TestCodingPlanXor:
    def test_auto_selects_xor_for_parity_and_table_for_cauchy(self):
        rs = ReedSolomonCode(10, 1)
        assert CodingPlan(rs.gf, rs.generator).kernel == _auto("xor")
        gal = GalloperCode(4, 2, 1)
        assert CodingPlan(gal.gf, gal.generator).kernel == _auto("packed-full")

    @pytest.mark.parametrize("gf", FIELDS, ids=FIELD_IDS)
    @pytest.mark.parametrize("tier", KERNEL_CHOICES)
    def test_non_zero_one_matrix_never_labelled_xor(self, gf, tier):
        # A single coefficient outside {0, 1} keeps the whole plan off
        # the XOR rows, whatever the tier choice.
        coeffs = zero_one_matrix(gf, 4, 6, seed=7)
        coeffs[np.nonzero(coeffs)[0][0], np.nonzero(coeffs)[1][0]] = 2
        plan = CodingPlan(gf, coeffs, kernel=tier)
        plan.apply(random_symbols(gf, (6, LARGE), seed=8))
        assert plan.kernel not in ("xor", "native-xor")

    @pytest.mark.parametrize(
        "factory", [lambda: GalloperCode(4, 2, 1), lambda: PyramidCode(4, 2, 1)]
    )
    def test_local_repair_plans_choose_xor_and_reconstruct(self, factory):
        code = factory()
        target = 0
        rp = code.repair_plan(target)
        plan = code.compile_reconstruct(target, rp.helpers)
        assert plan.kernel == _auto("xor")
        data = random_symbols(code.gf, (code.data_stripe_total, LARGE), seed=7)
        blocks = code.encode(data)
        avail = {b: blocks[b] for b in range(code.n) if b != target}
        rebuilt, _ = code.reconstruct(target, avail, rp)
        assert np.array_equal(rebuilt, blocks[target])

    def test_invalid_kernel_rejected(self):
        with pytest.raises(GFError):
            CodingPlan(GF256, np.eye(2, dtype=np.uint8), kernel="simd")

    def test_forced_xor_small_product_uses_direct_path(self):
        # Below SMALL_PRODUCT_ELEMS even a forced-xor plan takes the
        # log/antilog path — but stays byte-exact.
        gf = GF256
        coeffs = random_symbols(gf, (2, 3), seed=29)
        payload = random_symbols(gf, (3, 64), seed=31)
        want = mat_data_product_reference(gf, coeffs, payload)
        assert np.array_equal(CodingPlan(gf, coeffs, kernel="xor").apply(payload), want)


@pytest.mark.xdist_group("kernel-global-state")
class TestKernelKnobAndCache:
    def test_env_knob_validation(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "table")
        assert current_kernel_choice() == "table"
        monkeypatch.setenv("REPRO_KERNEL", "turbo")
        with pytest.raises(GFError):
            current_kernel_choice()
        monkeypatch.delenv("REPRO_KERNEL")
        assert current_kernel_choice() == "auto"

    def test_plan_cache_keys_include_kernel_choice(self, monkeypatch):
        code = ReedSolomonCode(10, 1)
        monkeypatch.setenv("REPRO_KERNEL", "table")
        table_plan = code.compile_encode()
        assert table_plan.kernel != "xor"
        monkeypatch.setenv("REPRO_KERNEL", "xor")
        xor_plan = code.compile_encode()
        assert xor_plan is not table_plan
        assert xor_plan.kernel == "xor"
        # Same knob value -> same cached plan object.
        assert code.compile_encode() is xor_plan
        monkeypatch.setenv("REPRO_KERNEL", "table")
        assert code.compile_encode() is table_plan

    def test_reconstruct_cache_keyed_by_choice(self, monkeypatch):
        code = GalloperCode(4, 2, 1)
        helpers = code.repair_plan(0).helpers
        monkeypatch.setenv("REPRO_KERNEL", "table")
        p_table = code.compile_reconstruct(0, helpers)
        monkeypatch.setenv("REPRO_KERNEL", "auto")
        p_auto = code.compile_reconstruct(0, helpers)
        assert p_auto is not p_table
        assert p_table.kernel.startswith("packed")
        assert p_auto.kernel == _auto("xor")

    def test_clear_plan_cache_drops_encode_plans(self, monkeypatch):
        code = ReedSolomonCode(4, 2)
        plan = code.compile_encode()
        code.clear_plan_cache()
        assert code.compile_encode() is not plan


@pytest.mark.xdist_group("kernel-global-state")
class TestSelectionCounters:
    def test_counters_count_first_large_apply(self):
        reset_kernel_selection()
        gf = GF256
        xor_plan = CodingPlan(gf, np.ones((1, 10), dtype=np.uint8))
        payload = random_symbols(gf, (10, LARGE), seed=37)
        xor_plan.apply(payload)
        xor_plan.apply(payload)  # counted once, not per apply
        dense = CodingPlan(gf, random_symbols(gf, (4, 6), seed=41) | 1)
        dense.apply(random_symbols(gf, (6, LARGE), seed=43))
        counts = kernel_selection_info()
        assert counts[_auto("xor")] == 1
        assert counts[_auto("packed-full")] == 1

    def test_fallback_counter(self):
        # A forced xor on a matrix with a coefficient outside {0, 1}
        # runs the tables and counts one fallback however often it is
        # applied; a forced xor on a 0/1 matrix never counts one.
        reset_kernel_selection()
        gf = GF256
        payload = random_symbols(gf, (6, LARGE), seed=53)
        forced = CodingPlan(gf, random_symbols(gf, (4, 6), seed=47) | 2, kernel="xor")
        forced.apply(payload)
        forced.apply(payload)
        assert forced.kernel == "packed-full"
        CodingPlan(gf, zero_one_matrix(gf, 4, 6, seed=59), kernel="xor").apply(payload)
        counts = kernel_selection_info()
        assert counts["xor_fallbacks"] == 1
        assert counts["packed-full"] == 1
        assert counts["xor"] == 1

    def test_reset(self):
        reset_kernel_selection()
        assert all(v == 0 for v in kernel_selection_info().values())


class TestValidateSymbolsDiagnostics:
    def test_error_names_dtype_and_field(self):
        bad = np.array([0, 300], dtype=np.int32)
        with pytest.raises(GFError) as exc:
            validate_symbols(GF256, bad, "data")
        msg = str(exc.value)
        assert "int32" in msg
        assert "300" in msg
        assert "255" in msg  # the field maximum
        assert "GF(2^8)" in msg

    def test_uint16_data_against_gf256_plan(self):
        wide = np.array([[1000]], dtype=np.uint16)
        with pytest.raises(GFError) as exc:
            validate_symbols(GF256, wide, "data")
        assert "uint16" in str(exc.value)
        assert "16-bit" in str(exc.value)

    def test_in_range_passes_unchanged(self):
        ok = np.array([0, 255], dtype=np.uint16)
        out = validate_symbols(GF256, ok, "data")
        assert out.dtype == GF256.dtype
