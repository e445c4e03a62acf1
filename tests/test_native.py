"""Native (generated-C) kernel tier: build cache, byte-exactness, fallback.

Everything in here must pass both with and without a C toolchain: tests
that exercise the compiled kernels skip themselves when
:func:`repro.gf.native.native_available` is False, and the fallback
tests simulate the compiler-less host explicitly.
"""

import numpy as np
import pytest

import repro.gf.kernels as kernels_mod
from repro.gf import (
    GF256,
    GF65536,
    CodingPlan,
    kernel_bytes_info,
    kernel_selection_info,
    mat_data_product_reference,
    native_available,
    native_unavailable_reason,
    random_symbols,
    reset_kernel_selection,
    reset_native_backend,
)
from repro.gf import native as nat

# The native build cache and kernel-selection counters are process-global
# (and several tests flip REPRO_* env knobs); under pytest-xdist's
# --dist loadgroup this pins every such test onto one worker.
pytestmark = pytest.mark.xdist_group("kernel-global-state")

LARGE = 20_000  # comfortably past SMALL_PRODUCT_ELEMS, several cache blocks

needs_native = pytest.mark.skipif(
    not native_available(), reason=f"native tier unavailable: {native_unavailable_reason()}"
)


def _random(gf, shape, seed):
    return random_symbols(gf, shape, seed=seed)


def _zero_one(gf, shape, seed):
    """0/1 matrix with at least two ones per row (an XOR-rows plan)."""
    coeffs = (np.random.default_rng(seed).random(shape) < 0.5).astype(gf.dtype)
    coeffs[:, :2] = 1
    return coeffs


def _all_tiers(gf, coeffs, payload):
    """Apply through every tier choice plus the scalar reference oracle."""
    results = {"reference": mat_data_product_reference(gf, coeffs, payload)}
    for tier in ("auto", "table", "xor", "native"):
        results[tier] = CodingPlan(gf, coeffs, kernel=tier).apply(payload)
    return results


class TestBuild:
    @needs_native
    def test_backend_is_memoized(self):
        assert nat.get_backend() is nat.get_backend()

    @needs_native
    def test_shared_object_cached_on_disk(self):
        backend = nat.get_backend()
        assert backend.so_path.exists()
        assert backend.so_path.parent == nat._cache_root() / nat.native_build_key()
        assert backend.simd_level >= 1

    def test_build_key_is_stable_and_content_addressed(self):
        key = nat.native_build_key()
        assert key == nat.native_build_key()
        src, cc = key.split("/")
        int(src, 16)  # hex digest prefixes
        int(cc, 16) if cc else None
        assert len(src) == 16

    @needs_native
    def test_rebuild_reuses_cached_artifact(self, monkeypatch):
        # A second resolve in the same cache dir must dlopen, not recompile:
        # with the compiler probe removed, the cached .so is still found.
        monkeypatch.setattr(nat, "_compiler", lambda: None)
        reset_native_backend()
        try:
            assert native_available()
        finally:
            monkeypatch.undo()
            reset_native_backend()

    def test_unavailable_reason_empty_when_available(self):
        if native_available():
            assert native_unavailable_reason() == ""
        else:
            assert native_unavailable_reason()


@needs_native
class TestByteExactness:
    """Every tier choice and the scalar oracle agree bit for bit."""

    @pytest.mark.parametrize("k", [50, 100])
    def test_wide_stripe_gf256(self, k):
        self._wide_stripe(GF256, k, LARGE)

    @pytest.mark.parametrize("k", [50, 100])
    def test_wide_stripe_gf65536(self, k):
        self._wide_stripe(GF65536, k, LARGE // 4)

    @staticmethod
    def _wide_stripe(gf, k, width):
        dense = _random(gf, (4, k), seed=k) | 1  # no zero coefficients
        # XOR parities, plus a copy row and a zero row.
        parity = _zero_one(gf, (6, k), seed=k)
        parity[4:] = 0
        parity[5, 3] = 1
        payload = _random(gf, (k, width), seed=k + 1)
        assert CodingPlan(gf, parity).kernel == "native-xor"
        for coeffs in (dense, parity):
            results = _all_tiers(gf, coeffs, payload)
            for label, got in results.items():
                assert np.array_equal(got, results["reference"]), label

    def test_mixed_unit_coefficients(self):
        # Coefficient-1 terms inside a general plan take the C XOR
        # branch, fused with a following 1 or followed by table terms.
        for gf in (GF256, GF65536):
            coeffs = _random(gf, (5, 20), seed=7)
            coeffs[np.random.default_rng(9).random(coeffs.shape) < 0.4] = 1
            coeffs[0, :3] = [1, 0, 5]
            coeffs[1, :3] = [1, 1, 0]
            payload = _random(gf, (20, 9_001), seed=11)
            plan = CodingPlan(gf, coeffs, kernel="native")
            assert plan.kernel == "native"
            assert np.array_equal(plan.apply(payload), mat_data_product_reference(gf, coeffs, payload))

    @pytest.mark.parametrize("tail", [1, 7, 31, 63, 4095, 4097])
    def test_ragged_tails_gf256(self, tail):
        # Stripe widths that are not multiples of the SIMD width, the
        # cache block, or the 64-byte alignment unit.
        gf = GF256
        payload = _random(gf, (50, 4096 + tail), seed=5)
        for coeffs in (_random(gf, (3, 50), seed=3) | 1, _zero_one(gf, (3, 50), seed=tail)):
            plan = CodingPlan(gf, coeffs, kernel="native")
            want = mat_data_product_reference(gf, coeffs, payload)
            assert np.array_equal(plan.apply(payload), want)

    def test_unaligned_views(self):
        # Non-contiguous rows take the copy/copy-back guard paths.
        gf = GF256
        backing = _random(gf, (50, 2 * LARGE), seed=13)
        payload = backing[:, ::2]
        for coeffs in (_random(gf, (3, 50), seed=11) | 1, _zero_one(gf, (3, 50), seed=11)):
            want = mat_data_product_reference(gf, coeffs, np.ascontiguousarray(payload))
            plan = CodingPlan(gf, coeffs, kernel="native")
            out_backing = np.zeros((3, 2 * LARGE), dtype=gf.dtype)
            out = out_backing[:, ::2]
            assert np.array_equal(plan.apply(payload, out=out), want)
            assert np.array_equal(out, want)

    def test_native_xor_schedule_gf256(self):
        # Parity-shaped plans run as XOR rows inside the C gather.
        gf = GF256
        coeffs = np.ones((2, 50), dtype=np.uint8)
        coeffs[1, ::2] = 0
        payload = _random(gf, (50, LARGE), seed=17)
        plan = CodingPlan(gf, coeffs)  # auto: 0/1 plans run as XOR rows
        assert plan.kernel == "native-xor"
        want = mat_data_product_reference(gf, coeffs, payload)
        assert np.array_equal(plan.apply(payload), want)

    def test_single_block_reconstruct(self):
        from repro.codes import PyramidCode, ReedSolomonCode

        # A dense RS repair and a 0/1 Pyramid local repair.
        for code, target in ((ReedSolomonCode(50, 4), 7), (PyramidCode(12, 3, 2), 5)):
            data = _random(code.gf, (code.data_stripe_total, LARGE), seed=29)
            blocks = code.encode(data)
            rp = code.repair_plan(target)
            plan = code.compile_reconstruct(target, rp.helpers)
            avail = {b: blocks[b] for b in range(code.n) if b != target}
            rebuilt, _ = code.reconstruct(target, avail, rp)
            assert np.array_equal(rebuilt, blocks[target])
            # The reconstruct matrix itself is byte-exact through every tier.
            helpers_payload = np.concatenate([blocks[h] for h in rp.helpers], axis=0)
            results = _all_tiers(code.gf, plan.coeffs, helpers_payload)
            for label, got in results.items():
                assert np.array_equal(got, results["reference"]), label

    def test_apply_batch_through_native(self):
        gf = GF256
        segs = [_random(gf, (50, w), seed=33 + w) for w in (8_000, 5_000, 12_001)]
        for coeffs in (_random(gf, (4, 50), seed=31) | 1, _zero_one(gf, (4, 50), seed=31)):
            plan = CodingPlan(gf, coeffs, kernel="native")
            outs = plan.apply_batch(segs)
            for seg, got in zip(segs, outs):
                assert np.array_equal(got, mat_data_product_reference(gf, coeffs, seg))


class TestPoolKnob:
    @needs_native
    def test_tiny_pool_still_byte_exact(self, monkeypatch):
        # A 64 KiB block budget forces many cache blocks per stripe on
        # both native paths; results must not depend on the block geometry.
        gf = GF256
        dense = _random(gf, (4, 50), seed=37) | 1
        parity = np.ones((2, 50), dtype=np.uint8)
        payload = _random(gf, (50, LARGE), seed=41)
        monkeypatch.setattr(kernels_mod, "GATHER_CHUNK_WORDS", 64 << 7)
        for coeffs in (dense, parity):
            got = CodingPlan(gf, coeffs, kernel="native").apply(payload)
            want = mat_data_product_reference(gf, coeffs, payload)
            assert np.array_equal(got, want)


class TestFallback:
    def test_disable_knob(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE_DISABLE", "1")
        reset_native_backend()
        try:
            assert not native_available()
            assert "REPRO_NATIVE_DISABLE" in native_unavailable_reason()
        finally:
            monkeypatch.undo()
            reset_native_backend()

    def test_no_compiler_no_cache_falls_back(self, monkeypatch, tmp_path):
        # Simulate a host with no toolchain and a cold artifact cache: the
        # tier reports itself unavailable and forced-native plans run the
        # numpy tiers byte-exactly, counting the fallback.
        monkeypatch.setattr(nat, "_compiler", lambda: None)
        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path / "empty"))
        # An ambient disable knob would mask the no-compiler reason string.
        monkeypatch.delenv("REPRO_NATIVE_DISABLE", raising=False)
        reset_native_backend()
        try:
            assert not native_available()
            assert "no C compiler" in native_unavailable_reason()
            reset_kernel_selection()
            gf = GF256
            coeffs = _random(gf, (4, 50), seed=43) | 1
            payload = _random(gf, (50, LARGE), seed=47)
            plan = CodingPlan(gf, coeffs, kernel="native")
            got = plan.apply(payload)
            assert plan.kernel == "packed-full"
            counts = kernel_selection_info()
            assert counts["native_fallbacks"] == 1
            assert counts["packed-full"] == 1
            assert counts["native"] == 0
            assert np.array_equal(got, mat_data_product_reference(gf, coeffs, payload))
        finally:
            monkeypatch.undo()
            reset_native_backend()

    def test_forced_numpy_tiers_never_bind_backend(self):
        # kernel="table" / "xor" stay pure numpy even on a toolchain host,
        # so tier-vs-tier benchmarks measure what they claim to.
        gf = GF256
        coeffs = _zero_one(gf, (4, 50), seed=53)
        payload = _random(gf, (50, LARGE), seed=59)
        for choice, label in (("table", "packed-full"), ("xor", "xor")):
            plan = CodingPlan(gf, coeffs, kernel=choice)
            plan.apply(payload)
            assert plan.kernel == label
            assert plan._native_backend is None


@needs_native
class TestCounters:
    def test_selection_and_bytes_accounting(self):
        reset_kernel_selection()
        gf = GF256
        dense = CodingPlan(gf, _random(gf, (4, 50), seed=61) | 1, kernel="native")
        parity = CodingPlan(gf, np.ones((2, 50), dtype=np.uint8))
        payload = _random(gf, (50, LARGE), seed=67)
        dense.apply(payload)
        dense.apply(payload)  # selection counted once, bytes per apply
        parity.apply(payload)
        counts = kernel_selection_info()
        assert counts["native"] == 1
        assert counts["native-xor"] == 1
        assert counts["native_fallbacks"] == 0
        bytes_info = kernel_bytes_info()
        per_apply = payload.nbytes + 4 * LARGE
        assert bytes_info["native"] == 2 * per_apply
        assert bytes_info["native-xor"] == payload.nbytes + 2 * LARGE
        assert bytes_info["xor"] == 0
