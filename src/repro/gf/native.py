"""Native (generated-C) kernel tier, compiled at first use via cffi.

This is the top rung of the kernel ladder (scalar -> packed tables / XOR
rows -> native).  The numpy tiers stream every coding product through
ufunc passes and gather intermediates; ISA-L-class throughput needs the
hot loop in real machine code: the **gather-multiply-accumulate** of
:class:`repro.gf.kernels.CodingPlan`, a C loop over per-coefficient
product tables.

* On AVX2 hosts the GF(2^8) kernel runs the classic ISA-L ``pshufb``
  nibble split (two 16-entry shuffles per 32 symbols); GF(2^16) uses the
  split lo/hi byte tables.
* A coefficient of 1 needs no table: the term is a plain XOR, and a
  row's first two such terms fuse into one ``dst = a ^ b`` pass, so a
  0/1 plan (XOR parities, Pyramid/Galloper local repair — label
  ``native-xor``) moves one XOR's bytes per term.
* The loop is cache-blocked so a multi-MB stripe streams through an
  L2-sized working set: the block loop is outermost and every output row
  segment stays resident across the data-row walk.

The shared object is built lazily on first use: the generated C source
is compiled with the host toolchain (``cc``/``gcc``/``clang``,
``-O3 -march=native`` with a portable retry) into a per-source-version
build directory under ``~/.cache/repro-native`` (override with
``REPRO_NATIVE_CACHE``), then loaded through :mod:`cffi`'s ABI mode.
Later processes dlopen the cached artifact without recompiling.

Everything degrades transparently: no compiler, no cffi, a failed build,
or ``REPRO_NATIVE_DISABLE=1`` all make :func:`get_backend` return
``None`` and the plan layer falls back to the numpy tiers
(:func:`native_unavailable_reason` says why).  Correctness never depends
on this module — the native kernels are byte-exact against the numpy
tiers and the scalar reference (``tests/test_native.py``).
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import tempfile
import threading
from pathlib import Path

import numpy as np

__all__ = [
    "NativeBackend",
    "NativeBuildError",
    "get_backend",
    "native_available",
    "native_unavailable_reason",
    "reset_native_backend",
    "native_build_key",
]

#: Bump to invalidate cached shared objects when the ABI (not the C
#: text) changes in a way the source hash cannot see.
_ABI_TAG = "repro-native-1"

_CDEF = """
int repro_native_simd(void);
void repro_gf8_gather(const uint8_t *tables, const uint8_t *coeffs,
                      const uint8_t *data, ptrdiff_t dstride,
                      const int32_t *cols,
                      uint8_t *out, ptrdiff_t ostride,
                      const int32_t *rows,
                      int32_t m, int32_t n, size_t s, size_t block,
                      int32_t *state);
void repro_gf16_gather(const uint16_t *lo, const uint16_t *hi,
                       const uint16_t *coeffs,
                       const uint16_t *data, ptrdiff_t dstride,
                       const int32_t *cols,
                       uint16_t *out, ptrdiff_t ostride,
                       const int32_t *rows,
                       int32_t m, int32_t n, size_t s, size_t block,
                       int32_t *state);
"""

_C_SOURCE = r"""
#include <stdint.h>
#include <stddef.h>
#include <string.h>

#if defined(__AVX2__)
#include <immintrin.h>
#endif

int repro_native_simd(void)
{
#if defined(__AVX2__)
    return 2;
#else
    return 1;
#endif
}

/* ------------------------------------------------------------- gather */

/* dst[t] (^)= tab[src[t]] over one cache block; tab is one coefficient's
 * 256-entry product table.  acc == 0 stores (the first product of an
 * output row lands directly, no zero-fill pass), acc != 0 accumulates. */
static void mla8_scalar(uint8_t *dst, const uint8_t *src, const uint8_t *tab,
                        size_t w, int acc)
{
    size_t t;
    if (acc)
        for (t = 0; t < w; t++) dst[t] ^= tab[src[t]];
    else
        for (t = 0; t < w; t++) dst[t] = tab[src[t]];
}

#if defined(__AVX2__)
/* ISA-L style nibble split: c*x == c*(x_lo) ^ c*(x_hi << 4), each term a
 * 16-entry table -> one pshufb per nibble, 32 symbols per iteration. */
static void mla8_block(uint8_t *dst, const uint8_t *src, const uint8_t *tab,
                       size_t w, int acc)
{
    uint8_t hi_tab[16];
    __m256i lo_t, hi_t, mask;
    size_t t = 0;
    int v;
    if (w < 32) { mla8_scalar(dst, src, tab, w, acc); return; }
    for (v = 0; v < 16; v++) hi_tab[v] = tab[v << 4];
    lo_t = _mm256_broadcastsi128_si256(_mm_loadu_si128((const __m128i *)tab));
    hi_t = _mm256_broadcastsi128_si256(_mm_loadu_si128((const __m128i *)hi_tab));
    mask = _mm256_set1_epi8(0x0f);
    for (; t + 32 <= w; t += 32) {
        __m256i x = _mm256_loadu_si256((const __m256i *)(src + t));
        __m256i lo = _mm256_and_si256(x, mask);
        __m256i hi = _mm256_and_si256(_mm256_srli_epi16(x, 4), mask);
        __m256i p = _mm256_xor_si256(_mm256_shuffle_epi8(lo_t, lo),
                                     _mm256_shuffle_epi8(hi_t, hi));
        if (acc)
            p = _mm256_xor_si256(p, _mm256_loadu_si256((const __m256i *)(dst + t)));
        _mm256_storeu_si256((__m256i *)(dst + t), p);
    }
    if (t < w) mla8_scalar(dst + t, src + t, tab, w - t, acc);
}
#else
#define mla8_block mla8_scalar
#endif

/* --------------------------------------------------- coefficient 1 */

/* A coefficient-1 term is a plain XOR, no table.  acc != 0: dst ^= a.
 * Otherwise this is the row's first term: dst = a ^ b when its next
 * term b is a 1 too (fused, so an all-ones row moves one XOR's bytes
 * per term), else dst = a. */
static void xor_term(uint8_t *dst, const uint8_t *a, const uint8_t *b,
                     size_t nbytes, int acc)
{
    size_t t;
    if (acc)
        for (t = 0; t < nbytes; t++) dst[t] ^= a[t];
    else if (b)
        for (t = 0; t < nbytes; t++) dst[t] = a[t] ^ b[t];
    else
        memcpy(dst, a, nbytes);
}

/* Per-row state across one block's data-row walk: -1 while nothing has
 * landed in the row (its first product stores, no zero-fill pass), then
 * the data row a fused first XOR already consumed (or n for none). */
static void reset_state(int32_t *state, int32_t m)
{
    int32_t i;
    for (i = 0; i < m; i++) state[i] = -1;
}

/* First nonzero column of a coefficient row after j, or n. */
#define NEXT_NONZERO(row, j, n, out) \
    do { (out) = (j) + 1; while ((out) < (n) && !(row)[(out)]) (out)++; } while (0)

/* ------------------------------------------------------------- gather */

/* Cache-blocked (m x n) GF(2^8) product: for each L2-sized column block,
 * walk the data rows once; every output-row segment stays resident across
 * the walk.  `state` is an m-entry scratch (see reset_state). */
void repro_gf8_gather(const uint8_t *tables, const uint8_t *coeffs,
                      const uint8_t *data, ptrdiff_t dstride,
                      const int32_t *cols,
                      uint8_t *out, ptrdiff_t ostride,
                      const int32_t *rows,
                      int32_t m, int32_t n, size_t s, size_t block,
                      int32_t *state)
{
    size_t s0;
    for (s0 = 0; s0 < s; s0 += block) {
        size_t w = (s - s0 < block) ? s - s0 : block;
        int32_t i, j;
        reset_state(state, m);
        for (j = 0; j < n; j++) {
            const uint8_t *src = data + (ptrdiff_t)cols[j] * dstride + (ptrdiff_t)s0;
            for (i = 0; i < m; i++) {
                const uint8_t *crow = coeffs + (size_t)i * (size_t)n;
                uint8_t c = crow[j];
                uint8_t *dst;
                if (!c || state[i] == j) continue;
                dst = out + (ptrdiff_t)rows[i] * ostride + (ptrdiff_t)s0;
                if (c == 1) {
                    const uint8_t *b = 0;
                    int32_t j2 = n;
                    if (state[i] < 0) {
                        NEXT_NONZERO(crow, j, n, j2);
                        if (j2 < n && crow[j2] == 1)
                            b = data + (ptrdiff_t)cols[j2] * dstride + (ptrdiff_t)s0;
                        else
                            j2 = n;
                    }
                    xor_term(dst, src, b, w, state[i] >= 0);
                    if (state[i] < 0) state[i] = j2;
                    continue;
                }
                mla8_block(dst, src,
                           tables + ((size_t)i * (size_t)n + (size_t)j) * 256,
                           w, state[i] >= 0);
                if (state[i] < 0) state[i] = n;
            }
        }
    }
}

/* GF(2^16): split-table product c*x == lo[x & 0xff] ^ hi[x >> 8].
 * Strides and counts are in uint16 elements. */
static void mla16(uint16_t *dst, const uint16_t *src,
                  const uint16_t *lo, const uint16_t *hi, size_t w, int acc)
{
    size_t t;
    if (acc)
        for (t = 0; t < w; t++) dst[t] ^= (uint16_t)(lo[src[t] & 0xff] ^ hi[src[t] >> 8]);
    else
        for (t = 0; t < w; t++) dst[t] = (uint16_t)(lo[src[t] & 0xff] ^ hi[src[t] >> 8]);
}

void repro_gf16_gather(const uint16_t *lo, const uint16_t *hi,
                       const uint16_t *coeffs,
                       const uint16_t *data, ptrdiff_t dstride,
                       const int32_t *cols,
                       uint16_t *out, ptrdiff_t ostride,
                       const int32_t *rows,
                       int32_t m, int32_t n, size_t s, size_t block,
                       int32_t *state)
{
    size_t s0;
    for (s0 = 0; s0 < s; s0 += block) {
        size_t w = (s - s0 < block) ? s - s0 : block;
        int32_t i, j;
        reset_state(state, m);
        for (j = 0; j < n; j++) {
            const uint16_t *src = data + (ptrdiff_t)cols[j] * dstride + (ptrdiff_t)s0;
            for (i = 0; i < m; i++) {
                const uint16_t *crow = coeffs + (size_t)i * (size_t)n;
                size_t e = (size_t)i * (size_t)n + (size_t)j;
                uint16_t c = crow[j];
                uint16_t *dst;
                if (!c || state[i] == j) continue;
                dst = out + (ptrdiff_t)rows[i] * ostride + (ptrdiff_t)s0;
                if (c == 1) {
                    const uint16_t *b = 0;
                    int32_t j2 = n;
                    if (state[i] < 0) {
                        NEXT_NONZERO(crow, j, n, j2);
                        if (j2 < n && crow[j2] == 1)
                            b = data + (ptrdiff_t)cols[j2] * dstride + (ptrdiff_t)s0;
                        else
                            j2 = n;
                    }
                    xor_term((uint8_t *)dst, (const uint8_t *)src, (const uint8_t *)b,
                             w * 2, state[i] >= 0);
                    if (state[i] < 0) state[i] = j2;
                    continue;
                }
                mla16(dst, src, lo + e * 256, hi + e * 256, w, state[i] >= 0);
                if (state[i] < 0) state[i] = n;
            }
        }
    }
}
"""


class NativeBuildError(RuntimeError):
    """Raised internally when the shared object cannot be produced."""


def _source_key() -> str:
    """Hash of the generated C + cdef ABI: the correctness-critical half."""
    blob = "\0".join((_ABI_TAG, _C_SOURCE, _CDEF))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _toolchain_key() -> str:
    """Hash of the compiler identity: the codegen-quality half."""
    cc = _compiler()
    cc_id = ""
    if cc:
        try:
            cc_id = subprocess.run(
                [cc, "--version"], capture_output=True, text=True, timeout=30
            ).stdout.splitlines()[0].strip()
        except (OSError, subprocess.SubprocessError, IndexError):
            cc_id = cc
    return hashlib.sha256(f"{cc or ''}\0{cc_id}".encode()).hexdigest()[:8]


def native_build_key() -> str:
    """Relative cache path for this build: ``<source-key>/<toolchain-key>``.

    The outer level hashes the generated C and the cdef ABI — anything
    that could make a stale shared object unsafe to dlopen.  The inner
    level hashes the compiler identity, which only affects codegen
    quality; a compiler-less host may therefore safely dlopen *any*
    cached artifact under the current source key (see :func:`_resolve`).
    """
    return f"{_source_key()}/{_toolchain_key()}"


def _compiler() -> str | None:
    cc = os.environ.get("CC")
    if cc:
        return cc if shutil.which(cc) else None
    for cand in ("cc", "gcc", "clang"):
        found = shutil.which(cand)
        if found:
            return found
    return None


def _cache_root() -> Path:
    override = os.environ.get("REPRO_NATIVE_CACHE")
    if override:
        return Path(override)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro-native"


def _disabled() -> bool:
    flag = os.environ.get("REPRO_NATIVE_DISABLE", "").strip().lower()
    return flag not in ("", "0", "false", "no")


def _build_shared_object(build_dir: Path) -> Path:
    """Compile the generated C into ``build_dir`` and return the .so path."""
    cc = _compiler()
    if cc is None:
        raise NativeBuildError("no C compiler on PATH (cc/gcc/clang) and $CC unset")
    build_dir.mkdir(parents=True, exist_ok=True)
    so_path = build_dir / "repro_native.so"
    if so_path.exists():
        return so_path
    c_path = build_dir / "repro_native.c"
    c_path.write_text(_C_SOURCE)
    base = [cc, "-O3", "-fPIC", "-shared", str(c_path)]
    attempts = (["-march=native", "-funroll-loops"], [])
    last = None
    for extra in attempts:
        fd, tmp = tempfile.mkstemp(suffix=".so", dir=str(build_dir))
        os.close(fd)
        cmd = base[:1] + extra + base[1:] + ["-o", tmp]
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
        except (OSError, subprocess.SubprocessError) as exc:
            os.unlink(tmp)
            raise NativeBuildError(f"compiler invocation failed: {exc}") from exc
        if proc.returncode == 0:
            os.replace(tmp, so_path)  # atomic: concurrent builders converge
            (build_dir / "build-info.txt").write_text(
                f"cc: {' '.join(cmd[:-2])}\n"
            )
            return so_path
        os.unlink(tmp)
        last = proc.stderr.strip()
    raise NativeBuildError(f"cc failed: {last or 'unknown error'}")


class NativeBackend:
    """A loaded native library plus numpy-aware call wrappers.

    One instance per process (see :func:`get_backend`); all methods are
    stateless with respect to the backend and release the GIL for the
    duration of the C call (cffi ABI-mode semantics).
    """

    def __init__(self, ffi, lib, so_path: Path):
        self._ffi = ffi
        self._lib = lib
        self.so_path = so_path
        #: 2 when the library was compiled with AVX2, 1 for plain C.
        self.simd_level = int(lib.repro_native_simd())

    # ------------------------------------------------------------ helpers

    def _ptr(self, item: str, arr: np.ndarray):
        """A ``item *`` argument for ``arr``'s first element.

        Small applies pay this once per pointer argument, so it takes the
        cheapest route numpy offers: the buffer protocol for contiguous
        arrays, else the raw address (``arr.ctypes`` costs several times
        either).
        """
        if arr.flags.c_contiguous:
            return self._ffi.from_buffer(item + "[]", arr)
        return self._ffi.cast(item + " *", arr.__array_interface__["data"][0])

    # ------------------------------------------------------------- kernels

    def gf8_gather(self, tables, coeffs, data, cols, out, rows, block: int) -> None:
        """``out[rows] = tables @ data[cols]`` over GF(2^8), cache-blocked.

        Coefficient-1 terms are XORs and never read ``tables``.
        """
        m, n = coeffs.shape
        state = np.empty(m, dtype=np.int32)
        self._lib.repro_gf8_gather(
            self._ptr("uint8_t", tables),
            self._ptr("uint8_t", coeffs),
            self._ptr("uint8_t", data), data.strides[0],
            self._ptr("int32_t", cols),
            self._ptr("uint8_t", out), out.strides[0],
            self._ptr("int32_t", rows),
            m, n, data.shape[1], block,
            self._ptr("int32_t", state),
        )

    def gf16_gather(self, lo, hi, coeffs, data, cols, out, rows, block: int) -> None:
        """Split-table GF(2^16) product; strides/counts in uint16 elements."""
        m, n = coeffs.shape
        state = np.empty(m, dtype=np.int32)
        self._lib.repro_gf16_gather(
            self._ptr("uint16_t", lo),
            self._ptr("uint16_t", hi),
            self._ptr("uint16_t", coeffs),
            self._ptr("uint16_t", data), data.strides[0] // 2,
            self._ptr("int32_t", cols),
            self._ptr("uint16_t", out), out.strides[0] // 2,
            self._ptr("int32_t", rows),
            m, n, data.shape[1], block,
            self._ptr("int32_t", state),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        simd = "avx2" if self.simd_level >= 2 else "scalar"
        return f"NativeBackend({simd}, {self.so_path})"


# Resolution is process-wide and memoized: None = not yet resolved; the
# tuple holds (backend-or-None, reason).  `reset_native_backend` clears
# it for tests that simulate a missing toolchain.
_state: tuple[NativeBackend | None, str] | None = None
_lock = threading.Lock()


def _resolve() -> tuple[NativeBackend | None, str]:
    if _disabled():
        return None, "disabled by REPRO_NATIVE_DISABLE"
    try:
        import cffi
    except ImportError:
        return None, "cffi is not installed"
    try:
        if _compiler() is None:
            # No toolchain — but any cached artifact built from this exact
            # source/ABI (by whichever compiler) is safe to dlopen.
            hits = sorted((_cache_root() / _source_key()).glob("*/repro_native.so"))
            if not hits:
                return None, "no C compiler on PATH (cc/gcc/clang) and $CC unset"
            so_path = hits[0]
        else:
            so_path = _build_shared_object(_cache_root() / native_build_key())
        ffi = cffi.FFI()
        ffi.cdef(_CDEF)
        lib = ffi.dlopen(str(so_path))
        return NativeBackend(ffi, lib, so_path), ""
    except (NativeBuildError, OSError) as exc:
        return None, str(exc)


def get_backend() -> NativeBackend | None:
    """The process-wide native backend, or ``None`` when unavailable.

    The first call pays the compile (or a dlopen of the cached shared
    object); every later call is a memoized read.  Failure is memoized
    too — a broken toolchain is reported once, not re-probed per plan.
    """
    global _state
    if _state is None:
        with _lock:
            if _state is None:
                _state = _resolve()
    return _state[0]


def native_available() -> bool:
    """Whether the native tier can execute in this process."""
    return get_backend() is not None


def native_unavailable_reason() -> str:
    """Why :func:`native_available` is False (empty string when it is True)."""
    get_backend()
    return _state[1] if _state else ""


def reset_native_backend() -> None:
    """Forget the resolved backend so the next call re-probes the toolchain.

    Test hook: combined with monkeypatching ``shutil.which`` /
    ``REPRO_NATIVE_DISABLE`` it simulates a compiler-less host.  Plans
    compiled before the reset keep their already-bound backend; clear
    plan caches too when simulating a cold process.
    """
    global _state
    with _lock:
        _state = None
