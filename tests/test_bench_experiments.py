"""Shape tests for every figure reproduction.

These run the experiment harness at reduced scale and assert the paper's
qualitative claims — who wins, by roughly what factor — so a regression
in any layer shows up as a broken figure, not just a broken unit.
"""

import math

import pytest

from repro.bench import (
    ablation_construction_cost,
    ablation_rotation_wakeups,
    ablation_weight_assignment,
    fig1_locality,
    fig2_parallelism,
    fig7_decoding,
    fig7_encoding,
    fig8_reconstruction,
    fig9_mapreduce,
    fig10_heterogeneous,
)
from repro.gf import native_available

SMALL = 1 << 18  # 256 KiB blocks keep the timing sweeps quick


class TestFig1:
    def test_locality_halves_repair_io(self):
        t = fig1_locality()
        rows = {r["code"]: r for r in t.rows}
        assert rows["pyramid(4,2,1)"]["blocks_read"] == 2
        assert rows["galloper(4,2,1)"]["blocks_read"] == 2
        assert rows["rs(4,2)"]["blocks_read"] == 4
        assert rows["pyramid(4,2,1)"]["disk_io_mb"] == rows["rs(4,2)"]["disk_io_mb"] / 2
        assert rows["replication(x3)"]["storage_overhead"] == 3.0


class TestFig2:
    def test_parallelism_extends_to_all_servers(self):
        t = fig2_parallelism()
        rows = {r["code"]: r for r in t.rows}
        assert rows["pyramid(4,2,1)"]["parallel_servers"] == 4
        assert rows["galloper(4,2,1)"]["parallel_servers"] == 7
        assert rows["carousel(4,2)"]["parallel_servers"] == 6
        assert rows["rs(4,2)"]["parallel_servers"] == 4
        # Galloper never concentrates a full block of data on one server.
        assert rows["galloper(4,2,1)"]["max_data_fraction"] < 1.0


class TestFig7:
    def test_encoding_shape(self):
        # Resolve the native backend first (cffi import, dlopen or build)
        # so the first timed repeat does not pay for it, and take the
        # best of three.
        native_available()
        t = fig7_encoding(k_values=(4, 8), block_bytes=SMALL, repeats=3)
        ks = t.column("k")
        # Time grows with k for every code.
        for name in ("rs", "pyramid", "galloper"):
            col = t.column(name)
            assert col[-1] > col[0] * 0.8, name
        # Galloper encoding stays within a small factor of Pyramid.
        for row in t.rows:
            assert row["galloper"] < row["pyramid"] * 3

    def test_decoding_shape(self):
        t = fig7_decoding(k_values=(4, 8), block_bytes=SMALL, repeats=1)
        # Galloper decode is the most expensive, as in the paper
        # (aggregated over k to absorb timer noise).
        assert sum(t.column("galloper")) >= sum(t.column("pyramid")) * 0.5


class TestFig8:
    def test_reconstruction_shape(self):
        # 4 MiB blocks, not SMALL: the timing half of Fig. 8 is a claim
        # about the I/O-bound regime (the paper uses 45 MB blocks), and
        # with the native kernel tier the dense RS decode is fast enough
        # at 256 KiB that fixed per-repair overhead hides the locality win.
        bb = 1 << 22
        t = fig8_reconstruction(block_bytes=bb, repeats=1)
        mb = bb / (1 << 20)
        for row in t.rows[:6]:
            # Locality: Pyramid/Galloper read half of Reed-Solomon's bytes.
            assert row["pyramid_io"] == pytest.approx(2 * mb)
            assert row["galloper_io"] == pytest.approx(2 * mb)
            assert row["rs_io"] == pytest.approx(4 * mb)
        # Timing compared in aggregate (single rows are timer-noise prone).
        assert sum(r["pyramid_time"] for r in t.rows[:6]) < sum(r["rs_time"] for r in t.rows[:6])
        assert sum(r["galloper_time"] for r in t.rows[:6]) < sum(r["rs_time"] for r in t.rows[:6])
        # Block 7 (global parity) costs k blocks for both LRCs.
        last = t.rows[6]
        assert last["pyramid_io"] == pytest.approx(4 * mb)
        assert last["galloper_io"] == pytest.approx(4 * mb)
        assert math.isnan(last["rs_io"])


class TestFig9:
    def test_mapreduce_savings(self):
        t = fig9_mapreduce()
        rows = {(r["benchmark"], r["code"]): r for r in t.rows}
        for bench in ("terasort", "wordcount"):
            pyr = rows[(bench, "pyramid")]
            gal = rows[(bench, "galloper")]
            map_saving = 1 - gal["map"] / pyr["map"]
            job_saving = 1 - gal["job"] / pyr["job"]
            # Paper: up to 42.9% map saving (= 1 - 4/7), >= 30% job saving.
            assert 0.25 <= map_saving <= 0.429 + 1e-6, bench
            assert job_saving >= 0.25, bench
            # Reduce phase is essentially unchanged.
            assert gal["reduce"] == pytest.approx(pyr["reduce"], rel=0.05)


class TestFig10:
    def test_heterogeneous_weights_equalize_servers(self):
        t = fig10_heterogeneous()
        rows = {r["weights"]: r for r in t.rows}
        homo, hetero = rows["homogeneous"], rows["heterogeneous"]
        # Uniform weights: slow servers straggle badly.
        assert homo["slow_servers"] > homo["fast_servers"] * 2
        # Aware weights close most of the gap...
        gap_before = homo["slow_servers"] / homo["fast_servers"]
        gap_after = hetero["slow_servers"] / hetero["fast_servers"]
        assert gap_after < gap_before / 1.5
        # ...and the phase shortens (paper: 32.6%).
        phase_saving = 1 - hetero["map_phase"] / homo["map_phase"]
        assert 0.2 <= phase_saving <= 0.5


class TestAblations:
    def test_weight_policy(self):
        t = ablation_weight_assignment()
        for row in t.rows:
            assert row["aware"] <= row["uniform"] + 1e-9

    def test_rotation_wakeups(self):
        t = ablation_rotation_wakeups()
        rows = {r["code"]: r for r in t.rows}
        assert rows["rotated(4,2,1)"]["servers_woken"] > rows["pyramid(4,2,1)"]["servers_woken"]
        assert rows["galloper(4,2,1)"]["servers_woken"] == 2
        # Rotation's *byte* I/O stays near Pyramid's — the cost is wake-ups.
        assert rows["rotated(4,2,1)"]["blocks_of_io"] < rows["carousel(4,2)"]["blocks_of_io"]

    def test_construction_cost_reported(self):
        t = ablation_construction_cost(k_values=(4, 8))
        for row in t.rows:
            assert row["galloper_uniform"] >= 0
            assert row["pyramid"] >= 0


class TestHarness:
    def test_table_render(self):
        from repro.bench import Table

        t = Table(title="x", columns=("a", "b"))
        t.add(a=1, b=2.5)
        t.note("hello")
        out = t.render()
        assert "x" in out and "2.5" in out and "hello" in out

    def test_table_missing_column_rejected(self):
        from repro.bench import Table

        t = Table(title="x", columns=("a", "b"))
        with pytest.raises(ValueError):
            t.add(a=1)

    def test_saving_helper(self):
        from repro.bench import saving

        assert saving(100, 60) == pytest.approx(40.0)
        assert saving(0, 10) == 0.0
