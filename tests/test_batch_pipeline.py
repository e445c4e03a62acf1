"""Property tests for the batched multi-stripe coding pipeline.

The batched pipeline must be an *optimisation*, never a semantic change:
for every code family, every fused operation — encode, decode,
reconstruct, striped write/read, bulk repair, batched scrub heal — must
produce bytes identical to the per-group seed path, including ragged
tails, single-group files, server failures and transiently flaky
helpers.
"""

import numpy as np
import pytest

from repro.cluster import Cluster
from repro.codes import PyramidCode, ReedSolomonCode
from repro.core import GalloperCode
from repro.faults import FaultModel
from repro.faults.model import TransientErrors
from repro.storage import (
    DistributedFileSystem,
    RepairManager,
    Scrubber,
    StripedFileSystem,
    pipeline,
)
from repro.storage.striped import group_name
from tests.conftest import payload_bytes

CODES = [
    ("rs", lambda: ReedSolomonCode(4, 2)),
    ("pyramid", lambda: PyramidCode(4, 2, 1)),
    ("galloper", lambda: GalloperCode(4, 2, 1)),
]
IDS = [c[0] for c in CODES]


def make_grids(code, widths, seed=3):
    rng = np.random.default_rng(seed)
    return [
        rng.integers(0, code.gf.order, size=(code.data_stripe_total, w)).astype(code.gf.dtype)
        for w in widths
    ]


def build_striped(make_code, payload_size=120_000, fault_model=None, servers=30):
    cluster = Cluster.homogeneous(servers)
    dfs = DistributedFileSystem(cluster, fault_model=fault_model)
    sfs = StripedFileSystem(dfs)
    payload = payload_bytes(payload_size, seed=9)
    meta = sfs.write_file("f", payload, make_code, max_block_bytes=4096)
    return cluster, dfs, sfs, meta, payload


# ------------------------------------------------------------- primitives


@pytest.mark.parametrize("name,make", CODES, ids=IDS)
class TestPrimitives:
    def test_batch_encode_matches_per_group(self, name, make):
        code = make()
        grids = make_grids(code, [64, 64, 64, 31])  # ragged tail in-batch
        batched = pipeline.batch_encode(code, grids)
        for g, b in zip(grids, batched):
            assert np.array_equal(b, code.encode(g))

    def test_batch_decode_matches_per_group(self, name, make):
        code = make()
        grids = make_grids(code, [48, 48, 17])
        blocks = [code.encode(g) for g in grids]
        # Mixed availability patterns bucket separately but return in order.
        patterns = [
            [b for b in range(code.n) if b != 0],
            [b for b in range(code.n) if b != 1],
            [b for b in range(code.n) if b != 0],
        ]
        availables = [
            {b: blk[b] for b in pat} for blk, pat in zip(blocks, patterns)
        ]
        decoded = pipeline.batch_decode(code, availables)
        for g, out, available in zip(grids, decoded, availables):
            assert np.array_equal(out, g)
            assert np.array_equal(out, code.decode(available))

    def test_batch_reconstruct_matches_per_group(self, name, make):
        code = make()
        grids = make_grids(code, [40, 40, 9])
        blocks = [code.encode(g) for g in grids]
        for target in range(code.n):
            plan = code.repair_plan(target)
            availables = [{h: blk[h] for h in plan.helpers} for blk in blocks]
            rebuilt = pipeline.batch_reconstruct(code, target, plan.helpers, availables)
            for blk, out, available in zip(blocks, rebuilt, availables):
                assert np.array_equal(out, blk[target])
                assert np.array_equal(out, code.reconstruct(target, available, plan)[0])

    def test_single_segment_short_circuits(self, name, make):
        code = make()
        (grid,) = make_grids(code, [33])
        (batched,) = pipeline.batch_encode(code, [grid])
        assert np.array_equal(batched, code.encode(grid))

    def test_batch_encode_rejects_bad_shape(self, name, make):
        code = make()
        with pytest.raises(ValueError):
            pipeline.batch_encode(code, [np.zeros((1, 4), dtype=code.gf.dtype)])


# ----------------------------------------------------------- striped files


@pytest.mark.parametrize("name,make", CODES, ids=IDS)
class TestStripedBatched:
    def test_batched_write_read_roundtrip_with_ragged_tail(self, name, make):
        _, dfs, sfs, meta, payload = build_striped(make)
        assert meta.group_count > 1
        assert meta.original_size % meta.group_payload != 0  # tail exercised
        assert sfs.read_file("f") == payload
        assert sfs.read_file("f", batch=False) == payload

    def test_batched_write_matches_per_group_write(self, name, make):
        payload = payload_bytes(90_000, seed=4)
        stored = {}
        for batch in (False, True):
            cluster = Cluster.homogeneous(30)
            dfs = DistributedFileSystem(cluster)
            sfs = StripedFileSystem(dfs)
            meta = sfs.write_file("f", payload, make, max_block_bytes=4096, batch=batch)
            stored[batch] = {
                g: {b: np.asarray(dfs.client.get(ef.server_of(b), g, b)).copy()
                    for b in ef.placement}
                for g in meta.group_names()
                for ef in [dfs.file(g)]
            }
        assert stored[False].keys() == stored[True].keys()
        for g in stored[False]:
            for b in stored[False][g]:
                assert np.array_equal(stored[False][g][b], stored[True][g][b]), (g, b)

    def test_single_group_file(self, name, make):
        cluster = Cluster.homogeneous(30)
        sfs = StripedFileSystem(DistributedFileSystem(cluster))
        payload = payload_bytes(2_000, seed=6)
        meta = sfs.write_file("f", payload, make, max_block_bytes=1 << 20)
        assert meta.group_count == 1
        assert sfs.read_file("f") == payload

    def test_batched_read_with_server_failure(self, name, make):
        cluster, dfs, sfs, meta, payload = build_striped(make)
        ef = dfs.file(group_name("f", 0))
        cluster.fail(ef.server_of(0))
        assert sfs.read_file("f") == payload
        assert sfs.read_file("f", batch=False) == payload
        assert dfs.metrics.total("degraded_reads") > 0

    def test_batched_read_with_flaky_helper(self, name, make):
        # Block 1's server answers every read with a transient error; the
        # batched degraded path must fall back and still be byte-exact.
        probe = make()
        cluster = Cluster.homogeneous(30)
        dfs = DistributedFileSystem(cluster)
        sfs = StripedFileSystem(dfs)
        payload = payload_bytes(60_000, seed=12)
        sfs.write_file("f", payload, make, max_block_bytes=4096)
        ef = dfs.file(group_name("f", 0))
        cluster.fail(ef.server_of(0))
        model = FaultModel(TransientErrors(rate=1.0, servers=frozenset({ef.server_of(1)})))
        dfs.store.install_faults(model, dfs.clock)
        assert sfs.read_file("f") == payload

    def test_zero_copy_and_batch_metrics(self, name, make):
        probe = make()
        stripe = 4096 // (probe.N * probe.gf.dtype.itemsize)
        gp = probe.data_stripe_total * stripe * probe.gf.dtype.itemsize
        # Tail of total+1 payload symbols: needs padding, so it cannot
        # alias the output buffer and must cross one counted copy.
        cluster = Cluster.homogeneous(30)
        dfs = DistributedFileSystem(cluster)
        sfs = StripedFileSystem(dfs)
        payload = payload_bytes(3 * gp + probe.data_stripe_total + 1, seed=9)
        meta = sfs.write_file("f", payload, make, max_block_bytes=4096)
        assert dfs.metrics.total("batch_applies") >= 1
        assert dfs.metrics.total("batch_groups") >= meta.group_count - 1
        assert sfs.read_file("f") == payload
        assert dfs.metrics.total("bytes_moved_zero_copy") > 0
        assert dfs.metrics.total("bytes_copied") > 0


# ------------------------------------------------------------- bulk repair


@pytest.mark.parametrize("name,make", CODES, ids=IDS)
class TestBulkRepair:
    def test_batched_repair_server(self, name, make):
        cluster, dfs, sfs, meta, payload = build_striped(make)
        victim = dfs.file(group_name("f", 0)).server_of(0)
        cluster.fail(victim)
        report = RepairManager(dfs).repair_server(victim, batch=True)
        assert report.blocks_rebuilt > 0
        assert dfs.metrics.total("batch_applies") > 0
        for g in meta.group_names():
            ef = dfs.file(g)
            assert all(s != victim for s in ef.placement.values())
        assert sfs.read_file("f") == payload

    def test_batched_repair_matches_unbatched_accounting(self, name, make):
        outcomes = {}
        for batch in (False, True):
            cluster, dfs, sfs, meta, payload = build_striped(make)
            victim = dfs.file(group_name("f", 0)).server_of(0)
            cluster.fail(victim)
            report = RepairManager(dfs).repair_server(victim, batch=batch)
            assert sfs.read_file("f") == payload
            outcomes[batch] = {
                (r.file, r.block, r.helpers, r.bytes_read) for r in report.reports
            }
        assert outcomes[False] == outcomes[True]

    def test_bulk_repair_with_flaky_helper_falls_back(self, name, make):
        cluster, dfs, sfs, meta, payload = build_striped(make)
        ef = dfs.file(group_name("f", 0))
        victim = ef.server_of(0)
        helper = ef.server_of(1)
        cluster.fail(victim)
        model = FaultModel(TransientErrors(rate=1.0, servers=frozenset({helper})))
        dfs.store.install_faults(model, dfs.clock)
        report = RepairManager(dfs).repair_server(victim, batch=True)
        assert report.blocks_rebuilt > 0
        assert sfs.read_file("f") == payload


# --------------------------------------------------------------- scrubbing


class TestBatchedScrubHeal:
    def test_batch_heal_reverifies(self):
        cluster, dfs, sfs, meta, payload = build_striped(lambda: GalloperCode(4, 2, 1))
        for i in (0, 1):
            ef = dfs.file(group_name("f", i))
            dfs.store.corrupt(ef.server_of(2), ef.name, 2, offset=3)
        report = Scrubber(dfs).scrub(batch=True)
        assert len(report.corrupted) == 2
        assert len(report.repairs) == 2
        assert report.reverified == 2
        assert dfs.metrics.total("scrub_reverified") == 2
        assert sfs.read_file("f") == payload
        assert Scrubber(dfs).scrub(batch=True).healthy

    def test_batch_heal_matches_unbatched(self):
        healed = {}
        for batch in (False, True):
            cluster, dfs, sfs, meta, payload = build_striped(lambda: PyramidCode(4, 2, 1))
            ef = dfs.file(group_name("f", 1))
            dfs.store.corrupt(ef.server_of(0), ef.name, 0)
            report = Scrubber(dfs).scrub(batch=batch)
            assert sfs.read_file("f") == payload
            healed[batch] = {(r.file, r.block, r.helpers) for r in report.repairs}
        assert healed[False] == healed[True]


# ------------------------------------------------------------ stats helper


def test_run_striped_stats_smoke():
    from repro.cli import run_striped_stats

    stats = run_striped_stats(lambda: GalloperCode(4, 2, 1), groups=4, block_bytes=2048)
    assert stats["groups"] == 4
    assert stats["derived"]["groups_per_apply"] >= 1.0
    assert stats["derived"]["zero_copy_fraction"] > 0.5
    assert stats["metrics"]["batch_applies"] >= 1
