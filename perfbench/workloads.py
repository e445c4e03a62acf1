"""The benchmark's workload families, their input shapes and oracles.

Three families of *units* drive the public APIs:

* ``dfs`` — one round through :class:`DistributedFileSystem` on a
  12-server cluster: write objects (rotating RS(4,3), Pyramid(4,2,1) and
  Galloper(4,2,1), all 1.75x), read each back whole, crash the server
  holding the most blocks, degraded-read every object with a block on it, then
  ``RepairManager.repair_server(victim, batch=True)``.
* ``serve`` — one episode of closed-loop Zipf traffic through
  :class:`ServingGateway` (diurnal think time, a flash crowd, a gray-slow
  server, a mid-run crash repaired as the ``repair`` tenant).
* ``durability`` — ``simulate_reliability`` over RS, Pyramid and
  Galloper with random placement, Weibull lifetimes, rack events, latent
  sector errors and scrubbing.

Every unit derives its inputs from its own seed, checks every output
against an independent expectation (the generated payloads, the blocks
captured before the crash, the catalog bytes) and records what it
measured in a :class:`Tally`.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

import numpy as np

import repro.reliability.simulator as reliability_sim
from repro.analysis.reliability import HOURS_PER_YEAR
from repro.cluster.placement import RandomPlacement
from repro.cluster.topology import Cluster
from repro.codes import PyramidCode, ReedSolomonCode
from repro.codes.base import CodeError
from repro.core.galloper import GalloperCode
from repro.faults.model import FaultModel, GraySlowdown
from repro.gf.native import native_available, reset_native_backend
from repro.reliability.lifetime import WeibullLifetime
from repro.serving import (
    FlashCrowd,
    GatewayConfig,
    ServingError,
    ServingGateway,
    WorkloadGenerator,
    WorkloadResult,
    WorkloadSpec,
    file_payload,
)
from repro.storage.blockstore import StorageError
from repro.storage.filesystem import DistributedFileSystem
from repro.storage.repair import RepairManager

KiB = 1 << 10
MiB = 1 << 20

#: Equal 1.75x overhead: n = 7 blocks holding k = 4 blocks of data.
CODES = (lambda: ReedSolomonCode(4, 3), lambda: PyramidCode(4, 2, 1), lambda: GalloperCode(4, 2, 1))

DFS_SERVERS = 12

#: Serving episodes: one tenant per code in :data:`CODES`, 256 KiB files
#: read 8 KiB at a time, three requests per closed-loop client.
SERVE_SERVERS = 60
TENANTS = ("alpha", "beta", "gamma")
FILE_SIZE = 256 * KiB
READ_SIZE = 8 * KiB
REQUESTS_PER_CLIENT = 3
GRAY_SERVER = 1
CRASH_SERVER = 0
#: Scales the think time, diurnal period, flash-crowd window and crash
#: instant together (1.0 = 2 s think, crash at 2 s): a shorter timeline
#: puts the same requests on the disks faster, so they queue.
TIME_SCALE = 0.05
#: Extra seconds per read on the gray server, about twice a clean 8 KiB
#: read: slow enough to trigger hedges, not so slow that one disk's
#: backlog decides the whole latency tail.
GRAY_LATENCY = 0.002

#: Durability: a 4 x 6 racked cluster.
NUM_RACKS = 4
SERVERS_PER_RACK = 6


@dataclass(frozen=True)
class DfsShape:
    object_bytes: int
    objects: int


@dataclass(frozen=True)
class ServeShape:
    clients: int
    files_per_tenant: int
    cache_bytes: int


@dataclass(frozen=True)
class DurabilityShape:
    stripes: int
    horizon_years: float


class Tally:
    """What one benchmark run measured, across every unit it ran."""

    def __init__(self, ledger):
        self.ledger = ledger
        self.attempted = 0
        self.failed = 0
        self.mismatches: list[str] = []
        #: ``family -> set-up seconds`` of every untraced unit.
        self.setup_s: dict[str, list[float]] = {}
        #: ``phase -> work done`` by untraced units (MB, requests, stripe-years).
        self.work: dict[str, float] = {}
        #: ``phase -> work over wall time`` of each untraced unit.
        self.unit_rates: dict[str, list[float]] = {}
        self.stored_bytes = 0
        self.user_bytes = 0
        #: Pooled outcome of the scored serving episodes (simulated time).
        self.scored = WorkloadResult()
        #: Layer counters read through public readouts (traced units).
        self.counters: dict[str, float] = {}

    def check(self, what: str, ok: bool) -> None:
        if not ok:
            self.mismatches.append(what)

    def did(self, phase: str, amount: float) -> None:
        self.work[phase] = self.work.get(phase, 0.0) + amount

    def add(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + amount


def _flip(data: bytes) -> bytes:
    """``data`` with its first byte inverted: a deliberately wrong expectation."""
    return bytes([data[0] ^ 0xFF]) + data[1:]


def _load_native() -> None:
    """Re-probe and load the native kernel tier (part of every set-up)."""
    reset_native_backend()
    native_available()


def _plan_cache_counts(tally: Tally, codes) -> None:
    for code in codes:
        info = code.plan_cache_info()
        tally.add("plan_cache.hits", info["hits"])
        tally.add("plan_cache.misses", info["misses"])


# ------------------------------------------------------------------ dfs


def dfs_unit(tally: Tally, shape: DfsShape, seed: int, traced: bool, tamper: str | None = None):
    """One write / read / crash / degraded read / repair round.

    ``tamper`` names an oracle (``read``, ``degraded``, ``repair``) whose
    expectation is deliberately corrupted, so the self-test can see it fail.
    """
    ledger = tally.ledger
    t0 = perf_counter()
    with ledger.phase("setup"):
        _load_native()
        rng = np.random.default_rng(seed)
        payloads = [
            rng.integers(0, 256, size=shape.object_bytes, dtype=np.uint8).tobytes()
            for _ in range(shape.objects)
        ]
        names = [f"obj{i:04d}" for i in range(shape.objects)]
        cluster = Cluster.homogeneous(DFS_SERVERS)
        dfs = DistributedFileSystem(cluster)
        placement = RandomPlacement(seed=seed)
    setup = perf_counter() - t0
    size = shape.object_bytes

    written = []
    with ledger.phase("write"):
        for i, (name, payload) in enumerate(zip(names, payloads)):
            try:
                dfs.write_file(name, payload, code=CODES[i % len(CODES)](), placement=placement)
                written.append(i)
            except (StorageError, CodeError):
                tally.failed += 1
    tally.attempted += shape.objects
    tally.stored_bytes += sum(dfs.store.used_bytes(s.server_id) for s in cluster)
    tally.user_bytes += size * len(written)

    expect = [_flip(p) if tamper == "read" else p for p in payloads]
    with ledger.phase("read"):
        got = [_read(dfs, names[i]) for i in written]
    for i, data in zip(written, got):
        _score(tally, f"read {names[i]}", data, expect[i])

    # A server picked at random may hold one block of one 8 MiB object, and
    # such a unit's degraded-read and repair rates would stand out from the
    # rest; the fullest server gives every unit a like share of the work.
    held = {s.server_id: sum(len(dfs.file(names[i]).blocks_on_server(s.server_id)) for i in written) for s in cluster}
    victim = max(held, key=held.__getitem__)
    captured = {
        (names[i], b): dfs.store.get(victim, names[i], b)
        for i in written
        for b in dfs.file(names[i]).blocks_on_server(victim)
    }
    if tamper == "repair" and captured:
        key = next(iter(captured))
        captured[key] = captured[key] ^ 1
    cluster.fail(victim)
    affected = [i for i in written if dfs.file(names[i]).blocks_on_server(victim)]
    expect = [_flip(p) if tamper == "degraded" else p for p in payloads]
    with ledger.phase("degraded_read"):
        got = [_read(dfs, names[i]) for i in affected]
    for i, data in zip(affected, got):
        _score(tally, f"degraded read {names[i]}", data, expect[i])

    with ledger.phase("repair"):
        try:
            report = RepairManager(dfs).repair_server(victim, batch=True)
        except (StorageError, CodeError):
            report = None
    tally.attempted += len(captured)
    rebuilt_bytes = helper_bytes = 0
    for r in report.reports if report else ():
        want = captured.pop((r.file, r.block), None)
        rebuilt = dfs.store.get(r.target_server, r.file, r.block)
        tally.check(f"rebuilt block {r.block} of {r.file}", want is not None and np.array_equal(rebuilt, want))
        rebuilt_bytes += r.bytes_written
        helper_bytes += r.bytes_read
    tally.failed += len(captured)

    if not traced:
        tally.setup_s.setdefault("dfs", []).append(setup)
        tally.did("write", size * len(written) / 1e6)
        tally.did("read", size * len(written) / 1e6)
        tally.did("degraded_read", size * len(affected) / 1e6)
        tally.did("repair", rebuilt_bytes / 1e6)
        return
    snap = dfs.metrics.snapshot()
    for key in ("retries", "degraded_reads", "decode_replans"):
        tally.add(key, snap.get(key, 0))
    tally.add("repair.blocks_rebuilt", len(report.reports) if report else 0)
    tally.add("repair.helper_bytes", helper_bytes)
    tally.add("repair.rebuilt_bytes", rebuilt_bytes)
    _plan_cache_counts(tally, [ef.code for ef in dfs.files.values()])


def _read(dfs: DistributedFileSystem, name: str) -> bytes | None:
    try:
        return dfs.read_file(name)
    except (StorageError, CodeError):
        return None


def _score(tally: Tally, what: str, data: bytes | None, want: bytes) -> None:
    tally.attempted += 1
    if data is None:
        tally.failed += 1
    else:
        tally.check(what, data == want)


# ---------------------------------------------------------------- serve


class _CheckedGateway:
    """The gateway as the workload generator sees it, checking every extent."""

    def __init__(self, gateway: ServingGateway, catalog: dict, tally: Tally):
        self.gateway = gateway
        self.loop = gateway.loop
        self.catalog = catalog
        self.tally = tally

    async def read(self, tenant: str, key: str, offset: int, length: int) -> bytes:
        self.tally.attempted += 1
        try:
            data = await self.gateway.read(tenant, key, offset, length)
        except ServingError:
            self.tally.failed += 1
            raise
        want = self.catalog[tenant, key][offset : offset + length]
        self.tally.check(f"served {tenant}/{key}[{offset}:+{length}]", data == want)
        return data


def serve_spec(shape: ServeShape, seed: int) -> WorkloadSpec:
    ts = TIME_SCALE
    return WorkloadSpec(
        tenants=TENANTS,
        files_per_tenant=shape.files_per_tenant,
        clients=shape.clients,
        requests_per_client=REQUESTS_PER_CLIENT,
        read_size=READ_SIZE,
        file_size=FILE_SIZE,
        zipf_s=1.1,
        think_time=2.0 * ts,
        diurnal_amplitude=0.4,
        diurnal_period=4.0 * ts,
        flash_crowd=FlashCrowd(
            start=2.0 * ts, end=4.0 * ts, key_index=min(37, shape.files_per_tenant - 1), fraction=0.5
        ),
        seed=seed,
    )


def cache_entries(shape: ServeShape) -> int:
    """The byte budget as entries of the catalog's mean stripe size."""
    stripes = [-(-FILE_SIZE // make().data_stripe_total) for make in CODES]
    return max(64, shape.cache_bytes * len(stripes) // sum(stripes))


def serve_unit(tally: Tally, shape: ServeShape, seed: int, traced: bool, scored: bool, tamper: str | None = None):
    """One serving episode; returns its sim-time outcome for determinism checks.

    ``tamper="serve"`` inverts every expected catalog byte (self-test).
    """
    ledger = tally.ledger
    spec = serve_spec(shape, seed)
    t0 = perf_counter()
    with ledger.phase("setup"):
        _load_native()
        cluster = Cluster.homogeneous(SERVE_SERVERS)
        faults = FaultModel(GraySlowdown(servers=frozenset({GRAY_SERVER}), extra_latency=GRAY_LATENCY), seed=seed)
        gateway = ServingGateway(
            DistributedFileSystem(cluster, fault_model=faults),
            config=GatewayConfig(
                cache_entries=cache_entries(shape),
                hedge_threshold=0.005,
                max_inflight_per_tenant=shape.clients,
                tenant_limits={"repair": 4},
            ),
        )
        placement = RandomPlacement(seed=seed)
        catalog = {}
        for tenant, make in zip(TENANTS, CODES):
            for i in range(shape.files_per_tenant):
                payload = file_payload(tenant, i, FILE_SIZE, seed)
                catalog[tenant, spec.key(i)] = payload
                gateway.put(tenant, spec.key(i), payload, code=make(), placement=placement)
        generator = WorkloadGenerator(spec)
    setup = perf_counter() - t0
    if tamper == "serve":
        catalog = {key: (np.frombuffer(data, np.uint8) ^ 0xFF).tobytes() for key, data in catalog.items()}

    held: list[int] = []
    repaired: list[int] = []

    async def repair() -> None:
        repaired.append(await gateway.repair_server(CRASH_SERVER))

    def crash() -> None:
        cluster.fail(CRASH_SERVER)
        dfs = gateway.dfs
        held.append(sum(len(dfs.file(n).blocks_on_server(CRASH_SERVER)) for n in dfs.list_files()))
        gateway.loop.create_task(repair(), name="repair")

    gateway.loop.sim.schedule(2.0 * TIME_SCALE, crash, name="crash")
    with ledger.phase("serve"):
        result = generator.run(_CheckedGateway(gateway, catalog, tally))
    tally.attempted += sum(held)
    tally.failed += sum(held) - sum(repaired)
    if not held:
        tally.mismatches.append(f"serve episode {seed}: the episode ended before the crash")

    if scored:
        tally.scored.latencies.extend(result.latencies)
        tally.scored.failures += result.failures
    if not traced:
        tally.setup_s.setdefault("serve", []).append(setup)
        tally.did("serve", len(result.latencies))
    else:
        counters = gateway.counters()
        for key in (
            "cache_hits", "cache_misses", "coalesced_reads", "hedges_fired", "hedges_won",
            "degraded_reads", "throttle_waits", "repair_blocks",
        ):
            tally.add(f"serving.{key}", counters[key])
        snap = gateway.metrics.snapshot()
        for key in ("retries", "degraded_reads", "decode_replans"):
            tally.add(key, snap.get(key, 0))
        _plan_cache_counts(tally, [ef.code for ef in gateway.dfs.files.values()])
    return (tuple(result.latencies), result.failures, result.duration, tuple(repaired), gateway.counters())


# ----------------------------------------------------------- durability


def durability_config(shape: DurabilityShape) -> reliability_sim.ReliabilityConfig:
    """Flaky hardware so every event kind fires within a short horizon."""
    return reliability_sim.ReliabilityConfig(
        horizon_years=shape.horizon_years,
        disk_lifetime=WeibullLifetime.wear_out(1_500.0),
        replacement_hours=12.0,
        rack_mtbf_hours=6_000.0,
        rack_downtime_hours=12.0,
        rack_kill_fraction=1.0,
        lse_rate_per_block_hour=2e-5,
        scrub_interval_hours=336.0,
        block_size_bytes=64 << 30,
        repair_bandwidth=50 << 20,
    )


def durability_unit(tally: Tally, shape: DurabilityShape, seed: int, traced: bool):
    """One seeded cluster lifetime per code; returns the sim-time summaries."""
    ledger = tally.ledger
    t0 = perf_counter()
    with ledger.phase("setup"):
        _load_native()
        codes = [make() for make in CODES]
        config = durability_config(shape)
    setup = perf_counter() - t0
    results = []
    with ledger.phase("durability"):
        # One independent failure trace per code: three samples of the
        # simulator's cost per unit, not one trace replayed three times.
        for i, code in enumerate(codes):
            try:
                results.append(
                    reliability_sim.simulate_reliability(
                        code,
                        RandomPlacement(seed=seed + i),
                        config,
                        num_racks=NUM_RACKS,
                        servers_per_rack=SERVERS_PER_RACK,
                        stripes=shape.stripes,
                        trials=1,
                        seed=seed + i,
                    )
                )
            except (StorageError, CodeError):
                tally.failed += 1
    tally.attempted += len(codes)
    horizon_hours = shape.horizon_years * HOURS_PER_YEAR
    for r in results:
        if not 0 <= r.stripe_hours <= r.stripes * horizon_hours * (1 + 1e-9) or r.losses > r.stripes:
            tally.mismatches.append(f"durability {r.code}: stripe accounting out of range")
    kinds = ("disk_failures", "rack_events", "lse_injected", "scrub_scans", "repairs_completed")
    for kind in kinds:
        if results and not sum(getattr(r, kind) for r in results):
            tally.mismatches.append(f"durability seed {seed}: no {kind} in any code")
    if not traced:
        tally.setup_s.setdefault("durability", []).append(setup)
        tally.did("durability", len(results) * shape.stripes * shape.horizon_years)
    else:
        for r in results:
            tally.add("reliability.repairs", r.repairs_completed)
            tally.add("reliability.repairs_throttled", r.metrics.get("repairs_throttled", 0))
    return [r.summary() for r in results]
