"""The multi-tenant serving gateway: an async front end over the DFS.

This is the paper's load-spreading thesis restated as a *served
system*: a read-mostly front end where many clients contend for the
same disks, so the question is no longer "how many bytes does a
degraded read cost" but "what is the p99 when a Zipf-popular file
melts its holder servers".  RS confines original data to ``k`` of
``n`` blocks, so a hot file concentrates its traffic on ``k`` servers;
a Galloper layout stores original data on *every* block, spreading the
same traffic over all ``n`` — measurably flatter per-server load and a
lower tail.

Request path (one stripe)::

    tenant QoS admission  (token leases, repair machinery reused)
      -> hot-stripe cache (TinyLFU admission)
        -> request coalescing (one in-flight read per stripe)
          -> primary read from the verbatim holder
             [+ hedged degraded read when the holder's queue is deep]
            -> degraded decode fallback when servers are down

Disk time is modeled per server as a FIFO pipe: each read occupies the
holder's disk for its (fault-inflated) service time, so queueing delay
— the thing Zipf skew actually causes — emerges rather than being
assumed.  The actual byte transfer still goes through the
:class:`~repro.storage.resilient.ResilientBlockClient` (checksums,
retries, timeouts, same-path hedging), promoted from the repair layer
into the serving path; its service time is measured on a
:class:`~repro.faults.clock.VirtualClock` pinned to the request's
sim-time start and replayed as pipe occupancy on the simulation
timeline.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from repro.codes.base import DecodingError
from repro.faults.clock import VirtualClock
from repro.obs.trace import get_tracer
from repro.serving.cache import HotBlockCache
from repro.serving.coalesce import RequestCoalescer
from repro.serving.qos import TenantThrottle
from repro.sim.aio import SimLoop
from repro.storage.blockstore import BlockUnavailableError
from repro.storage.filesystem import DistributedFileSystem, EncodedFile, FileSystemError
from repro.storage.health import HealthMonitor
from repro.storage.repair import DECODE_RATE
from repro.storage.resilient import ResilientBlockClient, RetryPolicy


class ServingError(FileSystemError):
    """A request the gateway could not serve (unrecoverable extent)."""


@dataclass(frozen=True)
class GatewayConfig:
    """Serving knobs.

    Attributes:
        cache_entries: hot-stripe cache capacity (entries).
        cache_sample_period: TinyLFU aging period (accesses).
        cache_hit_latency: simulated seconds to serve from cache.
        request_overhead: fixed per-disk-read occupancy (seek + RPC).
        hedge_threshold: predicted primary completion (queue wait plus
            clean service) above which a degraded-decode hedge is raced
            against the primary; ``None`` disables serving-path hedges.
        max_inflight_per_tenant: default QoS cap per tenant.
        tenant_limits: per-tenant cap overrides.
        lease_estimate: tenant-lease self-expiry (request time estimate).
        slo: latency SLO threshold for attainment accounting.
        retry_policy: resilient-client knobs for the serving path.
    """

    cache_entries: int = 512
    cache_sample_period: int = 4096
    cache_hit_latency: float = 100e-6
    request_overhead: float = 500e-6
    hedge_threshold: float | None = 0.02
    max_inflight_per_tenant: int = 64
    tenant_limits: dict = field(default_factory=dict)
    lease_estimate: float = 0.05
    slo: float = 0.1
    retry_policy: RetryPolicy | None = None


class ServingGateway:
    """Per-tenant namespaced reads over one :class:`DistributedFileSystem`.

    Tenants address files as ``<tenant>/<key>`` in the underlying DFS
    namespace; :meth:`put` writes through, :meth:`read` serves byte
    extents with caching, coalescing, QoS and hedged degraded reads,
    and :meth:`repair_server` runs reconstruction *as* serving traffic.
    All counters land in the DFS's shared metrics registry under the
    ``serving_*`` / ``tenant_*`` names (see ``docs/SERVING.md``).
    """

    def __init__(
        self,
        dfs: DistributedFileSystem,
        loop: SimLoop | None = None,
        config: GatewayConfig | None = None,
    ):
        self.dfs = dfs
        self.loop = loop or SimLoop()
        self.config = config or GatewayConfig()
        self.metrics = dfs.metrics
        self.cache = HotBlockCache(
            self.config.cache_entries,
            metrics=self.metrics,
            sample_period=self.config.cache_sample_period,
        )
        self.coalescer = RequestCoalescer(self.loop, metrics=self.metrics)
        self.throttle = TenantThrottle(
            self.loop,
            max_inflight=self.config.max_inflight_per_tenant,
            limits=self.config.tenant_limits,
            metrics=self.metrics,
        )
        # The serving path's resilient client runs on a scratch clock
        # pinned to each read's sim-time start: service durations are
        # *measured* there (including retries, backoff and same-path
        # hedges) and replayed as disk occupancy on the sim timeline.
        self._scratch = VirtualClock()
        self.client = ResilientBlockClient(
            dfs.store,
            health=HealthMonitor(self._scratch, metrics=self.metrics),
            policy=self.config.retry_policy,
            clock=self._scratch,
            metrics=self.metrics,
        )
        # Fault windows must fire against serving time, not the DFS's
        # idle setup clock.
        if dfs.store.fault_model is not None:
            dfs.store.clock = self._scratch
        #: Per-server disk FIFO: the sim time each disk next falls idle.
        self._busy_until: dict[int, float] = defaultdict(float)
        self._tenant_tracks: dict[str, int] = {}

    # ----------------------------------------------------------- namespace

    @staticmethod
    def qualify(tenant: str, key: str) -> str:
        if "/" in tenant:
            raise ServingError(f"invalid tenant name {tenant!r}")
        return f"{tenant}/{key}"

    def put(self, tenant: str, key: str, payload, **write_kwargs) -> EncodedFile:
        """Write a tenant file through the DFS (synchronous setup path)."""
        return self.dfs.write_file(self.qualify(tenant, key), payload, **write_kwargs)

    # ----------------------------------------------------------- disk model

    def queue_wait(self, server_id: int) -> float:
        """Sim seconds a read issued now would wait for this disk."""
        return max(0.0, self._busy_until[server_id] - self.loop.now)

    async def _disk_read(self, server_id: int, op):
        """Run one resilient read against a server's FIFO disk.

        ``op`` is a synchronous callable performing the actual store
        read through :attr:`client`; its scratch-clock elapsed time is
        the service duration, charged as pipe occupancy behind whatever
        is already queued on that disk.  Returns the payload after the
        simulated completion instant.
        """
        issued = self.loop.now
        start = max(issued, self._busy_until[server_id])
        self._scratch.pin(start)
        data = op()  # raises BlockUnavailableError on unreadable blocks
        service = (self._scratch.now - start) + self.config.request_overhead
        done = start + service
        self._busy_until[server_id] = done
        self.metrics.observe("serving_disk_wait_s", start - issued)
        tracer = get_tracer()
        if tracer.enabled:
            tracer.sim_span(
                "serve.disk", "serving", start, done,
                track=1000 + server_id, track_name=f"disk {server_id}",
                server=server_id,
            )
        await self.loop.sleep_until(done)
        return data

    # ---------------------------------------------------------- stripe path

    async def _primary_stripe(self, ef: EncodedFile, block: int, row: int) -> np.ndarray:
        server = ef.server_of(block)
        rows = await self._disk_read(
            server, lambda: self.client.read_rows(server, ef.name, block, row, 1)
        )
        return rows[0]

    async def _helper_block(self, ef: EncodedFile, block: int) -> np.ndarray:
        server = ef.server_of(block)
        return await self._disk_read(
            server, lambda: self.client.get(server, ef.name, block)
        )

    def _unreadable_blocks(self, ef: EncodedFile) -> set[int]:
        return {
            b for b, s in ef.placement.items()
            if self.dfs.cluster.server(s).failed or not self.dfs.store.holds(s, ef.name, b)
        }

    async def _degraded_stripe(self, ef: EncodedFile, block: int, row: int) -> np.ndarray:
        """Rebuild one stripe through the block's repair group.

        The locality win shows up here: Galloper/Pyramid read their
        small local group, RS reads ``k`` full blocks — under load the
        cheap reconstruction is what keeps the tail flat.
        """
        self.metrics.add("serving_degraded_reads", 1)
        code = ef.code
        plan = code.repair_plan(block, self._unreadable_blocks(ef) | {block})
        reads = [
            self.loop.create_task(self._helper_block(ef, h), name=f"helper:{h}")
            for h in plan.helpers
        ]
        blocks = await self.loop.gather(*reads)
        rebuilt, _ = code.reconstruct(block, dict(zip(plan.helpers, blocks)), plan)
        await self.loop.sleep(rebuilt.nbytes / DECODE_RATE)
        return rebuilt[row]

    async def _decode_stripe_fallback(self, ef: EncodedFile, file_stripe: int) -> np.ndarray:
        """Last resort: decode the stripe from any decodable block subset."""
        excluded: set[int] = set()
        while True:
            try:
                chosen = self.dfs._plan_decode_blocks(ef, excluded)
            except DecodingError as exc:
                self.metrics.add("serving_unavailable", 1)
                raise ServingError(
                    f"cannot serve stripe {file_stripe} of {ef.name!r}: {exc}",
                    file=ef.name, cause="undecodable",
                ) from exc
            reads = [
                self.loop.create_task(self._helper_block(ef, b), name=f"decode:{b}")
                for b in chosen
            ]
            try:
                blocks = await self.loop.gather(*reads)
            except BlockUnavailableError as exc:
                excluded.add(exc.block if exc.block is not None else chosen[0])
                self.metrics.add("decode_replans", 1)
                continue
            grid = ef.code.decode(dict(zip(chosen, blocks)))
            await self.loop.sleep(grid.nbytes / DECODE_RATE)
            return grid[file_stripe]

    def _hedge_would_win(self, ef: EncodedFile, block: int, primary_eta: float) -> bool:
        """Predict whether a degraded-decode hedge beats the primary.

        A hedge reads the repair group's *full* blocks, so it is far
        more expensive than the stripe it replaces; fired blindly under
        load it amplifies itself into a hedge storm (each hedge deepens
        helper queues, which triggers more hedges).  Gating on the
        predicted completion of the slowest helper makes hedging
        self-limiting: once helper queues saturate, hedges stop.
        """
        try:
            plan = ef.code.repair_plan(block, {block})
        except DecodingError:
            return False
        block_bytes = ef.block_size * ef.code.gf.dtype.itemsize
        slowest = max(
            self.queue_wait(ef.server_of(h))
            + self.config.request_overhead
            + block_bytes / self.dfs.cluster.server(ef.server_of(h)).disk_bandwidth
            for h in plan.helpers
        )
        hedge_eta = slowest + block_bytes / DECODE_RATE
        return hedge_eta < primary_eta

    async def _fetch_stripe(self, ef: EncodedFile, file_stripe: int) -> np.ndarray:
        holder = self.dfs.stripe_holders(ef.name).get(file_stripe)
        if holder is None:
            return await self._decode_stripe_fallback(ef, file_stripe)
        block, row = holder
        server = ef.server_of(block)
        if self.dfs.cluster.server(server).failed or not self.dfs.store.holds(
            server, ef.name, block
        ):
            # No point racing a dead primary; go straight to the group.
            try:
                return await self._degraded_stripe(ef, block, row)
            except (BlockUnavailableError, DecodingError):
                return await self._decode_stripe_fallback(ef, file_stripe)

        threshold = self.config.hedge_threshold
        itemsize = ef.code.gf.dtype.itemsize
        expected = (
            self.queue_wait(server)
            + self.config.request_overhead
            + ef.stripe_size * itemsize
            / self.dfs.cluster.server(server).disk_bandwidth
        )
        if threshold is None or expected <= threshold or not self._hedge_would_win(ef, block, expected):
            try:
                return await self._primary_stripe(ef, block, row)
            except BlockUnavailableError:
                try:
                    return await self._degraded_stripe(ef, block, row)
                except (BlockUnavailableError, DecodingError):
                    return await self._decode_stripe_fallback(ef, file_stripe)

        # The holder's queue is deep AND the repair group is predicted
        # to answer sooner: race a degraded-decode hedge against the
        # queued primary; first success is served, the loser runs to
        # completion (its disk time was really spent) and its payload
        # is discarded.
        self.metrics.add("serving_hedges_fired", 1)
        primary = self.loop.create_task(
            self._primary_stripe(ef, block, row), name="hedge:primary"
        )
        hedge = self.loop.create_task(
            self._degraded_stripe(ef, block, row), name="hedge:degraded"
        )
        try:
            winner, value = await self.loop.first_success(primary, hedge)
        except (BlockUnavailableError, DecodingError):
            return await self._decode_stripe_fallback(ef, file_stripe)
        if winner == 1:
            self.metrics.add("serving_hedges_won", 1)
        loser = primary if winner == 1 else hedge

        def count_discard(fut) -> None:
            if fut.exception() is None:
                self.metrics.add("serving_hedge_losers_discarded", 1)

        loser.add_done_callback(count_discard)
        return value

    async def _stripe(self, ef: EncodedFile, file_stripe: int) -> np.ndarray:
        key = (ef.name, file_stripe)
        cached = self.cache.get(key)
        if cached is not None:
            await self.loop.sleep(self.config.cache_hit_latency)
            return cached
        leader, fut = self.coalescer.lease(key)
        if not leader:
            return await fut
        try:
            value = await self._fetch_stripe(ef, file_stripe)
        except BaseException as exc:
            self.coalescer.fail(key, exc)
            raise
        self.cache.offer(key, value)
        self.coalescer.complete(key, value)
        return value

    # --------------------------------------------------------- request path

    async def read(
        self, tenant: str, key: str, offset: int = 0, length: int | None = None
    ) -> bytes:
        """Serve one byte extent of a tenant's file.

        The full request path: QoS admission, co-stripe fan-out with
        caching/coalescing/hedging per stripe, SLO accounting.  Raises
        :class:`ServingError` when the extent is unrecoverable.
        """
        t_arrival = self.loop.now
        lease = await self.throttle.acquire(tenant, self.config.lease_estimate)
        try:
            ef = self.dfs.file(self.qualify(tenant, key))
            if length is None:
                length = ef.original_size - offset
            length = max(0, min(length, ef.original_size - offset))
            if length == 0:
                return b""
            first = offset // ef.stripe_size
            last = (offset + length - 1) // ef.stripe_size
            fetches = [
                self.loop.create_task(self._stripe(ef, fs), name=f"stripe:{fs}")
                for fs in range(first, last + 1)
            ]
            try:
                rows = await self.loop.gather(*fetches)
            except ServingError:
                self.metrics.add("serving_reads_failed", 1)
                raise
            except (BlockUnavailableError, DecodingError) as exc:
                self.metrics.add("serving_reads_failed", 1)
                raise ServingError(
                    f"read of {key!r} for tenant {tenant!r} failed: {exc}",
                    file=ef.name, cause="unavailable",
                ) from exc
            flat = np.concatenate([np.asarray(r).reshape(-1) for r in rows])
            lo = offset - first * ef.stripe_size
            payload = flat[lo : lo + length].astype(np.uint8).tobytes()
        finally:
            self.throttle.release(lease)
        latency = self.loop.now - t_arrival
        self.metrics.add("serving_reads_ok", 1)
        self.metrics.observe("serving_latency_s", latency)
        self.metrics.observe(f"serving_latency_s[{tenant}]", latency)
        if latency <= self.config.slo:
            self.metrics.add("serving_slo_ok", 1)
        tracer = get_tracer()
        if tracer.enabled:
            track = self._tenant_tracks.setdefault(tenant, len(self._tenant_tracks))
            tracer.sim_span(
                "serve.read", "serving", t_arrival, self.loop.now,
                track=track, track_name=f"tenant {tenant}",
                tenant=tenant, key=key, bytes=length,
            )
        return payload

    # ---------------------------------------------------------- repair path

    async def repair_server(self, victim: int, tenant: str = "repair") -> int:
        """Rebuild every block the victim held, as serving traffic.

        Repair enters through the same tenant throttle and the same
        per-server disk queues as foreground reads — the token-lease
        admission the repair pipeline already uses, now arbitrating
        both kinds of traffic.  Returns the number of blocks rebuilt.
        """
        rebuilt_count = 0
        for name in self.dfs.list_files():
            ef = self.dfs.file(name)
            for block in sorted(ef.blocks_on_server(victim)):
                lease = await self.throttle.acquire(tenant, self.config.lease_estimate)
                try:
                    plan = ef.code.repair_plan(block, self._unreadable_blocks(ef))
                    reads = [
                        self.loop.create_task(self._helper_block(ef, h), name=f"repair:{h}")
                        for h in plan.helpers
                    ]
                    blocks = await self.loop.gather(*reads)
                    rebuilt, _ = ef.code.reconstruct(
                        block, dict(zip(plan.helpers, blocks)), plan
                    )
                    await self.loop.sleep(rebuilt.nbytes / DECODE_RATE)
                    target = self._replacement_server(ef)
                    await self._disk_write(target, ef.name, block, rebuilt)
                    ef.placement[block] = target
                    rebuilt_count += 1
                    self.metrics.add("serving_repair_blocks", 1)
                except (BlockUnavailableError, DecodingError):
                    self.metrics.add("serving_repair_failures", 1)
                finally:
                    self.throttle.release(lease)
        return rebuilt_count

    def _replacement_server(self, ef: EncodedFile) -> int:
        used = set(ef.placement.values())
        candidates = [s.server_id for s in self.dfs.cluster.alive() if s.server_id not in used]
        if not candidates:
            candidates = self.dfs.cluster.alive_ids()
        if not candidates:
            raise ServingError("no live server to rebuild onto", file=ef.name, cause="no_target")
        return min(candidates, key=lambda s: (self._busy_until[s], s))

    async def _disk_write(self, server: int, name: str, block: int, payload: np.ndarray) -> None:
        def op():
            self.dfs.store.put(server, name, block, payload)
            self._scratch.advance(
                payload.nbytes / self.dfs.cluster.server(server).disk_bandwidth
            )

        await self._disk_read(server, op)

    # ------------------------------------------------------------- reporting

    def counters(self) -> dict:
        """The serving counters, in a stable schema (``repro stats``)."""
        snap = self.metrics.snapshot()

        def count(name: str) -> int:
            return int(snap.get(name, 0))

        return {
            "cache_hits": count("serving_cache_hits"),
            "cache_misses": count("serving_cache_misses"),
            "cache_admissions": count("serving_cache_admissions"),
            "cache_rejections": count("serving_cache_rejections"),
            "cache_evictions": count("serving_cache_evictions"),
            "coalesced_reads": count("serving_coalesced_reads"),
            "hedges_fired": count("serving_hedges_fired"),
            "hedges_won": count("serving_hedges_won"),
            "hedge_losers_discarded": count("serving_hedge_losers_discarded"),
            "client_hedged_reads": count("hedged_reads"),
            "client_hedged_wins": count("hedged_wins"),
            "client_hedged_losers_discarded": count("hedged_losers_discarded"),
            "degraded_reads": count("serving_degraded_reads"),
            "throttle_waits": count("tenant_throttle_waits"),
            "repair_blocks": count("serving_repair_blocks"),
            "reads_ok": count("serving_reads_ok"),
            "reads_failed": count("serving_reads_failed"),
            "slo_ok": count("serving_slo_ok"),
            "unavailable": count("serving_unavailable"),
        }
