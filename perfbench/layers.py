"""Which entry points belong to which layer, and the per-layer metrics.

:func:`install` wraps the public entry points of every layer for one
traced unit (see :class:`ledger.Ledger`); :func:`per_layer_metrics`
turns the rolled-up spans and the counters read through the program's
own public readouts into the named per-layer metrics.
"""

from __future__ import annotations

import contextlib
import weakref

import numpy as np

import repro.reliability.simulator as reliability_sim
from repro.codes import PyramidCode, ReedSolomonCode
from repro.codes.base import ErasureCode
from repro.core.galloper import GalloperCode
from repro.gf.kernels import CodingPlan, kernel_bytes_info
from repro.sim.engine import Simulation
from repro.storage import pipeline
from repro.storage.blockstore import BlockStore
from repro.storage.filesystem import DistributedFileSystem
from repro.storage.repair import RepairManager
from repro.storage.resilient import ResilientBlockClient

#: Ledger column order (the harness remainder is its own column).
LAYERS = (
    "gf", "codes", "storage.blockstore", "storage.resilient", "storage.filesystem",
    "storage.repair", "storage.pipeline", "sim", "reliability", "harness",
)

KERNEL_TIERS = tuple(kernel_bytes_info())


def _entry_points():
    """``(owner, attribute, span name, layer, counter)`` per wrapped entry point."""

    def apply_bytes(ledger, args, out):
        ledger.count("gf.apply.bytes", np.asarray(args[1]).nbytes + out.nbytes)

    def put_bytes(ledger, args, _):
        ledger.count("blockstore.put.bytes", np.asarray(args[4]).nbytes)

    seen: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    def sim_events(ledger, args, _):
        sim = args[0]
        ledger.count("sim.events", sim.events_processed - seen.get(sim, 0))
        seen[sim] = sim.events_processed

    points = [
        (CodingPlan, "__init__", "gf.plan_build", "gf", None),
        (CodingPlan, "apply", "gf.apply", "gf", apply_bytes),
        (CodingPlan, "__call__", "gf.apply", "gf", apply_bytes),
        (CodingPlan, "apply_batch", "gf.apply", "gf", None),
    ]
    points += [
        (cls, "__init__", "codes.construct", "codes", None) for cls in (ReedSolomonCode, PyramidCode, GalloperCode)
    ]
    points += [(ErasureCode, op, f"codes.{op}", "codes", None) for op in ("encode", "decode", "reconstruct")]
    points += [
        (ErasureCode, op, "codes.compile", "codes", None)
        for op in ("compile_encode", "compile_decode", "compile_reconstruct")
    ]
    points += [
        (BlockStore, "put", "blockstore.put", "storage.blockstore", put_bytes),
        (BlockStore, "timed_get", "blockstore.read", "storage.blockstore", None),
        (BlockStore, "timed_read_rows", "blockstore.read", "storage.blockstore", None),
        (ResilientBlockClient, "get", "resilient.read", "storage.resilient", None),
        (ResilientBlockClient, "read_rows", "resilient.read", "storage.resilient", None),
        (DistributedFileSystem, "write_file", "filesystem.write", "storage.filesystem", None),
        (DistributedFileSystem, "read_file", "filesystem.read", "storage.filesystem", None),
    ]
    points += [
        (RepairManager, op, "repair", "storage.repair", None)
        for op in ("repair_server", "repair_blocks_bulk", "repair_block")
    ]
    points += [
        (pipeline, "batch_reconstruct", "pipeline.batch_reconstruct", "storage.pipeline", None),
        (Simulation, "run", "sim", "sim", sim_events),
        (reliability_sim, "simulate_reliability", "reliability", "reliability", None),
    ]
    return points


def install(ledger) -> None:
    """Wrap every layer's entry points on ``ledger`` for one traced unit."""
    for owner, attr, name, layer, count in _entry_points():
        ledger.patch(owner, attr, name, layer, count)

    # Event handlers the reliability simulator schedules are that layer's
    # work, not the engine's: wrap them as they enter the heap.
    def schedule_hook(original):
        def schedule(self, delay, action, name=""):
            if getattr(action, "__module__", "").startswith("repro.reliability"):
                action = ledger.span("reliability", "reliability", action)
            return original(self, delay, action, name)

        return schedule

    ledger.replace(Simulation, "schedule", schedule_hook)


@contextlib.contextmanager
def traced_unit(ledger):
    """Run one unit with every layer wrapped, counting its kernel bytes per tier."""
    before = kernel_bytes_info()
    with ledger.traced(install):
        yield
    for tier, nbytes in kernel_bytes_info().items():
        ledger.count(f"gf.kernel_bytes.{tier}", nbytes - before[tier])


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(ledger, counters: dict, overhead: float, host: dict) -> dict:
    """Every per-layer metric, as ``name -> (value, unit)``."""
    calls, own, total, counts = ledger.span_calls, ledger.span_self, ledger.span_total, ledger.counts
    layer_self = ledger.layer_self()

    def c(key: str) -> float:
        return counters.get(key, 0.0)

    out = {
        "gf.apply.calls": (calls.get("gf.apply", 0), "count"),
        "gf.apply.self_s": (own.get("gf.apply", 0.0), "s"),
        "gf.apply.bytes": (counts.get("gf.apply.bytes", 0), "B"),
        "gf.apply.gbps": (_ratio(counts.get("gf.apply.bytes", 0), own.get("gf.apply", 0.0)) / 1e9, "GB/s"),
        "gf.plan_build.calls": (calls.get("gf.plan_build", 0), "count"),
        "gf.plan_build.self_s": (own.get("gf.plan_build", 0.0), "s"),
    }
    for tier in KERNEL_TIERS:
        out[f"gf.kernel_bytes.{tier}"] = (counts.get(f"gf.kernel_bytes.{tier}", 0), "B")
    out.update({
        "codes.construct.calls": (calls.get("codes.construct", 0), "count"),
        "codes.construct.self_s": (own.get("codes.construct", 0.0), "s"),
        "codes.encode.self_s": (own.get("codes.encode", 0.0), "s"),
        "codes.decode.self_s": (own.get("codes.decode", 0.0), "s"),
        "codes.reconstruct.self_s": (own.get("codes.reconstruct", 0.0), "s"),
        "codes.compile.self_s": (own.get("codes.compile", 0.0), "s"),
        "codes.plan_cache.hit_ratio": (
            _ratio(c("plan_cache.hits"), c("plan_cache.hits") + c("plan_cache.misses")), "ratio"
        ),
        "blockstore.put.calls": (calls.get("blockstore.put", 0), "count"),
        "blockstore.put.self_s": (own.get("blockstore.put", 0.0), "s"),
        "blockstore.put.bytes": (counts.get("blockstore.put.bytes", 0), "B"),
        "blockstore.read.calls": (calls.get("blockstore.read", 0), "count"),
        "blockstore.read.self_s": (own.get("blockstore.read", 0.0), "s"),
        "resilient.read.calls": (calls.get("resilient.read", 0), "count"),
        "resilient.read.self_s": (own.get("resilient.read", 0.0), "s"),
        "resilient.retries": (c("retries"), "count"),
        "filesystem.write.self_s": (own.get("filesystem.write", 0.0), "s"),
        "filesystem.read.self_s": (own.get("filesystem.read", 0.0), "s"),
        "filesystem.degraded_decodes": (c("degraded_reads"), "count"),
        "filesystem.decode_replans": (c("decode_replans"), "count"),
        "repair.self_s": (own.get("repair", 0.0), "s"),
        "repair.blocks_rebuilt": (c("repair.blocks_rebuilt"), "count"),
        "repair.helper_bytes_per_rebuilt_byte": (
            _ratio(c("repair.helper_bytes"), c("repair.rebuilt_bytes")), "ratio"
        ),
        "pipeline.batch_reconstruct.self_s": (own.get("pipeline.batch_reconstruct", 0.0), "s"),
        "sim.events": (counts.get("sim.events", 0), "count"),
        "sim.self_s": (own.get("sim", 0.0), "s"),
        "sim.events_per_s": (_ratio(counts.get("sim.events", 0), total.get("sim", 0.0)), "1/s"),
        "serving.cache.hit_ratio": (
            _ratio(c("serving.cache_hits"), c("serving.cache_hits") + c("serving.cache_misses")), "ratio"
        ),
        "serving.coalesce_ratio": (_ratio(c("serving.coalesced_reads"), c("serving.cache_misses")), "ratio"),
        "serving.hedge.win_ratio": (_ratio(c("serving.hedges_won"), c("serving.hedges_fired")), "ratio"),
        "serving.degraded_reads": (c("serving.degraded_reads"), "count"),
        "serving.throttle_waits": (c("serving.throttle_waits"), "count"),
        "serving.repair_blocks": (c("serving.repair_blocks"), "count"),
        "reliability.self_s": (own.get("reliability", 0.0), "s"),
        "reliability.repairs": (c("reliability.repairs"), "count"),
        "reliability.repairs_throttled": (c("reliability.repairs_throttled"), "count"),
        "harness.self_s": (layer_self.get("harness", 0.0), "s"),
        "trace.overhead_ratio": (overhead, "ratio"),
        "host.native_available": (1 if host["native_available"] else 0, "bool"),
        "host.nproc": (host["nproc"], "count"),
    })
    return out
