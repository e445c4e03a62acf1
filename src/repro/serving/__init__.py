"""Multi-tenant serving: the read-path front end over the DFS.

The paper evaluates Galloper codes through batch analytics (MapReduce
over degraded reads); this package asks the *serving* question instead:
with many tenants issuing Zipf-skewed reads against the same cluster,
which code keeps the latency tail flat?  The gateway composes the
storage stack's existing resilience machinery — resilient client,
repair plans, token leases — with the three classic serving-side
defenses (admission-filtered caching, request coalescing, hedging).
Disk service times are measured on a :class:`~repro.faults.clock.VirtualClock`
pinned to each read's sim-time start and replayed on the
:class:`~repro.sim.aio.SimLoop` timeline.
"""

from repro.serving.cache import FrequencySketch, HotBlockCache
from repro.serving.coalesce import RequestCoalescer
from repro.serving.gateway import GatewayConfig, ServingError, ServingGateway
from repro.serving.qos import TenantLease, TenantThrottle
from repro.serving.workload import (
    FlashCrowd,
    WorkloadGenerator,
    WorkloadResult,
    WorkloadSpec,
    file_payload,
    populate,
)

__all__ = [
    "FrequencySketch",
    "HotBlockCache",
    "RequestCoalescer",
    "GatewayConfig",
    "ServingError",
    "ServingGateway",
    "TenantLease",
    "TenantThrottle",
    "FlashCrowd",
    "WorkloadGenerator",
    "WorkloadResult",
    "WorkloadSpec",
    "file_payload",
    "populate",
]
