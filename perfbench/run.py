"""The repository benchmark: one command, two seeded workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload dfs-large --seed 1 --seconds 55 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation for
about ``--seconds``.  ``--trace 1`` instead runs a fixed number of units
twice each, bare and with every layer's entry points wrapped, so its
counts repeat exactly for a seed; it reports the per-layer ledger (call
counts, self time, ratios), the tracing overhead, and fails if a traced
unit's simulated outcome differs from its bare twin.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it carry the
host provenance and, when tracing, the per-phase self-time table.

A workload is a list of slices, one per unit family (dfs rounds, serving
episodes, durability traces), interleaved with equal time each, so every
run reports every end-to-end metric.  A rate is work (MB of 10^6 user
bytes, rebuilt block bytes for repair, served requests, simulated
stripe-years) over wall time.  The dfs and serving rates are those of the
run's fastest unit, as ``timeit`` reports its best repeat: a shared host
only ever adds time, so the fastest of many like units is the one it
disturbed least.  The durability rate stays the run's total over its
summed wall time, because its units differ in work (the events a seeded
trace draws), so the fastest one would be the lightest trace.
Serving latencies are simulated time over the first ``min_units``
episodes, so they depend on the seed only.  Any correctness mismatch
makes the exit code 1; a checkout without the program's ``src/`` makes
it 2.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import resource
import statistics
import sys
from dataclasses import dataclass
from time import perf_counter

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parents[1]
BUILD = ROOT / ".bench_build"
FAMILIES = ("dfs", "serve", "durability")


@dataclass(frozen=True)
class Slice:
    family: str
    shape: object
    #: Units always run (serve: the episodes whose sim-time latencies count).
    min_units: int
    #: Bare + traced unit pairs a ``--trace 1`` run makes.
    traced_units: int


def plans_for(w) -> dict[str, tuple[Slice, ...]]:
    """Workload name -> its slices (``w`` is the workloads module).

    Both workloads run the serve-zipf and durability families in full;
    they differ in the object size of their dfs rounds.
    """
    serve = Slice("serve", w.ServeShape(clients=2000, files_per_tenant=64, cache_bytes=24 * w.MiB), 12, 1)
    durability = w.DurabilityShape(stripes=40, horizon_years=2.0)
    return {
        "dfs-large": (
            Slice("dfs", w.DfsShape(object_bytes=8 * w.MiB, objects=6), 2, 2),
            serve,
            Slice("durability", durability, 1, 1),
        ),
        "dfs-small": (
            Slice("dfs", w.DfsShape(object_bytes=64 * w.KiB, objects=96), 2, 3),
            serve,
            Slice("durability", durability, 1, 2),
        ),
    }


def unit_seed(seed: int, family: str, index: int) -> int:
    return int(np.random.SeedSequence([seed, FAMILIES.index(family), index]).generate_state(1)[0])


def run_unit(w, tally, sl: Slice, index: int, seed: int, traced: bool):
    s = unit_seed(seed, sl.family, index)
    if sl.family == "dfs":
        return w.dfs_unit(tally, sl.shape, s, traced)
    if sl.family == "serve":
        return w.serve_unit(tally, sl.shape, s, traced, scored=index < sl.min_units)
    return w.durability_unit(tally, sl.shape, s, traced)


def run_bare(w, tally, plan: tuple[Slice, ...], seed: int, seconds: float) -> None:
    """Interleave units of every slice for ``seconds``, giving each equal time.

    Each next unit goes to the slice that has run least (slices still short
    of ``min_units`` first), so a slow spell of the host lands on every
    family alike instead of on whichever slice happened to run then.
    """
    spent = [0.0] * len(plan)
    done = [0] * len(plan)
    start = perf_counter()
    while True:
        short = [i for i, sl in enumerate(plan) if done[i] < sl.min_units]
        if not short and perf_counter() - start >= seconds:
            return
        i = min(short or range(len(plan)), key=spent.__getitem__)
        wall, work = dict(tally.ledger.phase_wall), dict(tally.work)
        t0 = perf_counter()
        run_unit(w, tally, plan[i], done[i], seed, traced=False)
        spent[i] += perf_counter() - t0
        done[i] += 1
        for phase, total in tally.work.items():
            did = total - work.get(phase, 0.0)
            took = tally.ledger.phase_wall[phase] - wall.get(phase, 0.0)
            if did > 0 and took > 0:
                tally.unit_rates.setdefault(phase, []).append(did / took)


def run_traced(w, layers, tally, plan: tuple[Slice, ...], seed: int) -> None:
    """Run each slice's first units bare and traced, checking they agree."""
    for sl in plan:
        for index in range(sl.traced_units):
            bare = run_unit(w, tally, sl, index, seed, traced=False)
            with layers.traced_unit(tally.ledger):
                traced = run_unit(w, tally, sl, index, seed, traced=True)
            if bare != traced:
                tally.mismatches.append(f"{sl.family} unit {index}: traced and bare runs disagree in sim time")


def end_to_end(tally) -> dict:
    def rate(phase: str) -> float:
        return tally.work[phase] / tally.ledger.phase_wall[phase]

    def best(phase: str) -> float:
        return max(tally.unit_rates[phase])

    scored = tally.scored
    return {
        # One unit of each family: the median set-up of each, summed.
        "setup_s": (sum(statistics.median(times) for times in tally.setup_s.values()), "s"),
        "peak_rss_MB": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, "MB"),
        "write_MBps": (best("write"), "MB/s"),
        "read_MBps": (best("read"), "MB/s"),
        "degraded_read_MBps": (best("degraded_read"), "MB/s"),
        "repair_MBps": (best("repair"), "MB/s"),
        "stored_bytes_per_user_byte": (tally.stored_bytes / tally.user_bytes, "ratio"),
        "serve_req_per_s": (best("serve"), "1/s"),
        "serve_mean_ms": (statistics.fmean(scored.latencies) * 1e3, "ms"),
        "serve_p99_ms": (scored.percentile(99) * 1e3, "ms"),
        "serve_availability": (scored.availability(), "ratio"),
        "durability_stripe_years_per_s": (rate("durability"), "1/s"),
    }


def provenance() -> dict:
    from repro.gf.kernels import current_kernel_choice, kernel_selection_info
    from repro.gf.native import native_available, native_unavailable_reason

    return {
        "native_available": native_available(),
        "native_unavailable_reason": native_unavailable_reason(),
        "kernel_choice": current_kernel_choice(),
        "kernel_selection": kernel_selection_info(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def print_ledger(ledger, layers) -> bool:
    """Print the per-phase self-time table; True when every phase sums to its wall."""
    print("# ledger: self seconds per layer and phase, traced units only;"
          " async gateway glue is counted inside sim.self_s until in-program spans land")
    heads = ("phase", "wall_s", *layers.LAYERS)
    widths = [max(13, len(h)) for h in heads]
    print("# " + " ".join(f"{h:>{n}}" for h, n in zip(heads, widths)))
    balanced = True
    for phase, by_layer in ledger.phase_layers.items():
        wall = ledger.traced_wall[phase]
        balanced &= abs(sum(by_layer.values()) - wall) <= 1e-9 * max(1.0, wall) * len(by_layer)
        cells = [phase, f"{wall:.4f}", *(f"{by_layer.get(layer, 0.0):.4f}" for layer in layers.LAYERS)]
        print("# " + " ".join(f"{c:>{n}}" for c, n in zip(cells, widths)))
    return balanced


def measure(w, layers, ledger, plan: tuple[Slice, ...], seed: int, seconds: float):
    """Run every slice of ``plan``; return the tally and ``name -> (value, unit)``."""
    tally = w.Tally(ledger)
    if ledger.trace:
        run_traced(w, layers, tally, plan, seed)
    else:
        run_bare(w, tally, plan, seed, seconds)
    host = provenance()
    print("# provenance: " + json.dumps(host, sort_keys=True))
    if not host["native_available"]:
        print("perfbench: WARNING native kernel tier unavailable "
              f"({host['native_unavailable_reason']}); do not compare with a native baseline",
              file=sys.stderr)
    if not ledger.trace:
        return tally, end_to_end(tally)
    if not print_ledger(ledger, layers):
        tally.mismatches.append("ledger: per-layer self times do not sum to the phase wall time")
    bare = sum(ledger.phase_wall.values())
    overhead = sum(ledger.traced_wall.values()) / bare if bare else 0.0
    return tally, layers.per_layer_metrics(ledger, tally.counters, overhead, host)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # Keep every file the program writes (native kernel build, compiler
    # temporaries) inside the checkout.
    os.environ["REPRO_NATIVE_CACHE"] = str(BUILD / "repro-native")
    os.environ["TMPDIR"] = str(BUILD / "tmp")
    (BUILD / "tmp").mkdir(parents=True, exist_ok=True)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import layers
        import workloads as w
        from ledger import Ledger
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    plans = plans_for(w)
    if args.workload not in plans:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(plans)}")

    tally, metrics = measure(w, layers, Ledger(bool(args.trace)), plans[args.workload], args.seed, args.seconds)
    for what in tally.mismatches[:20]:
        print(f"perfbench: MISMATCH {what}", file=sys.stderr)
    correct = not tally.mismatches
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
