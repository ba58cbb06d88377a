"""Benchmark entry point: one workload, one seed, one JSON line of metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload engine-criteo --seed 1 \\
        --seconds 10 --trace 0

``--trace 0`` runs the workload untraced and prints the end-to-end
metrics; ``--trace 1`` runs it with every layer wrapped in spans, prints
the per-layer metrics and writes the spans to
``perfbench/out/spans-<workload>-<seed>.npz``.  Human-readable lines go
first; the last line of standard output is the JSON result.  The exit
status is 1 when a correctness check fails and 2 when the program
cannot be imported; neither prints a result.  See ``perfbench/README.md``
for the workloads and the metric glossary.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("engine-criteo", "cluster-criteo_tb-ha", "gateway-amazon_m2")


def pin_to_one_cpu() -> None:
    """Keep this process, and every thread it starts, on one CPU.

    The cluster's scatter fragments and the gateway's batches are
    thread hand-offs.  Across CPUs each is a wake-up of an idle virtual
    CPU, whose delay follows what the host's other tenants run (the
    host's steal time) rather than what the program does; on one CPU it
    is a context switch and the CPU never idles while a query runs
    (``perfbench/README.md`` gives the measured effect).
    """
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass  # no affinity control here: run unpinned


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(outcome) -> Dict[str, Tuple[float, str]]:
    return {
        "setup_s": (outcome.setup_s, "s"),
        "wall_qps": (outcome.completed / outcome.wall_s, "1/s"),
        "wall_p50_us": (outcome.wall_p50_us, "us"),
        "wall_p99_us": (outcome.wall_p99_us, "us"),
        "max_qps_at_slo": (outcome.slo_goodput_qps, "1/s"),
        "sim_qps": (outcome.sim_qps, "1/s"),
        "sim_p50_us": (outcome.sim_p50_us, "us"),
        "sim_p99_us": (outcome.sim_p99_us, "us"),
        "pages_per_query": (outcome.pages_per_query, "pages"),
        "effective_bw": (outcome.effective_bw, "fraction"),
        "dram_hit_rate": (outcome.dram_hit_rate, "fraction"),
        "coverage": (outcome.coverage, "fraction"),
        "ok_frac": (outcome.ok_frac, "fraction"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def _closed_layers(outcome, rec) -> Dict[str, float]:
    """Per-layer figures a closed loop derives from its results."""
    results = outcome.sim_results
    requested = sum(r.requested_keys for r in results)
    fragments: Dict[int, List[Tuple[int, float, int]]] = {}
    for qid, shard, latency, pages in rec.fragments:
        fragments.setdefault(qid, []).append((shard, latency, pages))
    straggler = 0.0
    shard_pages: Dict[int, int] = {}
    for parts in fragments.values():
        latencies = [latency for _, latency, _ in parts]
        straggler += max(latencies) - sum(latencies) / len(latencies)
        for shard, _, pages in parts:
            shard_pages[shard] = shard_pages.get(shard, 0) + pages
    loads = list(shard_pages.values())
    return {
        "cache.hit_rate": sum(r.cache_hits for r in results) / requested,
        "tiering.hit_rate": sum(r.tier_hits for r in results) / requested,
        "serving.retries": sum(r.retries for r in results),
        "serving.failed_reads": sum(r.failed_reads for r in results),
        "serving.recovered_keys": sum(r.recovered_keys for r in results),
        "replicas.hedges": sum(r.hedges for r in results),
        "replicas.hedge_wins": sum(r.hedge_wins for r in results),
        "replicas.failovers": sum(r.failovers for r in results),
        "cluster.straggler_us": (
            straggler / len(fragments) if fragments else 0.0
        ),
        "cluster.shard_imbalance": (
            max(loads) / (sum(loads) / len(loads)) if sum(loads) else 0.0
        ),
    }


def _gateway_layers(run, slo_us: float) -> Dict[str, float]:
    from workloads import percentile, windows

    service = run.metrics["service"]
    coalescer = service["coalescer"]
    serving = run.metrics["serving"]
    ok = [r for r in run.requests if r.status == "ok"]
    lags = [(r.sent - r.due) * 1e6 for r in run.requests]
    return {
        "cache.hit_rate": serving["cache_hit_rate"],
        "tiering.hit_rate": serving["tier_hit_rate"],
        "serving.retries": serving["retries"],
        "serving.failed_reads": serving["failed_reads"],
        "serving.recovered_keys": serving["recovered_keys"],
        "service.batches": coalescer["batches"],
        "service.mean_batch": coalescer["mean_batch_size"],
        "service.merged_batch_frac": (
            coalescer["merged_batches"] / coalescer["batches"]
        ),
        "service.dup_keys_merged": coalescer["duplicate_keys_merged"],
        "overload.shed_queue": service["shed"].get("tail", 0),
        "overload.shed_deadline": service["shed"].get("deadline", 0),
        "overload.deadline_misses": service["deadline_misses"],
        "overload.degraded_frac": (
            sum(1 for r in ok if r.degraded) / len(ok)
        ),
        "loadgen.lag_p99_us": percentile(lags, 0.99),
        "loadgen.open_p99_us": statistics.median(windows(
            [r for p in run.phases[:-1] for r in p.ok], 0.99
        )),
        "loadgen.backlog_end": max(p.backlog_end for p in run.phases),
        "loadgen.slo_rate_qps": max(
            (p.rate for p in run.phases if p.meets(slo_us)), default=0.0
        ),
    }


def _gateway_time(rec, self_s: Dict[str, float],
                  wall: float) -> Dict[str, float]:
    """Engine time on the gateway's thread, and the loop's idle waits.

    The loop's self time covers everything outside engine calls; the
    part of it the loop spent blocked in its selector with no engine
    call running is idle, not work.
    """
    cols = rec.arrays()
    engine = cols["name_id"] == rec.names.index("serving.engine")
    calls = sorted(zip(cols["start"][engine].tolist(),
                       cols["end"][engine].tolist()))
    engine_s = sum(hi - lo for lo, hi in calls)
    idle = 0.0
    first = 0
    for lo, hi in sorted(rec.idle):
        while first < len(calls) and calls[first][1] <= lo:
            first += 1
        covered = 0.0
        for c_lo, c_hi in calls[first:]:
            if c_lo >= hi:
                break
            covered += min(hi, c_hi) - max(lo, c_lo)
        idle += hi - lo - covered
    return {
        "service.engine_s": engine_s,
        "service.engine_busy_frac": engine_s / wall,
        "service.idle_s": idle,
        "service.loop_s": self_s.get("service.loop", 0.0) - idle,
    }


def _connectivity(stash) -> float:
    """Σ weight·(λ(e) − 1) over the partitioned history hyperedges."""
    from repro.partition.fast_metrics import fast_edge_connectivities

    total = 0
    for graph, assignment in stash:
        lambdas = fast_edge_connectivities(graph, assignment)
        total += sum(
            (lam - 1) * graph.weight(edge) for edge, lam in enumerate(lambdas)
        )
    return float(total)


def traced(args, rec) -> Tuple[Dict[str, float], object]:
    from instrument import LAYER_TIMES, install
    import workloads

    slo_s = args.slo_ms * 1e-3
    patch = install(rec)
    try:
        if args.workload == "gateway-amazon_m2":
            outcome, run = workloads.run_gateway(
                args.seed, args.seconds, args.slo_ms * 1e3, rec, traced=True
            )
            # Same work on both sides: the warm-up pass of a fresh gateway.
            overhead = 1.0 - run.plain_warm_s / run.warm_s
        else:
            build, full = _closed(args.workload, args.seed)
            outcome, plain_s = workloads.run_closed_traced(
                build, slo_s, rec, full
            )
            overhead = 1.0 - plain_s / outcome.wall_s
    finally:
        patch.restore()
    self_s = rec.self_times()
    layers: Dict[str, float] = {
        metric: self_s.get(span, 0.0) for span, metric in LAYER_TIMES.items()
    }
    counters = dict(rec.counters)
    for name in ("hypergraph.pins", "replication.replica_pages",
                 "placement.index_entries", "cache.admits", "ssd.commands",
                 "ssd.pages", "faults.injected"):
        layers[name] = counters.get(name, 0)
    calls = counters.get("serving.select_calls", 0)
    layers["serving.select_calls"] = calls
    layers["serving.candidates_per_select"] = (
        counters.get("serving.select_candidates", 0) / calls if calls else 0
    )
    layers["serving.keys_per_select"] = (
        counters.get("serving.select_keys", 0) / calls if calls else 0
    )
    commands = counters.get("ssd.commands", 0)
    layers["ssd.mean_latency_us"] = (
        counters.get("ssd.latency_us", 0.0) / commands if commands else 0.0
    )
    layers["partition.connectivity"] = _connectivity(rec.stash)
    routed = len({qid for qid, *_ in rec.fragments})
    layers["cluster.fragments_per_query"] = (
        counters.get("cluster.fragments", 0) / routed if routed else 0.0
    )
    zeros = ("replicas.hedges", "replicas.hedge_wins", "replicas.failovers",
             "cluster.straggler_us", "cluster.shard_imbalance",
             "service.batches", "service.mean_batch",
             "service.merged_batch_frac", "service.dup_keys_merged",
             "overload.shed_queue", "overload.shed_deadline",
             "overload.deadline_misses", "overload.degraded_frac",
             "loadgen.lag_p99_us", "loadgen.open_p99_us",
             "loadgen.backlog_end", "loadgen.slo_rate_qps",
             "service.engine_s", "service.engine_busy_frac",
             "service.idle_s")
    layers.update(dict.fromkeys(zeros, 0))
    wall = rec.root_wall_s()
    if args.workload == "gateway-amazon_m2":
        layers.update(_gateway_layers(run, args.slo_ms * 1e3))
        layers.update(_gateway_time(rec, self_s, wall))
    else:
        layers.update(_closed_layers(outcome, rec))
    layers["trace.wall_s"] = wall
    layers["trace.self_sum_frac"] = sum(self_s.values()) / wall
    layers["trace.overhead_frac"] = overhead
    layers["trace.spans"] = len(rec)
    out = HERE / "out" / f"spans-{args.workload}-{args.seed}.npz"
    rec.save(out)
    print(f"spans: {len(rec)} written to {out.relative_to(ROOT)}")
    return layers, outcome


def _closed(workload: str, seed: int):
    import workloads

    if workload == "engine-criteo":
        return (lambda rec: workloads.build_engine(seed, rec)), True
    return (lambda rec: workloads.build_cluster(seed, rec)), False


def untraced(args, rec):
    import workloads

    if args.workload == "gateway-amazon_m2":
        slo_us = args.slo_ms * 1e3
        outcome, run = workloads.run_gateway(
            args.seed, args.seconds, slo_us, rec
        )
        saturation = run.saturation
        print(
            f"closed loop of {workloads.IN_FLIGHT}: "
            f"{len(saturation.walls)} requests in "
            f"{len(saturation.rounds)} rounds"
        )
        for phase in run.phases:
            print(
                f"rate {phase.rate:>7.0f}/s: offered {len(phase.requests)} "
                f"ok {len(phase.ok)} failed {phase.failed} "
                f"p50 {phase.p50_us:.0f}us p99 {phase.p99_us:.0f}us "
                f"lag p99 {phase.lag_p99_us:.0f}us "
                f"backlog {phase.backlog_end} "
                f"{'meets' if phase.meets(slo_us) else 'misses'} the limit"
            )
    else:
        build, full = _closed(args.workload, args.seed)
        outcome = workloads.run_closed(
            build, args.seconds, args.slo_ms * 1e-3, rec, full
        )
    metrics = end_to_end(outcome)
    print(
        f"latency samples: wall {outcome.wall_samples}, "
        f"simulated {outcome.sim_samples}; median host speed "
        f"{outcome.host_speed:.3f} of the calibration reference"
    )
    return metrics, outcome


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--slo-ms", type=float, default=10.0,
        help="latency limit for max_qps_at_slo (ms)",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    pin_to_one_cpu()
    from spans import Recorder
    from workloads import CheckFailed

    rec = Recorder()
    try:
        if args.trace:
            values, outcome = traced(args, rec)
            metrics = {
                name: {"value": value, "unit": _unit(name)}
                for name, value in sorted(values.items())
            }
        else:
            values, outcome = untraced(args, rec)
            metrics = {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in values.items()
            }
    except CheckFailed as exc:
        print(f"correctness check failed: {exc}", file=sys.stderr)
        return 1
    for name, metric in metrics.items():
        print(f"{name:<32} {metric['value']:>16.6g} {metric['unit']}")
    print(json.dumps({
        "correct": True,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


def _unit(name: str) -> str:
    """Unit of a per-layer metric, from its name's suffix."""
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_imbalance"):
        return "ratio"
    if name.endswith("_us"):
        return "us"
    if name.endswith("_qps"):
        return "1/s"
    if name.endswith(("_frac", "_rate")):
        return "fraction"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
