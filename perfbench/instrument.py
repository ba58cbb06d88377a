"""Which layer methods the traced run wraps, and what each one counts.

Every span name here maps to one per-layer time metric in
``LAYER_TIMES``; a few spans are opened by the benchmark itself (set-up
steps and the measured window).  Wrapping happens on the classes and
module attributes the program looks the calls up on, so the program's
own code is unchanged.
"""

from __future__ import annotations

from typing import Dict

from repro.cache import EmbeddingCache
from repro.cluster import ClusterEngine
from repro.cluster.replicas import ReplicaGroup
from repro.core import store
from repro.faults import FaultInjector, FaultySsd
from repro.partition import FastShpPartitioner
from repro.replication import ConnectivityPriorityStrategy
from repro.serving import engine as engine_module
from repro.serving.engine import ServingEngine
from repro.serving.executor import (
    BatchedExecutor,
    NdpExecutor,
    PipelinedExecutor,
    SerialExecutor,
)
from repro.serving.recovery import RecoveringExecutor
from repro.serving.selection import Selector
from repro.ssd import SimulatedSsd

from spans import Patcher, Recorder

#: Span name -> per-layer metric reporting that span's summed self time.
LAYER_TIMES: Dict[str, str] = {
    "workloads.gen": "workloads.gen_s",
    "hypergraph.build": "hypergraph.build_s",
    "partition": "partition.s",
    "replication": "replication.s",
    "placement.index": "placement.index_s",
    "tiering.plan": "tiering.plan_s",
    "cluster.shard_build": "cluster.shard_build_s",
    "setup.engine": "setup.engine_s",
    "setup.gateway": "setup.gateway_s",
    "setup.other": "setup.other_s",
    "cache.filter": "cache.filter_s",
    "cache.admit": "cache.admit_s",
    "serving.select": "serving.select_s",
    "serving.execute": "serving.execute_s",
    "serving.engine": "serving.engine_self_s",
    "ssd.submit": "ssd.submit_s",
    "cluster.router": "cluster.router_self_s",
    "cluster.scatter": "cluster.scatter_s",
    "cluster.fragment": "cluster.fragment_s",
    "bench.loop": "bench.loop_self_s",
    "bench.calibrate": "bench.calibrate_s",
    "service.loop": "service.loop_s",
}


def _pins(rec: Recorder, _owner, _args, graph) -> None:
    rec.count("hypergraph.pins", graph.total_pin_count())


def _partition(rec: Recorder, _owner, args, result) -> None:
    # Connectivity is computed after the run, off the clock.
    rec.stash.append((args[0], result.assignment))


def _replicas(rec: Recorder, _owner, _args, layout) -> None:
    rec.count("replication.replica_pages", layout.num_replica_pages)


def _index(rec: Recorder, _owner, _args, indexes) -> None:
    forward, invert = indexes
    entries = forward.total_entries() + sum(
        len(invert.keys_of(p)) for p in range(invert.num_pages)
    )
    rec.count("placement.index_entries", entries)


def _admit(rec: Recorder, cache, args, _result) -> None:
    if cache.enabled:
        rec.count("cache.admits", len(args[0]))


def _select(rec: Recorder, _owner, args, outcome) -> None:
    rec.count("serving.select_calls")
    rec.count("serving.select_keys", len(args[0]))
    rec.count("serving.select_candidates", outcome.total_candidates)


def _read(rec: Recorder, _owner, _args, completion) -> None:
    rec.count("ssd.commands")
    rec.count("ssd.pages", completion.pages)
    rec.count("ssd.latency_us", completion.latency_us)


def _fault(rec: Recorder, _owner, _args, decision) -> None:
    if decision.kind != "ok":
        rec.count("faults.injected")


def _fragment(rec: Recorder, group, _args, result) -> None:
    rec.count("cluster.fragments")
    rec.fragments.append(
        (rec.current_qid, group.shard, result.latency_us, result.pages_read)
    )


def install(rec: Recorder) -> Patcher:
    """Wrap every measured layer; returns the patcher that undoes it."""
    patch = Patcher(rec)
    patch.method(store, "build_weighted_hypergraph", "hypergraph.build",
                 _pins)
    patch.method(FastShpPartitioner, "partition", "partition", _partition)
    patch.method(ConnectivityPriorityStrategy, "build_layout", "replication",
                 _replicas)
    patch.method(engine_module, "build_indexes", "placement.index", _index)
    patch.method(engine_module, "plan_tier", "tiering.plan")
    patch.method(ServingEngine, "serve_query", "serving.engine",
                 new_query=True)
    patch.method(EmbeddingCache, "filter_hits", "cache.filter")
    patch.method(EmbeddingCache, "admit", "cache.admit", _admit)
    patch.method(Selector, "select", "serving.select", _select)
    for executor in (PipelinedExecutor, SerialExecutor, BatchedExecutor,
                     NdpExecutor, RecoveringExecutor):
        patch.method(executor, "execute", "serving.execute")
    # submit_batch issues its reads through submit_read, which counts them.
    patch.method(SimulatedSsd, "submit_read", "ssd.submit", _read)
    patch.method(SimulatedSsd, "submit_batch", "ssd.submit")
    patch.method(SimulatedSsd, "poll", "ssd.submit")
    for method in ("submit_read", "submit_batch", "poll"):
        patch.method(FaultySsd, method, "ssd.submit")
    patch.method(FaultInjector, "decide", None, _fault)
    patch.method(ClusterEngine, "serve_query", "cluster.router",
                 new_query=True)
    patch.method(ClusterEngine, "scatter", "cluster.scatter")
    patch.method(ReplicaGroup, "serve", "cluster.fragment", _fragment)
    return patch
