"""The serve path's stages in every combination.

``ServingEngine.serve_query`` is one pass of stages: tier split → cache
filter → degrade key-shed → select → page cap → execute (with recovery
under a fault plan) → admit.  Every combination of degrade rung, fault
plan, admission grain and tier mode must keep the per-query accounting
identity, and the stages that have nothing to do must be invisible: a
zero-rate fault plan serves exactly like no plan, and a no-op rung
exactly like no rung.
"""

import pytest

from repro import EngineConfig, FaultPlan, ServingEngine
from repro.overload import DegradeLevel

NOOP = DegradeLevel(level=1, name="noop")
RUNGS = {
    "none": None,
    "noop": NOOP,
    "skip-cold": DegradeLevel(level=2, name="hot-only", skip_cold_keys=True),
    "page-cap-1": DegradeLevel(level=1, name="capped", max_pages_per_query=1),
    "cache-only": DegradeLevel(level=3, name="cache-only", cache_only=True),
}
TIERS = {
    "lru": {"tier_mode": "lru", "cache_ratio": 0.10},
    "pinned": {"tier_mode": "pinned", "tier_ratio": 0.10},
}


def serve(layout, queries, rung, **config):
    """Serve ``queries`` back to back on a fresh engine."""
    engine = ServingEngine(layout, EngineConfig(**config))
    results = []
    start = 0.0
    for query in queries:
        result = engine.serve_query(query, start_us=start, degrade=rung)
        results.append(result)
        start = result.finish_us
    return results


@pytest.mark.parametrize("tier", sorted(TIERS))
@pytest.mark.parametrize("page_grain", [False, True], ids=["key", "page"])
@pytest.mark.parametrize("plan", [None, FaultPlan()], ids=["no-plan", "zero"])
@pytest.mark.parametrize("rung", sorted(RUNGS))
def test_stage_combination(
    rung, plan, page_grain, tier, maxembed_layout_small, criteo_small
):
    _, live = criteo_small
    queries = list(live)[:120]
    config = dict(TIERS[tier], page_grain_admission=page_grain)
    results = serve(
        maxembed_layout_small, queries, RUNGS[rung], fault_plan=plan, **config
    )
    for result in results:
        assert result.requested_keys == (
            result.tier_hits
            + result.cache_hits
            + result.ssd_keys
            + result.missing_keys
        )
        assert result.retries == result.failed_reads == 0
    if rung == "cache-only":
        assert all(r.pages_read == 0 for r in results)
    # The zero-rate plan and the no-op rung must change nothing at all.
    reference_rung = None if RUNGS[rung] is NOOP else RUNGS[rung]
    reference = serve(maxembed_layout_small, queries, reference_rung, **config)
    assert results == reference
