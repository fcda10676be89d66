"""Topology gauges: table-driven registration matches per-gauge closures.

``register_topology_metrics`` registers module-level ``(leaf, getter)``
tables per site, disk and client.  This test pins the registered names to
a committed list and checks every value against the closure-per-gauge
registration it replaced, kept below as the reference.
"""

from dataclasses import replace
from pathlib import Path

from repro.caching.config import CacheConfig
from repro.config import OptimizerConfig
from repro.costmodel.model import Objective
from repro.engine.executor import QueryExecutor
from repro.obs import MetricsRegistry
from repro.obs.telemetry import TelemetrySampler
from repro.optimizer.two_phase import RandomizedOptimizer
from repro.plans.policies import Policy
from repro.workloads.scenarios import chain_scenario

NAMES_FILE = Path(__file__).with_name("topology_gauge_names.txt")


def closure_registration(registry, topology):
    """One closure per gauge: the registration the tables replaced."""
    for site in topology.sites:
        base = f"site.{site.name}"
        cpu = site.cpu
        memory = site.memory
        registry.gauge(f"{base}.cpu.instructions", lambda c=cpu: c.instructions_executed)
        registry.gauge(f"{base}.cpu.busy_time", lambda c=cpu: c.busy_time)
        registry.gauge(f"{base}.cpu.utilization", lambda c=cpu: c.utilization())
        registry.gauge(f"{base}.memory.high_water_pages", lambda m=memory: m.high_water_mark)
        registry.gauge(f"{base}.memory.granted", lambda m=memory: m.allocated_pages)
        registry.gauge(f"{base}.memory.waiting", lambda m=memory: m.waiting)
        registry.gauge(f"{base}.memory.reclaims", lambda m=memory: m.reclaims)
        registry.gauge(f"{base}.memory.reclaimed_pages", lambda m=memory: m.reclaimed_pages)
        registry.gauge(f"{base}.memory.spill_pages", lambda m=memory: m.spill_pages)
        registry.gauge(f"{base}.memory.grants_issued", lambda m=memory: m.grants_issued)
        registry.gauge(f"{base}.memory.wait_count", lambda m=memory: m.wait_count)
        registry.gauge(f"{base}.memory.total_wait_time", lambda m=memory: m.total_wait_time)
        for index, disk in enumerate(site.disks):
            prefix = f"{base}.disk{index}"
            registry.gauge(f"{prefix}.pages_read", lambda d=disk: d.reads)
            registry.gauge(f"{prefix}.pages_written", lambda d=disk: d.writes)
            registry.gauge(f"{prefix}.cache_hits", lambda d=disk: d.cache_hits)
            registry.gauge(f"{prefix}.sequential_ios", lambda d=disk: d.sequential_ios)
            registry.gauge(f"{prefix}.random_ios", lambda d=disk: d.random_ios)
            registry.gauge(f"{prefix}.faulted_requests", lambda d=disk: d.faulted_requests)
            registry.gauge(f"{prefix}.busy_time", lambda d=disk: d.monitor.elapsed_busy_time())
            registry.gauge(f"{prefix}.utilization", lambda d=disk: d.utilization())
            registry.gauge(f"{prefix}.queue_utilization", lambda d=disk: d.queue_utilization())
        registry.gauge(f"{base}.crashes", lambda s=site: s.crash_count)
        registry.gauge(f"{base}.downtime", lambda s=site: s.total_downtime)
        consistency = f"{base}.consistency"
        registry.gauge(f"{consistency}.invalidations", lambda s=site: s.consistency.invalidations)
        registry.gauge(f"{consistency}.validations", lambda s=site: s.consistency.validations)
        registry.gauge(f"{consistency}.stale_hits", lambda s=site: s.consistency.stale_hits)
        registry.gauge(f"{consistency}.write_pages", lambda s=site: s.consistency.write_pages)
        if site.is_client:
            cache = f"{base}.cache"
            registry.gauge(
                f"{cache}.hits", lambda s=site: s.buffer_cache.hits if s.buffer_cache else 0
            )
            registry.gauge(
                f"{cache}.misses", lambda s=site: s.buffer_cache.misses if s.buffer_cache else 0
            )
            registry.gauge(
                f"{cache}.evictions",
                lambda s=site: s.buffer_cache.evictions if s.buffer_cache else 0,
            )
            registry.gauge(
                f"{cache}.admissions",
                lambda s=site: s.buffer_cache.admissions if s.buffer_cache else 0,
            )
            registry.gauge(
                f"{cache}.resident_pages",
                lambda s=site: s.buffer_cache.resident_count if s.buffer_cache else 0,
            )
    network = topology.network
    registry.gauge("network.data_pages_sent", lambda: network.data_pages_sent)
    registry.gauge("network.control_messages_sent", lambda: network.control_messages_sent)
    registry.gauge("network.bytes_sent", lambda: network.bytes_sent)
    registry.gauge("network.messages_dropped", lambda: network.messages_dropped)
    registry.gauge("network.outages", lambda: network.outage_count)
    registry.gauge("network.busy_time", lambda: network.busy_time)
    registry.gauge("network.utilization", network.utilization)


def run_one_query():
    """3 clients, 2 servers, dynamic caches; client 0 runs one DS query."""
    scenario = chain_scenario(num_relations=2, num_servers=2, cached_fraction=0.5)
    config = replace(scenario.config.with_clients(3), cache=CacheConfig(mode="dynamic"))
    executor = QueryExecutor(config, scenario.catalog, scenario.query, seed=1)
    plan = RandomizedOptimizer(
        scenario.query,
        scenario.environment(),
        policy=Policy.DATA_SHIPPING,
        objective=Objective.RESPONSE_TIME,
        config=OptimizerConfig.fast(),
        seed=1,
    ).optimize().plan
    executor.execute(plan)
    return executor.env, executor.topology


def channels(env, registry):
    sampler = TelemetrySampler(env, registry)
    sampler._resolve_channels()
    return sampler._rate_sources, sampler._value_sources


def test_names_match_the_committed_list():
    _, topology = run_one_query()
    assert topology.metrics.names() == NAMES_FILE.read_text().split()


def test_values_and_channels_match_closure_registration():
    env, topology = run_one_query()
    reference = MetricsRegistry()
    closure_registration(reference, topology)
    snapshot = topology.metrics.snapshot()
    assert snapshot == reference.snapshot()
    # The query really ran: the compare covers non-trivial values.
    assert snapshot["site.client.cache.admissions"] > 0
    assert snapshot["network.data_pages_sent"] > 0
    assert channels(env, topology.metrics) == channels(env, reference)
