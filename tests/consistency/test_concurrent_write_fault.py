"""A write committing while a page fault is in flight must not mask staleness.

Regression test for the ``ScanIterator._read_dynamic`` version-stamp bug:
the faulted page used to be stamped with ``manager.current_version`` read
*after* the fault completed, so a write landing mid-fault put its newer
version number on the older page contents -- the next hit compared equal,
validated fresh, and served stale bytes.  The fix captures the version
before issuing the fault, so a raced page is stamped conservatively and
the next hit re-faults.
"""

from dataclasses import replace

from repro.caching.config import CacheConfig
from repro.config import OptimizerConfig
from repro.consistency import make_protocol
from repro.costmodel.model import Objective
from repro.engine.executor import QueryExecutor
from repro.optimizer.two_phase import RandomizedOptimizer
from repro.plans.policies import Policy
from repro.workloads.scenarios import chain_scenario


def test_mid_fault_write_is_stamped_conservatively_and_never_served_stale():
    scenario = chain_scenario(num_relations=2, num_servers=1, cached_fraction=0.0)
    config = replace(
        scenario.config.with_clients(1), cache=CacheConfig(mode="dynamic")
    )
    executor = QueryExecutor(config, scenario.catalog, scenario.query, seed=1)
    env = executor.env
    topology = executor.topology
    manager = make_protocol("invalidation", topology)
    topology.consistency = manager

    plan = RandomizedOptimizer(
        scenario.query,
        scenario.environment(),
        policy=Policy.DATA_SHIPPING,
        objective=Objective.RESPONSE_TIME,
        config=OptimizerConfig.fast(),
        seed=1,
    ).optimize().plan

    client = topology.clients[0]
    buffer = client.buffer_cache
    assert buffer is not None
    server = topology.servers[0]
    relations = ("R0", "R1")
    network = topology.network

    def writer():
        # Wait for the first fault to be in flight: its request message has
        # crossed the wire (bytes_sent > 0) but no page-0 reply has been
        # admitted yet.  Committing at that instant races the write against
        # the open fault.
        while network.bytes_sent == 0 or any(
            buffer.contains(r, 0) for r in relations
        ):
            yield 1e-6
        for relation in relations:
            yield from manager.commit_write(server, relation, (0,))

    env.process(writer(), name="mid-fault-writer")
    result = executor.execute(plan)
    assert result.response_time > 0.0

    # Both writes committed; the version table moved to 1 everywhere.
    assert all(manager.versions.version(r, 0) == 1 for r in relations)
    stamps = sorted(buffer.version_of(r, 0) for r in relations)
    # One fault was already in flight when the write landed: that page must
    # carry the PRE-write stamp (0).  The other relation faulted after the
    # commit and picked up the new version.  (The old post-fault capture
    # stamped both with 1, masking the raced page as fresh.)
    assert stamps == [0, 1]

    # The raced page is detected -- not served -- on its next hit.
    raced = next(r for r in relations if buffer.version_of(r, 0) == 0)
    box = {}

    def revalidate():
        box["fresh"] = yield from manager.validate_hit(client, server, raced, 0)

    env.run(until=env.process(revalidate(), name="revalidate"))
    assert box["fresh"] is False
    assert client.consistency.stale_hits == 1
    assert not buffer.contains(raced, 0)  # invalidated, will re-fault
    assert manager.stale_served == 0
