"""Read/write workloads end to end: staleness, parity, writer RNG hygiene."""

import random

import pytest

from repro import api
from repro.hardware.site import client_site_id
from repro.plans.policies import Policy
from repro.workload import StreamConfig, WorkloadRunner
from repro.workloads.scenarios import chain_scenario


def run_mix(protocol, write_fraction, seed=1, num_clients=2, queries=3, **kwargs):
    scenario = chain_scenario(
        num_relations=2,
        num_servers=2,
        cached_fraction=0.5,
        placement_seed=seed,
        replication_factor=kwargs.pop("replication_factor", 2),
    )
    runner = WorkloadRunner(
        scenario,
        Policy.DATA_SHIPPING,
        num_clients=num_clients,
        stream=StreamConfig(
            arrival="closed",
            think_time=0.0,
            queries_per_client=queries,
            write_fraction=write_fraction,
        ),
        seed=seed,
        cache="dynamic",
        consistency=protocol,
        **kwargs,
    )
    return runner, runner.run()


class TestZeroStaleServed:
    """The acceptance invariant: stale pages are detected, never served."""

    @pytest.mark.parametrize("protocol", ["invalidation", "detection"])
    def test_no_stale_page_is_ever_served(self, protocol):
        for seed in (1, 2, 3):
            runner, result = run_mix(protocol, write_fraction=0.4, seed=seed)
            manager = runner.last_topology.consistency
            assert manager is not None
            assert manager.stale_served == 0
            assert result.completed == result.submitted

    def test_detection_actually_detects_staleness(self):
        runner, result = run_mix("detection", write_fraction=0.4, seed=1)
        profile = result.profile
        stale = sum(
            v for k, v in profile.items() if k.endswith("consistency.stale_hits")
        )
        validations = sum(
            v for k, v in profile.items() if k.endswith("consistency.validations")
        )
        assert stale > 0, "sweep never exercised a stale cached page"
        assert validations > stale
        assert runner.last_topology.consistency.stale_served == 0

    def test_static_caches_are_invalidated_too(self):
        # A static cache never admits, but its seeded prefix goes stale
        # when a server page under it is written; the protocol must drop
        # those pages just as it does from a dynamic cache.
        result = api.run_workload(
            policy="data",
            num_clients=4,
            queries_per_client=6,
            num_relations=2,
            num_servers=1,
            cached_fraction=1.0,
            write_fraction=0.5,
            write_pages=4,
            cache="static",
            seed=3,
        )
        profile = result.profile
        assert profile["site.server1.consistency.write_pages"] > 0
        for ordinal in range(4):
            name = "client" if ordinal == 0 else f"client{ordinal}"
            assert profile[f"site.{name}.consistency.invalidations"] > 0
            assert profile[f"site.{name}.cache.admissions"] == 0

    def test_writes_reach_every_replica(self):
        _, result = run_mix("invalidation", write_fraction=1.0, seed=1)
        profile = result.profile
        # 2-way replication: primary and replica each apply every page.
        assert profile["site.server1.consistency.write_pages"] > 0
        assert profile["site.server2.consistency.write_pages"] > 0
        assert (
            profile["site.server1.consistency.write_pages"]
            == profile["site.server2.consistency.write_pages"]
        )


class TestReadOnlyParity:
    def test_pure_read_stream_never_builds_a_manager(self):
        runner, result = run_mix("invalidation", write_fraction=0.0, seed=1)
        assert runner.last_topology.consistency is None
        assert result.completed == result.submitted
        assert all(
            v == 0.0
            for k, v in result.profile.items()
            if ".consistency." in k
        )

    def test_read_only_profiles_identical_across_protocol_settings(self):
        # With no writes the configured protocol must be unobservable:
        # byte-identical event streams, hence identical profiles.
        _, inv = run_mix("invalidation", write_fraction=0.0, seed=1)
        _, det = run_mix("detection", write_fraction=0.0, seed=1)
        assert inv.profile == det.profile
        assert [
            (s.session_id, s.status, s.completed) for s in inv.sessions
        ] == [(s.session_id, s.status, s.completed) for s in det.sessions]

    def test_unreplicated_read_only_run_matches_default_scenario(self):
        # replication_factor=1 must leave the placement object semantics
        # (and therefore planning and execution) exactly as the default.
        _, base = run_mix("invalidation", write_fraction=0.0, seed=1)
        _, factor1 = run_mix(
            "invalidation", write_fraction=0.0, seed=1, replication_factor=1
        )
        # factor=2 was the base here, so compare factor=1 against a fresh
        # default scenario instead: both draw the same placement stream.
        scenario = chain_scenario(
            num_relations=2, num_servers=2, cached_fraction=0.5, placement_seed=1
        )
        default = WorkloadRunner(
            scenario,
            Policy.DATA_SHIPPING,
            num_clients=2,
            stream=StreamConfig(
                arrival="closed", think_time=0.0, queries_per_client=3
            ),
            seed=1,
            cache="dynamic",
        ).run()
        assert factor1.profile == default.profile
        assert base.completed == factor1.completed


class TestWriterRngStreams:
    """Satellite: per-writer RNG streams follow the seed-hygiene convention."""

    def test_stream_names_never_collide(self):
        names = {
            f"{seed}:writer:{client_site_id(ordinal)}"
            for seed in range(5)
            for ordinal in range(5)
        }
        assert len(names) == 25
        # And the streams they seed are pairwise distinct.
        draws = {random.Random(name).random() for name in names}
        assert len(draws) == 25

    def test_writer_stream_is_independent_of_arrival_stream(self):
        # The arrival stream ("{seed}:client{ordinal}:stream") and the
        # writer stream of the same client must not be the same sequence.
        arrival = random.Random("7:client0:stream")
        writer = random.Random(f"7:writer:{client_site_id(0)}")
        assert [arrival.random() for _ in range(4)] != [
            writer.random() for _ in range(4)
        ]

    def test_writer_choices_follow_the_seed(self):
        # Different workload seeds reseed the writer streams, so which
        # relations get written -- visible, unreplicated, as the per-server
        # split of applied pages -- shifts with the seed.  Placement is
        # pinned so only the writer streams vary.
        splits = set()
        for seed in (1, 2, 3, 4):
            scenario = chain_scenario(
                num_relations=2, num_servers=2, cached_fraction=0.5, placement_seed=0
            )
            result = WorkloadRunner(
                scenario,
                Policy.DATA_SHIPPING,
                num_clients=2,
                stream=StreamConfig(
                    arrival="closed",
                    think_time=0.0,
                    queries_per_client=4,
                    write_fraction=1.0,
                ),
                seed=seed,
                cache="dynamic",
                consistency="invalidation",
            ).run()
            assert result.completed == result.submitted
            splits.add(
                (
                    result.profile["site.server1.consistency.write_pages"],
                    result.profile["site.server2.consistency.write_pages"],
                )
            )
        assert len(splits) > 1, "writer streams ignored the workload seed"
