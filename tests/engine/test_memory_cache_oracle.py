"""Exact results pinned for the join-memory and client-cache paths.

Each point runs one optimized chain-join query end to end and compares
every simulated metric the engine reports with a pinned value.  The
static rows pin the paper's plan-time model: the minimum-allocation
``hisel`` points are the ones where a fixed grant would move if it took
recursive overflow passes (DS 4-way, seed 3) or reversed build and probe
roles (QS 4-way, two servers, seed 7).  The dynamic rows pin the broker's
uncontended maximal grant.

The workload point gives one client its own static cache contents
(``client_caches``), so the per-client prefix layout on the client disk
is pinned too.
"""

import pytest

from repro import api

# (policy, relations, servers, cached fraction, allocation, selectivity,
#  seed, memory mode) -> (response time, pages sent, control messages,
#  disk reads, disk writes, result tuples)
QUERY_POINTS = [
    (("data", 4, 1, 0.0, "min", "hisel", 3, "static"),
     (11.460610464068152, 1000, 1000, 2033, 1033, 80)),
    (("query", 4, 2, 0.0, "min", "hisel", 7, "static"),
     (12.61733332359047, 512, 0, 2052, 1052, 80)),
    (("hybrid", 4, 2, 0.5, "min", "moderate", 3, "static"),
     (15.957093465394129, 1125, 125, 2494, 1494, 10000)),
    (("data", 2, 1, 0.5, "max", "moderate", 7, "static"),
     (2.4456873923476965, 250, 250, 500, 0, 10000)),
    (("query", 2, 1, 0.0, "min", "moderate", 11, "static"),
     (12.300933922592938, 250, 0, 998, 498, 10000)),
    (("hybrid", 2, 1, 0.25, "min", "hisel", 3, "static"),
     (4.950600930932405, 500, 0, 998, 498, 2000)),
    (("data", 4, 1, 0.0, "min", "hisel", 3, "dynamic"),
     (6.089632315878288, 1000, 1000, 1000, 0, 80)),
    (("query", 4, 2, 0.0, "min", "hisel", 7, "dynamic"),
     (2.7771515164299876, 62, 0, 1000, 0, 80)),
    (("hybrid", 4, 2, 0.5, "min", "moderate", 3, "dynamic"),
     (3.4734256371534964, 875, 125, 1000, 0, 10000)),
    (("data", 2, 1, 0.5, "max", "moderate", 7, "dynamic"),
     (2.4456873923476965, 250, 250, 500, 0, 10000)),
    (("query", 2, 1, 0.0, "min", "moderate", 11, "dynamic"),
     (2.0044751036449595, 250, 0, 500, 0, 10000)),
    (("hybrid", 2, 1, 0.25, "min", "hisel", 3, "dynamic"),
     (1.8505198698331207, 50, 0, 500, 0, 2000)),
]


@pytest.mark.parametrize(
    "point, expected", QUERY_POINTS, ids=[repr(point) for point, _ in QUERY_POINTS]
)
def test_query_point_is_exact(point, expected):
    policy, relations, servers, cached, allocation, selectivity, seed, memory = point
    result = api.run_query(
        policy=policy,
        num_relations=relations,
        num_servers=servers,
        cached_fraction=cached,
        allocation=allocation,
        selectivity=selectivity,
        seed=seed,
        memory=memory,
    ).result
    assert (
        result.response_time,
        result.pages_sent,
        result.control_messages,
        result.disk_reads,
        result.disk_writes,
        result.result_tuples,
    ) == expected


def test_static_cache_with_per_client_contents_is_exact():
    run = api.run_workload(
        policy="data",
        num_clients=2,
        queries_per_client=2,
        num_relations=2,
        num_servers=1,
        cached_fraction=0.5,
        cache="static",
        client_caches={1: {"R0": 1.0}},
        seed=3,
    )
    observed = sorted(
        (s.session_id, s.status, s.response_time, s.pages_sent, s.result_tuples)
        for s in run.sessions
    )
    assert observed == [
        ("c0q0", "completed", 8.851491346950679, 500, 10000),
        ("c0q1", "completed", 9.212024320962692, 500, 10000),
        ("c1q0", "completed", 8.78336370869752, 500, 10000),
        ("c1q1", "completed", 9.015897650186107, 500, 10000),
    ]
