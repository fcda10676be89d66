"""Evicting workloads pinned end to end, for every replacement policy.

The ``cache-warmup`` golden never evicts (its cache holds the whole
database), so MRU and CLOCK print exactly what LRU prints there.  This
grid runs four clients against a 120-page dynamic cache that the 2-way
join overflows, with a 25 % write mix under both consistency protocols,
for data and hybrid shipping.  Every case must evict, and must reproduce
the session results, each client's eviction history and its final
:meth:`~repro.caching.BufferCache.snapshot` exactly -- so any change to
victim choice, slot reuse or invalidation shows up here.

The expected values were captured from the ``OrderedDict``-based policies
that preceded the slot-array ones.  Pages are 16 KiB, which makes each
relation 63 pages: the pages-sent hybrid optimizer then plans client-side
scans, so hybrid sessions fault and evict too.
"""

import dataclasses
import hashlib

import pytest

from repro.caching import CacheConfig
from repro.caching.policies import POLICY_NAMES
from repro.config import SystemConfig
from repro.costmodel.model import Objective
from repro.plans.policies import Policy
from repro.workload import StreamConfig, WorkloadRunner
from repro.workloads.scenarios import chain_scenario

PROTOCOLS = ("invalidation", "detection")
SHIPPING = {"ds": Policy.DATA_SHIPPING, "hy": Policy.HYBRID_SHIPPING}


def run_case(replacement, protocol, shipping):
    """(sessions digest, per-client (evictions, history digest, snapshot))."""
    scenario = chain_scenario(
        num_relations=2,
        num_servers=2,
        cached_fraction=0.5,
        placement_seed=1,
        replication_factor=2,
        config=SystemConfig(page_size=16384),
    )
    runner = WorkloadRunner(
        scenario,
        SHIPPING[shipping],
        num_clients=4,
        objective=Objective.PAGES_SENT,
        stream=StreamConfig(
            arrival="closed",
            think_time=0.0,
            queries_per_client=4,
            write_fraction=0.25,
        ),
        seed=1,
        cache=CacheConfig(mode="dynamic", capacity_pages=120, policy=replacement),
        consistency=protocol,
    )
    result = runner.run()
    sessions = repr([dataclasses.astuple(s) for s in result.sessions])
    clients = []
    for site in runner.last_topology.clients:
        cache = site.buffer_cache
        state = cache.snapshot()
        clients.append(
            (
                cache.eviction_history.count,
                cache.eviction_history.hexdigest(),
                (
                    state.resident,
                    state.hits,
                    state.misses,
                    state.evictions,
                    state.admissions,
                    state.invalidations,
                ),
            )
        )
    return hashlib.sha256(sessions.encode()).hexdigest(), clients


EXPECTED = {
    ("lru", "invalidation", "ds"): (
        "807b79ede5ca628ed697aa74a0a149dbff2fe742a8cd3d1e1e10ce96efeecd7e",
        [
            (248, "509647a9b4a99ad4aa1446b93fd790ec",
             ((("R0", 58), ("R1", 62)), 62, 310, 248, 310, 4)),
            (125, "8d39362ab6b5570bdcde08fdc5fb93fb",
             ((("R0", 58), ("R1", 61)), 62, 186, 125, 186, 4)),
            (125, "8d39362ab6b5570bdcde08fdc5fb93fb",
             ((("R0", 58), ("R1", 61)), 62, 186, 125, 186, 4)),
            (125, "8d39362ab6b5570bdcde08fdc5fb93fb",
             ((("R0", 58), ("R1", 61)), 62, 186, 125, 186, 4)),
        ],
    ),
    ("lru", "invalidation", "hy"): (
        "55d2b50074cae4b485294984be7da1cd28276ee8ea55edb19de518c50ba37124",
        [
            (248, "698c8cdfaa0406e6d3845a0ff861947c",
             ((("R0", 62), ("R1", 58)), 62, 310, 248, 310, 4)),
            (125, "93be17e61bdcabae79258339ee456699",
             ((("R0", 62), ("R1", 57)), 62, 186, 125, 186, 4)),
            (125, "93be17e61bdcabae79258339ee456699",
             ((("R0", 62), ("R1", 57)), 62, 186, 125, 186, 4)),
            (125, "93be17e61bdcabae79258339ee456699",
             ((("R0", 62), ("R1", 57)), 62, 186, 125, 186, 4)),
        ],
    ),
    ("lru", "detection", "ds"): (
        "6c183410a73516c39fb7184636a85dcc738e3e2479dea697393a2451e11bb54c",
        [
            (252, "9eca16e8a6d2d4d2404a06d60c1784e2",
             ((("R0", 58), ("R1", 62)), 62, 310, 252, 310, 0)),
            (128, "5994b09c511268ac95c8e3b6490d41d6",
             ((("R0", 58), ("R1", 62)), 62, 186, 128, 186, 0)),
            (128, "5994b09c511268ac95c8e3b6490d41d6",
             ((("R0", 58), ("R1", 62)), 62, 186, 128, 186, 0)),
            (128, "5994b09c511268ac95c8e3b6490d41d6",
             ((("R0", 58), ("R1", 62)), 62, 186, 128, 186, 0)),
        ],
    ),
    ("lru", "detection", "hy"): (
        "4969a0e09be60047c506c951d9257396b418dd6427e7c19fa6547a46ce79723b",
        [
            (252, "558a201f4604dfb47ffd857da3de59d6",
             ((("R0", 62), ("R1", 58)), 62, 310, 252, 310, 0)),
            (128, "8df9f2f12c2878b7946d6fc0c1e1b0cb",
             ((("R0", 62), ("R1", 58)), 62, 186, 128, 186, 0)),
            (128, "8df9f2f12c2878b7946d6fc0c1e1b0cb",
             ((("R0", 62), ("R1", 58)), 62, 186, 128, 186, 0)),
            (128, "8df9f2f12c2878b7946d6fc0c1e1b0cb",
             ((("R0", 62), ("R1", 58)), 62, 186, 128, 186, 0)),
        ],
    ),
    ("mru", "invalidation", "ds"): (
        "284637f8907adf841cab19532fcd13adde41d2443b47093a512209734e0ab5e6",
        [
            (12, "75f322aa2f9719d7fabd54a74797a658",
             ((("R0", 62), ("R1", 58)), 298, 74, 12, 74, 4)),
            (8, "453efb51532d463c54a84c38cd9afbb3",
             ((("R0", 62), ("R1", 57)), 179, 69, 8, 69, 4)),
            (8, "453efb51532d463c54a84c38cd9afbb3",
             ((("R0", 62), ("R1", 57)), 179, 69, 8, 69, 4)),
            (8, "453efb51532d463c54a84c38cd9afbb3",
             ((("R0", 62), ("R1", 57)), 179, 69, 8, 69, 4)),
        ],
    ),
    ("mru", "invalidation", "hy"): (
        "a08256a37c8ca153e4bf7d623cba19142c3e9b7b0d17974d5f26ac07bd127831",
        [
            (12, "71da8f3f68fcd38cee5708b6734be855",
             ((("R0", 58), ("R1", 62)), 298, 74, 12, 74, 4)),
            (8, "de6b3f61b756c4d71a076ac05930740e",
             ((("R0", 58), ("R1", 61)), 179, 69, 8, 69, 4)),
            (8, "de6b3f61b756c4d71a076ac05930740e",
             ((("R0", 58), ("R1", 61)), 179, 69, 8, 69, 4)),
            (8, "de6b3f61b756c4d71a076ac05930740e",
             ((("R0", 58), ("R1", 61)), 179, 69, 8, 69, 4)),
        ],
    ),
    ("mru", "detection", "ds"): (
        "51605e31f1b4ac45151422051bff2e256b28ac25ed7751ae6562a1f5091682c4",
        [
            (12, "170a24aa2ce5401a5f7b3a2980fa06b8",
             ((("R0", 62), ("R1", 58)), 302, 70, 12, 74, 4)),
            (8, "67351918d044f3b00eddeb8ce15c40bf",
             ((("R0", 62), ("R1", 58)), 182, 66, 8, 69, 3)),
            (8, "67351918d044f3b00eddeb8ce15c40bf",
             ((("R0", 62), ("R1", 58)), 182, 66, 8, 69, 3)),
            (8, "67351918d044f3b00eddeb8ce15c40bf",
             ((("R0", 62), ("R1", 58)), 182, 66, 8, 69, 3)),
        ],
    ),
    ("mru", "detection", "hy"): (
        "15f5c6bf6a112db59c6854403351f9b4309d43a0151250b3e69dae1be26644f4",
        [
            (12, "71da8f3f68fcd38cee5708b6734be855",
             ((("R0", 58), ("R1", 62)), 302, 70, 12, 74, 4)),
            (8, "de6b3f61b756c4d71a076ac05930740e",
             ((("R0", 58), ("R1", 62)), 182, 66, 8, 69, 3)),
            (8, "de6b3f61b756c4d71a076ac05930740e",
             ((("R0", 58), ("R1", 62)), 182, 66, 8, 69, 3)),
            (8, "de6b3f61b756c4d71a076ac05930740e",
             ((("R0", 58), ("R1", 62)), 182, 66, 8, 69, 3)),
        ],
    ),
    ("clock", "invalidation", "ds"): (
        "bfbe72f19594cbcac2069475abfac2ed63295b23091c40188ea5c6903243c01d",
        [
            (179, "d92c8bbddab02e6ee79ca8f9965cb589",
             ((("R0", 58), ("R1", 62)), 131, 241, 179, 241, 4)),
            (91, "698bb2560d3888f5a42fd9eba7b05c07",
             ((("R0", 58), ("R1", 61)), 96, 152, 91, 152, 4)),
            (91, "698bb2560d3888f5a42fd9eba7b05c07",
             ((("R0", 58), ("R1", 61)), 96, 152, 91, 152, 4)),
            (91, "698bb2560d3888f5a42fd9eba7b05c07",
             ((("R0", 58), ("R1", 61)), 96, 152, 91, 152, 4)),
        ],
    ),
    ("clock", "invalidation", "hy"): (
        "c34922b83a7412bc83b612f49a0584289539da937cddc57b8ef70afd14a5645c",
        [
            (179, "4adaac79c72549bac25ba9d7aa07113e",
             ((("R0", 62), ("R1", 58)), 131, 241, 179, 241, 4)),
            (61, "b143df5a49a17fde2978843531c9e6ea",
             ((("R0", 62), ("R1", 57)), 126, 122, 61, 122, 4)),
            (61, "b143df5a49a17fde2978843531c9e6ea",
             ((("R0", 62), ("R1", 57)), 126, 122, 61, 122, 4)),
            (61, "b143df5a49a17fde2978843531c9e6ea",
             ((("R0", 62), ("R1", 57)), 126, 122, 61, 122, 4)),
        ],
    ),
    ("clock", "detection", "ds"): (
        "56913cbf698f5d2d7abea597570134932239e773b4e18c3125f1b48004255395",
        [
            (181, "274e404e11229d4629303a3ac0ea9b5a",
             ((("R0", 58), ("R1", 62)), 133, 239, 181, 240, 1)),
            (93, "c0bfebbe30b89f84d832d1e1ab0c8d70",
             ((("R0", 58), ("R1", 62)), 97, 151, 93, 152, 1)),
            (93, "c0bfebbe30b89f84d832d1e1ab0c8d70",
             ((("R0", 58), ("R1", 62)), 97, 151, 93, 152, 1)),
            (93, "c0bfebbe30b89f84d832d1e1ab0c8d70",
             ((("R0", 58), ("R1", 62)), 97, 151, 93, 152, 1)),
        ],
    ),
    ("clock", "detection", "hy"): (
        "b3b3c4d6cafb5accab9aab48a7343f67f2b44f55c84162a1b8cbd5ee838daf3e",
        [
            (181, "0efb05fa58c679b863b18e70e18f98a9",
             ((("R0", 62), ("R1", 58)), 133, 239, 181, 241, 2)),
            (62, "e0533a97b8e465117d3efc9737a2922a",
             ((("R0", 62), ("R1", 58)), 128, 120, 62, 122, 2)),
            (62, "e0533a97b8e465117d3efc9737a2922a",
             ((("R0", 62), ("R1", 58)), 128, 120, 62, 122, 2)),
            (62, "e0533a97b8e465117d3efc9737a2922a",
             ((("R0", 62), ("R1", 58)), 128, 120, 62, 122, 2)),
        ],
    ),
}


@pytest.mark.parametrize("shipping", sorted(SHIPPING))
@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("replacement", POLICY_NAMES)
def test_evicting_workload_is_pinned(replacement, protocol, shipping):
    sessions, clients = run_case(replacement, protocol, shipping)
    assert all(evictions > 0 for evictions, _, _ in clients)
    expected_sessions, expected_clients = EXPECTED[replacement, protocol, shipping]
    assert clients == expected_clients
    assert sessions == expected_sessions
