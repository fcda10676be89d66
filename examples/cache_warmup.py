#!/usr/bin/env python3
"""Dynamic client caching: hybrid-shipping moves client-side as the cache warms.

Two views of the same effect, on a 2-way join against one server:

1. The optimizer's view: hybrid-shipping plans for the *pages sent*
   objective against three snapshots of the client's buffer cache.  Cold,
   it keeps the join and both scans at the server (shipping the small
   result beats shipping the relations); at 60 % resident the balance
   tips and every operator moves to the client, faulting only the missing
   tail; fully warm, the same client-side plan ships nothing at all.
2. The runtime's view: a closed single-client stream of four such
   queries with 60 % of each relation seeded resident.  The first query
   faults in the 40 % tail (demand paging admits every faulted page), so
   queries two onward run entirely off the client disk -- pages shipped
   drops to zero and stays there.

Run with::

    python examples/cache_warmup.py
"""

from repro import api
from repro.caching import CacheState
from repro.costmodel.model import EnvironmentState, Objective
from repro.optimizer.two_phase import RandomizedOptimizer
from repro.plans.policies import Policy
from repro.workloads.scenarios import chain_scenario

RELATION_PAGES = 250  # each chain-scenario relation, at the default schema


def plans_across_cache_states() -> None:
    scenario = chain_scenario(
        num_relations=2, num_servers=1, cached_fraction=0.0, placement_seed=3
    )
    print("hybrid-shipping plan (pages-sent objective) vs client cache contents")
    for fraction in (0.0, 0.6, 1.0):
        resident = round(RELATION_PAGES * fraction)
        state = CacheState(
            capacity_pages=2 * RELATION_PAGES,
            resident=tuple((name, resident) for name in ("R0", "R1") if resident),
        )
        environment = EnvironmentState(
            scenario.catalog,
            scenario.config,
            dict(scenario.server_loads),
            cache_state=state,
        )
        plan = RandomizedOptimizer(
            scenario.query,
            environment,
            policy=Policy.HYBRID_SHIPPING,
            objective=Objective.PAGES_SENT,
            seed=3,
        ).optimize().plan
        print(f"\n--- {resident}/{RELATION_PAGES} pages of each relation resident ---")
        print(api.explain(plan, scenario))
    print()


def warming_stream() -> None:
    result = api.run_workload(
        policy="hy",
        objective="pages-sent",
        num_clients=1,
        arrival="closed",
        think_time=0.0,
        queries_per_client=4,
        cached_fraction=0.6,  # seeds the dynamic cache 60% resident
        seed=3,
    )
    print("closed 1-client stream, 60% seeded: the first query faults the tail")
    print(f"{'query':8s}{'pages shipped':>15s}{'resident pages':>16s}{'time [s]':>10s}")
    for session in result.sessions:
        print(
            f"{session.session_id:8s}{session.pages_sent:>15d}"
            f"{session.cache_resident_pages:>16d}{session.response_time:>10.2f}"
        )


def main() -> None:
    plans_across_cache_states()
    warming_stream()


if __name__ == "__main__":
    main()
