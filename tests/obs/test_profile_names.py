"""Profiles of same-shape runs share their metric names.

A figure grid keeps one profile per point.  The topology registers its
gauge names once per (prefix, gauge table) for every run, so each profile
holds references to the same key strings instead of its own copies.  The
pinned digest checks that the shared names left every profile key, its
order and every value as they were when each run built its own names.
"""

import hashlib

import pytest

from repro.config import BufferAllocation, OptimizerConfig
from repro.optimizer import RandomizedOptimizer
from repro.plans.policies import Policy
from repro.workloads.scenarios import chain_scenario

#: sha256 of ``repr(list(profile.items()))`` of the Figure-2 point below,
#: captured when every run still formatted its own metric names.
PROFILE_SHA256 = {
    Policy.DATA_SHIPPING: "709a40a19846c25e0782e8e6a07f32f411a578113be08e96bd06971dc76aef14",
    Policy.QUERY_SHIPPING: "e41d81b8db9461bde883ab3f19f9a07ed791673e793bf6c232d7bce228e71f73",
    Policy.HYBRID_SHIPPING: "6e251d31bac199269fa70605139ebe0d08dffd56712bb0fcf2fc3d26140885e9",
}


def figure2_profile(policy: Policy, placement_seed: int = 3) -> dict[str, float]:
    scenario = chain_scenario(
        num_relations=2,
        num_servers=1,
        allocation=BufferAllocation.MINIMUM,
        cached_fraction=0.5,
        placement_seed=placement_seed,
    )
    plan = RandomizedOptimizer(
        scenario.query,
        scenario.environment(),
        policy=policy,
        config=OptimizerConfig.fast(),
        seed=3,
    ).optimize().plan
    return scenario.execute(plan, seed=3).profile


@pytest.mark.parametrize("policy", list(Policy), ids=lambda p: p.short_name)
def test_figure2_profile_is_unchanged(policy):
    profile = figure2_profile(policy)
    digest = hashlib.sha256(repr(list(profile.items())).encode()).hexdigest()
    assert digest == PROFILE_SHA256[policy]


def test_same_shape_runs_share_key_strings():
    first = figure2_profile(Policy.DATA_SHIPPING)
    second = figure2_profile(Policy.HYBRID_SHIPPING, placement_seed=7)
    assert list(first) == list(second)
    for a, b in zip(first, second):
        assert a is b, a
