"""Two-phase randomized optimization (2PO): II followed by SA [IK90].

Phase one (iterative improvement) descends from several random starting
plans, accepting only improving moves, until a local minimum (a run of
consecutive non-improving moves).  Phase two (simulated annealing) starts
from the best local minimum at a low temperature and occasionally accepts
uphill moves, escaping shallow minima.  The paper chose 2PO because it
optimizes a 10-way join with site selection "in a reasonable amount of
time" while producing plans that are "reasonable rather than truly
optimal" (section 3.1.1).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from repro.config import OptimizerConfig
from repro.costmodel.model import CostModel, EnvironmentState, Objective, PlanCost
from repro.errors import OptimizationError
from repro.optimizer.cache import PlanCache
from repro.optimizer.random_plans import PlanShape, force_client_scans, random_plan
from repro.optimizer.space import random_neighbor
from repro.plans.annotations import Annotation
from repro.plans.logical import Query
from repro.plans.operators import DisplayOp
from repro.plans.policies import Policy, allowed_annotations

__all__ = ["OptimizationResult", "RandomizedOptimizer", "optimize"]


@dataclass
class OptimizationResult:
    """The winning plan of one optimization run."""

    plan: DisplayOp
    cost: PlanCost
    policy: Policy
    objective: Objective
    evaluations: int

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{self.policy.short_name} plan, {self.objective}: "
            f"{self.cost.metric(self.objective)[0]:.4g} ({self.evaluations} evals)"
        )


class RandomizedOptimizer:
    """2PO over one query, policy, objective, and environment belief."""

    def __init__(
        self,
        query: Query,
        environment: EnvironmentState,
        policy: Policy = Policy.HYBRID_SHIPPING,
        objective: Objective = Objective.RESPONSE_TIME,
        config: OptimizerConfig | None = None,
        seed: int = 0,
        shape: PlanShape = PlanShape.ANY,
        annotation_moves_only: bool = False,
        initial_plan: DisplayOp | None = None,
        forced_client_relations: frozenset[str] = frozenset(),
        plan_cache: PlanCache | None = None,
    ) -> None:
        self.query = query
        self.environment = environment
        self.policy = policy
        self.objective = objective
        self.config = config or OptimizerConfig()
        self.seed = seed
        self.rng = random.Random(seed)
        self.shape = shape
        self.annotation_moves_only = annotation_moves_only
        self.forced_client_relations = frozenset(forced_client_relations)
        if self.forced_client_relations and Annotation.CLIENT not in allowed_annotations(
            policy, "scan"
        ):
            raise OptimizationError(
                f"{policy} has no client scans, so it cannot plan around the "
                f"excluded primary sites of {sorted(self.forced_client_relations)}"
            )
        if initial_plan is not None:
            initial_plan = force_client_scans(initial_plan, self.forced_client_relations)
        self.initial_plan = initial_plan
        self.plan_cache = plan_cache
        # Replica-aware site selection: every copy location of each
        # replicated relation (primary first) feeds the optimizer's
        # "rehome" move.  Empty for unreplicated catalogs, in which case
        # the move set -- and hence the RNG stream -- is unchanged.
        placement = environment.catalog.placement
        self.replica_options: dict[str, tuple[int, ...]] = {
            name: environment.catalog.servers_of(name)
            for name in sorted(placement.replicas)
        }
        self.cost_model = CostModel(query, environment)
        self.evaluations = 0

    def _cache_inputs(self, subspace: Policy | None) -> tuple:
        """The value inputs that key this run (``None``) or one pass in the
        plan cache; a pass is keyed by its subspace instead of the policy,
        so a hybrid run's pure pass shares the standalone pure entry."""
        return (
            "full" if subspace is None else "pass",
            self.policy if subspace is None else subspace,
            self.objective,
            self.config,
            self.seed,
            self.shape,
            self.annotation_moves_only,
            self.forced_client_relations,
        )

    # ------------------------------------------------------------------
    # Metric helpers
    # ------------------------------------------------------------------
    def _cost(self, plan: DisplayOp) -> PlanCost:
        self.evaluations += 1
        return self.cost_model.evaluate(plan)

    def _metric(self, cost: PlanCost) -> tuple[float, float]:
        return cost.metric(self.objective)

    def _scalar(self, cost: PlanCost) -> float:
        """Scalar for SA temperature arithmetic (primary + tiny secondary)."""
        primary, secondary = self._metric(cost)
        return primary + 1e-9 * secondary

    def _neighbor(self, plan: DisplayOp, move_policy: Policy) -> DisplayOp | None:
        return random_neighbor(
            plan,
            self.query,
            move_policy,
            self.rng,
            shape=self.shape,
            annotation_moves_only=self.annotation_moves_only,
            forced_client_relations=self.forced_client_relations,
            replica_options=self.replica_options or None,
        )

    def _start_plan(self, policy: Policy) -> DisplayOp:
        if self.initial_plan is not None:
            return self.initial_plan
        return random_plan(
            self.query,
            policy,
            self.rng,
            self.shape,
            forced_client_relations=self.forced_client_relations,
        )

    # ------------------------------------------------------------------
    # Phase 1: iterative improvement
    # ------------------------------------------------------------------
    def _iterative_improvement(self, move_policy: Policy) -> tuple[DisplayOp, PlanCost]:
        best_plan: DisplayOp | None = None
        best_cost: PlanCost | None = None
        for _start in range(self.config.ii_starts):
            plan = self._start_plan(move_policy)
            cost = self._cost(plan)
            failures = 0
            while failures < self.config.ii_local_minimum_patience:
                neighbor = self._neighbor(plan, move_policy)
                if neighbor is None:
                    failures += 1
                    continue
                neighbor_cost = self._cost(neighbor)
                if self._metric(neighbor_cost) < self._metric(cost):
                    plan, cost = neighbor, neighbor_cost
                    failures = 0
                else:
                    failures += 1
            if best_cost is None or self._metric(cost) < self._metric(best_cost):
                best_plan, best_cost = plan, cost
        assert best_plan is not None and best_cost is not None
        return best_plan, best_cost

    # ------------------------------------------------------------------
    # Phase 2: simulated annealing
    # ------------------------------------------------------------------
    def _simulated_annealing(
        self, plan: DisplayOp, cost: PlanCost, move_policy: Policy
    ) -> tuple[DisplayOp, PlanCost]:
        config = self.config
        best_plan, best_cost = plan, cost
        current_plan, current_scalar = plan, self._scalar(cost)
        scale = max(current_scalar, 1e-9)
        temperature = config.sa_initial_temperature_ratio * scale
        floor = config.sa_minimum_temperature_ratio * scale
        stage_moves = max(4, config.sa_stage_moves_per_join * max(1, self.query.num_joins))
        stagnant_stages = 0
        while temperature > floor and stagnant_stages < config.sa_frozen_patience:
            improved = False
            for _move in range(stage_moves):
                neighbor = self._neighbor(current_plan, move_policy)
                if neighbor is None:
                    continue
                neighbor_cost = self._cost(neighbor)
                neighbor_scalar = self._scalar(neighbor_cost)
                delta = neighbor_scalar - current_scalar
                if delta <= 0 or self.rng.random() < math.exp(-delta / temperature):
                    current_plan, current_scalar = neighbor, neighbor_scalar
                    if self._metric(neighbor_cost) < self._metric(best_cost):
                        best_plan, best_cost = neighbor, neighbor_cost
                        improved = True
            stagnant_stages = 0 if improved else stagnant_stages + 1
            temperature *= config.sa_temperature_decay
        return best_plan, best_cost

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def _run_2po(self, move_policy: Policy) -> tuple[DisplayOp, PlanCost]:
        """One full II + SA pass confined to ``move_policy``'s move set."""
        plan, cost = self._iterative_improvement(move_policy)
        return self._simulated_annealing(plan, cost, move_policy)

    def _subspace_policies(self) -> list[Policy]:
        """The policy subspaces explored by this optimization run.

        Hybrid-shipping's search space strictly contains the data-shipping
        and query-shipping spaces (Table 1), so a hybrid optimization also
        runs 2PO inside each pure subspace and keeps the overall best plan;
        this preserves the paper's property that hybrid-shipping at least
        matches the better pure policy, even under small search budgets.
        """
        if (
            self.policy is Policy.HYBRID_SHIPPING
            and not self.annotation_moves_only
            and self.initial_plan is None
            and self.config.seed_pure_subspaces
        ):
            if self.forced_client_relations:
                # Query-shipping cannot honour a client-scan exclusion.
                return [Policy.HYBRID_SHIPPING, Policy.DATA_SHIPPING]
            return [
                Policy.HYBRID_SHIPPING,
                Policy.QUERY_SHIPPING,
                Policy.DATA_SHIPPING,
            ]
        return [self.policy]

    def optimize(self) -> OptimizationResult:
        """Run both phases (per subspace) and return the best plan found."""
        # A run seeded from an explicit initial plan bypasses the cache.
        cache = self.plan_cache if self.initial_plan is None else None
        full_inputs = self._cache_inputs(None)
        if cache is not None:
            cached = cache.get(self.environment, self.query, full_inputs)
            if cached is not None:
                plan, cost = cached
                return OptimizationResult(
                    plan=plan,
                    cost=cost,
                    policy=self.policy,
                    objective=self.objective,
                    evaluations=self.evaluations,
                )
        best_plan: DisplayOp | None = None
        best_cost: PlanCost | None = None
        for move_policy in self._subspace_policies():
            # Every pass draws from its own child generator keyed by (seed,
            # pass policy): a hybrid run's query-shipping pass is
            # move-for-move identical to a standalone query-shipping
            # optimization with the same seed, while the hybrid main pass
            # explores an independent stream instead of replaying it.
            self.rng = random.Random(f"{self.seed}:{move_policy.value}")
            inputs = self._cache_inputs(move_policy)
            cached = None if cache is None else cache.get(self.environment, self.query, inputs)
            if cached is not None:
                plan, cost = cached
            else:
                plan, cost = self._run_2po(move_policy)
                if cache is not None:
                    cache.put(self.environment, self.query, inputs, plan, cost)
            if best_cost is None or self._metric(cost) < self._metric(best_cost):
                best_plan, best_cost = plan, cost
        assert best_plan is not None and best_cost is not None
        if cache is not None:
            cache.put(self.environment, self.query, full_inputs, best_plan, best_cost)
        return OptimizationResult(
            plan=best_plan,
            cost=best_cost,
            policy=self.policy,
            objective=self.objective,
            evaluations=self.evaluations,
        )


def optimize(
    query: Query,
    environment: EnvironmentState,
    policy: Policy = Policy.HYBRID_SHIPPING,
    objective: Objective = Objective.RESPONSE_TIME,
    config: OptimizerConfig | None = None,
    seed: int = 0,
    shape: PlanShape = PlanShape.ANY,
    plan_cache: PlanCache | None = None,
) -> OptimizationResult:
    """Convenience wrapper: one 2PO run with the given settings."""
    return RandomizedOptimizer(
        query, environment, policy, objective, config, seed, shape,
        plan_cache=plan_cache,
    ).optimize()
