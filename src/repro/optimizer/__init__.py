"""Randomized two-phase query optimization (2PO) and 2-step optimization.

The optimizer follows Ioannidis & Kang [IK90]: phase one runs iterative
improvement from several random plans; phase two refines the best local
minimum with simulated annealing at a low initial temperature.  The seven
plan transformations of section 3.1.1 (four join-order moves, the join /
select / scan annotation moves) define the neighbourhood; enabling,
disabling, or restricting moves confines the search to the data-shipping,
query-shipping, or hybrid-shipping policy.

:mod:`repro.optimizer.two_step` adds the section-5 machinery: *static*
plans fully optimized at compile time under an assumed system state, and
*2-step* plans whose join order is compiled but whose site selection is
redone at run time.  It loads on first access to one of its names.
"""

from repro import lazy_getattr
from repro.optimizer.cache import CacheStats, PlanCache
from repro.optimizer.random_plans import PlanShape, random_plan
from repro.optimizer.space import random_neighbor
from repro.optimizer.two_phase import OptimizationResult, RandomizedOptimizer, optimize

#: Names imported from their defining module on first access.
_EXPORTS = {
    "CompiledQuery": "repro.optimizer.two_step",
    "TwoStepOptimizer": "repro.optimizer.two_step",
    "site_selection_only": "repro.optimizer.two_step",
}

__all__ = [
    "CacheStats",
    "CompiledQuery",
    "OptimizationResult",
    "PlanCache",
    "PlanShape",
    "RandomizedOptimizer",
    "TwoStepOptimizer",
    "optimize",
    "random_neighbor",
    "random_plan",
    "site_selection_only",
]

__getattr__ = lazy_getattr(globals(), _EXPORTS)
