"""repro: reproduction of "Performance Tradeoffs for Client-Server Query
Processing" (Franklin, Jonsson & Kossmann, SIGMOD 1996).

The package implements the paper's complete experimental apparatus:

- a discrete-event simulator of a client-server DBMS (:mod:`repro.sim`,
  :mod:`repro.hardware`, :mod:`repro.storage`, :mod:`repro.engine`);
- annotated query plans and the data-/query-/hybrid-shipping execution
  policies (:mod:`repro.plans`);
- a randomized two-phase query optimizer with total-cost and response-time
  cost models (:mod:`repro.optimizer`, :mod:`repro.costmodel`);
- the paper's workloads and every table/figure experiment
  (:mod:`repro.workloads`, :mod:`repro.experiments`).
"""

__version__ = "1.0.0"

import importlib
import typing


def lazy_getattr(
    namespace: dict[str, typing.Any], exports: dict[str, str]
) -> typing.Callable[[str], typing.Any]:
    """A module ``__getattr__`` that imports each name in ``exports`` (name
    -> defining module) on first access and keeps it in ``namespace``.

    Packages whose optional modules should load only when used assign the
    result to ``__getattr__`` (PEP 562).
    """

    def __getattr__(name: str) -> typing.Any:
        module = exports.get(name)
        if module is None:
            raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module), name)
        namespace[name] = value
        return value

    return __getattr__


# Below the helper: modules imported from here may use it.
from repro.config import BufferAllocation, DiskParams, OptimizerConfig, SystemConfig  # noqa: E402

__all__ = [
    "BufferAllocation",
    "DiskParams",
    "OptimizerConfig",
    "SystemConfig",
    "__version__",
]

