"""Simulated query execution engine.

"Query execution is based on an iterator model, similar to that of Volcano:
each query operator has an open-next-close interface ... data flow is demand
driven.  When two connected operators are located on different sites, a pair
of specialized network operators is inserted between them" (section 3.2.1).

Every physical operator charges its CPU, disk, and network usage to the
simulated resources of the site it is bound to; the executor drives the
root display operator to completion and reports the response time and
communication volume.  :class:`DiskLoadGenerator` loads on first access.
"""

from repro import lazy_getattr
from repro.engine.base import Page, PhysicalOp
from repro.engine.executor import ExecutionResult, QueryExecutor

#: Names imported from their defining module on first access.
_EXPORTS = {"DiskLoadGenerator": "repro.engine.loadgen"}

__all__ = [
    "DiskLoadGenerator",
    "ExecutionResult",
    "Page",
    "PhysicalOp",
    "QueryExecutor",
]

__getattr__ = lazy_getattr(globals(), _EXPORTS)
