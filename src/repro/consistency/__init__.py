"""Cache consistency: page versions, protocols, and per-site counters.

The paper's world is read-only, so PR 5's dynamic client buffer cache can
never go stale.  This package opens the write axis: a global
:class:`VersionTable` stamps every committed page write, and a pluggable
:class:`ConsistencyManager` decides how client caches find out --
**invalidation callbacks** (the server broadcasts invalidations at commit)
or **detection on access** (clients validate versions against the server
on every cache hit).  Both guarantee that a stale page is never served to
a query; they differ only in where the traffic lands (write path vs read
path), which is exactly the tradeoff the read/write-mix sweep measures.

Every site keeps a :class:`ConsistencyStats`; the versions and protocols
load only when a workload carries writes.  Each name below is imported
from its defining module on first access.
"""

from repro import lazy_getattr

#: The module defining each public name.
_EXPORTS = {
    "PROTOCOL_NAMES": "repro.consistency.config",
    "ConsistencyConfig": "repro.consistency.config",
    "ConsistencyManager": "repro.consistency.protocol",
    "DetectionProtocol": "repro.consistency.protocol",
    "InvalidationProtocol": "repro.consistency.protocol",
    "make_protocol": "repro.consistency.protocol",
    "ConsistencyStats": "repro.consistency.stats",
    "VersionTable": "repro.consistency.versions",
}

__all__ = list(_EXPORTS)

__getattr__ = lazy_getattr(globals(), _EXPORTS)
