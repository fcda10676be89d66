"""The disk's controller cache is an exact LRU, checked against OrderedDict.

A :class:`ControllerCacheModel` replays the controller-cache rules of
:meth:`repro.hardware.disk.Disk._service` with an ``OrderedDict``: a read
hit refreshes the page; a write drops its copy before the media write; a
serviced page is inserted at the young end, followed by the track
read-ahead after a sequential read; a power-off empties the cache and
forgets the head position.  Random streams of one-at-a-time reads, writes
and power cycles on a one-cylinder disk (so read-ahead also meets the end
of the disk) must leave the disk with the same hit count and the same
pages, in the same LRU order, after every request.
"""

from collections import OrderedDict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import DiskParams
from repro.hardware import Disk
from repro.sim import Environment

PARAMS = DiskParams(cylinders=1, controller_cache_pages=4, sample_rotation=False)
PAGES = PARAMS.capacity_pages


class ControllerCacheModel:
    def __init__(self, params: DiskParams) -> None:
        self.params = params
        self.cache: "OrderedDict[int, None]" = OrderedDict()
        self.hits = 0
        self.last_page: int | None = None

    def _insert(self, page: int) -> None:
        self.cache[page] = None
        if len(self.cache) > self.params.controller_cache_pages:
            self.cache.popitem(last=False)

    def request(self, kind: str, page: int) -> None:
        p = self.params
        if kind == "read" and page in self.cache:
            self.hits += 1
            self.cache.move_to_end(page)
            return
        if kind == "write":
            self.cache.pop(page, None)
        sequential = self.last_page is not None and page == self.last_page + 1
        self.last_page = page
        self._insert(page)
        if kind == "read" and sequential:
            offset = page % p.pages_per_track
            for ahead in range(1, min(p.read_ahead_pages, p.pages_per_track - 1 - offset) + 1):
                prefetched = page + ahead
                if prefetched >= p.capacity_pages or prefetched in self.cache:
                    break
                self._insert(prefetched)
                self.last_page = prefetched

    def power_off(self) -> None:
        self.cache.clear()
        self.last_page = None


operation = st.one_of(
    st.tuples(st.sampled_from(("read", "write")), st.integers(0, PAGES - 1)),
    st.just(("power-cycle", 0)),
)


@settings(max_examples=200, deadline=None)
@given(ops=st.lists(operation, min_size=1, max_size=60))
def test_controller_cache_matches_the_ordered_dict_lru(ops):
    env = Environment()
    disk = Disk(env, PARAMS)
    model = ControllerCacheModel(PARAMS)

    def one(kind, page):
        yield disk.submit(kind, page).done

    for kind, page in ops:
        if kind == "power-cycle":
            disk.power_off()
            disk.power_on()
            model.power_off()
        else:
            env.run(until=env.process(one(kind, page)))
            model.request(kind, page)
        assert disk.cache_hits == model.hits, (kind, page)
        assert list(disk._cache) == list(model.cache), (kind, page)
