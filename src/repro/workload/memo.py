"""Session memoization: record a session's primitive ops, replay them for twins.

In a closed, read-only workload most sessions are *twins*: the same plan
executed from the same client cache state.  The operator tree's control flow
is then a pure function of (plan, exact cache state, consistency epoch) --
every CPU burst, message, disk request, channel hand-off, and allocation it
will issue is already determined.  What is **not** determined is timing:
that depends on what the other sessions are doing to the shared CPUs, wire,
disks, and buffer pools.

So the memoizer splits the two.  The first session to run under a given
memo key records its **op tape**: per simulated process, the ordered
primitive operations it issued (the hooks live in the hardware layer and
fire only while a recording is active).  A later session with the same key
*replays* the tape -- re-issuing every primitive against the live simulated
hardware, in the same per-process order, spawning the same process tree and
re-creating the same channels -- instead of re-running scans, joins, and
exchange pumps through the operator interpreter.  Queueing, grant instants,
monitor arithmetic, counters, and cache mutations are those of a real run
(they *are* a real run at the primitive level); only the per-event Python
interpreting work shrinks.

Correctness levers:

- the memo key uses :meth:`BufferCache.memo_digest` (exact slot map,
  versions, free list, and replacement-policy state), the static cache
  digest, and the consistency epoch -- not the plan-cache's coarse digest;
- eligibility is gated hard by the workload runner (closed arrival,
  read-only, static memory discipline, no tracer, no faults, no recovery,
  fastpath on) -- anything else never records and never replays;
- replayed cache operations re-execute for real and are *asserted* against
  the recorded results (the determinism gate): a mismatch raises
  :class:`SimulationError` instead of silently diverging;
- tapes are portable across clients: per-client disk layouts are identical
  by construction, so only temp-file extents (allocated live on shared
  server disks) are stored relative to their temp file, and site ids /
  labels naming the recording client are re-pointed at the replaying one.

``REPRO_SIM_MEMO=0`` (or ``WorkloadRunner(memoize=False)``) turns the whole
mechanism off; the equality tests compare memoized and plain runs field for
field, including telemetry, profiles, and broker histories.
"""

from __future__ import annotations

import typing

from repro.errors import SimulationError
from repro.hardware.site import site_name
from repro.sim import AllOf, Channel, ChannelClosed

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.hardware.disk import Disk, DiskRequest
    from repro.hardware.site import Site, TempFile
    from repro.hardware.topology import Topology
    from repro.sim.engine import Environment, Process
    from repro.sim.events import Event
    from repro.storage.memory import MemoryBroker

__all__ = ["SessionMemo"]

#: Placeholder substituted for the recording client's site name in labels,
#: channel names, and process names, so a tape recorded on ``client3``
#: replays with ``client7``'s names (site ids are re-pointed the same way).
_CLIENT = "\x00"


class _ReplayCancelled(Exception):
    """Internal teardown signal for a replay abandoned mid-flight."""


class _StreamRef:
    """Registration of one simulated process with an active recording."""

    __slots__ = ("rec", "idx", "suppress")

    def __init__(self, rec: "_Recording", idx: int) -> None:
        self.rec = rec
        self.idx = idx
        # Nested-recording suppression depth: while a whole network send is
        # being recorded as one op, the endpoint CPU bursts inside it must
        # not also be recorded (the replayed send re-issues them itself).
        self.suppress = 0


class _Recording:
    """A session's op tape under construction (one stream per process)."""

    __slots__ = (
        "key", "client_site", "client_name", "streams", "dsub_counts",
        "procs", "req_seq", "temp_idx", "temp_meta", "temp_objs",
        "chan_idx", "chan_objs", "aborted",
    )

    def __init__(self, key: tuple, client_site: int, client_name: str) -> None:
        self.key = key
        self.client_site = client_site
        self.client_name = client_name
        self.streams: list[list[tuple]] = []
        self.dsub_counts: list[int] = []
        self.procs: list["Process"] = []
        # id(request.done) -> per-stream submit sequence number.
        self.req_seq: dict[int, int] = {}
        # Temp files: index assignment, extent metadata for page
        # relativization ([site_id, disk_index, start, pages, live]), and
        # strong refs (id() keys stay unique while the objects are held).
        self.temp_idx: dict[int, int] = {}
        self.temp_meta: list[list] = []
        self.temp_objs: list["TempFile"] = []
        self.chan_idx: dict[int, int] = {}
        self.chan_objs: list[Channel] = []
        self.aborted = False


class _Tape:
    """A committed, immutable recording."""

    __slots__ = ("streams", "result_tuples", "client_site")

    def __init__(
        self, streams: tuple, result_tuples: int, client_site: int
    ) -> None:
        self.streams = streams
        self.result_tuples = result_tuples
        self.client_site = client_site


class _Entry:
    """Result of a memo-key probe: the key, and a tape when one exists."""

    __slots__ = ("key", "tape", "client_site")

    def __init__(self, key: tuple, tape: "_Tape | None", client_site: int) -> None:
        self.key = key
        self.tape = tape
        self.client_site = client_site


class _ReplayState:
    """Shared state of one replay: its channels, temps, and allocations."""

    __slots__ = (
        "client", "client_name", "channels", "temps", "allocated",
        "processes", "cancelled", "error",
    )

    def __init__(self, client: "Site", client_name: str) -> None:
        self.client = client
        self.client_name = client_name
        self.channels: list[Channel] = []
        self.temps: list["TempFile"] = []
        self.allocated: dict["Site", int] = {}
        self.processes: list["Process"] = []
        self.cancelled = False
        self.error: BaseException | None = None


class SessionMemo:
    """Recorder + replayer of whole workload sessions (see module docs).

    One instance serves a whole workload run: it is installed as the
    executor's ``session_memo`` (so :meth:`QuerySession._run_once` can probe
    and commit) and installs *itself* as ``env.recorder`` exactly while at
    least one recording is in flight -- in the replay-heavy steady state the
    hardware hooks see ``recorder is None`` and cost one attribute read.
    Hooks resolve the *issuing* process through
    ``env.active_process``; processes of non-recording sessions -- and all
    replay processes -- are simply not registered, so their hooks no-op.
    """

    def __init__(self, env: "Environment", topology: "Topology") -> None:
        self.env = env
        self.topology = topology
        self.tapes: dict[tuple, _Tape] = {}
        self._procs: dict["Process", _StreamRef] = {}
        # Plan identity tokens (strong refs keep id() keys unique).
        self._plans: list[typing.Any] = []
        self._plan_tokens: dict[int, int] = {}
        # Hardware-object -> site encoding, fixed for the topology's life.
        self._cpu_site: dict[int, int] = {}
        self._disk_code: dict[int, tuple[int, int]] = {}
        self._broker_site: dict[int, int] = {}
        for site in topology.sites:
            self._cpu_site[id(site.cpu)] = site.site_id
            self._broker_site[id(site.memory)] = site.site_id
            for index, disk in enumerate(site.disks):
                self._disk_code[id(disk)] = (site.site_id, index)
        # Statistics (reported by the runner / inspected by tests).
        self.recordings = 0
        self.replays = 0
        self.discards = 0
        self.aborted_recordings = 0
        # Number of recordings currently in flight.  The memo installs
        # itself as ``env.recorder`` only while this is non-zero: once every
        # tape is committed (the common steady state of a big workload --
        # everything replays), the hardware hooks are back to their
        # recorder-is-None single attribute read.
        self._recording_count = 0

    # ------------------------------------------------------------------
    # Session surface (called by QuerySession._run_once)
    # ------------------------------------------------------------------
    def begin(self, plan: typing.Any, client_site: int) -> _Entry:
        """Compute the memo key for a submission; include any stored tape."""
        token = self._plan_tokens.get(id(plan))
        if token is None:
            token = len(self._plans)
            self._plans.append(plan)
            self._plan_tokens[id(plan)] = token
        site = self.topology.site(client_site)
        if site.buffer_cache is not None:
            digest = site.buffer_cache.memo_digest()
        elif site.cache is not None:
            digest = site.cache.digest()
        else:  # pragma: no cover - clients always have one cache
            digest = ""
        manager = self.topology.consistency
        epoch = 0 if manager is None else manager.epoch
        key = (token, digest, epoch)
        return _Entry(key, self.tapes.get(key), client_site)

    def start_recording(self, entry: _Entry) -> _Recording:
        """Begin recording the current process's session under ``entry.key``."""
        rec = _Recording(entry.key, entry.client_site, site_name(entry.client_site))
        proc = self.env.active_process
        assert proc is not None
        rec.procs.append(proc)
        rec.streams.append([])
        rec.dsub_counts.append(0)
        self._procs[proc] = _StreamRef(rec, 0)
        self.recordings += 1
        self._recording_count += 1
        if self._recording_count == 1:
            self.env.recorder = self
        return rec

    def _recording_done(self) -> None:
        self._recording_count -= 1
        if self._recording_count == 0:
            self.env.recorder = None

    def discard(self, rec: _Recording) -> None:
        """Drop a recording (failed attempt); its processes stop recording."""
        rec.aborted = True
        for proc in rec.procs:
            self._procs.pop(proc, None)
        self.discards += 1
        self._recording_done()

    def commit(self, rec: _Recording, result_tuples: int) -> None:
        """Store a completed recording (first writer per key wins)."""
        for proc in rec.procs:
            self._procs.pop(proc, None)
        self._recording_done()
        if rec.aborted:
            # Something unencodable happened mid-session (see the hooks);
            # the session itself completed normally, only the tape is lost.
            self.aborted_recordings += 1
            return
        tape = _Tape(
            tuple(tuple(stream) for stream in rec.streams),
            result_tuples,
            rec.client_site,
        )
        self.tapes.setdefault(rec.key, tape)

    # ------------------------------------------------------------------
    # Recording hooks (called from the hardware / engine layers)
    # ------------------------------------------------------------------
    def _active(self) -> _StreamRef | None:
        ref = self._procs.get(self.env.active_process)
        if ref is None or ref.rec.aborted:
            return None
        return ref

    def record_cpu(self, cpu: typing.Any, instructions: float) -> None:
        ref = self._active()
        if ref is None or ref.suppress:
            return
        sid = self._cpu_site.get(id(cpu))
        if sid is None:  # pragma: no cover - all CPUs belong to sites
            ref.rec.aborted = True
            return
        ref.rec.streams[ref.idx].append(("cpu", sid, instructions))

    def record_net(
        self, source: "Site", destination: "Site", num_bytes: int, data_pages: int
    ) -> _StreamRef | None:
        ref = self._active()
        if ref is None:
            return None
        ref.rec.streams[ref.idx].append(
            ("net", source.site_id, destination.site_id, num_bytes, data_pages)
        )
        ref.suppress += 1
        return ref

    def end_net(self, ref: _StreamRef) -> None:
        ref.suppress -= 1

    def record_dsub(
        self, disk: "Disk", kind: str, page: int, request: "DiskRequest"
    ) -> None:
        ref = self._active()
        if ref is None:
            return
        code = self._disk_code.get(id(disk))
        if code is None:  # pragma: no cover - all disks belong to sites
            ref.rec.aborted = True
            return
        rec = ref.rec
        enc: typing.Any = page
        meta = rec.temp_meta
        # Newest-first: temp extents are the only pages whose absolute
        # position is not identical across clients/replays, so they are
        # stored as (temp index, offset) and resolved against the replay's
        # own extents.
        for k in range(len(meta) - 1, -1, -1):
            m = meta[k]
            if m[4] and m[0] == code[0] and m[1] == code[1] and m[2] <= page < m[2] + m[3]:
                enc = ("t", k, page - m[2])
                break
        seq = rec.dsub_counts[ref.idx]
        rec.dsub_counts[ref.idx] = seq + 1
        rec.req_seq[id(request.done)] = seq
        rec.streams[ref.idx].append(("dsub", code[0], code[1], kind, enc))

    def record_dwait(self, request: "DiskRequest") -> None:
        ref = self._active()
        if ref is None:
            return
        seq = ref.rec.req_seq.pop(id(request.done), None)
        if seq is None:
            ref.rec.aborted = True
            return
        ref.rec.streams[ref.idx].append(("dwait", (seq,), False))

    def record_dwait_many(self, events: "list[Event]") -> None:
        ref = self._active()
        if ref is None:
            return
        rec = ref.rec
        seqs: list[int] = []
        for event in events:
            seq = rec.req_seq.pop(id(event), None)
            if seq is None:
                rec.aborted = True
                return
            seqs.append(seq)
        rec.streams[ref.idx].append(("dwait", tuple(seqs), True))

    def record_alloc(self, broker: "MemoryBroker", pages: int) -> None:
        ref = self._active()
        if ref is None:
            return
        sid = self._broker_site.get(id(broker))
        if sid is None:  # pragma: no cover - all brokers belong to sites
            ref.rec.aborted = True
            return
        ref.rec.streams[ref.idx].append(("alloc", sid, pages))

    def record_free(self, broker: "MemoryBroker", pages: int) -> None:
        ref = self._active()
        if ref is None:
            return
        sid = self._broker_site.get(id(broker))
        if sid is None:  # pragma: no cover
            ref.rec.aborted = True
            return
        ref.rec.streams[ref.idx].append(("free", sid, pages))

    def record_spill_op(self, broker: "MemoryBroker", label: str, pages: int) -> None:
        ref = self._active()
        if ref is None:
            return
        sid = self._broker_site.get(id(broker))
        if sid is None:  # pragma: no cover
            ref.rec.aborted = True
            return
        ref.rec.streams[ref.idx].append(
            ("spill", sid, label.replace(ref.rec.client_name, _CLIENT), pages)
        )

    def record_temp(
        self, site: "Site", temp: "TempFile", pages: int, disk_index: int
    ) -> None:
        ref = self._active()
        if ref is None:
            return
        rec = ref.rec
        rec.temp_idx[id(temp)] = len(rec.temp_meta)
        rec.temp_objs.append(temp)
        rec.temp_meta.append([site.site_id, disk_index, temp.extent.start, pages, True])
        rec.streams[ref.idx].append(("temp", site.site_id, pages, disk_index))

    def record_tfree(self, temp: "TempFile") -> None:
        ref = self._active()
        if ref is None:
            return
        k = ref.rec.temp_idx.get(id(temp))
        if k is None:
            ref.rec.aborted = True
            return
        ref.rec.temp_meta[k][4] = False
        ref.rec.streams[ref.idx].append(("tfree", k))

    def record_spawn(self, process: "Process", name: str) -> None:
        ref = self._active()
        if ref is None:
            return
        rec = ref.rec
        child = len(rec.streams)
        rec.streams.append([])
        rec.dsub_counts.append(0)
        rec.procs.append(process)
        self._procs[process] = _StreamRef(rec, child)
        rec.streams[ref.idx].append(
            ("spawn", child, name.replace(rec.client_name, _CLIENT))
        )

    def record_channel(self, channel: Channel) -> None:
        ref = self._active()
        if ref is None:
            return
        rec = ref.rec
        rec.chan_idx[id(channel)] = len(rec.chan_objs)
        rec.chan_objs.append(channel)
        rec.streams[ref.idx].append(
            ("chan", channel.capacity, channel.name.replace(rec.client_name, _CLIENT))
        )

    def _record_chan_op(self, kind: str, channel: Channel) -> None:
        ref = self._active()
        if ref is None:
            return
        ci = ref.rec.chan_idx.get(id(channel))
        if ci is None:
            ref.rec.aborted = True
            return
        ref.rec.streams[ref.idx].append((kind, ci))

    def record_cput(self, channel: Channel) -> None:
        self._record_chan_op("cput", channel)

    def record_cget(self, channel: Channel) -> None:
        self._record_chan_op("cget", channel)

    def record_cclose(self, channel: Channel) -> None:
        self._record_chan_op("cclose", channel)

    def record_blook(self, relation: str, index: int, page: int | None) -> None:
        ref = self._active()
        if ref is None:
            return
        ref.rec.streams[ref.idx].append(("blook", relation, index, page))

    def record_badmit(
        self, relation: str, index: int, version: int, slot: int | None
    ) -> None:
        ref = self._active()
        if ref is None:
            return
        ref.rec.streams[ref.idx].append(("badmit", relation, index, version, slot))

    # ------------------------------------------------------------------
    # Replay
    # ------------------------------------------------------------------
    def replay(self, tape: _Tape, client_site: int) -> typing.Generator:
        """Re-issue a tape's primitive ops for the calling session process."""
        self.replays += 1
        state = _ReplayState(self.topology.site(client_site), site_name(client_site))
        try:
            yield from self._replay_ops(tape, 0, state)
        except BaseException as exc:
            if not state.cancelled:
                state.cancelled = True
            self._teardown(state)
            if state.error is not None and state.error is not exc:
                raise state.error from None
            raise
        if state.cancelled:  # pragma: no cover - children finish first
            self._teardown(state)
            if state.error is not None:
                raise state.error
            raise SimulationError("session replay cancelled by a child stream")
        return tape.result_tuples

    def _replay_child(self, tape: _Tape, stream_idx: int, state: _ReplayState):
        """Child-stream driver: contains failures instead of crashing env."""
        try:
            yield from self._replay_ops(tape, stream_idx, state)
        except _ReplayCancelled:
            pass
        except BaseException as exc:
            if not state.cancelled:
                state.cancelled = True
                state.error = exc
                # Unblock siblings (and the main stream) parked on channels
                # so the failure propagates instead of deadlocking.
                for channel in state.channels:
                    channel.fail_waiters(_ReplayCancelled)

    def _replay_ops(self, tape: _Tape, stream_idx: int, state: _ReplayState):
        """The interpreter: one recorded process stream, op for op.

        CPU bursts are inlined down to the resource virtual clock (the
        hottest op by far); everything else re-enters the same hardware
        entry points the recording used, so the event sequences -- and thus
        all timing under contention -- are those of a real run.
        """
        env = self.env
        topology = self.topology
        network = topology.network
        client = state.client
        rec_client = tape.client_site
        pending: dict[int, "Event"] = {}
        next_seq = 0
        fastpath = env.fastpath  # fixed for the environment's life
        for op in tape.streams[stream_idx]:
            if state.cancelled:
                raise _ReplayCancelled()
            kind = op[0]
            if kind == "cpu":
                sid = op[1]
                cpu = (client if sid == rec_client else topology.site(sid)).cpu
                instructions = op[2]
                cpu.instructions_executed += instructions
                res = cpu._resource
                # seconds_for() inlined: this is the hottest replay op.
                duration = instructions / (cpu.mips * 1e6)
                if (
                    fastpath
                    and res.capacity == 1
                    and not res._in_service
                    and not res._queue
                ):
                    end = res._book(duration)
                    try:
                        yield end - env._now
                    finally:
                        res._settle()
                else:
                    yield from res.serve(duration)
            elif kind == "net":
                source = client if op[1] == rec_client else topology.site(op[1])
                destination = client if op[2] == rec_client else topology.site(op[2])
                yield from network.send_flat(source, destination, op[3], op[4])
            elif kind == "dsub":
                site = client if op[1] == rec_client else topology.site(op[1])
                enc = op[4]
                if type(enc) is tuple:
                    page = state.temps[enc[1]].extent.start + enc[2]
                else:
                    page = enc
                request = site.disks[op[2]].submit(op[3], page)
                pending[next_seq] = request.done
                next_seq += 1
            elif kind == "dwait":
                seqs = op[1]
                if op[2]:
                    yield AllOf(env, [pending.pop(seq) for seq in seqs])
                else:
                    yield pending.pop(seqs[0])
            elif kind == "cget":
                try:
                    yield state.channels[op[1]].get()
                except ChannelClosed:
                    pass
            elif kind == "cput":
                yield state.channels[op[1]].put(None)
            elif kind == "cclose":
                state.channels[op[1]].close()
            elif kind == "chan":
                state.channels.append(
                    Channel(
                        env,
                        capacity=op[1],
                        name=op[2].replace(_CLIENT, state.client_name),
                    )
                )
            elif kind == "spawn":
                state.processes.append(
                    env.process(
                        self._replay_child(tape, op[1], state),
                        name=op[2].replace(_CLIENT, state.client_name),
                    )
                )
            elif kind == "blook":
                cache = client.buffer_cache
                result = None if cache is None else cache.lookup(op[1], op[2])
                if result != op[3]:
                    raise SimulationError(
                        f"session-memo determinism violation: lookup"
                        f"({op[1]!r}, {op[2]}) returned {result!r} on replay "
                        f"but {op[3]!r} when recorded"
                    )
            elif kind == "badmit":
                cache = client.buffer_cache
                slot = None if cache is None else cache.admit(op[1], op[2], version=op[3])
                if slot != op[4]:
                    raise SimulationError(
                        f"session-memo determinism violation: admit"
                        f"({op[1]!r}, {op[2]}) placed at {slot!r} on replay "
                        f"but {op[4]!r} when recorded"
                    )
            elif kind == "alloc":
                site = client if op[1] == rec_client else topology.site(op[1])
                site.memory.allocate(op[2])
                state.allocated[site] = state.allocated.get(site, 0) + op[2]
            elif kind == "free":
                site = client if op[1] == rec_client else topology.site(op[1])
                site.memory.release(op[2])
                state.allocated[site] = state.allocated.get(site, 0) - op[2]
            elif kind == "temp":
                site = client if op[1] == rec_client else topology.site(op[1])
                state.temps.append(site.allocate_temp(op[2], disk_index=op[3]))
            elif kind == "tfree":
                state.temps[op[1]].release()
            elif kind == "spill":
                site = client if op[1] == rec_client else topology.site(op[1])
                site.memory.record_spill(
                    op[2].replace(_CLIENT, state.client_name), op[3]
                )
            else:  # pragma: no cover - exhaustive over the op vocabulary
                raise SimulationError(f"unknown replay op {kind!r}")

    def _teardown(self, state: _ReplayState) -> None:
        """Release everything a failed replay still holds (idempotent)."""
        for channel in state.channels:
            channel.fail_waiters(_ReplayCancelled)
        for temp in state.temps:
            temp.release()
        for site, pages in state.allocated.items():
            if pages > 0:
                site.memory.release(pages)
            state.allocated[site] = 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<SessionMemo tapes={len(self.tapes)} recordings={self.recordings} "
            f"replays={self.replays}>"
        )
