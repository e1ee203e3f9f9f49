"""Deterministic discrete-event engine.

Transactions traverse their read sets on a single non-preemptive processor
dispatched by earliest deadline first at segment boundaries; updates run on a
separate update server so freshness effects are not confounded with CPU
contention. Every event is an integer-time entry in one queue with a total
order, which makes runs bit-reproducible. The update events of one tick
share one queue entry, which holds the tick's release runs and its installs.
A run is a list of update streams sorted by object id: the periodic streams
of one effective period, which release together and re-queue themselves as
one run once per period, or the one stream of an on-demand refresh. The
entry's handler runs the releases of every run, then the installs, each in
object id order, as entries of their own would run them.

Within one tick, events settle in a fixed rank order:

    arrival < segment end < vi-expiry < update releases < update installs
            < deadline

then ready transactions are dispatched. The end of a retrieval and of an
analysis share a rank: at most one segment runs at a time, and the end of an
abandoned one does nothing. The order encodes the semantics: an analysis
finishing exactly when the last read's validity ends still commits;
an uncommitted holder of a version restarts at the expiry instant and, in the
same tick, can re-read a version installed at that instant; a transaction is
missed at its deadline only if nothing committed it earlier in the tick.

The engine alone applies the config's read discipline; the store keeps every
superseded version that someone pins, whatever the mode:

* classical: a reader may use a version only while it is fresh and newest.
  It restarts at the instant a version it holds expires, and when an install
  supersedes that version.
* multiversion: a reader keeps the version that was fresh when it accessed
  the object, so an in-flight transaction may finish its analysis on it even
  if that version expires or is replaced before the transaction commits.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from heapq import heappop, heappush
from operator import attrgetter, itemgetter

from .core import (ConfigError, FreshnessMode, Tick, UserTxnSpec, Version,
                   feasibility_check)
from .metrics import MetricsAggregator, MetricsReport
from .policies import PERFORMED, effective_objects
from .store import RECLAIMED, VersionStore
from .workload import SimConfig, ValueSampler, iter_arrivals, validate_config

# Event kinds, in within-tick processing order. Each event carries what it
# is about as its payload; the string subject only orders the queue. An
# update entry stands for every update event at its tick, so its subject is
# empty and never compared: no other update entry is pending at that tick.
TXN_ARRIVAL = 0   # (spec, instances released before it, remaining (count, release)s)
SEGMENT_DONE = 1  # (inst, epoch): the end of a retrieval or an analysis
VI_EXPIRY = 2     # (inst, epoch, object id)
UPDATES = 3       # ([[UpdateStream] run], [(object id, stream, value, sample time)])
DEADLINE = 4      # inst

# Transaction states.
READY = "ready"
RETRIEVING = "retrieving"
ANALYZING = "analyzing"
WAITING = "waiting"
COMMITTED = "committed"
MISSED = "missed"


class EventQueue:
    """Priority queue ordered by (time, kind rank, subject id, push order).

    The payload rides along and is never compared: the push order is
    unique. The engine pushes one entry per transaction event, and one per
    tick of update events, whose payload is that tick's lists of them."""

    def __init__(self):
        self._heap: list[tuple[Tick, int, str, int, object]] = []
        self._counter = 0

    def push(self, time: Tick, kind: int, subject: str, payload) -> None:
        self._counter += 1
        heappush(self._heap, (time, kind, subject, self._counter, payload))

    def pop(self) -> tuple[Tick, int, str, int, object]:
        """The first entry, as pushed: (time, kind, subject, push order,
        payload)."""
        return heappop(self._heap)

    def __len__(self) -> int:
        return len(self._heap)


@dataclass(eq=False, slots=True)
class TxnInstance:
    """Runtime state of one released transaction instance. Instances compare
    by identity, so the store's pin holders and the wait lists hold them
    directly. `expired` maps each object whose expiry restarted the instance
    to the seq of the last version that expired, 0 for a source sample: a
    `store` reader never re-pins that version (seqs only grow), and a
    `store_then_source` reader acquires the object from the source."""

    inst_id: str
    spec: UserTxnSpec
    release: Tick
    deadline: Tick
    state: str = READY
    cursor: int = 0
    epoch: int = 0
    # object id -> the version read: pinned in the store, or a source sample;
    # once the cursor object is in it, its analysis is next
    accesses: dict[str, Version] = field(default_factory=dict)
    expired: dict[str, int] = field(default_factory=dict)

    def current_object(self) -> str:
        return self.spec.read_set[self.cursor]

    def terminal(self) -> bool:
        return self.state in (COMMITTED, MISSED)

    def edf_key(self):
        # unique: a class never releases twice in one tick
        return (self.deadline, self.spec.id, self.release)


@dataclass(slots=True)
class UpdateStream:
    """What the update server reads of one object at each of its events,
    looked up once per run: the object id, which orders the update events of
    one tick, the policy's bound `decide` and its per-run state, the
    effective update period and cost, whether the object updates
    periodically (every policy but on-demand does), the object's version
    chain, which the store changes only in place, the object's
    `ValueSampler`, built from its declared object, for an on-demand object,
    whether a refresh is queued or running, and the instances that wait on
    the object, in the order they started waiting. A release samples a value
    inside the sampler's walk table with one index; any other value comes
    from `ValueSampler.sample`."""

    object_id: str
    decide: Callable
    state: object
    period: Tick
    cost: Tick
    periodic: bool
    chain: list[Version]
    sampler: ValueSampler
    refreshing: bool = False
    waiting: list[TxnInstance] = field(default_factory=list)


# a run hands its records over once a tick leaves at least this many pending
_BATCH_RECORDS = 256

# the object id of a released stream, and of a queued install, which leads
# with it
_release_object = attrgetter("object_id")
_leading_object = itemgetter(0)

# the detail of every `gc` record of an install's in-place reclaim; records
# may share a detail, since no one changes one after hand-over
_RECLAIMED_ONE = {"reclaimed": 1}


def _discard(records: list[tuple]) -> None:
    """The default trace sink: the records reach only the aggregator."""


class Simulator:
    """One simulation run. Build, then call run() once for the report.

    Each trace record is a `(t, kind, subject, detail)` tuple. The records
    are handed over in batches: a list of records in order, first to `sink`
    (a callable taking the list), then to the metrics aggregator. A batch
    ends at a tick boundary once it holds _BATCH_RECORDS records, and the
    last one before the report is built. A sink may keep the list, but must
    not change it, its records or their details, which records may share; a
    list's `extend` collects every record. `walks` is a random-walk table
    that runs may share, so that each reads the walk steps the others
    computed; each update stream's `ValueSampler` reads its object's walk
    there. A config is validated here unless it is
    marked validated: `config_from_dict` validated it, or `compare` derived
    it from such a config by a change it checked."""

    def __init__(self, config: SimConfig,
                 sink: Callable[[list[tuple]], None] = _discard,
                 walks: dict[tuple, list[float]] | None = None):
        if not config.validated:
            errors = validate_config(config)
            if errors:
                raise ConfigError(errors)
        self.config = config
        self.horizon = config.horizon
        self._sink = sink
        self._batch: list[tuple] = []  # records not yet handed over
        self.metrics = MetricsAggregator()
        self.eff_objects = effective_objects(config.objects)
        self._walks = walks
        self.store = VersionStore({oid: o.vi for oid, o in self.eff_objects.items()})
        self._classical = config.mode is FreshnessMode.CLASSICAL

        self.queue = EventQueue()
        # (*edf_key, instance) for every instance that became READY; entries
        # of instances that left READY since are skipped when popped
        self._ready: list[tuple] = []
        self.running: TxnInstance | None = None
        # object id -> its UpdateStream, built when the workload is queued
        self._streams: dict[str, UpdateStream] = {}
        # tick -> its (runs, installs) not yet handled, in push order: the
        # payload of its tick's one queue entry
        self._updates: dict[Tick, tuple[list, list]] = {}

    # -- trace -------------------------------------------------------------

    def _flush(self) -> None:
        """Hand the pending records to the sink, then to the aggregator."""
        batch, self._batch = self._batch, []
        self._sink(batch)
        self.metrics.record(batch)

    def _updates_at(self, t: Tick) -> tuple[list, list]:
        """The (runs, installs) lists of tick `t`; the first update event
        there queues them."""
        updates = self._updates.get(t)
        if updates is None:
            self._updates[t] = updates = ([], [])
            self.queue.push(t, UPDATES, "", updates)
        return updates

    # -- setup -------------------------------------------------------------

    def _schedule_workload(self) -> None:
        """Queue the first release of each admitted class and of each
        periodic run, at 0; each release queues the next one when it fires,
        so no class or run has more than one release pending. Every object
        gets its UpdateStream here, on-demand ones included, and each
        periodic one joins the run of its effective period. Its sampler
        reads the declared object, so that value trajectories are keyed on
        the declared update grid and policy variants of one seeded workload
        sample identical values."""
        # with enforcement off every class runs, even one that can restart
        # without end
        enforce = self.config.enforce_admission
        for spec in self.config.transactions:
            if enforce and not (report := feasibility_check(spec, self.eff_objects)).passed:
                self._batch.append((0, "txn_rejected", spec.id,
                                    {"failing": report.failing_objects()}))
                continue
            self._push_arrival(spec, enumerate(
                iter_arrivals(spec, self.horizon, self.config.seed)))
        chains = self.store.chains
        by_period: dict[Tick, list[UpdateStream]] = {}
        for obj, eff in zip(self.config.objects, self.eff_objects.values()):
            policy = eff.policy
            stream = self._streams[obj.id] = UpdateStream(
                obj.id, policy.decide, policy.new_state(), eff.update_period,
                eff.update_cost, policy.periodic, chains[obj.id],
                ValueSampler(self.config.seed, obj, self._walks))
            if stream.periodic:
                by_period.setdefault(stream.period, []).append(stream)
        if by_period:
            self._updates_at(0)[0].extend(sorted(streams, key=_release_object)
                                          for streams in by_period.values())

    def _push_arrival(self, spec: UserTxnSpec,
                      releases: Iterator[tuple[int, Tick]]) -> None:
        """Queue the next of the class's (count, release) pairs, if any."""
        entry = next(releases, None)
        if entry is not None:
            count, release = entry
            self.queue.push(release, TXN_ARRIVAL, spec.id, (spec, count, releases))

    # -- main loop -----------------------------------------------------------

    def run(self) -> MetricsReport:
        self._schedule_workload()
        heap = self.queue._heap
        pop = self.queue.pop
        horizon = self.horizon
        # heap[0][0] is the next event's time, read without a call per event
        while heap and heap[0][0] <= horizon:
            t = heap[0][0]
            while True:
                _, kind, subject, _, payload = pop()
                _HANDLERS[kind](self, t, subject, payload)
                if not heap or heap[0][0] != t:
                    break
            # events that dispatch queues at t run on the next pass, and
            # the batch stays open until the tick is over
            self._dispatch(t)
            if len(self._batch) >= _BATCH_RECORDS and (not heap or heap[0][0] != t):
                self._flush()
        if self._batch:
            self._flush()
        return self.metrics.finalize()

    # -- transaction lifecycle ----------------------------------------------

    def _on_arrival(self, t: Tick, subject: str, payload) -> None:
        spec, count, releases = payload
        inst = TxnInstance(inst_id=f"{spec.id}#{count}", spec=spec, release=t,
                           deadline=t + spec.relative_deadline)
        self._make_ready(inst)
        self.queue.push(inst.deadline, DEADLINE, inst.inst_id, inst)
        self._batch.append((t, "txn_released", inst.inst_id,
                            {"class": spec.id, "deadline": inst.deadline}))
        self._push_arrival(spec, releases)

    def _on_segment_done(self, t: Tick, subject: str, payload) -> None:
        """The end of a retrieval or an analysis; the state says which."""
        inst, epoch = payload
        if inst.terminal() or inst.epoch != epoch:
            return
        # same epoch and unfinished, so the segment still runs
        self.running = None
        if inst.state == ANALYZING:
            inst.cursor += 1
            if inst.cursor == len(inst.spec.read_set):
                self._commit(inst, t)
                return
        self._make_ready(inst)

    def _commit(self, inst: TxnInstance, t: Tick) -> None:
        stale = sorted(v.object_id for v in inst.accesses.values() if v.expires < t)
        inst.state = COMMITTED
        self._batch.append((t, "commit", inst.inst_id,
                            {"stale_at_commit": bool(stale), "stale_objects": stale}))
        self._release_pins(inst, t)

    def _on_deadline(self, t: Tick, subject: str, inst: TxnInstance) -> None:
        if inst.terminal():
            return
        inst.state = MISSED
        self._free_processor(inst)
        self._leave_waiting(inst)
        self._batch.append((t, "miss", inst.inst_id, {}))
        self._release_pins(inst, t)

    def _on_vi_expiry(self, t: Tick, subject: str, payload) -> None:
        inst, epoch, object_id = payload
        if inst.terminal() or inst.epoch != epoch:
            return
        # same epoch, so the version read that scheduled this expiry is still held
        version = inst.accesses[object_id]
        if t < version.expires:
            # a skipped update extended the version; check again at the new end
            self.queue.push(version.expires, VI_EXPIRY, subject, payload)
            return
        self._restart(inst, t, cause="vi_expiry", version=version)

    def _restart(self, inst: TxnInstance, t: Tick, cause: str,
                 version: Version) -> None:
        """Abort and reissue from the first object: the whole read set is
        reacquired and reanalyzed. `version` is the read that caused it."""
        if cause == "vi_expiry":
            inst.expired[version.object_id] = version.seq
        self._batch.append((t, "restart", inst.inst_id,
                            {"cause": cause, "object": version.object_id}))
        self._release_pins(inst, t)
        self._free_processor(inst)
        self._leave_waiting(inst)
        inst.cursor = 0
        inst.epoch += 1
        self._make_ready(inst)

    def _release_pins(self, inst: TxnInstance, t: Tick) -> None:
        """Unpin every version `inst` read, then garbage-collect the store
        and record what it reclaimed; a store with no chain marked dirty has
        nothing to reclaim."""
        store = self.store
        for version in inst.accesses.values():
            if version.seq:
                store.unpin(version, inst)
        inst.accesses.clear()
        if store.dirty:
            self._batch += [(t, "gc", object_id, {"reclaimed": reclaimed})
                            for object_id, reclaimed in store.gc()]

    def _free_processor(self, inst: TxnInstance) -> None:
        if self.running is inst:
            self.running = None

    def _leave_waiting(self, inst: TxnInstance) -> None:
        # a waiting instance waits on the object its cursor points at
        queue = self._streams[inst.current_object()].waiting
        if inst in queue:
            queue.remove(inst)

    # -- update server -------------------------------------------------------

    def _on_updates(self, t: Tick, subject: str,
                    updates: tuple[list, list]) -> None:
        """Release each stream of the tick's runs, then install each
        (object id, stream, value, sample time) of its list, each in object
        id order; a run of periodic streams first queues itself one period
        on. A lone run is in that order already, and several are merged. The
        tick's lists stay queued while the releases run, so a cost-0
        release's install joins this tick's installs; a refresh that
        dispatch queues at `t` later starts new lists."""
        runs, installs = updates
        horizon = self.horizon
        # a tick's lists, or the tick's absence; a pair of lists is truthy
        pending = self._updates.get
        for run in runs:
            first = run[0]
            if first.periodic and (following := t + first.period) <= horizon:
                (pending(following) or self._updates_at(following))[0].append(run)
        if len(runs) > 1:
            # each run is sorted, which the sort merges
            releases = []
            for run in runs:
                releases += run
            releases.sort(key=_release_object)
        else:
            releases = runs[0] if runs else ()
        record = self._batch.append
        for stream in releases:
            object_id = stream.object_id
            sampler = stream.sampler
            values = sampler.values
            if values is not None and (index := t // sampler.period) < len(values):
                sampled = values[index]
            else:
                sampled = sampler.sample(t)
            chain = stream.chain
            newest = chain[-1] if chain else None
            decision, sink_value, extra = stream.decide(stream.state, t, sampled, newest)
            # the policy, the sink error and an unchanged sink value follow
            # from the config and the sampled value, so the record leaves
            # them out
            detail = {"decision": decision, "sampled": sampled}
            if extra:
                detail.update(extra)
            if sink_value != sampled:
                detail["sink_value"] = sink_value
            record((t, "update_decision", object_id, detail))

            if decision in PERFORMED:
                done = t + stream.cost
                (pending(done) or self._updates_at(done))[1].append(
                    (object_id, stream, sampled, t))
            else:
                # the skip confirms the stored value: a policy performs while
                # nothing is stored, so `newest` is a version
                newest.expires += stream.period
                if stream.waiting:
                    self._wake_waiters(stream)

        del self._updates[t]
        if len(installs) > 1:
            installs.sort(key=_leading_object)
        install_version = self.store.install_version
        for object_id, stream, value, sample_time in installs:
            superseded = install_version(object_id, value, sample_time)
            record((t, "install", object_id,
                    {"seq": stream.chain[-1].seq, "sample_time": sample_time}))
            if superseded is RECLAIMED:
                # the install rewrote the unpinned version it superseded
                record((t, "gc", object_id, _RECLAIMED_ONE))
            elif superseded is not None and self._classical:
                # a classical install replaced a pinned version: every
                # holder restarts (update transactions are never delayed
                # by readers), and each restart reclaims what its unpins
                # freed; only unfinished instances hold pins
                for inst in list(superseded.holders):
                    self._restart(inst, t, cause="superseded", version=superseded)
            stream.refreshing = False
            if stream.waiting:
                self._wake_waiters(stream)

    def _wake_waiters(self, stream: UpdateStream) -> None:
        """Ready every instance on the stream's wait list, which the caller
        found non-empty. An instance that stops waiting otherwise leaves the
        list (_leave_waiting)."""
        waiting = stream.waiting
        for inst in waiting:
            self._make_ready(inst)
        waiting.clear()

    # -- dispatch --------------------------------------------------------------

    def _make_ready(self, inst: TxnInstance) -> None:
        inst.state = READY
        heappush(self._ready, (*inst.edf_key(), inst))

    def _dispatch(self, t: Tick) -> None:
        """Start segments, earliest deadline first, while the processor is
        free. edf_key is unique per instance, so the heap's first READY
        entry is the READY instance with the least key."""
        ready = self._ready
        while self.running is None and ready:
            inst = heappop(ready)[-1]
            if inst.state == READY:
                self._start_segment(inst, t)

    def _start_segment(self, inst: TxnInstance, t: Tick) -> None:
        obj = inst.current_object()
        if obj in inst.accesses:
            # retrieved already: a read set holds each object once, and a
            # restart clears the accesses
            self._run_segment(inst, ANALYZING, t + inst.spec.analysis_time[obj])
            return

        mode = inst.spec.retrieval_mode
        if obj in inst.expired and mode == "store_then_source":
            mode = "source"
        if mode != "source":
            version = self.store.read_latest(obj, t, inst, inst.expired.get(obj, 0))
            if version is not None:
                self._acquire(inst, t, version, "store")
                self._run_segment(inst, ANALYZING, t + inst.spec.analysis_time[obj])
                return

        if mode != "store":
            # the source, directly or when the store cannot serve
            sample = Version(obj, self._streams[obj].sampler.sample(t), t, 0,
                             t + self.store.vis[obj])
            self._acquire(inst, t, sample, "source")
            self._run_segment(inst, RETRIEVING, t + inst.spec.retrieval_time[obj])
            return

        # pure store mode: block until the object is refreshed or confirmed
        stream = self._streams[obj]
        if not stream.periodic and not stream.refreshing:
            stream.refreshing = True
            self._updates_at(t)[0].append([stream])
        inst.state = WAITING
        stream.waiting.append(inst)

    def _acquire(self, inst: TxnInstance, t: Tick, version: Version,
                 via: str) -> None:
        """Hold the version read, record it and, in classical mode, queue the
        check at the instant its validity ends."""
        inst.accesses[version.object_id] = version
        self._batch.append((t, "access", inst.inst_id, {
            "object": version.object_id, "via": via, "value": version.value,
            "staleness": t - version.sample_time}))
        if self._classical:
            self.queue.push(version.expires, VI_EXPIRY, inst.inst_id,
                            (inst, inst.epoch, version.object_id))

    def _run_segment(self, inst: TxnInstance, state: str, end: Tick) -> None:
        inst.state = state
        self.running = inst
        self.queue.push(end, SEGMENT_DONE, inst.inst_id, (inst, inst.epoch))


# event handlers, indexed by event kind. They are bound to Simulator's own
# functions, so a subclass that overrides a handler is not called by `run`; a
# subclass hooks the helpers the handlers call (`_dispatch`, `_make_ready`,
# `_wake_waiters`, ...) instead. `_wake_waiters` runs once after each
# install, after its reclaim or its holders' restarts, and once after each
# skipped or suppressed decision, if the stream's wait list is truthy: a
# subclass whose wait lists are always truthy sees every install and skip
# there (tests/support.py, `watch_updates`).
_HANDLERS = (
    Simulator._on_arrival,       # TXN_ARRIVAL
    Simulator._on_segment_done,  # SEGMENT_DONE
    Simulator._on_vi_expiry,     # VI_EXPIRY
    Simulator._on_updates,       # UPDATES
    Simulator._on_deadline,      # DEADLINE
)
