"""Deterministic discrete-event engine.

Transactions traverse their read sets on a single non-preemptive processor
dispatched by earliest deadline first at segment boundaries; updates run on a
separate update server so freshness effects are not confounded with CPU
contention. Every event is an integer-time entry in one queue with a total
order, which makes runs bit-reproducible.

Within one tick, events settle in a fixed rank order:

    arrival < retrieval-done < analysis-done < vi-expiry
            < update-release < update-install < deadline

then ready transactions are dispatched. The order encodes the semantics: an
analysis finishing exactly when the last read's validity ends still commits;
an uncommitted holder of a version restarts at the expiry instant and, in the
same tick, can re-read a version installed at that instant; a transaction is
missed at its deadline only if nothing committed it earlier in the tick.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field, replace

from .core import (
    ConfigError,
    FreshnessMode,
    SimInternalError,
    Tick,
    UserTxnSpec,
    Version,
    admit,
)
from .metrics import MetricsAggregator, MetricsReport
from .policies import (
    PERFORM,
    TRANSMIT,
    ElasticPolicy,
    default_elasticity,
    elastic_rescale,
    extend_vi_for_period,
    periodic_instances,
)
from .store import VersionStore
from .workload import SimConfig, ValueSampler, expand_arrivals, validate_config

# Event kinds, in within-tick processing order.
TXN_ARRIVAL = 0
RETRIEVAL_DONE = 1
ANALYSIS_DONE = 2
VI_EXPIRY = 3
UPDATE_RELEASE = 4
UPDATE_INSTALLED = 5
DEADLINE = 6

# Transaction states.
READY = "ready"
RETRIEVING = "retrieving"
ANALYZING = "analyzing"
WAITING = "waiting"
COMMITTED = "committed"
MISSED = "missed"

# Phases of the cursor object.
NEED_ACCESS = "access"
NEED_ANALYSIS = "analysis"


class EventQueue:
    """Priority queue ordered by (time, kind rank, subject id, push order)."""

    def __init__(self):
        self._heap: list[tuple[Tick, int, str, int, dict]] = []
        self._counter = 0

    def push(self, time: Tick, kind: int, subject: str, payload: dict) -> None:
        self._counter += 1
        heapq.heappush(self._heap, (time, kind, subject, self._counter, payload))

    def peek_time(self) -> Tick | None:
        return self._heap[0][0] if self._heap else None

    def pop(self) -> tuple[Tick, int, str, dict]:
        time, kind, subject, _, payload = heapq.heappop(self._heap)
        return time, kind, subject, payload

    def __len__(self) -> int:
        return len(self._heap)


@dataclass
class Access:
    """One acquired read: either a pinned store version or a private sample
    fetched from the source."""

    object_id: str
    value: float
    sample_time: Tick
    access_time: Tick
    version: Version | None = None  # the pinned version; None for source samples
    private_valid_until: Tick = 0   # source samples only


@dataclass
class TxnInstance:
    """Runtime state of one released transaction instance."""

    inst_id: str
    spec: UserTxnSpec
    release: Tick
    deadline: Tick
    ordinal: int
    state: str = READY
    cursor: int = 0
    phase: str = NEED_ACCESS
    epoch: int = 0
    accesses: dict[str, Access] = field(default_factory=dict)
    restart_count: int = 0
    vi_restart_count: int = 0
    commit_time: Tick | None = None
    miss_time: Tick | None = None
    # versions this instance was already expired off: never re-pinned
    burned: dict[str, set[int]] = field(default_factory=dict)
    # objects this instance now acquires from the source after a vi restart
    source_only: set[str] = field(default_factory=set)

    def current_object(self) -> str:
        return self.spec.read_set[self.cursor]

    def terminal(self) -> bool:
        return self.state in (COMMITTED, MISSED)

    def edf_key(self):
        return (self.deadline, self.spec.id, self.release, self.ordinal)


@dataclass
class RunResult:
    report: MetricsReport
    trace: list[dict]
    instances: list[TxnInstance]
    effective_periods: dict[str, Tick]
    effective_vis: dict[str, Tick]


class Simulator:
    """One simulation run. Build, call run() once, read the result."""

    def __init__(self, config: SimConfig):
        errors = validate_config(config)
        if errors:
            raise ConfigError(errors)
        self.config = config
        self.horizon = config.horizon
        self.mode = config.mode
        self.trace: list[dict] = []
        self.metrics = MetricsAggregator()
        self._now: Tick = 0

        # Elastic rescale happens at config time: stretched periods and the
        # validity intervals that go with them.
        self.eff_objects = {o.id: o for o in config.objects}
        elastic = {oid: p for oid, p in config.policies.items()
                   if isinstance(p, ElasticPolicy)}
        if elastic:
            target = next(iter(elastic.values())).target_utilization
            emap = {}
            for o in config.objects:
                p = elastic.get(o.id)
                if p is None:
                    emap[o.id] = 0
                else:
                    emap[o.id] = (default_elasticity(o) if p.elasticity is None
                                  else p.elasticity)
            new_periods = elastic_rescale(config.objects, target, emap)
            for oid in elastic:
                o = self.eff_objects[oid]
                if new_periods[oid] > o.update_period:
                    self.eff_objects[oid] = replace(
                        o, update_period=new_periods[oid],
                        vi=extend_vi_for_period(o, new_periods[oid]))
        self.eff_period = {oid: o.update_period for oid, o in self.eff_objects.items()}
        self.eff_vi = {oid: o.vi for oid, o in self.eff_objects.items()}

        # Value trajectories are keyed on the declared update grid, so policy
        # variants of one seeded workload sample identical values.
        self.sampler = ValueSampler(config.seed, config.objects)
        self.store = VersionStore(config.mode, self.eff_vi, trace=self.emit,
                                  on_superseded_pinned=self._on_superseded_pinned)

        self.queue = EventQueue()
        self.instances: list[TxnInstance] = []
        self._by_id: dict[str, TxnInstance] = {}
        self.running: tuple[str, int] | None = None  # (inst_id, epoch)
        self.waiting: dict[str, list[str]] = {o.id: [] for o in config.objects}
        self.refresh_inflight: set[str] = set()
        self.policy_state = {oid: p.new_state() for oid, p in config.policies.items()}
        self.admitted: list[UserTxnSpec] = []
        self.rejected: list[str] = []

    # -- trace -------------------------------------------------------------

    def emit(self, record: dict) -> None:
        self.trace.append(record)
        self.metrics.record(record)

    # -- setup -------------------------------------------------------------

    def _schedule_workload(self) -> None:
        for spec in self.config.transactions:
            decision = admit(spec, self.eff_objects, self.config.enforce_admission)
            if not decision.admitted:
                self.rejected.append(spec.id)
                self.emit({"t": 0, "kind": "txn_rejected", "subject": spec.id,
                           "detail": {"failing": decision.report.failing_objects()}})
                continue
            self.admitted.append(spec)
            for release in expand_arrivals(spec, self.horizon, self.config.seed):
                self.queue.push(release, TXN_ARRIVAL, spec.id, {"spec": spec})
        for obj in self.config.objects:
            if self.config.policies[obj.id].kind == "ondemand":
                continue
            eff = self.eff_objects[obj.id]
            for release in periodic_instances(eff, self.horizon):
                self.queue.push(release, UPDATE_RELEASE, obj.id, {})

    # -- main loop -----------------------------------------------------------

    def run(self) -> RunResult:
        self._schedule_workload()
        while len(self.queue):
            t = self.queue.peek_time()
            if t is None or t > self.horizon:
                break
            self._now = t
            while True:
                did_work = False
                while self.queue.peek_time() == t:
                    _, kind, subject, payload = self.queue.pop()
                    self._handle(t, kind, subject, payload)
                    did_work = True
                if self._dispatch(t):
                    did_work = True
                if not did_work:
                    break
        report = self.metrics.finalize(
            self.horizon,
            store_stats=self.store.stats,
            update_costs={o.id: o.update_cost for o in self.eff_objects.values()},
        )
        return RunResult(report=report, trace=self.trace, instances=self.instances,
                         effective_periods=dict(self.eff_period),
                         effective_vis=dict(self.eff_vi))

    def _handle(self, t: Tick, kind: int, subject: str, payload: dict) -> None:
        if kind == TXN_ARRIVAL:
            self._on_arrival(t, payload["spec"])
        elif kind == RETRIEVAL_DONE:
            self._on_retrieval_done(t, payload)
        elif kind == ANALYSIS_DONE:
            self._on_analysis_done(t, payload)
        elif kind == VI_EXPIRY:
            self._on_vi_expiry(t, payload)
        elif kind == UPDATE_RELEASE:
            self._on_update_release(t, subject)
        elif kind == UPDATE_INSTALLED:
            self._on_update_installed(t, payload)
        elif kind == DEADLINE:
            self._on_deadline(t, payload)
        else:
            raise SimInternalError(f"unknown event kind {kind}")

    # -- transaction lifecycle ----------------------------------------------

    def _on_arrival(self, t: Tick, spec: UserTxnSpec) -> None:
        ordinal = len(self.instances)
        count = sum(1 for i in self.instances if i.spec.id == spec.id)
        inst = TxnInstance(inst_id=f"{spec.id}#{count}", spec=spec, release=t,
                           deadline=t + spec.relative_deadline, ordinal=ordinal)
        self.instances.append(inst)
        self._by_id[inst.inst_id] = inst
        self.queue.push(inst.deadline, DEADLINE, inst.inst_id,
                        {"inst": inst.inst_id})
        self.emit({"t": t, "kind": "txn_released", "subject": inst.inst_id,
                   "detail": {"class": spec.id, "deadline": inst.deadline}})

    def _guarded(self, payload: dict) -> TxnInstance | None:
        inst = self._by_id[payload["inst"]]
        if inst.terminal() or inst.epoch != payload["epoch"]:
            return None
        return inst

    def _on_retrieval_done(self, t: Tick, payload: dict) -> None:
        inst = self._guarded(payload)
        if inst is None:
            return
        inst.state = READY
        inst.phase = NEED_ANALYSIS
        self._free_processor(inst)

    def _on_analysis_done(self, t: Tick, payload: dict) -> None:
        inst = self._guarded(payload)
        if inst is None:
            return
        self._free_processor(inst)
        inst.cursor += 1
        inst.phase = NEED_ACCESS
        if inst.cursor >= len(inst.spec.read_set):
            self._commit(inst, t)
        else:
            inst.state = READY

    def _commit(self, inst: TxnInstance, t: Tick) -> None:
        stale = sorted(
            a.object_id for a in inst.accesses.values()
            if self._valid_until(a) < t)
        inst.state = COMMITTED
        inst.commit_time = t
        self.emit({"t": t, "kind": "commit", "subject": inst.inst_id,
                   "detail": {"stale_at_commit": bool(stale), "stale_objects": stale}})
        self._release_pins(inst)
        self.store.gc(t)

    def _on_deadline(self, t: Tick, payload: dict) -> None:
        inst = self._by_id[payload["inst"]]
        if inst.terminal():
            return
        inst.state = MISSED
        inst.miss_time = t
        self._free_processor(inst)
        self._leave_waiting(inst)
        self.emit({"t": t, "kind": "miss", "subject": inst.inst_id, "detail": {}})
        self._release_pins(inst)
        self.store.gc(t)

    def _on_vi_expiry(self, t: Tick, payload: dict) -> None:
        inst = self._guarded(payload)
        if inst is None:
            return
        # same epoch, so the access that scheduled this expiry is still held
        access = inst.accesses[payload["object"]]
        until = self._valid_until(access)
        if t < until:
            # a skipped update extended the version; check again at the new end
            self.queue.push(until, VI_EXPIRY, inst.inst_id, dict(payload))
            return
        self._restart(inst, t, cause="vi_expiry", access=access)

    def _on_superseded_pinned(self, version: Version) -> None:
        """Classical install replaced a version someone still pins: every
        pinning transaction restarts (update transactions are never delayed
        by readers)."""
        for inst_id in list(version.holders):
            inst = self._by_id[inst_id]
            if not inst.terminal():
                self._restart(inst, self._now, cause="superseded",
                              access=inst.accesses.get(version.object_id))

    def _restart(self, inst: TxnInstance, t: Tick, cause: str,
                 access: Access | None) -> None:
        """Abort and reissue from the first object: the whole read set is
        reacquired and reanalyzed."""
        if cause == "vi_expiry" and access is not None:
            if access.version is not None:
                inst.burned.setdefault(access.object_id, set()).add(access.version.seq)
            if inst.spec.retrieval_mode == "store_then_source":
                inst.source_only.add(access.object_id)
        inst.restart_count += 1
        if cause == "vi_expiry":
            inst.vi_restart_count += 1
        self.emit({"t": t, "kind": "restart", "subject": inst.inst_id,
                   "detail": {"cause": cause,
                              "object": access.object_id if access else None}})
        self._release_pins(inst)
        self._free_processor(inst)
        self._leave_waiting(inst)
        inst.cursor = 0
        inst.phase = NEED_ACCESS
        inst.epoch += 1
        inst.state = READY
        self.store.gc(t)

    def _release_pins(self, inst: TxnInstance) -> None:
        for access in inst.accesses.values():
            if access.version is not None:
                self.store.unpin(access.version, inst.inst_id)
        inst.accesses.clear()

    def _free_processor(self, inst: TxnInstance) -> None:
        if self.running is not None and self.running[0] == inst.inst_id:
            self.running = None

    def _leave_waiting(self, inst: TxnInstance) -> None:
        for queue in self.waiting.values():
            if inst.inst_id in queue:
                queue.remove(inst.inst_id)

    def _valid_until(self, access: Access) -> Tick:
        if access.version is not None:
            return self.store.valid_until(access.version)
        return access.private_valid_until

    # -- update server -------------------------------------------------------

    def _on_update_release(self, t: Tick, object_id: str) -> None:
        policy = self.config.policies[object_id]
        eff = self.eff_objects[object_id]
        sampled = self.sampler.sample(object_id, t)
        decision, sink_value, extra = policy.decide(
            self.policy_state[object_id], t, sampled, self.store.newest(object_id))
        self.emit({"t": t, "kind": "update_decision", "subject": object_id,
                   "detail": {"policy": policy.kind, "decision": decision,
                              "sampled": sampled, "sink_value": sink_value,
                              "sink_error": abs(sampled - sink_value), **extra}})

        if decision in (PERFORM, TRANSMIT):
            self.queue.push(t + eff.update_cost, UPDATE_INSTALLED, object_id,
                            {"object": object_id, "value": sampled,
                             "sample_time": t})
        else:
            self.store.extend_validity(object_id, eff.update_period)
            self._wake_waiters(object_id)

    def _on_update_installed(self, t: Tick, payload: dict) -> None:
        object_id = payload["object"]
        self.store.install_version(object_id, payload["value"],
                                   payload["sample_time"], now=t)
        self.refresh_inflight.discard(object_id)
        self._wake_waiters(object_id)

    def _wake_waiters(self, object_id: str) -> None:
        for inst_id in self.waiting[object_id]:
            inst = self._by_id[inst_id]
            if inst.state == WAITING:
                inst.state = READY
        self.waiting[object_id] = []

    # -- dispatch --------------------------------------------------------------

    def _dispatch(self, t: Tick) -> bool:
        progress = False
        while self.running is None:
            ready = [i for i in self.instances if i.state == READY]
            if not ready:
                break
            inst = min(ready, key=TxnInstance.edf_key)
            self._start_segment(inst, t)
            progress = True
        return progress

    def _start_segment(self, inst: TxnInstance, t: Tick) -> None:
        obj = inst.current_object()
        if inst.phase == NEED_ANALYSIS:
            inst.state = ANALYZING
            self.running = (inst.inst_id, inst.epoch)
            self.queue.push(t + inst.spec.analysis_time[obj], ANALYSIS_DONE,
                            inst.inst_id,
                            {"inst": inst.inst_id, "epoch": inst.epoch})
            return

        mode = inst.spec.retrieval_mode
        if obj in inst.source_only:
            mode = "source"
        if mode == "source":
            self._start_source_fetch(inst, t, obj)
            return

        version = self.store.read_latest(obj, t, inst.inst_id,
                                         inst.burned.get(obj, frozenset()))
        if version is not None:
            inst.accesses[obj] = Access(object_id=obj, value=version.value,
                                        sample_time=version.sample_time,
                                        access_time=t, version=version)
            self.emit({"t": t, "kind": "access", "subject": inst.inst_id,
                       "detail": {"object": obj, "via": "store",
                                  "value": version.value,
                                  "staleness": t - version.sample_time}})
            if self.mode is FreshnessMode.CLASSICAL:
                self.queue.push(self.store.valid_until(version), VI_EXPIRY,
                                inst.inst_id,
                                {"inst": inst.inst_id, "epoch": inst.epoch,
                                 "object": obj})
            inst.state = ANALYZING
            self.running = (inst.inst_id, inst.epoch)
            self.queue.push(t + inst.spec.analysis_time[obj], ANALYSIS_DONE,
                            inst.inst_id,
                            {"inst": inst.inst_id, "epoch": inst.epoch})
            return

        if mode == "store_then_source":
            self._start_source_fetch(inst, t, obj)
            return

        # pure store mode: block until the object is refreshed or confirmed
        if (self.config.policies[obj].kind == "ondemand"
                and obj not in self.refresh_inflight):
            self.refresh_inflight.add(obj)
            self.queue.push(t, UPDATE_RELEASE, obj, {})
        inst.state = WAITING
        self.waiting[obj].append(inst.inst_id)

    def _start_source_fetch(self, inst: TxnInstance, t: Tick, obj: str) -> None:
        value = self.sampler.sample(obj, t)
        vi = self.eff_vi[obj]
        inst.accesses[obj] = Access(object_id=obj, value=value, sample_time=t,
                                    access_time=t, private_valid_until=t + vi)
        self.emit({"t": t, "kind": "access", "subject": inst.inst_id,
                   "detail": {"object": obj, "via": "source", "value": value,
                              "staleness": 0}})
        if self.mode is FreshnessMode.CLASSICAL:
            self.queue.push(t + vi, VI_EXPIRY, inst.inst_id,
                            {"inst": inst.inst_id, "epoch": inst.epoch,
                             "object": obj})
        inst.state = RETRIEVING
        self.running = (inst.inst_id, inst.epoch)
        self.queue.push(t + inst.spec.retrieval_time[obj], RETRIEVAL_DONE,
                        inst.inst_id, {"inst": inst.inst_id, "epoch": inst.epoch})


def run(config: SimConfig) -> RunResult:
    """Execute one deterministic run of the configured workload."""
    return Simulator(config).run()
