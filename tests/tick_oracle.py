"""Brute-force tick-by-tick reference simulator.

Advances time one tick at a time and polls every rule directly; no event
queue, no scheduled events. Policy decisions, expiry handling, and dispatch
are re-implemented here independently of the engine so the two can be
compared on small configs. Only the config model, the arrival expansion and
the value processes' own `value_at` are shared: values come from the
reference walk, not from the engine's `ValueSampler`, so a sampler fault
shows as a divergence.

Per-tick order of sub-steps (the same semantics the engine encodes in event
ranks): arrivals, segment completions, validity expiries, update releases,
update installs, deadlines, then dispatch; iterated to a fixed point so that
zero-cost refreshes and same-tick restarts settle within the tick.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from freshsim.core import FreshnessMode, UserTxnSpec
from freshsim.policies import (
    ElasticPolicy,
    MKFirmPolicy,
    OnDemandPolicy,
    PeriodicPolicy,
    PredictionPolicy,
    SimilarityPolicy,
)
from freshsim.workload import SimConfig, expand_arrivals


@dataclass
class OVersion:
    value: float
    sample_time: int
    seq: int
    vi_extend: int = 0
    holders: list[str] = field(default_factory=list)

    def valid_until(self, vi: int) -> int:
        return self.sample_time + vi + self.vi_extend


@dataclass
class OHold:
    object_id: str
    seq: int | None          # None: private source sample
    sample_time: int
    fixed_until: int = 0     # private samples only


@dataclass
class OTxn:
    inst_id: str
    spec: UserTxnSpec
    release: int
    deadline: int
    ordinal: int
    state: str = "ready"
    cursor: int = 0
    phase: str = "access"
    holds: dict[str, OHold] = field(default_factory=dict)
    restarts: int = 0
    vi_restarts: int = 0
    commit_time: int | None = None
    miss_time: int | None = None
    seg_end: int | None = None
    seg_kind: str | None = None
    burned: dict[str, set[int]] = field(default_factory=dict)
    source_only: set[str] = field(default_factory=set)

    def terminal(self) -> bool:
        return self.state in ("committed", "missed")


class TickOracle:
    def __init__(self, config: SimConfig):
        self.cfg = config
        self.mode = config.mode
        self.objects = {o.id: o for o in config.objects}
        self.vi = {o.id: o.vi for o in config.objects}
        self.period = {o.id: o.update_period for o in config.objects}
        self.cost = {o.id: o.update_cost for o in config.objects}
        self.chains: dict[str, list[OVersion]] = {o.id: [] for o in config.objects}
        self.txns: list[OTxn] = []
        self.running: str | None = None
        self.waiting: dict[str, list[str]] = {o.id: [] for o in config.objects}
        self.pending_installs: list[tuple[int, str, float, int]] = []
        self.ondemand_launches: list[str] = []
        self.refresh_inflight: set[str] = set()
        self.mk_decisions: dict[str, list[bool]] = {o.id: [] for o in config.objects}
        self.predictor_points: dict[str, list[tuple[float, int]]] = {
            o.id: [] for o in config.objects}
        # object id -> (t, decision, sampled value) of each update decision
        self.decisions: dict[str, list[tuple[int, str, float]]] = {
            o.id: [] for o in config.objects}
        self.installs: dict[str, list[tuple[int, int]]] = {o.id: [] for o in config.objects}

        self.arrival_times: dict[str, list[int]] = {}
        for spec in config.transactions:
            # the admission gate of its own: each object read must have
            # vi >= R + A
            if config.enforce_admission and any(
                    self.vi[oid] < spec.retrieval_time[oid] + spec.analysis_time[oid]
                    for oid in spec.read_set):
                continue
            self.arrival_times[spec.id] = expand_arrivals(spec, config.horizon,
                                                          config.seed)
        self.release_times: dict[str, set[int]] = {}
        for obj in config.objects:
            if isinstance(obj.policy, OnDemandPolicy):
                self.release_times[obj.id] = set()
            else:
                self.release_times[obj.id] = set(
                    range(0, config.horizon + 1, obj.update_period))

    # -- helpers ------------------------------------------------------------

    def sample(self, oid: str, t: int) -> float:
        """The value of `oid` at `t`; a walk steps once per declared period."""
        return self.objects[oid].value_process.value_at(
            t, t // self.period[oid], self.cfg.seed, oid)

    def newest(self, oid: str) -> OVersion | None:
        chain = self.chains[oid]
        return chain[-1] if chain else None

    def hold_until(self, hold: OHold) -> int:
        if hold.seq is None:
            return hold.fixed_until
        for v in self.chains[hold.object_id]:
            if v.seq == hold.seq:
                return v.valid_until(self.vi[hold.object_id])
        raise AssertionError("held version vanished")

    def release_holds(self, txn: OTxn) -> None:
        for hold in txn.holds.values():
            if hold.seq is not None:
                for v in self.chains[hold.object_id]:
                    if v.seq == hold.seq and txn.inst_id in v.holders:
                        v.holders.remove(txn.inst_id)
        txn.holds.clear()
        # drop superseded, unheld versions
        for oid, chain in self.chains.items():
            self.chains[oid] = [v for v in chain[:-1] if v.holders] + chain[-1:]

    def restart(self, txn: OTxn, t: int, vi_caused: bool, object_id: str | None) -> None:
        if vi_caused and object_id is not None:
            hold = txn.holds.get(object_id)
            if hold is not None and hold.seq is not None:
                txn.burned.setdefault(object_id, set()).add(hold.seq)
            if txn.spec.retrieval_mode == "store_then_source":
                txn.source_only.add(object_id)
        txn.restarts += 1
        if vi_caused:
            txn.vi_restarts += 1
        self.release_holds(txn)
        if self.running == txn.inst_id:
            self.running = None
        for q in self.waiting.values():
            if txn.inst_id in q:
                q.remove(txn.inst_id)
        txn.cursor = 0
        txn.phase = "access"
        txn.state = "ready"
        txn.seg_end = txn.seg_kind = None

    def by_id(self, inst_id: str) -> OTxn:
        return next(x for x in self.txns if x.inst_id == inst_id)

    # -- sub-steps ------------------------------------------------------------

    def _arrivals(self, t: int) -> None:
        for spec in sorted(self.cfg.transactions, key=lambda s: s.id):
            if spec.id not in self.arrival_times:
                continue
            if t in self.arrival_times[spec.id]:
                count = sum(1 for x in self.txns if x.spec.id == spec.id)
                self.txns.append(OTxn(
                    inst_id=f"{spec.id}#{count}", spec=spec, release=t,
                    deadline=t + spec.relative_deadline, ordinal=len(self.txns)))

    def _completions(self, t: int) -> bool:
        changed = False
        for txn in self.txns:
            if txn.terminal() or txn.seg_end != t:
                continue
            if txn.seg_kind == "retrieve":
                txn.seg_end = txn.seg_kind = None
                txn.phase = "analysis"
                txn.state = "ready"
                if self.running == txn.inst_id:
                    self.running = None
                changed = True
            elif txn.seg_kind == "analyze":
                txn.seg_end = txn.seg_kind = None
                if self.running == txn.inst_id:
                    self.running = None
                txn.cursor += 1
                txn.phase = "access"
                if txn.cursor >= len(txn.spec.read_set):
                    txn.state = "committed"
                    txn.commit_time = t
                    self.release_holds(txn)
                else:
                    txn.state = "ready"
                changed = True
        return changed

    def _expiries(self, t: int) -> bool:
        if self.mode is not FreshnessMode.CLASSICAL:
            return False
        changed = False
        for txn in self.txns:
            if txn.terminal():
                continue
            for oid in list(txn.holds):
                hold = txn.holds.get(oid)
                if hold is None:
                    continue
                if t >= self.hold_until(hold):
                    self.restart(txn, t, vi_caused=True, object_id=oid)
                    changed = True
                    break
        return changed

    # independent policy decision logic -------------------------------------

    def _decide(self, oid: str, t: int, sampled: float) -> str:
        policy = self.objects[oid].policy
        newest = self.newest(oid)
        if newest is None:
            if isinstance(policy, MKFirmPolicy):
                self.mk_decisions[oid].append(True)
            if isinstance(policy, PredictionPolicy):
                pts = self.predictor_points[oid]
                self.predictor_points[oid] = (pts + [(sampled, t)])[-2:]
            return "perform"
        if isinstance(policy, (PeriodicPolicy, ElasticPolicy, OnDemandPolicy)):
            return "perform"
        if isinstance(policy, MKFirmPolicy):
            history = self.mk_decisions[oid]
            padded = [True] * (policy.k - 1) + history
            window = padded[len(padded) - (policy.k - 1):] if policy.k > 1 else []
            if sum(window) >= policy.m:
                history.append(False)
                return "skip"
            history.append(True)
            return "perform"
        if isinstance(policy, SimilarityPolicy):
            if abs(sampled - newest.value) < policy.delta:
                return "skip"
            return "perform"
        if isinstance(policy, PredictionPolicy):
            pts = self.predictor_points[oid]
            if not pts:
                predicted = None
            elif policy.predictor == "linear" and len(pts) >= 2:
                (v0, t0), (v1, t1) = pts[-2], pts[-1]
                predicted = v1 + (v1 - v0) * (t - t1) / (t1 - t0)
            else:
                predicted = pts[-1][0]
            if predicted is None or abs(sampled - predicted) > policy.epsilon:
                self.predictor_points[oid] = (pts + [(sampled, t)])[-2:]
                return "perform"
            return "skip"
        raise AssertionError(f"unhandled policy {policy}")

    def _releases(self, t: int) -> bool:
        changed = False
        for oid in [o.id for o in self.cfg.objects]:
            if t in self.release_times[oid]:
                self.release_times[oid].discard(t)
                sampled = self.sample(oid, t)
                decision = self._decide(oid, t, sampled)
                self.decisions[oid].append((t, decision, sampled))
                if decision == "perform":
                    self.pending_installs.append((t + self.cost[oid], oid, sampled, t))
                else:
                    self.newest(oid).vi_extend += self.period[oid]
                    self._wake(oid)
                changed = True
        while self.ondemand_launches:
            oid = self.ondemand_launches.pop(0)
            sampled = self.sample(oid, t)
            self.decisions[oid].append((t, "perform", sampled))
            self.pending_installs.append((t + self.cost[oid], oid, sampled, t))
            changed = True
        return changed

    def _installs(self, t: int) -> bool:
        changed = False
        due = [p for p in self.pending_installs if p[0] == t]
        self.pending_installs = [p for p in self.pending_installs if p[0] != t]
        for _, oid, value, sample_time in due:
            chain = self.chains[oid]
            prev = chain[-1] if chain else None
            seq = prev.seq + 1 if prev else 1
            chain.append(OVersion(value=value, sample_time=sample_time, seq=seq))
            self.installs[oid].append((t, sample_time))
            self.refresh_inflight.discard(oid)
            if self.mode is FreshnessMode.CLASSICAL and prev is not None:
                for inst_id in list(prev.holders):
                    txn = self.by_id(inst_id)
                    if not txn.terminal():
                        self.restart(txn, t, vi_caused=False, object_id=oid)
            # reclaim superseded unheld versions
            self.chains[oid] = [v for v in chain[:-1] if v.holders] + chain[-1:]
            self._wake(oid)
            changed = True
        return changed

    def _wake(self, oid: str) -> None:
        for inst_id in self.waiting[oid]:
            txn = self.by_id(inst_id)
            if txn.state == "waiting":
                txn.state = "ready"
        self.waiting[oid] = []

    def _deadlines(self, t: int) -> bool:
        changed = False
        for txn in self.txns:
            if txn.terminal() or txn.deadline != t:
                continue
            txn.state = "missed"
            txn.miss_time = t
            if self.running == txn.inst_id:
                self.running = None
            for q in self.waiting.values():
                if txn.inst_id in q:
                    q.remove(txn.inst_id)
            self.release_holds(txn)
            changed = True
        return changed

    def _dispatch(self, t: int) -> bool:
        progress = False
        while self.running is None:
            ready = [x for x in self.txns if x.state == "ready"]
            if not ready:
                break
            txn = min(ready, key=lambda x: (x.deadline, x.spec.id, x.release, x.ordinal))
            self._start(txn, t)
            progress = True
        return progress

    def _start(self, txn: OTxn, t: int) -> None:
        oid = txn.spec.read_set[txn.cursor]
        if txn.phase == "analysis":
            txn.state = "analyzing"
            txn.seg_kind = "analyze"
            txn.seg_end = t + txn.spec.analysis_time[oid]
            self.running = txn.inst_id
            return
        mode = txn.spec.retrieval_mode
        if oid in txn.source_only:
            mode = "source"
        if mode == "source":
            self._start_fetch(txn, t, oid)
            return
        newest = self.newest(oid)
        burned = txn.burned.get(oid, set())
        if (newest is not None and newest.seq not in burned
                and t <= newest.valid_until(self.vi[oid])):
            newest.holders.append(txn.inst_id)
            txn.holds[oid] = OHold(object_id=oid, seq=newest.seq,
                                   sample_time=newest.sample_time)
            txn.state = "analyzing"
            txn.seg_kind = "analyze"
            txn.seg_end = t + txn.spec.analysis_time[oid]
            self.running = txn.inst_id
            return
        if mode == "store_then_source":
            self._start_fetch(txn, t, oid)
            return
        if (isinstance(self.objects[oid].policy, OnDemandPolicy)
                and oid not in self.refresh_inflight):
            self.refresh_inflight.add(oid)
            self.ondemand_launches.append(oid)
        txn.state = "waiting"
        self.waiting[oid].append(txn.inst_id)

    def _start_fetch(self, txn: OTxn, t: int, oid: str) -> None:
        txn.holds[oid] = OHold(object_id=oid, seq=None, sample_time=t,
                               fixed_until=t + self.vi[oid])
        txn.state = "retrieving"
        txn.seg_kind = "retrieve"
        txn.seg_end = t + txn.spec.retrieval_time[oid]
        self.running = txn.inst_id

    # -- main loop -------------------------------------------------------------

    def run(self) -> dict:
        for t in range(0, self.cfg.horizon + 1):
            self._arrivals(t)
            while True:
                changed = False
                changed |= self._completions(t)
                changed |= self._expiries(t)
                changed |= self._releases(t)
                changed |= self._installs(t)
                changed |= self._deadlines(t)
                changed |= self._dispatch(t)
                if not changed:
                    break
        return self.outcomes()

    def outcomes(self) -> dict:
        return {
            "txns": {
                x.inst_id: {
                    "state": x.state,
                    "commit_time": x.commit_time,
                    "miss_time": x.miss_time,
                    "restarts": x.restarts,
                    "vi_restarts": x.vi_restarts,
                }
                for x in self.txns
            },
            "installs": {oid: list(v) for oid, v in self.installs.items()},
            "decisions": {oid: list(v) for oid, v in self.decisions.items()},
        }


def oracle_outcomes(config: SimConfig) -> dict:
    return TickOracle(config).run()
