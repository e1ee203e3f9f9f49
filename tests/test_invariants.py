"""The engine's invariants, checked after every dispatch.

The engine leans on these instead of testing for them at run time: a
superseded version's holders all restart without a `terminal()` test, a wait
list is woken without a state test, `VersionStore.unpin` trusts that a
pinned version is still in its chain, and an install reclaims in place the
one version it can make reclaimable, since the engine sweeps the store right
after every unpin (`_release_pins`). That reclaim rewrites the version as the
new one, so every version an unfinished instance holds must keep the seq,
value and sample time it had when the instance read it. The same runs check the report's
`peak_live_versions`, which the aggregator derives from the `install` and
`gc` records, against the chain lengths in the store."""

import sys
from collections import Counter
from pathlib import Path

import pytest

from freshsim.core import Arrival, FreshnessMode, ObjectSpec, UserTxnSpec
from freshsim.engine import (
    ANALYZING,
    DEADLINE,
    RETRIEVING,
    TXN_ARRIVAL,
    UPDATES,
    WAITING,
    Simulator,
)
from freshsim.metrics import TxnClassStats
from freshsim.policies import ElasticPolicy, OnDemandPolicy, PeriodicPolicy
from freshsim.workload import ConstantProcess, SimConfig, config_from_dict

from randgen import random_config
from support import watch_updates

BENCH_DIR = Path(__file__).resolve().parent.parent / "perfbench"
if str(BENCH_DIR) not in sys.path:
    sys.path.insert(0, str(BENCH_DIR))

import gen  # noqa: E402


class StopRun(Exception):
    pass


class CheckedSimulator(Simulator):
    """A Simulator that checks every invariant after each `_dispatch`, and
    samples each object's chain after every install and every skip."""

    def __init__(self, config, last=None):
        super().__init__(config, sink=lambda records: None)
        watch_updates(self)
        self.last = last  # the run stops after the check at this tick
        self.unfinished = {}  # instance id -> instance, pruned at each check
        # (instance id, object id) -> the version read and its (seq, value,
        # sample_time) then, for the instance's latest access of the object
        self.accessed = {}
        self.checks = 0
        # object id -> its longest chain right after an install
        self.peaks = {}
        install = self.store.install_version

        def checked_install(object_id, value, sample_time):
            # the install's in-place reclaim removes the only reclaimable
            # version: every earlier superseded one is pinned
            chain = self.store.chains[object_id]
            assert all(v.holders for v in chain[:-1]), (
                f"install on {object_id} at t={sample_time} finds an unpinned "
                "superseded version")
            return install(object_id, value, sample_time)

        self.store.install_version = checked_install

    def _make_ready(self, inst):
        # every instance becomes ready at its release
        self.unfinished[inst.inst_id] = inst
        super()._make_ready(inst)

    def _acquire(self, inst, t, version, via):
        self.accessed[inst.inst_id, version.object_id] = (
            version, (version.seq, version.value, version.sample_time))
        super()._acquire(inst, t, version, via)

    def _schedule_workload(self):
        super()._schedule_workload()
        # every periodic run's first release is due at 0
        self.check_runs(-1)

    def _dispatch(self, t):
        super()._dispatch(t)
        self.check(t)
        if self.last is not None and t >= self.last:
            raise StopRun

    def _wake_waiters(self, stream):
        # called right after each install's reclaim or its holders'
        # restarts, and after a skip, when the chain cannot be longer than
        # after the install before it
        object_id = stream.object_id
        self.peaks[object_id] = max(self.peaks.get(object_id, 0), len(stream.chain))
        super()._wake_waiters(stream)

    def check(self, t):
        # the aggregator reads the records handed over so far: all of them
        self._flush()
        self.checks += 1
        where = f"at t={t}"
        self.unfinished = {i: inst for i, inst in self.unfinished.items()
                           if not inst.terminal()}
        # every handler that dirties a chain sweeps it before it returns
        assert not self.store.dirty, f"dirty chains {sorted(self.store.dirty)} {where}"
        for object_id, chain in self.store.chains.items():
            for version in chain[:-1]:
                assert version.holders, f"unpinned superseded {object_id} {where}"
            for version in chain:
                for inst in version.holders:
                    assert not inst.terminal(), f"finished holder {inst.inst_id} {where}"
                    assert inst.accesses.get(object_id) is version, (
                        f"{inst.inst_id} pins {object_id}#{version.seq} "
                        f"outside its accesses {where}")
            # .get: a missing key of the defaultdict would be created
            stats = self.metrics.per_object.get(object_id)
            assert (stats.live_versions if stats else 0) == len(chain), (
                f"live versions of {object_id} counted from the records {where}")
        for inst in self.unfinished.values():
            for object_id, version in inst.accesses.items():
                # no one rewrites a version while it is held; a skip may
                # still extend its expiry
                read, fields = self.accessed[inst.inst_id, object_id]
                assert read is version and (
                    version.seq, version.value, version.sample_time) == fields, (
                    f"{inst.inst_id} holds {object_id}#{version.seq}, which was "
                    f"#{fields[0]} when it was read {where}")
                if version.seq:
                    assert inst in version.holders, (
                        f"{inst.inst_id} not a holder of {object_id} {where}")
                    assert any(v is version for v in self.store.chains[object_id]), (
                        f"{inst.inst_id} holds {object_id}#{version.seq} "
                        f"outside its chain {where}")
            if inst.state == WAITING:
                assert inst in self._streams[inst.current_object()].waiting, (
                    f"waiting {inst.inst_id} on no wait list {where}")
        for object_id, stream in self._streams.items():
            for inst in stream.waiting:
                assert inst.state == WAITING and inst.current_object() == object_id, (
                    f"{inst.inst_id} ({inst.state}) on the wait list of "
                    f"{object_id} {where}")
        if self.running is not None:
            assert self.running.state in (RETRIEVING, ANALYZING), (
                f"running {self.running.inst_id} is {self.running.state} {where}")
        # an unfinished instance's deadline is still queued, and the
        # aggregator counts each class from the trace alone
        heap = self.queue._heap
        queued = Counter(inst.spec.id for _, kind, _, _, inst in heap
                         if kind == DEADLINE and not inst.terminal())
        for cls in self.metrics.per_class.keys() | queued.keys():
            stats = self.metrics.per_class.get(cls, TxnClassStats())
            in_flight = stats.released - stats.committed - stats.missed
            assert in_flight == queued[cls], (
                f"{cls}: released {stats.released} != committed {stats.committed} "
                f"+ missed {stats.missed} + queued {queued[cls]} {where}")
        arrivals = Counter(subject for _, kind, subject, _, _ in heap
                           if kind == TXN_ARRIVAL)
        for cls, count in arrivals.items():
            assert count == 1, f"{count} pending arrivals of {cls} {where}"
        # each tick's update lists are the payload of its one queue entry
        # and hold at least one event
        entries = [(time, payload) for time, kind, _, _, payload in heap
                   if kind == UPDATES]
        assert len(entries) == len(self._updates), (
            f"{len(entries)} update entries for {len(self._updates)} ticks {where}")
        for time, payload in entries:
            assert self._updates.get(time) is payload, (
                f"the update entry at {time} is not its tick's lists {where}")
            assert any(payload), f"empty update lists at {time} {where}"
        self.check_runs(t)

    def check_runs(self, t):
        """Each periodic stream sits in exactly one pending run, unless its
        next multiple of its period after `t` passes the horizon: a run of
        this simulator's streams in object id order, which holds every
        periodic stream of that period and no other, due at that multiple.
        Each on-demand stream sits in at most one pending run, of itself
        alone, and is marked `refreshing`."""
        where = f"at t={t}"
        by_period = {}
        for object_id, stream in sorted(self._streams.items()):
            if stream.periodic:
                by_period.setdefault(stream.period, []).append(object_id)
        pending = Counter()
        for time, (runs, _) in self._updates.items():
            for run in runs:
                ids = [stream.object_id for stream in run]
                assert ids == sorted(ids), f"run {ids} out of order {where}"
                assert all(self._streams[s.object_id] is s for s in run), (
                    f"run {ids} holds a stream outside the run's streams {where}")
                pending.update(ids)
                first = run[0]
                if first.periodic:
                    assert ids == by_period[first.period], (
                        f"run {ids} is not the periodic streams of period "
                        f"{first.period} {where}")
                    following = (t // first.period + 1) * first.period
                    assert time == following, (
                        f"run {ids} releases at {time}, not {following} {where}")
                else:
                    assert len(run) == 1 and first.refreshing, (
                        f"refresh run {ids} is not one marked stream {where}")
        for object_id, stream in self._streams.items():
            if stream.periodic:
                due = (t // stream.period + 1) * stream.period <= self.horizon
                assert pending[object_id] == due, (
                    f"{object_id} in {pending[object_id]} pending runs {where}")
            else:
                assert pending[object_id] <= 1, (
                    f"{pending[object_id]} pending refreshes of {object_id} {where}")


def checks_run(cfg) -> int:
    """Run `cfg` with every check; the number of checks made. Each object's
    peak live versions in the report must be its longest chain."""
    sim = CheckedSimulator(cfg)
    report = sim.run()
    peaks = {oid: stats.peak_live_versions for oid, stats in report.per_object.items()
             if stats.peak_live_versions}
    assert peaks == sim.peaks
    return sim.checks


def test_invariants_hold_on_the_oracle_seeds():
    cfgs = [random_config(seed) for seed in range(120)]
    cfgs += [random_config(seed, mode=FreshnessMode.CLASSICAL)
             for seed in range(1000, 1060)]
    cfgs += [random_config(seed, mode=FreshnessMode.MULTIVERSION)
             for seed in range(2000, 2060)]
    assert sum(checks_run(cfg) for cfg in cfgs) > 0


@pytest.mark.parametrize("workload", ["restart_cycle", "policy_fleet"])
def test_invariants_hold_on_the_benchmark_configs(workload):
    assert checks_run(config_from_dict(gen.generate(workload, 1))) > 0


@pytest.mark.parametrize("horizon", [10**3, 10**9])
def test_cohort_queue_invariants_hold_at_both_horizons(horizon):
    # two periodic streams share a run, an elastic one has its own, and
    # store readers make the on-demand b refresh; a run up to 10**9 is
    # checked up to tick 900, as the run up to 10**3 is
    objects = [ObjectSpec(id=oid, vi=12, update_period=period, update_cost=1,
                          value_process=ConstantProcess(value=0.0), policy=policy)
               for oid, period, policy in (("a", 3, PeriodicPolicy()),
                                           ("b", 5, OnDemandPolicy()),
                                           ("c", 7, ElasticPolicy(target_utilization=0.95)),
                                           ("d", 3, PeriodicPolicy()))]
    transactions = [UserTxnSpec(id=f"t{oid}", read_set=[oid], retrieval_time={oid: 1},
                                analysis_time={oid: 2}, relative_deadline=12,
                                arrival=Arrival("periodic", start=1, period=period),
                                retrieval_mode="store")
                    for oid, period in (("a", 4), ("b", 9), ("c", 6))]
    sim = CheckedSimulator(SimConfig(horizon=horizon, mode=FreshnessMode.CLASSICAL,
                                     enforce_admission=False, seed=1, objects=objects,
                                     transactions=transactions),
                           last=900)
    with pytest.raises(StopRun):
        sim.run()
    assert sorted([s.object_id for s in run] for runs, _ in sim._updates.values()
                  for run in runs if run[0].periodic) == [["a", "d"], ["c"]]
    assert sim.checks > 300
    assert sim.metrics.per_object["b"].updates_performed > 40
