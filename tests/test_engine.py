import copy
import gc
import json
import sys
from pathlib import Path

import pytest

from freshsim.core import Arrival, ConfigError, FreshnessMode, ObjectSpec, UserTxnSpec
from freshsim.engine import _BATCH_RECORDS, TXN_ARRIVAL, Simulator, TxnInstance
from freshsim.policies import PERFORMED, ElasticPolicy, OnDemandPolicy, PeriodicPolicy
from freshsim.workload import ConstantProcess, SimConfig, config_from_dict

from randgen import random_config
from support import (count_walk_steps, hash_records, one_object_config, run_outcomes,
                     run_records, watch_updates)
from test_acceptance import mk_window_config
from test_golden import corpus

BENCH_DIR = Path(__file__).resolve().parent.parent / "perfbench"
if str(BENCH_DIR) not in sys.path:
    sys.path.insert(0, str(BENCH_DIR))

import gen  # noqa: E402


def test_empty_workload_is_vacuous():
    cfg = SimConfig(horizon=100, mode=FreshnessMode.CLASSICAL,
                    enforce_admission=False, seed=1, objects=[], transactions=[])
    report, records, txns = run_outcomes(cfg)
    assert txns == {}
    assert records == []
    assert report.overall.released == 0
    assert report.overall.miss_ratio == 0.0


def test_sink_batches_are_the_trace_cut_at_tick_boundaries():
    cfg = config_from_dict(gen.generate("restart_cycle", 1))
    batches = []
    Simulator(cfg, sink=batches.append).run()
    trace = run_records(cfg)[1]
    assert [record for batch in batches for record in batch] == trace
    assert len(batches) > 10
    for batch, following in zip(batches, batches[1:]):
        assert len(batch) >= _BATCH_RECORDS
        assert batch[-1][0] < following[0][0]


@pytest.mark.parametrize("workload", ["restart_cycle", "policy_fleet"])
def test_the_engine_sweeps_the_store_only_when_a_chain_is_dirty(workload):
    # every `gc` record comes either from a `gc()` call, which finds a dirty
    # chain and reclaims something, or from an install that reclaimed the
    # version it superseded: one `reclaimed: 1` record right after the
    # `install` of the same object at the same t
    trace = []
    sim = Simulator(config_from_dict(gen.generate(workload, 1)), sink=trace.extend)
    gc_calls = []
    collect = sim.store.gc

    def checked():
        assert sim.store.dirty
        reclaimed = collect()
        gc_calls.append(reclaimed)
        return reclaimed

    sim.store.gc = checked
    sim.run()
    assert gc_calls and all(gc_calls)
    swept = [(object_id, count) for reclaimed in gc_calls
             for object_id, count in reclaimed]
    inline, other = [], []
    for before, (t, kind, subject, detail) in zip([None, *trace], trace):
        if kind != "gc":
            continue
        if before[:3] == (t, "install", subject):
            assert detail == {"reclaimed": 1}
            inline.append(subject)
        else:
            other.append((subject, detail["reclaimed"]))
    assert inline and other == swept
    assert all(count >= 1 for _, count in swept)
    assert len(inline) + len(swept) == sum(kind == "gc" for _, kind, _, _ in trace)


@pytest.mark.parametrize("workload", ["restart_cycle", "policy_fleet"])
def test_run_cost_grows_linearly_with_the_horizon(workload, monkeypatch):
    # the seed-1 config at 1x, 4x and 16x its horizon: records, queue pushes
    # and walk steps each grow 4x, within 5%, from one horizon to the next
    steps = count_walk_steps(monkeypatch)
    counts = []
    for scale in (1, 4, 16):
        doc = gen.generate(workload, 1)
        doc["horizon"] *= scale
        sizes = []
        before = steps["steps"]
        sim = Simulator(config_from_dict(doc), sink=lambda batch: sizes.append(len(batch)))
        sim.run()
        counts.append((sum(sizes), sim.queue._counter, steps["steps"] - before))
    assert min(min(c) for c in counts) > 0
    for smaller, larger in zip(counts, counts[1:]):
        for small, large in zip(smaller, larger):
            assert 3.8 <= large / small <= 4.2, counts


def test_no_batch_ends_inside_a_tick():
    # a dispatch that queues an on-demand refresh at t runs another pass at
    # t, whose records still belong to the batch of t
    cuts = 0
    for seed in range(300):
        cfg = random_config(seed, horizon_range=(2000, 4000))
        batches = []
        Simulator(cfg, sink=batches.append).run()
        assert all(batches), seed
        for batch, following in zip(batches, batches[1:]):
            assert batch[-1][0] < following[0][0], seed
        cuts += len(batches) - 1
    assert cuts > 0


def test_run_handles_an_event_at_the_horizon_and_none_after_it():
    # updates every 10 ticks up to the horizon at 40, and a release at 40;
    # the arrival queued at 41 would be the class's second instance
    cfg = one_object_config(horizon=40, arrival_t=40)
    trace = []
    sim = Simulator(cfg, sink=trace.extend)
    spec = cfg.transactions[0]
    sim.queue.push(41, TXN_ARRIVAL, spec.id, (spec, 1, iter(())))
    sim.run()
    assert [t for t, kind, _, _ in trace if kind == "update_decision"] == [0, 10, 20, 30, 40]
    assert [(t, subject) for t, kind, subject, _ in trace
            if kind == "txn_released"] == [(40, "t1#0")]
    assert max(t for t, _, _, _ in trace) == 40
    assert 41 in [entry[0] for entry in sim.queue._heap]


def test_an_on_demand_release_queued_by_dispatch_runs_in_the_same_tick():
    # the store is empty when t1 arrives at 5, so dispatch queues a refresh
    # at 5; the next pass at 5 performs and installs it (cost 0), and the
    # dispatch after it serves t1 from the store, all at 5
    cfg = one_object_config(vi=10, cost=0, analysis=4, arrival_t=5,
                            retrieval_mode="store", policy=OnDemandPolicy())
    trace = run_records(cfg)[1]
    assert [(t, kind) for t, kind, _, _ in trace] == [
        (5, "txn_released"), (5, "update_decision"), (5, "install"),
        (5, "access"), (9, "commit")]
    assert trace[3][3]["via"] == "store"


def test_simulator_rejects_an_invalid_config_with_every_violation():
    cfg = one_object_config(vi=0, deadline=0, horizon=0)
    with pytest.raises(ConfigError) as e:
        Simulator(cfg)
    assert e.value.errors == [
        ("horizon", "must be > 0"),
        ("objects[0].vi", "validity interval must be > 0"),
        ("transactions[0].deadline", "relative deadline must be > 0"),
    ]


def test_feasible_source_txn_commits_first_attempt():
    # vi=10, R=2, A=3: sample at 0 stays fresh through the commit at 5
    cfg = one_object_config(vi=10, period=5, cost=0, retrieval=2, analysis=3,
                            deadline=20)
    inst = run_outcomes(cfg)[2]["t1#0"]
    assert inst["state"] == "committed"
    assert inst["commit_time"] == 5
    assert inst["restarts"] == 0


def test_infeasible_source_txn_cycles_until_deadline():
    # the unbounded reacquire/reanalyze cycle: restart every vi ticks
    cfg = one_object_config(vi=5, retrieval=2, analysis=4, deadline=30)
    _, records, txns = run_outcomes(cfg)
    inst = txns["t1#0"]
    assert inst["state"] == "missed"
    assert inst["miss_time"] == 30
    assert inst["vi_restarts"] == 6
    restarts = [t for t, kind, _, _ in records if kind == "restart"]
    assert restarts == [5, 10, 15, 20, 25, 30]


def test_boundary_feasibility_commits_exactly_at_expiry():
    # R + A == vi: analysis completes at the expiry instant and still commits
    cfg = one_object_config(vi=6, retrieval=2, analysis=4, deadline=30)
    inst = run_outcomes(cfg)[2]["t1#0"]
    assert inst["state"] == "committed"
    assert inst["commit_time"] == 6
    assert inst["vi_restarts"] == 0


def test_store_serve_costs_only_analysis_time():
    # cached read: analysis starts at the access instant
    cfg = one_object_config(vi=5, period=5, cost=0, retrieval=0, analysis=4,
                            deadline=18, retrieval_mode="store")
    inst = run_outcomes(cfg)[2]["t1#0"]
    assert inst["state"] == "committed"
    assert inst["commit_time"] == 4
    assert inst["restarts"] == 0


def test_classical_store_reader_restarts_on_expiry_then_rereads():
    cfg = one_object_config(vi=5, period=5, cost=0, retrieval=0, analysis=4,
                            deadline=17, arrival_t=3, retrieval_mode="store")
    inst = run_outcomes(cfg)[2]["t1#0"]
    assert inst["state"] == "committed"
    assert inst["vi_restarts"] == 1
    assert inst["commit_time"] == 9  # restarted at 5, re-read the t=5 version


def test_multiversion_reader_continues_past_expiry():
    cfg = one_object_config(vi=5, period=5, cost=0, retrieval=0, analysis=4,
                            deadline=17, arrival_t=3, retrieval_mode="store",
                            mode=FreshnessMode.MULTIVERSION)
    _, records, txns = run_outcomes(cfg)
    inst = txns["t1#0"]
    assert inst["state"] == "committed"
    assert inst["commit_time"] == 7
    assert inst["restarts"] == 0
    commits = [detail for _, kind, _, detail in records if kind == "commit"]
    assert commits[0]["stale_at_commit"] is True


def test_superseded_classical_reader_restarts_multiversion_continues():
    # the reader pins the t=0 version at 3; the t=5 install replaces it
    # while the analysis (3..7) runs, long before its expiry at 50
    def run(mode):
        return run_outcomes(one_object_config(
            vi=50, period=5, cost=0, retrieval=0, analysis=4, deadline=30,
            arrival_t=3, retrieval_mode="store", mode=mode))

    _, records, txns = run(FreshnessMode.CLASSICAL)
    restarts = [(t, detail) for t, kind, _, detail in records if kind == "restart"]
    assert restarts == [(5, {"cause": "superseded", "object": "o1"})]
    inst = txns["t1#0"]
    assert (inst["state"], inst["commit_time"], inst["vi_restarts"]) == ("committed", 9, 0)

    inst = run(FreshnessMode.MULTIVERSION)[2]["t1#0"]
    assert (inst["state"], inst["commit_time"], inst["restarts"]) == ("committed", 7, 0)


def test_superseded_version_restarts_every_classical_holder_in_pin_order():
    # a pins o1's t=0 version at 1; b, with the earlier deadline, pins it at
    # 5 after a's first analysis; the t=6 install replaces it under both
    objects = [ObjectSpec(id=oid, vi=20, update_period=6, update_cost=0,
                          value_process=ConstantProcess(value=1.0),
                          policy=PeriodicPolicy())
               for oid in ("o1", "o2")]
    txns = [UserTxnSpec(id=tid, read_set=read_set,
                        retrieval_time=dict.fromkeys(read_set, 0),
                        analysis_time=dict.fromkeys(read_set, 4),
                        relative_deadline=deadline - release,
                        arrival=Arrival("oneshot", t=release), retrieval_mode="store")
            for tid, read_set, release, deadline in (("a", ["o1", "o2"], 1, 29),
                                                     ("b", ["o1"], 2, 20))]
    cfg = SimConfig(horizon=30, mode=FreshnessMode.CLASSICAL, enforce_admission=False,
                    seed=1, objects=objects, transactions=txns)
    at_6 = [(kind, subject, detail.get("cause", detail.get("reclaimed")))
            for t, kind, subject, detail in run_records(cfg)[1]
            if t == 6 and kind in ("install", "restart", "gc")
            and subject != "o2"]
    assert at_6 == [("install", "o1", None),
                    ("restart", "a#0", "superseded"),
                    ("restart", "b#0", "superseded"),
                    ("gc", "o1", 1)]


def test_admission_gate_blocks_infeasible_release():
    cfg = one_object_config(vi=5, retrieval=2, analysis=4, enforce=True)
    report, _, txns = run_outcomes(cfg)
    assert txns == {}
    assert report.rejected == ["t1"]
    assert report.overall.released == 0


def test_store_then_source_falls_back_and_commits():
    # cold store at t=0 with no periodic update until t=10: fetch from source
    cfg = one_object_config(vi=10, period=10, cost=5, retrieval=2, analysis=3,
                            deadline=20, retrieval_mode="store_then_source")
    _, records, txns = run_outcomes(cfg)
    inst = txns["t1#0"]
    assert inst["state"] == "committed"
    assert inst["commit_time"] == 5
    access = [detail for _, kind, _, detail in records if kind == "access"]
    assert access[0]["via"] == "source"


def test_cached_read_bound_single_vi_restart_then_source():
    # feasible work that starts on an aging cached version: at most one
    # vi-induced restart, then the source acquisition completes
    cfg = one_object_config(vi=8, period=30, cost=0, retrieval=2, analysis=5,
                            deadline=25, arrival_t=4,
                            retrieval_mode="store_then_source", horizon=40)
    _, records, txns = run_outcomes(cfg)
    inst = txns["t1#0"]
    assert inst["state"] == "committed"
    assert inst["vi_restarts"] <= 1
    vias = [detail["via"] for _, kind, _, detail in records if kind == "access"]
    assert vias == ["store", "source"]


def test_on_demand_refresh_blocks_until_install():
    cfg = one_object_config(vi=20, period=10, cost=3, retrieval=0, analysis=2,
                            deadline=30, retrieval_mode="store",
                            policy=OnDemandPolicy())
    _, records, txns = run_outcomes(cfg)
    inst = txns["t1#0"]
    assert inst["state"] == "committed"
    # refresh launched at 0, installed at 3, analysis 3..5
    assert inst["commit_time"] == 5
    installs = [(t, detail["sample_time"]) for t, kind, _, detail in records
                if kind == "install"]
    assert installs == [(3, 0)]


def test_on_demand_shared_refresh_among_waiters():
    obj = ObjectSpec(id="o1", vi=20, update_period=10, update_cost=4,
                     value_process=ConstantProcess(value=1.0), policy=OnDemandPolicy())
    txns = [
        UserTxnSpec(id=f"t{i}", read_set=["o1"], retrieval_time={"o1": 0},
                    analysis_time={"o1": 2}, relative_deadline=30,
                    arrival=Arrival("oneshot", t=0), retrieval_mode="store")
        for i in (1, 2)
    ]
    cfg = SimConfig(horizon=40, mode=FreshnessMode.MULTIVERSION,
                    enforce_admission=False, seed=1, objects=[obj],
                    transactions=txns)
    _, records, txns = run_outcomes(cfg)
    decisions = [rec for rec in records if rec[1] == "update_decision"]
    assert len(decisions) == 1  # one refresh serves both waiters
    assert all(inst["state"] == "committed" for inst in txns.values())


def test_edf_prefers_earlier_absolute_deadline():
    obj = ObjectSpec(id="o1", vi=50, update_period=10, update_cost=0,
                     value_process=ConstantProcess(value=1.0), policy=PeriodicPolicy())
    mk = lambda tid, deadline: UserTxnSpec(
        id=tid, read_set=["o1"], retrieval_time={"o1": 2},
        analysis_time={"o1": 2}, relative_deadline=deadline,
        arrival=Arrival("oneshot", t=0), retrieval_mode="source")
    cfg = SimConfig(horizon=60, mode=FreshnessMode.CLASSICAL,
                    enforce_admission=False, seed=1, objects=[obj],
                    transactions=[mk("a", 30), mk("b", 20), mk("c", 25)])
    _, records, txns = run_outcomes(cfg)
    order = [subject for _, kind, subject, _ in records if kind == "access"]
    assert [s.split("#")[0] for s in order[:3]] == ["b", "c", "a"]
    commits = {iid.split("#")[0]: inst["commit_time"] for iid, inst in txns.items()}
    assert commits == {"b": 4, "c": 8, "a": 12}


def test_edf_tie_broken_by_spec_id():
    obj = ObjectSpec(id="o1", vi=50, update_period=10, update_cost=0,
                     value_process=ConstantProcess(value=1.0), policy=PeriodicPolicy())
    mk = lambda tid: UserTxnSpec(
        id=tid, read_set=["o1"], retrieval_time={"o1": 2},
        analysis_time={"o1": 2}, relative_deadline=20,
        arrival=Arrival("oneshot", t=0), retrieval_mode="source")
    cfg = SimConfig(horizon=60, mode=FreshnessMode.CLASSICAL,
                    enforce_admission=False, seed=1, objects=[obj],
                    transactions=[mk("z"), mk("a")])
    order = [subject for _, kind, subject, _ in run_records(cfg)[1] if kind == "access"]
    assert [s.split("#")[0] for s in order[:2]] == ["a", "z"]


def test_deadline_mid_analysis_means_missed():
    cfg = one_object_config(vi=30, retrieval=2, analysis=10, deadline=5)
    inst = run_outcomes(cfg)[2]["t1#0"]
    assert inst["state"] == "missed"
    assert inst["miss_time"] == 5


def test_commit_exactly_at_deadline_is_met():
    cfg = one_object_config(vi=30, retrieval=2, analysis=3, deadline=5)
    inst = run_outcomes(cfg)[2]["t1#0"]
    assert inst["state"] == "committed"
    assert inst["commit_time"] == 5


def test_in_flight_at_horizon_is_neither_committed_nor_missed():
    cfg = one_object_config(vi=30, retrieval=2, analysis=10, deadline=25,
                            arrival_t=35, horizon=40)
    report, _, txns = run_outcomes(cfg)
    inst = txns["t1#0"]
    assert inst["state"] not in ("committed", "missed")
    overall = report.overall
    assert overall.released == 1
    assert overall.committed == overall.missed == 0


def test_elastic_policy_stretches_period_and_vi():
    objects = [ObjectSpec(id=oid, vi=8, update_period=4, update_cost=1,
                          value_process=ConstantProcess(value=0.0),
                          policy=ElasticPolicy(target_utilization=0.4, elasticity=1.0))
               for oid in ("a", "b")]
    cfg = SimConfig(horizon=40, mode=FreshnessMode.CLASSICAL,
                    enforce_admission=False, seed=1, objects=objects, transactions=[])
    records = []
    sim = Simulator(cfg, sink=records.extend)
    sim.run()
    assert {oid: o.update_period for oid, o in sim.eff_objects.items()} == {"a": 5, "b": 5}
    assert sim.store.vis == {"a": 10, "b": 10}
    installs_a = [t for t, kind, subject, _ in records
                  if kind == "install" and subject == "a"]
    # releases on the stretched grid 0,5,...,40; the install launched at 40
    # lands past the horizon and never executes
    assert installs_a == [1, 6, 11, 16, 21, 26, 31, 36]


@pytest.mark.parametrize("horizon", [10**3, 10**9])
def test_scheduling_queues_one_release_per_stream(horizon):
    objects = [ObjectSpec(id=oid, vi=20, update_period=period, update_cost=1,
                          value_process=ConstantProcess(value=0.0), policy=policy)
               for oid, period, policy in (("a", 3, PeriodicPolicy()),
                                           ("b", 5, OnDemandPolicy()),
                                           ("c", 7, ElasticPolicy(target_utilization=0.6)))]
    arrivals = [Arrival("oneshot", t=5), Arrival("periodic", start=0, period=4),
                Arrival("poisson", mean_gap=3)]
    transactions = [UserTxnSpec(id=f"t{i}", read_set=["a"], retrieval_time={"a": 1},
                                analysis_time={"a": 1}, relative_deadline=10,
                                arrival=arrival, retrieval_mode="source")
                    for i, arrival in enumerate(arrivals)]
    sim = Simulator(SimConfig(horizon=horizon, mode=FreshnessMode.CLASSICAL,
                              enforce_admission=False, seed=1, objects=objects,
                              transactions=transactions))
    pushes = []
    push = sim.queue.push
    sim.queue.push = lambda *event: (pushes.append(event), push(*event))
    sim._schedule_workload()
    # one pending release per admitted class and per period of the
    # periodic streams, whatever the horizon: an arrival in the queue, or a
    # run in the list of its tick, which is queued once. Each periodic
    # stream is in exactly one run, with the other streams of its period,
    # and no on-demand stream has a refresh pending
    admitted = len(transactions) - len(sim.metrics.rejected)
    assert admitted == 3
    arrivals = sum(kind == TXN_ARRIVAL for _, kind, _, _, _ in sim.queue._heap)
    assert arrivals == admitted
    periodic = [o.id for o in objects if o.policy.kind != "ondemand"]
    assert list(sim._updates) == [0]
    runs, installs = sim._updates[0]
    members = [stream.object_id for run in runs for stream in run]
    assert sorted(members) == periodic == ["a", "c"]
    assert len(runs) == len({sim._streams[oid].period for oid in periodic})
    for run in runs:
        assert all(stream.periodic and stream.period == run[0].period for stream in run)
    assert installs == []
    assert len(pushes) == len(sim.queue) == arrivals + len(sim._updates)


def test_cost_0_install_joins_its_ticks_installs():
    # b (period 4, cost 2) installs at 2 and 6 what it released at 0 and 4;
    # a (period 2, cost 0) releases and installs at 2 and 6. a's install
    # joins the installs already queued for its tick, so the two run in
    # object id order, not in the order they were queued
    objects = [ObjectSpec(id=oid, vi=8, update_period=period, update_cost=cost,
                          value_process=ConstantProcess(value=0.0), policy=PeriodicPolicy())
               for oid, period, cost in (("a", 2, 0), ("b", 4, 2))]
    reader = UserTxnSpec(id="t1", read_set=["a"], retrieval_time={"a": 1},
                         analysis_time={"a": 1}, relative_deadline=10,
                         arrival=Arrival("oneshot", t=20), retrieval_mode="source")
    trace = run_records(SimConfig(horizon=8, mode=FreshnessMode.CLASSICAL,
                                  enforce_admission=False, seed=1, objects=objects,
                                  transactions=[reader]))[1]
    installs = [(t, subject) for t, kind, subject, _ in trace if kind == "install"]
    assert installs == [(0, "a"), (2, "a"), (2, "b"), (4, "a"), (6, "a"), (6, "b"),
                        (8, "a")]


class RefreshWithThePeriodicRuns(Simulator):
    """Queues a refresh of `b` into the entry of tick 6 before the run, and
    keeps the object ids of the runs first queued, at 0."""

    def _schedule_workload(self):
        super()._schedule_workload()
        self.first_runs = [[s.object_id for s in run] for run in self._updates[0][0]]
        stream = self._streams["b"]
        stream.refreshing = True
        self._updates_at(6)[0].append([stream])


def test_two_cohorts_and_a_refresh_release_in_object_id_order():
    # at 6 the run of period 2 (a, d) and that of period 3 (c) are due,
    # with a refresh of the on-demand b; e (period 5, cost 1) installs what
    # it released at 5, and the cost-0 installs of a and b join it. A
    # refresh that dispatch queues starts an entry of its own, so the test
    # queues this one with the periodic runs of its tick, where they merge
    objects = [ObjectSpec(id=oid, vi=20, update_period=period, update_cost=cost,
                          value_process=ConstantProcess(value=0.0),
                          policy=OnDemandPolicy() if oid == "b" else PeriodicPolicy())
               for oid, period, cost in (("a", 2, 0), ("b", 4, 0), ("c", 3, 1),
                                         ("d", 2, 1), ("e", 5, 1))]
    records = []
    sim = RefreshWithThePeriodicRuns(
        SimConfig(horizon=7, mode=FreshnessMode.CLASSICAL, enforce_admission=False,
                  seed=1, objects=objects, transactions=[]),
        sink=records.extend)
    sim.run()
    assert sorted(sim.first_runs) == [["a", "d"], ["c"], ["e"]]
    assert [(kind, subject) for t, kind, subject, _ in records
            if t == 6 and kind in ("update_decision", "install")] == [
        ("update_decision", "a"), ("update_decision", "b"), ("update_decision", "c"),
        ("update_decision", "d"), ("install", "a"), ("install", "b"), ("install", "e")]
    assert not sim._streams["b"].refreshing


def test_run_keeps_no_finished_instance():
    # a class that commits and one that cycles through vi restarts until it
    # misses; after the run only in-flight work may still be referenced
    obj = ObjectSpec(id="o1", vi=5, update_period=5, update_cost=1,
                     value_process=ConstantProcess(value=1.0), policy=PeriodicPolicy())
    specs = [UserTxnSpec(id=tid, read_set=["o1"], retrieval_time={"o1": retrieval},
                         analysis_time={"o1": analysis}, relative_deadline=deadline,
                         arrival=Arrival("periodic", start=0, period=4),
                         retrieval_mode="source")
             for tid, retrieval, analysis, deadline in (("ok", 1, 1, 6),
                                                        ("cycle", 2, 4, 8))]
    sim = Simulator(SimConfig(horizon=2000, mode=FreshnessMode.CLASSICAL,
                              enforce_admission=False, seed=1, objects=[obj],
                              transactions=specs))
    overall = sim.run().overall
    assert overall.released >= 1000 and overall.committed and overall.missed
    gc.collect()
    kept = [o for o in gc.get_objects()
            if isinstance(o, TxnInstance) and any(o.spec is s for s in specs)]
    assert len(kept) < 20


def _always_skip_config(vi, analysis, arrival_t, deadline):
    from freshsim.policies import SimilarityPolicy
    obj = ObjectSpec(id="o1", vi=vi, update_period=4, update_cost=0,
                     value_process=ConstantProcess(value=1.0),
                     policy=SimilarityPolicy(delta=99.0))
    txn = UserTxnSpec(id="t1", read_set=["o1"], retrieval_time={"o1": 0},
                      analysis_time={"o1": analysis},
                      relative_deadline=deadline,
                      arrival=Arrival("oneshot", t=arrival_t),
                      retrieval_mode="store")
    return SimConfig(horizon=40, mode=FreshnessMode.CLASSICAL,
                     enforce_admission=False, seed=3, objects=[obj],
                     transactions=[txn])


def test_skip_extension_wakes_waiting_reader():
    # arrival at 3 finds the t=0 version expired (vi=2); the skip at 4
    # confirms it, stretching validity to 6, and the waiter reads at 4
    _, records, txns = run_outcomes(_always_skip_config(vi=2, analysis=2, arrival_t=3,
                                                        deadline=20))
    inst = txns["t1#0"]
    assert inst["state"] == "committed"
    assert inst["commit_time"] == 6
    access = [(t, detail["staleness"]) for t, kind, _, detail in records
              if kind == "access"]
    assert access == [(4, 4)]


def test_skip_extension_defers_pinned_expiry():
    # the skip at 4 moves the pinned version's expiry from 6 to 10 while the
    # reader analyzes; the commit lands exactly on the extended boundary
    inst = run_outcomes(_always_skip_config(vi=6, analysis=9, arrival_t=1,
                                            deadline=30))[2]["t1#0"]
    assert inst["state"] == "committed"
    assert inst["commit_time"] == 10
    assert inst["restarts"] == 0


def test_trace_times_nondecreasing():
    cfg = one_object_config(vi=5, retrieval=2, analysis=4, deadline=30)
    times = [t for t, _, _, _ in run_records(cfg)[1]]
    assert times == sorted(times)


def test_determinism_identical_runs_identical_traces():
    from randgen import random_config
    for seed in (3, 17, 88):
        cfg = random_config(seed)
        first = run_records(cfg)[1]
        second = run_records(cfg)[1]
        assert hash_records(first) == hash_records(second)
        assert first == second


def test_multiversion_never_restarts_anything():
    from randgen import random_config
    for seed in range(40):
        cfg = random_config(seed, mode=FreshnessMode.MULTIVERSION)
        txns = run_outcomes(cfg)[2]
        assert all(inst["vi_restarts"] == 0 for inst in txns.values())
        assert all(inst["restarts"] == 0 for inst in txns.values())


def test_classical_serves_only_fresh_data():
    from randgen import random_config
    for seed in range(30):
        cfg = random_config(seed, mode=FreshnessMode.CLASSICAL)
        records = []
        sim = Simulator(cfg, sink=records.extend)
        sim.run()
        vis = sim.store.vis
        # skip-capable policies legitimately extend validity past the base vi
        rigid = {o.id for o in cfg.objects
                 if o.policy.kind in ("periodic", "ondemand", "elastic")}
        for _, kind, _, detail in records:
            if kind == "access" and detail["via"] == "store":
                obj = detail["object"]
                if obj in rigid:
                    assert detail["staleness"] <= vis[obj]


# -- hand-over and subclass hooks ----------------------------------------------

# golden configs (tests/test_golden.py) that together run every policy in
# both modes, on-demand objects read by store-mode readers among them
_HOOK_CONFIGS = (
    [f"oracle/{seed}" for seed in (*range(12), 1000, 1001, 1002, 2000, 2001, 2002)]
    + ["elastic/0", "elastic/1000", "elastic/2000",
       "acceptance/criterion2/classical", "acceptance/criterion2/multiversion",
       "acceptance/criterion6/ondemand", "acceptance/criterion7/2-3",
       "acceptance/criterion8/similarity", "acceptance/criterion8/linear"])


def _hook_configs():
    picked = {name: cfg for name, cfg in corpus() if name in _HOOK_CONFIGS}
    assert sorted(picked) == sorted(_HOOK_CONFIGS)
    configs = list(picked.values())
    assert {o.policy.kind for cfg in configs for o in cfg.objects} == {
        "periodic", "ondemand", "elastic", "mkfirm", "similarity", "prediction"}
    assert {cfg.mode for cfg in configs} == set(FreshnessMode)
    assert any(o.policy.kind == "ondemand" and o.id in txn.read_set
               for cfg in configs for txn in cfg.transactions
               if txn.retrieval_mode == "store" for o in cfg.objects)
    return configs


class SnapshotSink:
    """Keeps each batch it is handed, and a deep copy of it made then."""

    def __init__(self):
        self.batches = []

    def __call__(self, records):
        self.batches.append((records, copy.deepcopy(records)))


def test_records_are_never_changed_after_hand_over():
    # records may share one detail object, so neither the engine, nor the
    # aggregator, nor a later batch may change a record once it is handed over
    for cfg in _hook_configs():
        sink = SnapshotSink()
        Simulator(cfg, sink=sink).run()
        assert sink.batches, cfg.name
        for handed, copied in sink.batches:
            assert handed == copied, cfg.name
    # nor does a run change what the next run in the process records: the
    # `gc` records of installs' reclaims share one detail across runs
    cfg = mk_window_config(2, 3)
    records = run_records(cfg)[1]
    assert any(kind == "gc" for _, kind, _, _ in records)
    assert hash_records(run_records(cfg)[1]) == hash_records(records)


class WakeCountingSimulator(Simulator):
    """Counts its `_wake_waiters` calls, and those that found a waiter."""

    def __init__(self, config, watched):
        self.records = []
        super().__init__(config, sink=self.records.extend)
        if watched:
            watch_updates(self)
        self.wakes = 0
        self.found = 0

    def _wake_waiters(self, stream):
        self.wakes += 1
        self.found += len(stream.waiting) > 0
        super()._wake_waiters(stream)
        assert len(stream.waiting) == 0


def test_wake_waiters_runs_after_every_install_and_every_skip():
    # the hook contract above engine._HANDLERS, which the invariant and
    # pin-counting subclasses rely on: a run calls `_wake_waiters` after an
    # install or a skip only for an object that someone waits on, and a run
    # whose wait lists always read as non-empty calls it after each of them
    woken = 0
    saved = 0
    for cfg in _hook_configs():
        sim = WakeCountingSimulator(cfg, watched=False)
        sim.run()
        watched = WakeCountingSimulator(cfg, watched=True)
        watched.run()
        assert watched.records == sim.records, cfg.name
        expected = sum(
            kind == "install"
            or (kind == "update_decision" and detail["decision"] not in PERFORMED)
            for _, kind, _, detail in sim.records)
        assert watched.wakes == expected, cfg.name
        assert sim.wakes == sim.found == watched.found, cfg.name
        saved += expected - sim.wakes
        ondemand = {o.id for o in cfg.objects if o.policy.kind == "ondemand"}
        woken += any(kind == "access" and detail["via"] == "store"
                     and detail["object"] in ondemand
                     for _, kind, _, detail in sim.records)
    assert woken  # an on-demand refresh served a store-mode reader
    assert saved  # some install or skip found no one waiting
