import json

import pytest

from freshsim.core import Arrival, FreshnessMode, ObjectSpec, UserTxnSpec
from freshsim.engine import Simulator
from freshsim.metrics import trace_hash
from freshsim.policies import ElasticPolicy, OnDemandPolicy, PeriodicPolicy
from freshsim.workload import ConstantProcess, SimConfig

from support import engine_outcomes, one_object_config, run_config


def test_empty_workload_is_vacuous():
    cfg = SimConfig(horizon=100, mode=FreshnessMode.CLASSICAL,
                    enforce_admission=False, seed=1, objects=[], policies={},
                    transactions=[])
    result = run_config(cfg)
    assert result.instances == []
    assert result.trace == []
    assert result.report.overall.released == 0
    assert result.report.overall.miss_ratio == 0.0


def test_feasible_source_txn_commits_first_attempt():
    # vi=10, R=2, A=3: sample at 0 stays fresh through the commit at 5
    cfg = one_object_config(vi=10, period=5, cost=0, retrieval=2, analysis=3,
                            deadline=20)
    result = run_config(cfg)
    inst = result.instances[0]
    assert inst.state == "committed"
    assert inst.commit_time == 5
    assert inst.restart_count == 0


def test_infeasible_source_txn_cycles_until_deadline():
    # the unbounded reacquire/reanalyze cycle: restart every vi ticks
    cfg = one_object_config(vi=5, retrieval=2, analysis=4, deadline=30)
    result = run_config(cfg)
    inst = result.instances[0]
    assert inst.state == "missed"
    assert inst.miss_time == 30
    assert inst.vi_restart_count == 6
    restarts = [rec["t"] for rec in result.trace if rec["kind"] == "restart"]
    assert restarts == [5, 10, 15, 20, 25, 30]


def test_boundary_feasibility_commits_exactly_at_expiry():
    # R + A == vi: analysis completes at the expiry instant and still commits
    cfg = one_object_config(vi=6, retrieval=2, analysis=4, deadline=30)
    result = run_config(cfg)
    inst = result.instances[0]
    assert inst.state == "committed"
    assert inst.commit_time == 6
    assert inst.vi_restart_count == 0


def test_store_serve_costs_only_analysis_time():
    # cached read: analysis starts at the access instant
    cfg = one_object_config(vi=5, period=5, cost=0, retrieval=0, analysis=4,
                            deadline=18, retrieval_mode="store")
    result = run_config(cfg)
    inst = result.instances[0]
    assert inst.state == "committed"
    assert inst.commit_time == 4
    assert inst.restart_count == 0


def test_classical_store_reader_restarts_on_expiry_then_rereads():
    cfg = one_object_config(vi=5, period=5, cost=0, retrieval=0, analysis=4,
                            deadline=17, arrival_t=3, retrieval_mode="store")
    result = run_config(cfg)
    inst = result.instances[0]
    assert inst.state == "committed"
    assert inst.vi_restart_count == 1
    assert inst.commit_time == 9  # restarted at 5, re-read the t=5 version


def test_multiversion_reader_continues_past_expiry():
    cfg = one_object_config(vi=5, period=5, cost=0, retrieval=0, analysis=4,
                            deadline=17, arrival_t=3, retrieval_mode="store",
                            mode=FreshnessMode.MULTIVERSION)
    result = run_config(cfg)
    inst = result.instances[0]
    assert inst.state == "committed"
    assert inst.commit_time == 7
    assert inst.restart_count == 0
    commits = [r for r in result.trace if r["kind"] == "commit"]
    assert commits[0]["detail"]["stale_at_commit"] is True


def test_superseded_classical_reader_restarts_multiversion_continues():
    # the reader pins the t=0 version at 3; the t=5 install replaces it
    # while the analysis (3..7) runs, long before its expiry at 50
    def run(mode):
        return run_config(one_object_config(
            vi=50, period=5, cost=0, retrieval=0, analysis=4, deadline=30,
            arrival_t=3, retrieval_mode="store", mode=mode))

    classical = run(FreshnessMode.CLASSICAL)
    restarts = [(r["t"], r["detail"]) for r in classical.trace if r["kind"] == "restart"]
    assert restarts == [(5, {"cause": "superseded", "object": "o1"})]
    inst = classical.instances[0]
    assert (inst.state, inst.commit_time, inst.vi_restart_count) == ("committed", 9, 0)

    inst = run(FreshnessMode.MULTIVERSION).instances[0]
    assert (inst.state, inst.commit_time, inst.restart_count) == ("committed", 7, 0)


def test_admission_gate_blocks_infeasible_release():
    cfg = one_object_config(vi=5, retrieval=2, analysis=4, enforce=True)
    result = run_config(cfg)
    assert result.instances == []
    assert result.report.rejected == ["t1"]
    assert result.report.overall.released == 0


def test_store_then_source_falls_back_and_commits():
    # cold store at t=0 with no periodic update until t=10: fetch from source
    cfg = one_object_config(vi=10, period=10, cost=5, retrieval=2, analysis=3,
                            deadline=20, retrieval_mode="store_then_source")
    result = run_config(cfg)
    inst = result.instances[0]
    assert inst.state == "committed"
    assert inst.commit_time == 5
    access = [r for r in result.trace if r["kind"] == "access"]
    assert access[0]["detail"]["via"] == "source"


def test_cached_read_bound_single_vi_restart_then_source():
    # feasible work that starts on an aging cached version: at most one
    # vi-induced restart, then the source acquisition completes
    cfg = one_object_config(vi=8, period=30, cost=0, retrieval=2, analysis=5,
                            deadline=25, arrival_t=4,
                            retrieval_mode="store_then_source", horizon=40)
    result = run_config(cfg)
    inst = result.instances[0]
    assert inst.state == "committed"
    assert inst.vi_restart_count <= 1
    vias = [r["detail"]["via"] for r in result.trace if r["kind"] == "access"]
    assert vias == ["store", "source"]


def test_on_demand_refresh_blocks_until_install():
    cfg = one_object_config(vi=20, period=10, cost=3, retrieval=0, analysis=2,
                            deadline=30, retrieval_mode="store",
                            policy=OnDemandPolicy())
    result = run_config(cfg)
    inst = result.instances[0]
    assert inst.state == "committed"
    # refresh launched at 0, installed at 3, analysis 3..5
    assert inst.commit_time == 5
    installs = [r for r in result.trace if r["kind"] == "install"]
    assert [(r["t"], r["detail"]["sample_time"]) for r in installs] == [(3, 0)]


def test_on_demand_shared_refresh_among_waiters():
    obj = ObjectSpec(id="o1", vi=20, update_period=10, update_cost=4,
                     value_process=ConstantProcess(value=1.0))
    txns = [
        UserTxnSpec(id=f"t{i}", read_set=["o1"], retrieval_time={"o1": 0},
                    analysis_time={"o1": 2}, relative_deadline=30,
                    arrival=Arrival("oneshot", t=0), retrieval_mode="store")
        for i in (1, 2)
    ]
    cfg = SimConfig(horizon=40, mode=FreshnessMode.MULTIVERSION,
                    enforce_admission=False, seed=1, objects=[obj],
                    policies={"o1": OnDemandPolicy()}, transactions=txns)
    result = run_config(cfg)
    decisions = [r for r in result.trace if r["kind"] == "update_decision"]
    assert len(decisions) == 1  # one refresh serves both waiters
    assert all(i.state == "committed" for i in result.instances)


def test_edf_prefers_earlier_absolute_deadline():
    obj = ObjectSpec(id="o1", vi=50, update_period=10, update_cost=0,
                     value_process=ConstantProcess(value=1.0))
    mk = lambda tid, deadline: UserTxnSpec(
        id=tid, read_set=["o1"], retrieval_time={"o1": 2},
        analysis_time={"o1": 2}, relative_deadline=deadline,
        arrival=Arrival("oneshot", t=0), retrieval_mode="source")
    cfg = SimConfig(horizon=60, mode=FreshnessMode.CLASSICAL,
                    enforce_admission=False, seed=1, objects=[obj],
                    policies={"o1": PeriodicPolicy()},
                    transactions=[mk("a", 30), mk("b", 20), mk("c", 25)])
    result = run_config(cfg)
    order = [r["subject"] for r in result.trace if r["kind"] == "access"]
    assert [s.split("#")[0] for s in order[:3]] == ["b", "c", "a"]
    commits = {i.spec.id: i.commit_time for i in result.instances}
    assert commits == {"b": 4, "c": 8, "a": 12}


def test_edf_tie_broken_by_spec_id():
    obj = ObjectSpec(id="o1", vi=50, update_period=10, update_cost=0,
                     value_process=ConstantProcess(value=1.0))
    mk = lambda tid: UserTxnSpec(
        id=tid, read_set=["o1"], retrieval_time={"o1": 2},
        analysis_time={"o1": 2}, relative_deadline=20,
        arrival=Arrival("oneshot", t=0), retrieval_mode="source")
    cfg = SimConfig(horizon=60, mode=FreshnessMode.CLASSICAL,
                    enforce_admission=False, seed=1, objects=[obj],
                    policies={"o1": PeriodicPolicy()},
                    transactions=[mk("z"), mk("a")])
    result = run_config(cfg)
    order = [r["subject"] for r in result.trace if r["kind"] == "access"]
    assert [s.split("#")[0] for s in order[:2]] == ["a", "z"]


def test_deadline_mid_analysis_means_missed():
    cfg = one_object_config(vi=30, retrieval=2, analysis=10, deadline=5)
    result = run_config(cfg)
    inst = result.instances[0]
    assert inst.state == "missed"
    assert inst.miss_time == 5


def test_commit_exactly_at_deadline_is_met():
    cfg = one_object_config(vi=30, retrieval=2, analysis=3, deadline=5)
    result = run_config(cfg)
    inst = result.instances[0]
    assert inst.state == "committed"
    assert inst.commit_time == 5


def test_in_flight_at_horizon_is_neither_committed_nor_missed():
    cfg = one_object_config(vi=30, retrieval=2, analysis=10, deadline=25,
                            arrival_t=35, horizon=40)
    result = run_config(cfg)
    inst = result.instances[0]
    assert inst.state not in ("committed", "missed")
    overall = result.report.overall
    assert overall.released == 1
    assert overall.committed == overall.missed == 0
    assert overall.in_flight == 1


def test_elastic_policy_stretches_period_and_vi():
    objects = [
        ObjectSpec(id="a", vi=8, update_period=4, update_cost=1,
                   value_process=ConstantProcess(value=0.0)),
        ObjectSpec(id="b", vi=8, update_period=4, update_cost=1,
                   value_process=ConstantProcess(value=0.0)),
    ]
    policies = {"a": ElasticPolicy(target_utilization=0.4, elasticity=1.0),
                "b": ElasticPolicy(target_utilization=0.4, elasticity=1.0)}
    cfg = SimConfig(horizon=40, mode=FreshnessMode.CLASSICAL,
                    enforce_admission=False, seed=1, objects=objects,
                    policies=policies, transactions=[])
    result = run_config(cfg)
    assert result.effective_periods == {"a": 5, "b": 5}
    assert result.effective_vis == {"a": 10, "b": 10}
    installs_a = [r["t"] for r in result.trace
                  if r["kind"] == "install" and r["subject"] == "a"]
    # releases on the stretched grid 0,5,...,40; the install launched at 40
    # lands past the horizon and never executes
    assert installs_a == [1, 6, 11, 16, 21, 26, 31, 36]


@pytest.mark.parametrize("horizon", [10**3, 10**9])
def test_scheduling_queues_one_release_per_stream(horizon):
    objects = [ObjectSpec(id=oid, vi=20, update_period=period, update_cost=1,
                          value_process=ConstantProcess(value=0.0))
               for oid, period in (("a", 3), ("b", 5), ("c", 7))]
    policies = {"a": PeriodicPolicy(), "b": OnDemandPolicy(),
                "c": ElasticPolicy(target_utilization=0.6)}
    arrivals = [Arrival("oneshot", t=5), Arrival("periodic", start=0, period=4),
                Arrival("poisson", mean_gap=3)]
    transactions = [UserTxnSpec(id=f"t{i}", read_set=["a"], retrieval_time={"a": 1},
                                analysis_time={"a": 1}, relative_deadline=10,
                                arrival=arrival, retrieval_mode="source")
                    for i, arrival in enumerate(arrivals)]
    sim = Simulator(SimConfig(horizon=horizon, mode=FreshnessMode.CLASSICAL,
                              enforce_admission=False, seed=1, objects=objects,
                              policies=policies, transactions=transactions))
    pushes = []
    push = sim.queue.push
    sim.queue.push = lambda *event: (pushes.append(event), push(*event))
    sim._schedule_workload()
    # one pending release per admitted class and per periodically updated
    # object, whatever the horizon
    streams = len(sim.admitted) + sum(p.kind != "ondemand" for p in policies.values())
    assert streams == 5
    assert len(pushes) == len(sim.queue) == streams


def _always_skip_config(vi, analysis, arrival_t, deadline):
    from freshsim.policies import SimilarityPolicy
    obj = ObjectSpec(id="o1", vi=vi, update_period=4, update_cost=0,
                     value_process=ConstantProcess(value=1.0))
    txn = UserTxnSpec(id="t1", read_set=["o1"], retrieval_time={"o1": 0},
                      analysis_time={"o1": analysis},
                      relative_deadline=deadline,
                      arrival=Arrival("oneshot", t=arrival_t),
                      retrieval_mode="store")
    return SimConfig(horizon=40, mode=FreshnessMode.CLASSICAL,
                     enforce_admission=False, seed=3, objects=[obj],
                     policies={"o1": SimilarityPolicy(delta=99.0)},
                     transactions=[txn])


def test_skip_extension_wakes_waiting_reader():
    # arrival at 3 finds the t=0 version expired (vi=2); the skip at 4
    # confirms it, stretching validity to 6, and the waiter reads at 4
    result = run_config(_always_skip_config(vi=2, analysis=2, arrival_t=3,
                                            deadline=20))
    inst = result.instances[0]
    assert inst.state == "committed"
    assert inst.commit_time == 6
    access = [r for r in result.trace if r["kind"] == "access"]
    assert [(r["t"], r["detail"]["staleness"]) for r in access] == [(4, 4)]


def test_skip_extension_defers_pinned_expiry():
    # the skip at 4 moves the pinned version's expiry from 6 to 10 while the
    # reader analyzes; the commit lands exactly on the extended boundary
    result = run_config(_always_skip_config(vi=6, analysis=9, arrival_t=1,
                                            deadline=30))
    inst = result.instances[0]
    assert inst.state == "committed"
    assert inst.commit_time == 10
    assert inst.restart_count == 0


def test_trace_times_nondecreasing():
    cfg = one_object_config(vi=5, retrieval=2, analysis=4, deadline=30)
    result = run_config(cfg)
    times = [rec["t"] for rec in result.trace]
    assert times == sorted(times)


def test_determinism_identical_runs_identical_traces():
    from randgen import random_config
    for seed in (3, 17, 88):
        cfg = random_config(seed)
        first = run_config(cfg)
        second = run_config(cfg)
        assert trace_hash(first.trace) == trace_hash(second.trace)
        assert first.trace == second.trace


def test_multiversion_never_restarts_anything():
    from randgen import random_config
    for seed in range(40):
        cfg = random_config(seed, mode=FreshnessMode.MULTIVERSION)
        result = run_config(cfg)
        assert all(i.vi_restart_count == 0 for i in result.instances)
        assert all(i.restart_count == 0 for i in result.instances)


def test_classical_serves_only_fresh_data():
    from randgen import random_config
    for seed in range(30):
        cfg = random_config(seed, mode=FreshnessMode.CLASSICAL)
        result = run_config(cfg)
        vis = result.effective_vis
        # skip-capable policies legitimately extend validity past the base vi
        rigid = {oid for oid, p in cfg.policies.items()
                 if p.kind in ("periodic", "ondemand", "elastic")}
        for rec in result.trace:
            if rec["kind"] == "access" and rec["detail"]["via"] == "store":
                obj = rec["detail"]["object"]
                if obj in rigid:
                    assert rec["detail"]["staleness"] <= vis[obj]
