"""Worked example: the full v2 trace of a tiny config, written out by hand.

Two objects and three transaction classes, admission enforced, horizon 12:

* `a`: constant 1.0, vi 6, updated every 4 ticks at cost 1, so each version
  is replaced (at sample time + 5) before it expires (at sample time + 6).
* `b`: a random walk, vi 4, updated every 8 ticks at cost 0 under a
  similarity dead band of 5, so its second update is skipped.
* `x` reads `a` from the source with R + A = 7 > vi 6: rejected at 0.
* `e` reads `b` store-then-source (R 1, A 3) from 2, deadline 7.
* `s` reads `a` from the store (R 0, A 3) from 4, deadline 14.

Classical mode restarts a holder at expiry, so it never commits stale; the
same config in multiversion mode gives the stale commit.
"""

from freshsim.core import Arrival, FreshnessMode, ObjectSpec, UserTxnSpec
from freshsim.metrics import TraceLines
from freshsim.policies import PeriodicPolicy, SimilarityPolicy
from freshsim.workload import ConstantProcess, RandomWalkProcess, SimConfig

from support import run_records

WALK = RandomWalkProcess(start=0.0, step_sigma=1.0, seed=0)
# b's walk after one step, sampled at 8 = one update period
B_AT_8 = -0.2155158270894896


def worked_config(mode: FreshnessMode) -> SimConfig:
    objects = [ObjectSpec(id="a", vi=6, update_period=4, update_cost=1,
                          value_process=ConstantProcess(value=1.0), policy=PeriodicPolicy()),
               ObjectSpec(id="b", vi=4, update_period=8, update_cost=0,
                          value_process=WALK, policy=SimilarityPolicy(delta=5.0))]

    def txn(tid, obj, retrieval_mode, retrieval, analysis, release, deadline):
        return UserTxnSpec(id=tid, read_set=[obj], retrieval_time={obj: retrieval},
                           analysis_time={obj: analysis}, relative_deadline=deadline,
                           arrival=Arrival("oneshot", t=release),
                           retrieval_mode=retrieval_mode)

    return SimConfig(
        horizon=12, mode=mode, enforce_admission=True, seed=1, objects=objects,
        transactions=[txn("x", "a", "source", 4, 3, 0, 10),
                      txn("e", "b", "store_then_source", 1, 3, 2, 5),
                      txn("s", "a", "store", 0, 3, 4, 10)])


PERFORM_A = {"decision": "perform", "sampled": 1.0}
# the skip keeps 0.0 in the store: the one record that carries sink_value
SKIP_B = {"decision": "skip", "sampled": B_AT_8, "sink_value": 0.0, "stored": 0.0}

# events at one instant settle as arrival < retrieval-done < analysis-done
# < vi-expiry < update-release < update-install < deadline, then dispatch
CLASSICAL = [
    (0, "txn_rejected", "x", {"failing": ["a"]}),
    (0, "update_decision", "a", PERFORM_A),
    (0, "update_decision", "b", {"decision": "perform", "sampled": 0.0, "stored": None}),
    (0, "install", "b", {"seq": 1, "sample_time": 0}),
    (1, "install", "a", {"seq": 1, "sample_time": 0}),
    (2, "txn_released", "e#0", {"class": "e", "deadline": 7}),
    # b#1 is valid until 4; analysis would end at 5
    (2, "access", "e#0", {"object": "b", "via": "store", "value": 0.0, "staleness": 2}),
    (4, "txn_released", "s#0", {"class": "s", "deadline": 14}),
    (4, "restart", "e#0", {"cause": "vi_expiry", "object": "b"}),
    (4, "update_decision", "a", PERFORM_A),
    # after the expiry e reads b from the source; earliest deadline first
    # keeps s waiting for the processor
    (4, "access", "e#0", {"object": "b", "via": "source", "value": 0.0, "staleness": 0}),
    (5, "install", "a", {"seq": 2, "sample_time": 4}),
    (5, "gc", "a", {"reclaimed": 1}),
    # e's analysis (5..8) runs past its deadline
    (7, "miss", "e#0", {}),
    (7, "access", "s#0", {"object": "a", "via": "store", "value": 1.0, "staleness": 3}),
    (8, "update_decision", "a", PERFORM_A),
    (8, "update_decision", "b", SKIP_B),
    # a#3 replaces the a#2 that s pins: s restarts and re-reads
    (9, "install", "a", {"seq": 3, "sample_time": 8}),
    (9, "restart", "s#0", {"cause": "superseded", "object": "a"}),
    (9, "gc", "a", {"reclaimed": 1}),
    (9, "access", "s#0", {"object": "a", "via": "store", "value": 1.0, "staleness": 1}),
    (12, "commit", "s#0", {"stale_at_commit": False, "stale_objects": []}),
    (12, "update_decision", "a", PERFORM_A),
]

MULTIVERSION = [
    (0, "txn_rejected", "x", {"failing": ["a"]}),
    (0, "update_decision", "a", PERFORM_A),
    (0, "update_decision", "b", {"decision": "perform", "sampled": 0.0, "stored": None}),
    (0, "install", "b", {"seq": 1, "sample_time": 0}),
    (1, "install", "a", {"seq": 1, "sample_time": 0}),
    (2, "txn_released", "e#0", {"class": "e", "deadline": 7}),
    (2, "access", "e#0", {"object": "b", "via": "store", "value": 0.0, "staleness": 2}),
    (4, "txn_released", "s#0", {"class": "s", "deadline": 14}),
    (4, "update_decision", "a", PERFORM_A),
    # no restart at b#1's expiry: e finishes on it, one tick past its validity
    (5, "commit", "e#0", {"stale_at_commit": True, "stale_objects": ["b"]}),
    (5, "install", "a", {"seq": 2, "sample_time": 4}),
    (5, "gc", "a", {"reclaimed": 1}),
    (5, "access", "s#0", {"object": "a", "via": "store", "value": 1.0, "staleness": 1}),
    (8, "commit", "s#0", {"stale_at_commit": False, "stale_objects": []}),
    (8, "update_decision", "a", PERFORM_A),
    (8, "update_decision", "b", SKIP_B),
    (9, "install", "a", {"seq": 3, "sample_time": 8}),
    (9, "gc", "a", {"reclaimed": 1}),
    (12, "update_decision", "a", PERFORM_A),
]


def test_walk_value_is_the_reference_walk():
    assert WALK.value_at(8, 1, run_seed=1, object_id="b") == B_AT_8


def test_classical_worked_trace():
    report, records = run_records(worked_config(FreshnessMode.CLASSICAL))
    assert records == CLASSICAL
    assert report.rejected == ["x"]
    o = report.overall
    assert (o.released, o.committed, o.missed, o.restarts, o.vi_restarts) == (2, 1, 1, 2, 1)
    assert (report.updates_performed, report.updates_skipped) == (5, 1)
    # rebuilt from the skip's sink_value; every other decision left it out
    assert report.max_sink_error == abs(B_AT_8)


def test_multiversion_worked_trace_commits_stale():
    report, records = run_records(worked_config(FreshnessMode.MULTIVERSION))
    assert records == MULTIVERSION
    o = report.overall
    assert (o.committed, o.missed, o.restarts, o.stale_at_commit) == (2, 0, 0, 1)
    assert report.per_object["b"].stale_at_commit == 1


def test_worked_trace_lines():
    sink = TraceLines()
    sink(CLASSICAL)
    text = b"".join(sink.blocks).decode("utf-8")
    lines = text.splitlines()
    assert lines[0] == '[0,"txn_rejected","x",{"failing":["a"]}]'
    assert lines[16] == ('[8,"update_decision","b",{"decision":"skip",'
                         '"sampled":-0.2155158270894896,"sink_value":0.0,"stored":0.0}]')
    assert lines[13] == '[7,"miss","e#0",{}]'
    assert text.endswith('[12,"update_decision","a",{"decision":"perform","sampled":1.0}]\n')
