"""Event-driven engine vs tick-by-tick oracle on randomized small configs,
and on hand-built ones whose update events share a tick."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freshsim.core import Arrival, FreshnessMode, ObjectSpec, UserTxnSpec
from freshsim.policies import MKFirmPolicy, OnDemandPolicy, PeriodicPolicy
from freshsim.workload import ConstantProcess, SimConfig

from randgen import random_config
from support import engine_outcomes, run_records
from tick_oracle import oracle_outcomes


def compare_seed(seed: int, **kwargs) -> None:
    cfg = random_config(seed, **kwargs)
    engine = engine_outcomes(cfg)
    oracle = oracle_outcomes(cfg)
    assert engine == oracle, f"divergence at generator seed {seed}"


def test_engine_matches_oracle_mixed_modes():
    for seed in range(120):
        compare_seed(seed)


def test_engine_matches_oracle_classical_only():
    for seed in range(1000, 1060):
        compare_seed(seed, mode=FreshnessMode.CLASSICAL)


def test_engine_matches_oracle_multiversion_only():
    for seed in range(2000, 2060):
        compare_seed(seed, mode=FreshnessMode.MULTIVERSION)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       mode=st.sampled_from([None, *FreshnessMode]),
       enforce=st.sampled_from([None, False, True]))
def test_engine_matches_oracle_on_drawn_configs(seed, mode, enforce):
    # None leaves the mode, or the admission gate, to the generator's seed
    compare_seed(seed, mode=mode, enforce=enforce)


def order_config(objects, readers, horizon=12) -> SimConfig:
    """Constant objects `(id, period, cost, policy)` and store readers
    `(id, read set, arrival tick)`, each object's analysis taking 1 tick."""
    specs = [ObjectSpec(id=oid, vi=8, update_period=period, update_cost=cost,
                        value_process=ConstantProcess(value=1.0), policy=policy)
             for oid, period, cost, policy in objects]
    txns = [UserTxnSpec(id=tid, read_set=read_set,
                        retrieval_time={o: 0 for o in read_set},
                        analysis_time={o: 1 for o in read_set},
                        relative_deadline=10 + i, arrival=Arrival("oneshot", t=t),
                        retrieval_mode="store")
            for i, (tid, read_set, t) in enumerate(readers)]
    return SimConfig(horizon=horizon, mode=FreshnessMode.CLASSICAL,
                     enforce_admission=False, seed=1, objects=specs,
                     transactions=txns)


@pytest.mark.parametrize("cfg, tick, expected", [
    # b (period 3) joins tick 6's release list at 3, a (period 2) at 4
    (order_config([("b", 3, 0, PeriodicPolicy()), ("a", 2, 0, PeriodicPolicy())],
                  [("t1", ["a", "b"], 5)]),
     6, [("update_decision", "a"), ("update_decision", "b"),
         ("install", "a"), ("install", "b")]),
    # z's install, launched at 0, is queued for 3 before a's cost-0 install
    # joins it from a's release at 3
    (order_config([("z", 6, 3, PeriodicPolicy()), ("a", 3, 0, PeriodicPolicy())],
                  [("t1", ["z", "a"], 1)]),
     3, [("update_decision", "a"), ("install", "a"), ("install", "z")]),
    # c's list at 2 has run when dispatch queues the refreshes of b (the
    # earlier deadline) and then a: a new list at 2, run in the next pass
    (order_config([("b", 5, 0, OnDemandPolicy()), ("a", 5, 0, OnDemandPolicy()),
                   ("c", 2, 0, PeriodicPolicy())],
                  [("t1", ["b"], 2), ("t2", ["a"], 2)]),
     2, [("update_decision", "c"), ("install", "c"),
         ("update_decision", "a"), ("update_decision", "b"),
         ("install", "a"), ("install", "b")]),
], ids=["appended-out-of-id-order", "cost-0-install-joins-its-tick",
        "two-refreshes-from-one-dispatch"])
def test_update_events_of_a_tick_run_in_object_id_order(cfg, tick, expected):
    trace = run_records(cfg)[1]
    assert [(kind, subject) for t, kind, subject, _ in trace
            if t == tick and kind in ("update_decision", "install")] == expected
    assert engine_outcomes(cfg) == oracle_outcomes(cfg)


@pytest.mark.parametrize("cost", [0, 1, 3])
@pytest.mark.parametrize("m, k", [(3, 7), (5, 12), (1, 1000), (998, 1000)])
def test_engine_matches_oracle_on_mkfirm_past_the_generators_k(m, k, cost):
    # the generator draws k <= 5; at a cost of one period (3) the release at
    # 3 comes before the first install, so two performs are forced
    cfg = order_config([("o", 3, cost, MKFirmPolicy(m=m, k=k))],
                       [("t1", ["o"], 5)], horizon=60)
    engine = engine_outcomes(cfg)
    assert engine == oracle_outcomes(cfg)
    decisions = [d for _, d, _ in engine["decisions"]["o"]]
    forced = 2 if cost == 3 else 1
    # every (m, k) here skips k - m >= 2 instances after the cold start
    assert decisions[:forced + 1] == ["perform"] * forced + ["skip"]
