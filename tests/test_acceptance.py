"""Acceptance suite: every release criterion, each printing one line.

All scenarios are desk scale and deterministic; tolerances are exact.
"""

import json
from contextlib import contextmanager

from freshsim.cli import main
from freshsim.core import Arrival, FreshnessMode, ObjectSpec, UserTxnSpec
from freshsim.engine import Simulator
from freshsim.metrics import emit_csv_rows
from freshsim.policies import (
    MKFirmPolicy,
    OnDemandPolicy,
    PeriodicPolicy,
    PredictionPolicy,
    SimilarityPolicy,
    elastic_rescale,
)
from freshsim.workload import ConstantProcess, RandomWalkProcess, SimConfig

from randgen import feasible_isolated_config, random_config
from support import (
    engine_outcomes,
    hash_records,
    one_object_config,
    outcomes,
    run_outcomes,
    run_records,
    watch_updates,
)
from tick_oracle import oracle_outcomes


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {title}")
        raise
    print(f"[PASS] criterion {number}: {title}")


CHECK_DOC = {
    "horizon": 40,
    "mode": "classical",
    "enforce_admission": False,
    "seed": 1,
    "objects": [{"id": "o1", "vi": 5, "period": 10, "cost": 0,
                 "process": {"kind": "constant", "value": 1.0},
                 "policy": {"kind": "periodic"}}],
    "transactions": [{"id": "t1", "read_set": ["o1"],
                      "retrieval": {"o1": 2}, "analysis": {"o1": 4},
                      "deadline": 30,
                      "arrival": {"kind": "oneshot", "t": 0},
                      "retrieval_mode": "source"}],
}

# Golden value for criterion 1, derived with the tick-level oracle before the
# build and pinned: one restart per validity interval (t = 5,10,15,20,25,30).
GOLDEN_VI_RESTARTS = 6


def infeasible_restart_config():
    return one_object_config(vi=5, period=10, cost=0, retrieval=2, analysis=4,
                             deadline=30, horizon=40)


def mv_continuation_config(mode):
    return one_object_config(vi=5, period=5, cost=0, retrieval=0, analysis=4,
                             deadline=17, arrival_t=3, retrieval_mode="store",
                             mode=mode, horizon=20)


def on_demand_savings_config(policy):
    obj = ObjectSpec(id="o1", vi=20, update_period=10, update_cost=1,
                     value_process=ConstantProcess(value=1.0), policy=policy)
    txn = UserTxnSpec(id="t1", read_set=["o1"],
                      retrieval_time={"o1": 0},
                      analysis_time={"o1": 1},
                      relative_deadline=50,
                      arrival=Arrival("poisson", mean_gap=100),
                      retrieval_mode="store")
    return SimConfig(horizon=1000, mode=FreshnessMode.MULTIVERSION,
                     enforce_admission=False, seed=11, objects=[obj],
                     transactions=[txn])


def mk_window_config(m, k):
    obj = ObjectSpec(id="o1", vi=20, update_period=10, update_cost=0,
                     value_process=ConstantProcess(value=1.0),
                     policy=MKFirmPolicy(m=m, k=k))
    return SimConfig(horizon=990, mode=FreshnessMode.MULTIVERSION,
                     enforce_admission=False, seed=m * 10 + k,
                     objects=[obj], transactions=[])


def error_bound_config(policy):
    obj = ObjectSpec(id="o1", vi=2, update_period=1, update_cost=0,
                     value_process=RandomWalkProcess(start=0.0, step_sigma=0.3,
                                                     seed=5),
                     policy=policy)
    return SimConfig(horizon=999, mode=FreshnessMode.MULTIVERSION,
                     enforce_admission=False, seed=23, objects=[obj],
                     transactions=[])


def test_criterion_1_infeasible_restart_reproduction():
    with criterion(1, "unbounded restart cycle misses its deadline exactly"):
        cfg = infeasible_restart_config()
        oracle = oracle_outcomes(cfg)["txns"]["t1#0"]
        assert oracle["state"] == "missed"
        assert oracle["miss_time"] == 30
        assert oracle["vi_restarts"] == GOLDEN_VI_RESTARTS

        inst = run_outcomes(cfg)[2]["t1#0"]
        assert inst["state"] == "missed"
        assert inst["miss_time"] == 30
        assert inst["vi_restarts"] == GOLDEN_VI_RESTARTS
        assert inst["restarts"] == GOLDEN_VI_RESTARTS


def test_criterion_2_multiversion_continuation():
    with criterion(2, "classical restarts where multiversion continues"):
        _, records, txns = run_outcomes(mv_continuation_config(FreshnessMode.CLASSICAL))
        inst = txns["t1#0"]
        assert inst["vi_restarts"] == 1
        restarts = [t for t, kind, _, _ in records if kind == "restart"]
        assert restarts == [5]            # expiry instant of the t=0 version
        assert inst["commit_time"] == 9   # re-read of the t=5 version

        inst = run_outcomes(mv_continuation_config(FreshnessMode.MULTIVERSION))[2]["t1#0"]
        assert inst["state"] == "committed"
        assert inst["commit_time"] == 7
        assert inst["vi_restarts"] == 0


def test_criterion_3_admission_gate_exit_codes(tmp_path):
    with criterion(3, "check exits 1 when infeasible, 0 at the boundary"):
        path = tmp_path / "infeasible.json"
        path.write_text(json.dumps(CHECK_DOC), encoding="utf-8")
        assert main(["check", str(path)]) == 1

        feasible = json.loads(json.dumps(CHECK_DOC))
        feasible["objects"][0]["vi"] = 6   # R + A = 6 <= 6
        path = tmp_path / "feasible.json"
        path.write_text(json.dumps(feasible), encoding="utf-8")
        assert main(["check", str(path)]) == 0


def test_criterion_4_feasible_commit_bound():
    with criterion(4, "feasible isolated source reads commit on first attempt"):
        for seed in range(200):
            cfg = feasible_isolated_config(seed)
            inst = run_outcomes(cfg)[2]["t0#0"]
            assert inst["state"] == "committed", f"seed {seed}"
            assert inst["restarts"] == 0, f"seed {seed}"
            first_work = cfg.transactions[0].arrival.t  # the one release
            expected = (first_work + cfg.transactions[0].retrieval_time["o0"]
                        + cfg.transactions[0].analysis_time["o0"])
            assert inst["commit_time"] == expected, f"seed {seed}"


class PinCountingSimulator(Simulator):
    """Keeps each object's peak number of pins, counted from the holders of
    its chain right after each install's sweep, when the aggregator samples
    its live versions, and after each skip, and every trace record."""

    def __init__(self, config):
        self.records = []
        super().__init__(config, sink=self.records.extend)
        watch_updates(self)
        self.peak_pins = {}

    def _wake_waiters(self, stream):
        object_id = stream.object_id
        pins = sum(len(v.holders) for v in stream.chain)
        self.peak_pins[object_id] = max(self.peak_pins.get(object_id, 0), pins)
        super()._wake_waiters(stream)


MV_SWEEP_RESULTS = []


def mv_sweep_runs():
    """(report, outcomes, peak pins per object) of 200 multiversion runs."""
    if not MV_SWEEP_RESULTS:
        for seed in range(200):
            sim = PinCountingSimulator(random_config(
                seed, mode=FreshnessMode.MULTIVERSION, horizon_range=(30, 150)))
            MV_SWEEP_RESULTS.append((sim.run(), outcomes(sim, sim.records), sim.peak_pins))
    return MV_SWEEP_RESULTS


def test_criterion_5_multiversion_zero_restart_sweep():
    with criterion(5, "multiversion never restarts across 200 random configs"):
        total = 0
        for _, txns, _ in mv_sweep_runs():
            total += sum(inst["vi_restarts"] for inst in txns.values())
        assert total == 0


def test_criterion_6_on_demand_savings():
    with criterion(6, "on-demand updates bounded by accesses, periodic exact"):
        periodic = Simulator(on_demand_savings_config(PeriodicPolicy())).run()
        assert periodic.updates_performed == 1000 // 10 + 1  # 101

        ondemand = Simulator(on_demand_savings_config(OnDemandPolicy())).run()
        accesses = ondemand.overall.released
        assert accesses > 0
        assert ondemand.updates_performed <= accesses
        assert ondemand.updates_performed < periodic.updates_performed


def test_criterion_7_mk_firm_window_property():
    with criterion(7, "every k consecutive instances hold at least m updates"):
        for m, k in ((1, 2), (2, 3), (3, 5)):
            decisions = [detail["decision"] for _, kind, _, detail
                         in run_records(mk_window_config(m, k))[1]
                         if kind == "update_decision"]
            assert len(decisions) == 100
            padded = ["perform"] * (k - 1) + decisions
            for i in range(len(decisions)):
                window = padded[i:i + k]
                assert sum(1 for d in window if d == "perform") >= m, (m, k, i)
            if k > m:
                assert "skip" in decisions


def sink_error(decision: dict) -> float:
    """|sampled - sink value| of an update_decision detail; the sink value is
    left out of the record when it equals the sampled value."""
    sampled = decision["sampled"]
    return abs(sampled - decision.get("sink_value", sampled))


def test_criterion_8_similarity_and_prediction_error_bounds():
    with criterion(8, "dead-band and prediction bounds hold at every sample"):
        decisions = [detail for _, kind, _, detail
                     in run_records(error_bound_config(SimilarityPolicy(delta=0.5)))[1]
                     if kind == "update_decision"]
        assert len(decisions) == 1000
        assert any(d["decision"] == "skip" for d in decisions)
        for d in decisions:
            if d["decision"] == "skip":
                assert sink_error(d) < 0.5
            else:
                assert sink_error(d) == 0.0

        for predictor in ("lastvalue", "linear"):
            _, records = run_records(error_bound_config(
                PredictionPolicy(predictor=predictor, epsilon=1.0)))
            decisions = [detail for _, kind, _, detail in records
                         if kind == "update_decision"]
            assert len(decisions) == 1000
            assert any(d["decision"] == "suppress" for d in decisions)
            for d in decisions:
                assert sink_error(d) <= 1.0


def test_criterion_9_elastic_rescale_worked_examples():
    with criterion(9, "elastic compression reproduces the worked periods"):
        def obj(oid):
            return ObjectSpec(id=oid, vi=8, update_period=4, update_cost=1)

        periods = elastic_rescale([obj("a"), obj("b")], 0.4, {"a": 1, "b": 1})
        assert periods == {"a": 5, "b": 5}
        assert 1 / 5 + 1 / 5 <= 0.4

        periods = elastic_rescale([obj("a"), obj("b")], 0.4, {"a": 1, "b": 0})
        assert periods == {"a": 7, "b": 4}
        assert 1 / 7 + 1 / 4 <= 0.4


def test_criterion_10_oracle_equivalence():
    with criterion(10, "event engine equals tick oracle on 150 random configs"):
        for seed in range(150):
            cfg = random_config(seed, horizon_range=(30, 200))
            engine = engine_outcomes(cfg)
            oracle = oracle_outcomes(cfg)
            assert engine == oracle, f"generator seed {seed}"


def test_criterion_11_determinism():
    with criterion(11, "identical runs produce identical hashes and CSV"):
        configs = [
            infeasible_restart_config(),
            mv_continuation_config(FreshnessMode.CLASSICAL),
            mv_continuation_config(FreshnessMode.MULTIVERSION),
        ]
        configs += [feasible_isolated_config(s) for s in range(5)]
        configs += [random_config(s) for s in range(10)]
        for cfg in configs:
            first, first_records = run_records(cfg)
            second, second_records = run_records(cfg)
            assert hash_records(first_records) == hash_records(second_records)
            csv_a = emit_csv_rows(first, cfg.name, cfg.mode.value, "p")
            csv_b = emit_csv_rows(second, cfg.name, cfg.mode.value, "p")
            assert csv_a == csv_b


def test_criterion_12_gc_safety_and_bounded_chains():
    with criterion(12, "no pinned version reclaimed; chains bounded by pinners"):
        # reuses the criterion-5 sweep: any pinned reclaim raises inside gc
        for report, _, peak_pins in mv_sweep_runs():
            for oid, stats in report.per_object.items():
                assert stats.peak_live_versions <= 1 + peak_pins.get(oid, 0), oid
