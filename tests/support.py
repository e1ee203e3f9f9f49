"""Shared helpers for the test suite: compact config builders and outcome
extraction for engine/oracle comparison."""

from __future__ import annotations

from freshsim.core import Arrival, FreshnessMode, ObjectSpec, UserTxnSpec
from freshsim.engine import RunResult, Simulator
from freshsim.policies import PeriodicPolicy
from freshsim.workload import ConstantProcess, SimConfig


def one_object_config(vi=5, period=10, cost=0, retrieval=2, analysis=4,
                      deadline=30, arrival_t=0, mode=FreshnessMode.CLASSICAL,
                      retrieval_mode="source", horizon=40, policy=None,
                      enforce=False, process=None, seed=1) -> SimConfig:
    obj = ObjectSpec(id="o1", vi=vi, update_period=period, update_cost=cost,
                     value_process=process or ConstantProcess(value=1.0))
    txn = UserTxnSpec(id="t1", read_set=["o1"],
                      retrieval_time={"o1": retrieval},
                      analysis_time={"o1": analysis},
                      relative_deadline=deadline,
                      arrival=Arrival("oneshot", t=arrival_t),
                      retrieval_mode=retrieval_mode)
    return SimConfig(horizon=horizon, mode=mode, enforce_admission=enforce,
                     seed=seed, objects=[obj],
                     policies={"o1": policy or PeriodicPolicy()},
                     transactions=[txn])


def run_config(cfg: SimConfig) -> RunResult:
    return Simulator(cfg).run()


def engine_outcomes(result: RunResult, object_ids: list[str]) -> dict:
    """The same outcome shape the tick oracle reports, for equality checks."""
    txns = {i.inst_id: {"state": i.state, "commit_time": i.commit_time,
                        "miss_time": i.miss_time, "restarts": i.restart_count,
                        "vi_restarts": i.vi_restart_count}
            for i in result.instances}
    installs = {oid: [] for oid in object_ids}
    decisions = {oid: [] for oid in object_ids}
    norm = {"transmit": "perform", "suppress": "skip"}
    for t, kind, subject, detail in result.trace:
        if kind == "install":
            installs[subject].append((t, detail["sample_time"]))
        elif kind == "update_decision":
            d = detail["decision"]
            decisions[subject].append((t, norm.get(d, d)))
    return {"txns": txns, "installs": installs, "decisions": decisions}
