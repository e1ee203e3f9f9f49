"""Shared helpers for the test suite: compact config builders and outcome
extraction for engine/oracle comparison."""

from __future__ import annotations

from collections import Counter

import freshsim.workload
from freshsim.core import Arrival, FreshnessMode, ObjectSpec, UserTxnSpec
from freshsim.engine import Simulator
from freshsim.metrics import MetricsReport, TraceLines, trace_hash
from freshsim.policies import PeriodicPolicy
from freshsim.workload import ConstantProcess, SimConfig


def one_object_config(vi=5, period=10, cost=0, retrieval=2, analysis=4,
                      deadline=30, arrival_t=0, mode=FreshnessMode.CLASSICAL,
                      retrieval_mode="source", horizon=40, policy=None,
                      enforce=False, process=None, seed=1) -> SimConfig:
    obj = ObjectSpec(id="o1", vi=vi, update_period=period, update_cost=cost,
                     value_process=process or ConstantProcess(value=1.0),
                     policy=policy or PeriodicPolicy())
    txn = UserTxnSpec(id="t1", read_set=["o1"],
                      retrieval_time={"o1": retrieval},
                      analysis_time={"o1": analysis},
                      relative_deadline=deadline,
                      arrival=Arrival("oneshot", t=arrival_t),
                      retrieval_mode=retrieval_mode)
    return SimConfig(horizon=horizon, mode=mode, enforce_admission=enforce,
                     seed=seed, objects=[obj], transactions=[txn])


def count_walk_steps(monkeypatch) -> Counter:
    """A counter whose "steps" counts, from now on, the random-walk steps
    that the samplers take: one normal quantile each."""
    counts = Counter()
    quantile = freshsim.workload._normal_dist_inv_cdf

    def counted(*args):
        counts["steps"] += 1
        return quantile(*args)

    monkeypatch.setattr(freshsim.workload, "_normal_dist_inv_cdf", counted)
    return counts


class WatchedWaitList(list):
    """A wait list that reads as non-empty even when it is empty."""

    def __bool__(self) -> bool:
        return True


def watch_updates(sim: Simulator) -> None:
    """Give the update streams of `sim` wait lists that always read as
    non-empty, so that its `_wake_waiters` runs after every install and
    every skip, as it does for an object that someone waits on, not only for
    those. The streams are built when the run queues its workload, so the
    lists are swapped in right after."""
    schedule = sim._schedule_workload

    def watched_schedule() -> None:
        schedule()
        for stream in sim._streams.values():
            stream.waiting = WatchedWaitList()

    sim._schedule_workload = watched_schedule


def run_records(cfg: SimConfig) -> tuple[MetricsReport, list[tuple]]:
    """Run `cfg` with a list sink; its report and every trace record."""
    records = []
    return Simulator(cfg, sink=records.extend).run(), records


def hash_records(records: list[tuple]) -> str:
    """The trace hash of `records`, fed to a TraceLines sink as `run` feeds
    its own."""
    lines = TraceLines()
    lines(records)
    return trace_hash(lines)


def outcomes(sim: Simulator, records: list[tuple]) -> dict[str, dict]:
    """Each released instance's outcome, by instance id, rebuilt from
    `records`, the trace of `sim`, a finished run: its `commit` or `miss`
    record gives the state and time, its `restart` records the restarts
    (`vi_restarts` counts those with cause `vi_expiry`). An instance with
    neither record is in flight: the running one, a waiting one (on the wait
    list of an update stream of `sim`), or else ready."""
    in_flight = {inst.inst_id: "waiting"
                 for stream in sim._streams.values() for inst in stream.waiting}
    if sim.running is not None:
        in_flight[sim.running.inst_id] = sim.running.state
    txns = {}
    for t, kind, subject, detail in records:
        if kind == "txn_released":
            txns[subject] = {"state": in_flight.get(subject, "ready"),
                             "commit_time": None, "miss_time": None,
                             "restarts": 0, "vi_restarts": 0}
        elif kind == "restart":
            txns[subject]["restarts"] += 1
            if detail["cause"] == "vi_expiry":
                txns[subject]["vi_restarts"] += 1
        elif kind == "commit":
            txns[subject].update(state="committed", commit_time=t)
        elif kind == "miss":
            txns[subject].update(state="missed", miss_time=t)
    return txns


def run_outcomes(cfg: SimConfig) -> tuple[MetricsReport, list[tuple], dict[str, dict]]:
    """Run `cfg`; its report, its trace records and the `outcomes` of its
    instances."""
    records = []
    sim = Simulator(cfg, sink=records.extend)
    return sim.run(), records, outcomes(sim, records)


def engine_outcomes(cfg: SimConfig) -> dict:
    """Run `cfg`; the same outcome shape the tick oracle reports, for
    equality checks."""
    records = []
    sim = Simulator(cfg, sink=records.extend)
    sim.run()
    installs = {o.id: [] for o in cfg.objects}
    decisions = {o.id: [] for o in cfg.objects}
    norm = {"transmit": "perform", "suppress": "skip"}
    for t, kind, subject, detail in records:
        if kind == "install":
            installs[subject].append((t, detail["sample_time"]))
        elif kind == "update_decision":
            d = detail["decision"]
            decisions[subject].append((t, norm.get(d, d), detail["sampled"]))
    return {"txns": outcomes(sim, records), "installs": installs, "decisions": decisions}
