"""Seeded random config generator for property-style sweeps.

Small configs by construction: a few objects, a few transactions, short
horizons, every policy and retrieval mode reachable. Everything derives from
one random.Random seeded per case, so failures reproduce exactly.
"""

from __future__ import annotations

import random

from freshsim.core import Arrival, FreshnessMode, ObjectSpec, UserTxnSpec
from freshsim.policies import (
    MKFirmPolicy,
    OnDemandPolicy,
    PeriodicPolicy,
    PredictionPolicy,
    SimilarityPolicy,
)
from freshsim.workload import (
    ConstantProcess,
    RandomWalkProcess,
    SimConfig,
    SinusoidProcess,
    validate_config,
)


def _process(rng: random.Random):
    roll = rng.random()
    if roll < 0.4:
        return ConstantProcess(value=round(rng.uniform(-5, 5), 3))
    if roll < 0.8:
        return RandomWalkProcess(start=round(rng.uniform(-2, 2), 3),
                                 step_sigma=round(rng.uniform(0.1, 1.0), 3),
                                 seed=rng.randrange(1 << 16))
    return SinusoidProcess(amplitude=round(rng.uniform(0.5, 3.0), 3),
                           period_ticks=rng.randint(4, 40),
                           phase=0.0, offset=round(rng.uniform(-1, 1), 3))


def _policy(rng: random.Random):
    roll = rng.random()
    if roll < 0.35:
        return PeriodicPolicy()
    if roll < 0.55:
        return OnDemandPolicy()
    if roll < 0.7:
        k = rng.randint(1, 5)
        return MKFirmPolicy(m=rng.randint(1, k), k=k)
    if roll < 0.85:
        return SimilarityPolicy(delta=round(rng.uniform(0.0, 1.0), 3))
    return PredictionPolicy(predictor=rng.choice(["lastvalue", "linear"]),
                            epsilon=round(rng.uniform(0.0, 1.5), 3))


def random_config(seed: int, mode: FreshnessMode | None = None,
                  max_objects: int = 3, max_txns: int = 3,
                  horizon_range: tuple[int, int] = (30, 200),
                  enforce: bool | None = None) -> SimConfig:
    rng = random.Random(seed)
    n_obj = rng.randint(1, max_objects)
    objects = []
    for i in range(n_obj):
        period = rng.randint(2, 12)
        # arguments are evaluated in order, so the policy's draws come last:
        # the golden corpus's configs depend on the order of the draws
        objects.append(ObjectSpec(
            id=f"o{i}",
            vi=rng.randint(2, 20),
            update_period=period,
            update_cost=rng.randint(0, min(period, 4)),
            value_process=_process(rng),
            access_weight=round(rng.uniform(0.2, 3.0), 2),
            policy=_policy(rng),
        ))

    txns = []
    for j in range(rng.randint(1, max_txns)):
        size = rng.randint(1, n_obj)
        read_set = [o.id for o in rng.sample(objects, size)]
        roll = rng.random()
        if roll < 0.5:
            arrival = Arrival("oneshot", t=rng.randint(0, 30))
        elif roll < 0.8:
            arrival = Arrival("periodic", start=rng.randint(0, 10),
                              period=rng.randint(10, 60))
        else:
            arrival = Arrival("poisson", mean_gap=rng.randint(15, 80))
        txns.append(UserTxnSpec(
            id=f"t{j}",
            read_set=read_set,
            retrieval_time={oid: rng.randint(1, 6) for oid in read_set},
            analysis_time={oid: rng.randint(1, 6) for oid in read_set},
            relative_deadline=rng.randint(5, 50),
            arrival=arrival,
            retrieval_mode=rng.choice(["source", "store", "store_then_source"]),
        ))

    cfg = SimConfig(
        horizon=rng.randint(*horizon_range),
        mode=mode if mode is not None else rng.choice(list(FreshnessMode)),
        enforce_admission=(rng.random() < 0.25) if enforce is None else enforce,
        seed=rng.randrange(1 << 32),
        objects=objects,
        transactions=txns,
    )
    errors = validate_config(cfg)
    assert not errors, errors
    return cfg


def feasible_isolated_config(seed: int) -> SimConfig:
    """One object, one one-shot source-mode transaction with R + A <= vi and
    a deadline that covers one clean attempt."""
    rng = random.Random(seed)
    retrieval = rng.randint(1, 8)
    analysis = rng.randint(1, 8)
    vi = retrieval + analysis + rng.randint(0, 10)
    period = rng.randint(2, 12)
    obj = ObjectSpec(id="o0", vi=vi, update_period=period,
                     update_cost=rng.randint(0, min(period, 3)),
                     value_process=_process(rng), policy=PeriodicPolicy())
    arrival_t = rng.randint(0, 20)
    txn = UserTxnSpec(
        id="t0", read_set=["o0"],
        retrieval_time={"o0": retrieval},
        analysis_time={"o0": analysis},
        relative_deadline=retrieval + analysis + rng.randint(0, 15),
        arrival=Arrival("oneshot", t=arrival_t),
        retrieval_mode="source",
    )
    cfg = SimConfig(
        horizon=arrival_t + txn.relative_deadline + 10,
        mode=FreshnessMode.CLASSICAL,
        enforce_admission=False,
        seed=rng.randrange(1 << 32),
        objects=[obj],
        transactions=[txn],
    )
    assert not validate_config(cfg)
    return cfg
