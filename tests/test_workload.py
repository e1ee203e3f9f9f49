import json
import math

import pytest

from freshsim.core import Arrival, ConfigError, UserTxnSpec
from freshsim.workload import (
    ConstantProcess,
    RandomWalkProcess,
    SimConfig,
    SinusoidProcess,
    ValueSampler,
    config_to_dict,
    emit_config,
    expand_arrivals,
    iter_arrivals,
    parse_config,
    sample_process,
)

MINIMAL = {
    "horizon": 100,
    "mode": "classical",
    "enforce_admission": False,
    "seed": 42,
    "objects": [{"id": "o1", "vi": 10, "period": 5, "cost": 1,
                 "process": {"kind": "constant", "value": 7.0},
                 "policy": {"kind": "periodic"}}],
    "transactions": [{"id": "t1", "read_set": ["o1"],
                      "retrieval": {"o1": 2}, "analysis": {"o1": 3},
                      "deadline": 20,
                      "arrival": {"kind": "oneshot", "t": 0},
                      "retrieval_mode": "source"}],
}


def doc(**overrides):
    d = json.loads(json.dumps(MINIMAL))
    d.update(overrides)
    return d


def errors_of(document) -> set[str]:
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(document))
    return {path for path, _ in err.value.errors}


# -- processes -----------------------------------------------------------------

def test_constant_process():
    assert sample_process(ConstantProcess(value=7.0), 123, 0) == 7.0


def test_sinusoid_quarter_period():
    p = SinusoidProcess(amplitude=1.0, period_ticks=4, phase=0.0, offset=0.0)
    assert sample_process(p, 1, 0) == pytest.approx(1.0)
    assert sample_process(p, 0, 0) == pytest.approx(0.0)


def test_randomwalk_pure_in_index():
    p = RandomWalkProcess(start=0.0, step_sigma=1.0, seed=9)
    a = sample_process(p, 50, 10, run_seed=1, object_id="o1")
    b = sample_process(p, 50, 10, run_seed=1, object_id="o1")
    assert a == b
    assert sample_process(p, 50, 10, run_seed=2, object_id="o1") != a


def test_sampler_matches_pure_function_and_is_order_insensitive():
    from freshsim.core import ObjectSpec
    walk = RandomWalkProcess(start=1.0, step_sigma=0.5, seed=3)
    spec = ObjectSpec(id="o1", vi=10, update_period=5, value_process=walk)
    forward = ValueSampler(7, [spec])
    values_fwd = [forward.sample("o1", t) for t in (0, 5, 10, 15, 20)]
    backward = ValueSampler(7, [spec])
    values_bwd = [backward.sample("o1", t) for t in (20, 15, 10, 5, 0)][::-1]
    assert values_fwd == values_bwd
    assert values_fwd[3] == sample_process(walk, 15, 3, run_seed=7, object_id="o1")


def test_sampler_walk_steps_on_declared_grid():
    from freshsim.core import ObjectSpec
    walk = RandomWalkProcess(start=0.0, step_sigma=1.0, seed=0)
    spec = ObjectSpec(id="o1", vi=10, update_period=5, value_process=walk)
    sampler = ValueSampler(1, [spec])
    assert sampler.sample("o1", 0) == sampler.sample("o1", 4)
    assert sampler.sample("o1", 5) != sampler.sample("o1", 4)


# -- arrivals -------------------------------------------------------------------

def _txn(arrival):
    return UserTxnSpec(id="t1", read_set=["o1"], retrieval_time={"o1": 1},
                       analysis_time={"o1": 1}, relative_deadline=5,
                       arrival=arrival, retrieval_mode="source")


def test_arrivals_oneshot():
    assert expand_arrivals(_txn(Arrival("oneshot", t=5)), 100, 1) == [5]
    assert expand_arrivals(_txn(Arrival("oneshot", t=101)), 100, 1) == []


def test_arrivals_periodic():
    arrivals = expand_arrivals(_txn(Arrival("periodic", start=0, period=10)), 25, 1)
    assert arrivals == [0, 10, 20]


def test_arrivals_poisson_deterministic_and_mean_scaled():
    spec = _txn(Arrival("poisson", mean_gap=50))
    a = expand_arrivals(spec, 100_000, seed=99)
    b = expand_arrivals(spec, 100_000, seed=99)
    assert a == b
    assert all(y > x for x, y in zip(a, a[1:]))
    mean_gap = a[-1] / len(a)
    assert 40 < mean_gap < 60  # inverse-transform exponential, rounded up


@pytest.mark.parametrize("arrival", [Arrival("oneshot", t=5),
                                     Arrival("periodic", start=3, period=10),
                                     Arrival("poisson", mean_gap=50)])
def test_iter_arrivals_streams_expand_arrivals(arrival):
    spec = _txn(arrival)
    expanded = expand_arrivals(spec, 10_000, seed=7)
    assert list(iter_arrivals(spec, 10_000, seed=7)) == expanded
    # lazy: an effectively endless stream yields its first release at once
    assert next(iter_arrivals(spec, 10**18, seed=7)) == expanded[0]


# -- parsing / validation ----------------------------------------------------------

def test_minimal_config_parses():
    cfg = parse_config(json.dumps(MINIMAL))
    assert cfg.horizon == 100
    assert cfg.objects[0].vi == 10
    assert cfg.policies["o1"].kind == "periodic"
    assert cfg.transactions[0].retrieval_time == {"o1": 2}


def test_unknown_read_set_reference_has_path():
    d = doc()
    d["transactions"][0]["read_set"] = ["x9"]
    d["transactions"][0]["retrieval"] = {"x9": 2}
    d["transactions"][0]["analysis"] = {"x9": 3}
    assert "transactions[0].read_set[0]" in errors_of(d)


def test_mkfirm_m_greater_than_k_rejected():
    d = doc()
    d["objects"][0]["policy"] = {"kind": "mkfirm", "m": 4, "k": 3}
    assert "objects[0].policy" in errors_of(d)


def test_unknown_keys_rejected():
    assert "frobnicate" in errors_of(doc(frobnicate=1))
    d = doc()
    d["objects"][0]["extra"] = True
    assert "objects[0].extra" in errors_of(d)
    d = doc()
    d["objects"][0]["policy"]["bogus"] = 1
    assert "objects[0].policy.bogus" in errors_of(d)


def test_every_field_violation_reported_not_just_first():
    d = doc()
    d["horizon"] = 0
    d["objects"][0]["vi"] = 0
    d["objects"][0]["cost"] = 99
    d["transactions"][0]["deadline"] = -1
    paths = errors_of(d)
    assert {"horizon", "objects[0].vi", "objects[0].cost",
            "transactions[0].deadline"} <= paths


def test_durations_must_be_integers():
    d = doc()
    d["objects"][0]["vi"] = 2.5
    assert "objects[0].vi" in errors_of(d)


@pytest.mark.parametrize("mutate,path", [
    (lambda d: d["objects"][0].__setitem__("period", 0), "objects[0].period"),
    (lambda d: d["objects"][0].__setitem__("cost", -1), "objects[0].cost"),
    (lambda d: d["objects"][0].__setitem__("access_weight", -0.5),
     "objects[0].access_weight"),
    (lambda d: d["objects"][0].__setitem__("max_period", 1),
     "objects[0].max_period"),
    (lambda d: d["objects"][0]["process"].__setitem__("step_sigma", -1),
     "objects[0].process.step_sigma"),
    (lambda d: d["objects"][0]["policy"].__setitem__("delta", -0.1),
     "objects[0].policy.delta"),
    (lambda d: d["objects"][0]["policy"].update(
        {"kind": "prediction", "predictor": "oracle", "epsilon": 1.0}),
     "objects[0].policy.predictor"),
    (lambda d: d["objects"][0]["policy"].update(
        {"kind": "elastic", "target_utilization": 1.5}),
     "objects[0].policy.target_utilization"),
    (lambda d: d["transactions"][0].__setitem__("analysis", {"o1": 0}),
     "transactions[0].analysis[o1]"),
    (lambda d: d["transactions"][0].__setitem__(
        "arrival", {"kind": "poisson", "mean_gap": 0}),
     "transactions[0].arrival.mean_gap"),
    (lambda d: d["transactions"][0].__setitem__(
        "arrival", {"kind": "oneshot", "t": -1}),
     "transactions[0].arrival.t"),
])
def test_each_declared_bound_is_enforced(mutate, path):
    d = doc()
    d["objects"][0]["process"] = {"kind": "randomwalk", "start": 0.0,
                                  "step_sigma": 0.5, "seed": 1}
    d["objects"][0]["policy"] = {"kind": "similarity", "delta": 0.5}
    d["objects"][0]["max_period"] = 20
    mutate(d)
    assert path in errors_of(d)


def test_syntax_error_reports_location():
    with pytest.raises(ConfigError) as err:
        parse_config("{not json")
    assert "line 1" in str(err.value)


def test_retrieval_shorthand_expands_to_map():
    d = doc()
    d["transactions"][0]["retrieval"] = 2
    d["transactions"][0]["analysis"] = 3
    cfg = parse_config(json.dumps(d))
    assert cfg.transactions[0].retrieval_time == {"o1": 2}
    assert cfg.transactions[0].analysis_time == {"o1": 3}


def test_duplicate_ids_rejected():
    d = doc()
    d["objects"].append(json.loads(json.dumps(d["objects"][0])))
    assert "objects[1].id" in errors_of(d)


def test_duplicate_read_set_entries_rejected():
    d = doc()
    d["transactions"][0]["read_set"] = ["o1", "o1"]
    assert "transactions[0].read_set[1]" in errors_of(d)


def test_elastic_targets_must_agree():
    d = doc()
    d["objects"][0]["policy"] = {"kind": "elastic", "target_utilization": 0.5}
    second = json.loads(json.dumps(d["objects"][0]))
    second["id"] = "o2"
    second["policy"] = {"kind": "elastic", "target_utilization": 0.7}
    d["objects"].append(second)
    d["transactions"][0]["read_set"] = ["o1"]
    assert "objects" in errors_of(d)


# -- round trip ----------------------------------------------------------------------

def round_trip(document) -> None:
    cfg = parse_config(json.dumps(document))
    text = emit_config(cfg)
    again = parse_config(text)
    assert again == cfg
    assert emit_config(again) == text


def test_round_trip_minimal():
    round_trip(MINIMAL)


def test_round_trip_every_policy_and_process():
    d = doc()
    policies = [
        {"kind": "ondemand"},
        {"kind": "elastic", "target_utilization": 0.5, "elasticity": 2.0},
        {"kind": "mkfirm", "m": 2, "k": 3},
        {"kind": "similarity", "delta": 0.5},
        {"kind": "prediction", "predictor": "linear", "epsilon": 1.0},
    ]
    processes = [
        {"kind": "randomwalk", "start": 0.0, "step_sigma": 0.3, "seed": 5},
        {"kind": "sinusoid", "amplitude": 2.0, "period": 16, "phase": 0.5,
         "offset": -1.0},
    ]
    d["objects"] = []
    for i, policy in enumerate(policies):
        d["objects"].append({
            "id": f"o{i}", "vi": 10, "period": 5, "cost": 1,
            "access_weight": 0.5 + i,
            "process": processes[i % len(processes)],
            "policy": policy,
        })
    d["objects"][1]["max_period"] = 40
    d["transactions"] = [{
        "id": "t1", "read_set": ["o0", "o3"],
        "retrieval": {"o0": 2, "o3": 1}, "analysis": {"o0": 3, "o3": 2},
        "deadline": 25,
        "arrival": {"kind": "poisson", "mean_gap": 40},
        "retrieval_mode": "store_then_source",
    }]
    round_trip(d)


def test_config_to_dict_is_json_stable():
    cfg = parse_config(json.dumps(MINIMAL))
    d1 = json.dumps(config_to_dict(cfg), sort_keys=True)
    d2 = json.dumps(config_to_dict(cfg), sort_keys=True)
    assert d1 == d2
