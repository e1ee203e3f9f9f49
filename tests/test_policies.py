import dataclasses
import json
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from freshsim.core import (
    Arrival,
    FreshnessMode,
    ObjectSpec,
    PolicyInfeasibleError,
    UserTxnSpec,
)
from freshsim.policies import (
    DEFAULT_MAX_PERIOD,
    ElasticPolicy,
    MKFirmPolicy,
    OnDemandPolicy,
    PERFORM,
    PredictorState,
    SKIP,
    SUPPRESS,
    TRANSMIT,
    as_fraction,
    default_elasticity,
    effective_objects,
    elastic_rescale,
    extend_vi_for_period,
    mk_firm_decision,
    prediction_decision,
    similarity_decision,
)
from freshsim.cli import main
from freshsim.engine import Simulator
from freshsim.workload import ConstantProcess, SimConfig, emit_config

import elastic_reference
import freshsim.policies as freshsim_policies
from support import hash_records, one_object_config, run_outcomes, run_records


def obj(oid="o1", vi=10, period=5, cost=1, weight=1.0, max_period=None):
    return ObjectSpec(id=oid, vi=vi, update_period=period, update_cost=cost,
                      access_weight=weight, max_period=max_period)


# -- periodic ----------------------------------------------------------------

@pytest.mark.parametrize("period,horizon,expected", [
    (10, 25, [0, 10, 20]),
    (3, 9, [0, 3, 6, 9]),
])
def test_periodic_instances(period, horizon, expected):
    # the engine releases a periodic object's instances at 0, P, 2P, ... up
    # to and including the horizon
    _, records = run_records(one_object_config(period=period, horizon=horizon))
    assert [t for t, kind, _, _ in records if kind == "update_decision"] == expected


# -- on demand ----------------------------------------------------------------

def on_demand_run(second_arrival):
    """Two store readers of one on-demand object (vi 20, cost 3): the first
    arrives at 0 to a cold store, the second at `second_arrival`."""
    obj = ObjectSpec(id="o1", vi=20, update_period=10, update_cost=3,
                     value_process=ConstantProcess(value=1.0), policy=OnDemandPolicy())
    txns = [UserTxnSpec(id=f"t{i}", read_set=["o1"], retrieval_time={"o1": 0},
                        analysis_time={"o1": 2}, relative_deadline=30,
                        arrival=Arrival("oneshot", t=t), retrieval_mode="store")
            for i, t in enumerate((0, second_arrival))]
    cfg = SimConfig(horizon=60, mode=FreshnessMode.MULTIVERSION,
                    enforce_admission=False, seed=1, objects=[obj],
                    transactions=txns)
    _, records, txns = run_outcomes(cfg)
    assert all(inst["state"] == "committed" for inst in txns.values())
    return ([t for t, kind, _, _ in records if kind == "update_decision"],
            [(t, detail["staleness"]) for t, kind, _, detail in records
             if kind == "access"])


def test_on_demand_serves_fresh_version():
    # the t=0 sample is fresh until 20: the reader at 12 is served, no refresh
    decisions, accesses = on_demand_run(12)
    assert decisions == [0]
    assert accesses == [(3, 3), (12, 12)]


def test_on_demand_refresh_on_stale_and_cold():
    # cold store at 0 and expired version at 25: each launches a refresh
    decisions, accesses = on_demand_run(25)
    assert decisions == [0, 25]
    assert accesses == [(3, 3), (28, 3)]


# -- elastic -------------------------------------------------------------------

def test_elastic_rescale_uniform_compression():
    objects = [obj("a", period=4, cost=1), obj("b", period=4, cost=1)]
    periods = elastic_rescale(objects, 0.4, {"a": Fraction(1), "b": Fraction(1)})
    assert periods == {"a": 5, "b": 5}
    assert sum(Fraction(1, p) for p in periods.values()) <= Fraction(2, 5)


def test_elastic_rescale_noop_under_target():
    objects = [obj("a", period=10, cost=1), obj("b", period=5, cost=1)]
    periods = elastic_rescale(objects, 0.4, {"a": Fraction(1), "b": Fraction(1)})
    assert periods == {"a": 10, "b": 5}


def test_elastic_rescale_zero_elasticity_untouched():
    objects = [obj("a", period=4, cost=1), obj("b", period=4, cost=1)]
    periods = elastic_rescale(objects, 0.4, {"a": Fraction(1), "b": Fraction(0)})
    assert periods == {"a": 7, "b": 4}


def test_elastic_rescale_periods_never_decrease():
    rng = random.Random(41)
    for _ in range(100):
        objects = []
        emap = {}
        for i in range(rng.randint(1, 5)):
            period = rng.randint(2, 20)
            objects.append(obj(f"o{i}", period=period,
                               cost=rng.randint(1, period)))
            emap[f"o{i}"] = Fraction(rng.randint(0, 3))
        if not any(emap.values()):
            emap[objects[0].id] = Fraction(1)
        target = Fraction(rng.randint(1, 10), 10)
        try:
            periods = elastic_rescale(objects, target, emap)
        except PolicyInfeasibleError:
            continue
        for o in objects:
            assert periods[o.id] >= o.update_period
            if emap[o.id] == 0:
                assert periods[o.id] == o.update_period
        total = sum(Fraction(o.update_cost, periods[o.id]) for o in objects)
        before = sum(Fraction(o.update_cost, o.update_period) for o in objects)
        assert total <= max(target, before)


def test_elastic_rescale_infeasible_when_rigid_load_exceeds_target():
    objects = [obj("a", period=2, cost=1), obj("b", period=2, cost=1)]
    with pytest.raises(PolicyInfeasibleError):
        elastic_rescale(objects, 0.3, {"a": Fraction(1), "b": Fraction(0)})


def test_elastic_rescale_respects_max_period_caps():
    objects = [obj("a", period=2, cost=1, max_period=4),
               obj("b", period=2, cost=1, max_period=4)]
    with pytest.raises(PolicyInfeasibleError):
        elastic_rescale(objects, 0.3, {"a": Fraction(1), "b": Fraction(1)})


# a fleet: (period, cost, access_weight, max_period, elasticity) per object;
# an elasticity of None takes the default, 1 / (period * access_weight)
_WEIGHTS = st.one_of(st.sampled_from([0.0, 1.0, 2.0, 0.5, 0.3, 1.7]),
                     st.floats(0, 4, allow_nan=False, allow_infinity=False))
_FLEET_OBJECT = st.integers(1, 30).flatmap(lambda period: st.tuples(
    st.just(period),
    st.integers(0, period),
    _WEIGHTS,
    st.one_of(st.none(), st.integers(period, 4 * period)),
    st.one_of(st.none(), st.sampled_from([0.0, 1.0, 0.5, 0.1]),
              st.floats(0, 5, allow_nan=False, allow_infinity=False))))
_TARGETS = st.one_of(st.sampled_from([0.1, 0.25, 0.3, 0.5, 0.7, 1.0]),
                     st.floats(0.01, 1, allow_nan=False))


def _rescale_with(module, fleet, target):
    """(periods, None), or (None, the error), from the `elastic_rescale`,
    `default_elasticity` and `as_fraction` of `module`. An explicit
    elasticity is passed as the exact fraction of its decimal, as
    `effective_objects` passes it. Errors other than PolicyInfeasibleError
    count too: both sides must fail alike."""
    objects = [obj(f"o{i}", period=period, cost=cost, weight=weight,
                   max_period=max_period)
               for i, (period, cost, weight, max_period, _) in enumerate(fleet)]
    try:
        elasticity = {o.id: module.default_elasticity(o) if e is None
                      else module.as_fraction(e)
                      for o, (*_, e) in zip(objects, fleet)}
        return module.elastic_rescale(objects, target, elasticity), None
    except (PolicyInfeasibleError, ArithmeticError) as e:
        return None, f"{type(e).__name__}: {e}"


# o0 would shed past its cap and clamps on the first pass, so o1 and o2
# shed the rest on a second
_CLAMPS_ONCE = [(2, 1, 1.0, 2, None), (4, 1, 1.0, None, None), (4, 1, 1.0, 100, None)]
# at target 0.75: o0 clamps on the first pass, o1 (a float elasticity) and
# o2 (a weight of 1.7) on the second, and the third has no object left
_OUT_OF_REACH = [(2, 1, 1.0, 2, None), (4, 1, 1.0, 8, 0.5), (4, 1, 1.7, 5, None)]
# at target 0.1 the one object sheds 9/10 of utilization 1: period 10, which
# needs exact sums, since in floats the share shed comes out above 9/10 (11)
_SHEDS_NINE_TENTHS = [(1, 1, 1.0, None, 0.5)]


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(fleet=st.lists(_FLEET_OBJECT, min_size=1, max_size=8), target=_TARGETS)
@example(fleet=_CLAMPS_ONCE, target=0.8)
@example(fleet=_OUT_OF_REACH, target=0.75)
@example(fleet=_SHEDS_NINE_TENTHS, target=0.1)
def test_elastic_rescale_matches_the_reference(fleet, target):
    assert _rescale_with(freshsim_policies, fleet, target) == _rescale_with(
        elastic_reference, fleet, target)


def test_elastic_reference_examples_clamp_and_fail():
    assert _rescale_with(elastic_reference, _CLAMPS_ONCE, 0.8) == (
        {"o0": 2, "o1": 7, "o2": 7}, None)
    assert _rescale_with(elastic_reference, _OUT_OF_REACH, 0.75) == (
        None, "PolicyInfeasibleError: policy.elastic: target utilization 3/4 "
              "unreachable even at maximal periods (residual over target: 0.075)")
    assert _rescale_with(elastic_reference, _SHEDS_NINE_TENTHS, 0.1) == ({"o0": 10}, None)


# (period, cost, max_period, elasticity) per object: small caps make objects
# clamp, some of them over several passes
_PROPERTY_OBJECT = st.integers(1, 30).flatmap(lambda period: st.tuples(
    st.just(period),
    st.integers(0, period),
    st.one_of(st.none(), st.integers(period, 3 * period),
              st.integers(period, 200 * period)),
    st.integers(0, 9).flatmap(lambda k: st.just(Fraction(0)) if k == 0 else
                              st.fractions(Fraction(1, 12), 5, max_denominator=12))))
# at target 3/5, o0 (cap 3) clamps on the first pass and o1 (cap 6) on the
# second, and o2 takes the 1/10 left: periods 3, 6 and 10
_CLAMPS_TWICE = [(2, 1, 3, Fraction(1)), (2, 1, 6, Fraction(1)),
                 (2, 1, None, Fraction(1))]


def _exact_fleet(fleet):
    """The objects of such a fleet and their elasticities, by id."""
    objects = [obj(f"o{i}", period=period, cost=cost, max_period=max_period)
               for i, (period, cost, max_period, _) in enumerate(fleet)]
    return objects, {o.id: e for o, (*_, e) in zip(objects, fleet)}


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(fleet=st.lists(_PROPERTY_OBJECT, min_size=1, max_size=60),
       target=st.fractions(Fraction(1, 100), 1, max_denominator=100))
@example(fleet=_CLAMPS_TWICE, target=Fraction(3, 5))
def test_elastic_rescale_meets_the_target_within_the_caps(fleet, target):
    objects, elasticity = _exact_fleet(fleet)
    active = {o.id for o in objects if elasticity[o.id] > 0 and o.update_cost > 0}
    before = sum(Fraction(o.update_cost, o.update_period) for o in objects)
    # the least utilization the rescale can reach: every active object at
    # its cap, every other one at its declared period
    least = before - sum(Fraction(o.update_cost, o.update_period)
                         - Fraction(o.update_cost, o.max_period or DEFAULT_MAX_PERIOD)
                         for o in objects if o.id in active)
    try:
        periods = elastic_rescale(objects, target, elasticity)
    except PolicyInfeasibleError:
        assert least > target
        return
    assert least <= target
    assert sum(Fraction(o.update_cost, periods[o.id]) for o in objects) <= target
    for o in objects:
        assert periods[o.id] >= o.update_period
        if o.id in active:
            assert periods[o.id] <= (o.max_period or DEFAULT_MAX_PERIOD)
        else:
            assert periods[o.id] == o.update_period
    if before <= target:
        assert periods == {o.id: o.update_period for o in objects}


def test_elastic_rescale_clamps_over_several_passes():
    objects, elasticity = _exact_fleet(_CLAMPS_TWICE)
    assert elastic_rescale(objects, Fraction(3, 5), elasticity) == {
        "o0": 3, "o1": 6, "o2": 10}


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(x=st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                   st.integers(-2 ** 60, 2 ** 60).map(float),
                   st.sampled_from([2.0 ** 53 - 1, 2.0 ** 53, -(2.0 ** 53), 1e16, -0.0])))
def test_as_fraction_and_the_target_check_agree_with_the_repr(x):
    assert as_fraction(x) == elastic_reference.as_fraction(x)
    errors = []
    ElasticPolicy(target_utilization=x).validate("p", errors)
    assert bool(errors) == (not 0 < Fraction(str(x)) <= 1)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(period=st.integers(1, 2 ** 70),
       weight=st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                        st.integers(-10, 2 ** 70),
                        st.sampled_from([5e-324, 0.0, -0.0, -1.0, 0, 1e308])))
@example(period=1, weight=5e-324)
@example(period=7, weight=0.0)
@example(period=3, weight=-2.5)
def test_default_elasticity_is_one_over_period_times_weight(period, weight):
    # a weight <= 0 counts as 1
    w = as_fraction(weight) if weight > 0 else Fraction(1)
    assert default_elasticity(obj(period=period, weight=weight)) == Fraction(1, period) / w


def test_a_stretched_object_keeps_every_field_but_period_and_vi():
    # its policy included
    declared = [
        ObjectSpec("a", vi=4, update_period=2, update_cost=1,
                   value_process=ConstantProcess(3.0), access_weight=0.25, max_period=9,
                   policy=ElasticPolicy(target_utilization=0.5)),
        ObjectSpec("b", vi=30, update_period=3, update_cost=2,
                   value_process=ConstantProcess(-1.0), access_weight=4,
                   policy=ElasticPolicy(target_utilization=0.5)),
    ]
    table = effective_objects(declared)
    for o in declared:
        stretched = table[o.id]
        assert stretched.update_period > o.update_period
        assert stretched.vi == max(o.vi, 2 * stretched.update_period)
        for f in dataclasses.fields(ObjectSpec):
            if f.name not in ("update_period", "vi"):
                assert getattr(stretched, f.name) is getattr(o, f.name), f.name


@pytest.mark.parametrize("period,vi,expected", [
    (5, 10, 10),   # vi' = 2P'
    (7, 10, 14),
    (5, 10, 10),
])
def test_extend_vi_for_period(period, vi, expected):
    assert extend_vi_for_period(obj(vi=vi, period=period), period) == expected


def test_extend_vi_never_shrinks():
    assert extend_vi_for_period(obj(vi=30, period=5), 6) == 30


# -- (m,k) firm ------------------------------------------------------------------

def greedy_window_decisions(m, k, cold_start, count):
    """The greedy (m,k) rule on an explicit window, as a reference for the
    closed form: the k-1 instances before the run count as performs, each
    of the `cold_start` forced performs is appended, and then `count`
    decisions follow, each skipping iff the last k-1 decisions plus the
    skip still hold m performs."""
    made = [True] * cold_start  # True = performed; the pre-run ones are counted
    decisions = []
    for _ in range(count):
        start = max(len(made) - (k - 1), 0)
        performs = sum(made[start:]) + (k - 1) - (len(made) - start)
        performed = performs < m
        made.append(performed)
        decisions.append(PERFORM if performed else SKIP)
    return decisions


def test_mk_closed_form_matches_the_greedy_window():
    for k in range(1, 25):
        for m in range(1, k + 1):
            for cold_start in range(4):
                assert ([mk_firm_decision(m, k, i) for i in range(4 * k)]
                        == greedy_window_decisions(m, k, cold_start, 4 * k)), \
                    (m, k, cold_start)


@pytest.mark.parametrize("m", [1, 10 ** 30 - 2, 10 ** 30])
def test_mk_closed_form_matches_the_greedy_window_past_ssize_t(m):
    k = 10 ** 30
    assert ([mk_firm_decision(m, k, i) for i in range(50)]
            == greedy_window_decisions(m, k, 0, 50))


def test_mk_examples():
    # from k-1 = 2 pre-run performs: [P,P]+S holds 2 >= 2, so skip; then
    # [P,S]+S would hold 1 < 2, so perform, and [S,P]+S too
    assert [mk_firm_decision(2, 3, i) for i in range(6)] == [
        SKIP, PERFORM, PERFORM, SKIP, PERFORM, PERFORM]
    # [P,S]+S holds 1 >= 1, so skip; [S,S]+S holds 0 < 1, so perform
    assert [mk_firm_decision(1, 3, i) for i in range(6)] == [
        SKIP, SKIP, PERFORM, SKIP, SKIP, PERFORM]
    for i in range(5):
        assert mk_firm_decision(1, 1, i) == PERFORM  # no skipping at m=k


def test_mk_large_window_costs_only_decisions_made():
    # the k-1 performs before the run are never stored
    cfg = one_object_config(vi=20, period=10, horizon=100,
                            policy=MKFirmPolicy(m=1, k=10 ** 6))
    tracemalloc.start()
    try:
        Simulator(cfg).run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_mk_window_past_ssize_t_runs_like_an_unfilled_one(tmp_path):
    # k is past a C ssize_t; until k decisions are made, the greedy rule
    # depends only on k - m
    def cfg(m, k):
        return one_object_config(vi=20, period=10, horizon=100,
                                 policy=MKFirmPolicy(m=m, k=k))

    huge = cfg(10 ** 30 - 2, 10 ** 30)
    path = tmp_path / "config.json"
    path.write_text(emit_config(huge), encoding="utf-8")
    assert json.loads(path.read_text())["objects"][0]["policy"]["k"] == 10 ** 30
    assert main(["run", str(path), "--csv", str(tmp_path / "out.csv")]) == 0
    trace = run_records(huge)[1]
    assert SKIP in {detail["decision"] for _, kind, _, detail in trace
                    if kind == "update_decision"}
    assert hash_records(trace) == hash_records(run_records(cfg(10 ** 6 - 2, 10 ** 6))[1])


def window_property_holds(decisions, m, k):
    padded = [PERFORM] * (k - 1) + decisions
    for i in range(len(decisions)):
        window = padded[i:i + k]
        if sum(1 for d in window if d == PERFORM) < m:
            return False
    return True


@pytest.mark.parametrize("m,k", [(1, 2), (2, 3), (3, 5), (1, 1), (4, 4), (2, 7)])
def test_mk_window_property_on_greedy_traces(m, k):
    decisions = [mk_firm_decision(m, k, i) for i in range(200)]
    assert window_property_holds(decisions, m, k)
    # greedy skips as aggressively as the guarantee allows
    if k > m:
        assert SKIP in decisions


# -- similarity --------------------------------------------------------------------

@pytest.mark.parametrize("stored,sampled,delta,expected", [
    (10.0, 10.3, 0.5, SKIP),
    (10.0, 10.6, 0.5, PERFORM),
    (10.0, 10.0, 0.0, PERFORM),  # delta 0 disables skipping
])
def test_similarity_examples(stored, sampled, delta, expected):
    assert similarity_decision(stored, sampled, delta) == expected


def test_similarity_bounds_store_error():
    rng = random.Random(5)
    delta = 0.5
    stored = 0.0
    value = 0.0
    for _ in range(500):
        value += rng.gauss(0, 0.3)
        if similarity_decision(stored, value, delta) == PERFORM:
            stored = value
        else:
            assert abs(stored - value) < delta


# -- prediction --------------------------------------------------------------------

def test_prediction_lastvalue_examples():
    state = PredictorState("lastvalue")
    state.record_transmit(10.0, 0)
    decision, predicted = prediction_decision(state, 10.8, 5, epsilon=1.0)
    assert decision == SUPPRESS and predicted == 10.0

    decision, predicted = prediction_decision(state, 11.2, 6, epsilon=1.0)
    assert decision == TRANSMIT
    assert state.points[-1] == (11.2, 6)


def test_prediction_linear_extrapolation():
    state = PredictorState("linear")
    state.record_transmit(0.0, 0)
    state.record_transmit(10.0, 10)
    decision, predicted = prediction_decision(state, 19.5, 20, epsilon=1.0)
    assert decision == SUPPRESS
    assert predicted == pytest.approx(20.0)


def test_prediction_linear_falls_back_until_two_points():
    state = PredictorState("linear")
    assert state.predict(3) is None
    state.record_transmit(4.0, 0)
    assert state.predict(9) == 4.0


def test_prediction_divergence_bound():
    rng = random.Random(12)
    for predictor in ("lastvalue", "linear"):
        state = PredictorState(predictor)
        value = 0.0
        epsilon = 1.0
        for t in range(0, 1000, 2):
            value += rng.gauss(0, 0.3)
            decision, predicted = prediction_decision(state, value, t, epsilon)
            sink = value if decision == TRANSMIT else predicted
            assert abs(sink - value) <= epsilon
