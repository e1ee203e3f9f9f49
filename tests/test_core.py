import random

import pytest

from freshsim.core import (
    Arrival,
    ConfigError,
    FreshnessMode,
    ObjectSpec,
    UserTxnSpec,
    Version,
    feasibility_check,
    is_fresh,
)
from freshsim.policies import PeriodicPolicy
from freshsim.workload import ConstantProcess, SimConfig

from support import run_records


def _version(u, vi, oid="o1"):
    return Version(object_id=oid, value=0.0, sample_time=u, seq=1, expires=u + vi)


def _txn(read_set, retrieval, analysis, deadline=20, mode="source"):
    return UserTxnSpec(id="t1", read_set=read_set, retrieval_time=retrieval,
                       analysis_time=analysis, relative_deadline=deadline,
                       arrival=Arrival("oneshot", t=0), retrieval_mode=mode)


def _objects(**vis):
    return {oid: ObjectSpec(id=oid, vi=vi, update_period=max(vi // 2, 1))
            for oid, vi in vis.items()}


@pytest.mark.parametrize("u,vi,t,expected", [
    (5, 3, 8, True),    # boundary: still fresh at u + vi
    (5, 3, 9, False),   # one tick past the boundary
    (0, 10, 0, True),   # access at the sampling instant
])
def test_is_fresh_examples(u, vi, t, expected):
    assert is_fresh(_version(u, vi), t) is expected


def test_is_fresh_boundary_property():
    rng = random.Random(7)
    for _ in range(200):
        u = rng.randint(0, 1000)
        vi = rng.randint(1, 100)
        assert is_fresh(_version(u, vi), u + vi)
        assert not is_fresh(_version(u, vi), u + vi + 1)


def test_is_fresh_monotone_in_time():
    rng = random.Random(8)
    for _ in range(200):
        u = rng.randint(0, 500)
        vi = rng.randint(1, 60)
        t2 = rng.randint(u, u + 2 * vi)
        t1 = rng.randint(u, t2)
        if is_fresh(_version(u, vi), t2):
            assert is_fresh(_version(u, vi), t1)


def test_version_extension_moves_expiry():
    v = _version(10, 5)
    assert v.expires == 15
    v.expires += 4
    assert is_fresh(v, 19) and not is_fresh(v, 20)


@pytest.mark.parametrize("vi,r,a,expected", [
    (10, 4, 5, True),   # 9 <= 10
    (9, 4, 5, True),    # boundary: the condition is >=
    (5, 2, 4, False),   # 6 > 5: unbounded-restart shape
])
def test_feasibility_examples(vi, r, a, expected):
    report = feasibility_check(_txn(["o1"], {"o1": r}, {"o1": a}),
                               _objects(o1=vi))
    assert report.passed is expected
    assert report.entries[0].ok is expected


def test_feasibility_lists_every_object():
    objects = _objects(a=10, b=5)
    txn = _txn(["a", "b"], {"a": 4, "b": 2}, {"a": 5, "b": 4})
    report = feasibility_check(txn, objects)
    assert [e.object_id for e in report.entries] == ["a", "b"]
    assert report.failing_objects() == ["b"]
    assert not report.passed


def test_feasibility_unknown_object_is_config_error():
    txn = _txn(["x9"], {"x9": 1}, {"x9": 1})
    with pytest.raises(ConfigError) as err:
        feasibility_check(txn, _objects(o1=10))
    assert "x9" in str(err.value)


@pytest.mark.parametrize("vi,r,a,enforce,admitted", [
    (5, 2, 4, True, False),
    (5, 2, 4, False, True),
    (10, 4, 5, True, True),
])
def test_admit_examples(vi, r, a, enforce, admitted):
    # a class is rejected, with a `txn_rejected` record, only when admission
    # is enforced and vi < R + A
    config = SimConfig(horizon=20, mode=FreshnessMode.CLASSICAL,
                       enforce_admission=enforce, seed=1,
                       objects=[ObjectSpec(id="o1", vi=vi, update_period=5,
                                           value_process=ConstantProcess(value=0.0),
                                           policy=PeriodicPolicy())],
                       transactions=[_txn(["o1"], {"o1": r}, {"o1": a})])
    trace = run_records(config)[1]
    rejected = [record for record in trace if record[1] == "txn_rejected"]
    assert rejected == ([] if admitted else [(0, "txn_rejected", "t1", {"failing": ["o1"]})])
    assert any(kind == "txn_released" for _, kind, _, _ in trace) is admitted


def test_txn_validation_rules():
    errors = []
    txn = UserTxnSpec(id="t", read_set=[], retrieval_time={}, analysis_time={},
                      relative_deadline=0,
                      arrival=Arrival("periodic", start=0, period=0),
                      retrieval_mode="bogus")
    txn.validate("transactions[0]", {"o1"}, errors)
    paths = {p for p, _ in errors}
    assert "transactions[0].read_set" in paths
    assert "transactions[0].deadline" in paths
    assert "transactions[0].retrieval_mode" in paths
    assert "transactions[0].arrival.period" in paths


def test_store_mode_allows_zero_retrieval_time():
    errors = []
    txn = _txn(["o1"], {"o1": 0}, {"o1": 4}, mode="store")
    txn.validate("transactions[0]", {"o1"}, errors)
    assert errors == []
    # but a source-capable transaction must budget real retrieval time
    errors = []
    txn = _txn(["o1"], {"o1": 0}, {"o1": 4}, mode="store_then_source")
    txn.validate("transactions[0]", {"o1"}, errors)
    # the rule compares the time with the mode, so it names the mode's path
    assert errors == [("transactions[0].retrieval[o1]",
                       "retrieval time must be > 0 for source acquisition",
                       "transactions[0].retrieval_mode")]


def test_a_read_set_object_needs_a_retrieval_and_an_analysis_time():
    # each missing time is named at its map, with the object it lacks
    for retrieval, analysis, expected in (
            ({"o1": 1}, {}, ("transactions[0].analysis", "missing analysis time for 'o1'")),
            ({}, {"o1": 1}, ("transactions[0].retrieval", "missing retrieval time for 'o1'"))):
        errors = []
        _txn(["o1"], retrieval, analysis).validate("transactions[0]", {"o1"}, errors)
        assert errors == [expected]
