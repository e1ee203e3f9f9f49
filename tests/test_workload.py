import ast
import hashlib
import importlib.util
import inspect
import json
import math
import os
import random
import statistics
import subprocess
import sys
import tracemalloc
from collections import Counter
from itertools import zip_longest
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import freshsim.workload
from freshsim.core import Arrival, ConfigError, ObjectSpec, UserTxnSpec
from freshsim.engine import Simulator
from freshsim.workload import (
    BOOL,
    INT,
    NUM,
    STR,
    ConstantProcess,
    RandomWalkProcess,
    SimConfig,
    SinusoidProcess,
    ValueSampler,
    _normal_dist_inv_cdf,
    config_from_dict,
    config_to_dict,
    emit_config,
    expand_arrivals,
    iter_arrivals,
    parse_config,
    stable_key,
    uniform_at,
    validate_config,
)

from support import count_walk_steps, one_object_config

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
    assert ConstantProcess(value=7.0).value_at(123, 0, 0, "") == 7.0


def test_sinusoid_quarter_period():
    p = SinusoidProcess(amplitude=1.0, period_ticks=4, phase=0.0, offset=0.0)
    assert p.value_at(1, 0, 0, "") == pytest.approx(1.0)
    assert p.value_at(0, 0, 0, "") == pytest.approx(0.0)


def test_randomwalk_pure_in_index():
    p = RandomWalkProcess(start=0.0, step_sigma=1.0, seed=9)
    a = p.value_at(50, 10, run_seed=1, object_id="o1")
    b = p.value_at(50, 10, run_seed=1, object_id="o1")
    assert a == b
    assert p.value_at(50, 10, run_seed=2, object_id="o1") != a


def test_sampler_matches_pure_function_and_is_order_insensitive():
    walk = RandomWalkProcess(start=1.0, step_sigma=0.5, seed=3)
    spec = ObjectSpec(id="o1", vi=10, update_period=5, value_process=walk)
    forward = ValueSampler(7, spec)
    values_fwd = [forward.sample(t) for t in (0, 5, 10, 15, 20)]
    backward = ValueSampler(7, spec)
    values_bwd = [backward.sample(t) for t in (20, 15, 10, 5, 0)][::-1]
    assert values_fwd == values_bwd
    assert values_fwd[3] == walk.value_at(15, 3, run_seed=7, object_id="o1")


def test_sampler_walk_steps_on_declared_grid():
    walk = RandomWalkProcess(start=0.0, step_sigma=1.0, seed=0)
    spec = ObjectSpec(id="o1", vi=10, update_period=5, value_process=walk)
    sampler = ValueSampler(1, spec)
    assert sampler.sample(0) == sampler.sample(4)
    assert sampler.sample(5) != sampler.sample(4)


def test_sampler_memory_does_not_grow_with_the_ordinal():
    walk = RandomWalkProcess(start=0.0, step_sigma=1.0, seed=2)
    spec = ObjectSpec(id="o1", vi=10, update_period=1, value_process=walk)
    sampler = ValueSampler(5, spec)
    tracemalloc.start()
    try:
        value = sampler.sample(20_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    assert value == walk.value_at(20_000, 20_000, run_seed=5, object_id="o1")


def test_samplers_sharing_a_walk_table_each_read_their_own_walk():
    base = {"start": 1.0, "step_sigma": 0.5, "seed": 3}
    # (run seed, object id, walk): each differs from the first in one part
    # of the table key, and the last is the first again
    walks = [(7, "o1", base), (8, "o1", base), (7, "o1", {**base, "seed": 4}),
             (7, "o2", base), (7, "o1", {**base, "start": 2.0}),
             (7, "o1", {**base, "step_sigma": 0.25}), (7, "o1", base)]
    table = {}
    samplers = []
    for seed, oid, kwargs in walks:
        walk = RandomWalkProcess(**kwargs)
        spec = ObjectSpec(id=oid, vi=10, update_period=5, value_process=walk)
        samplers.append((ValueSampler(seed, spec, table), seed, oid, walk))
    ticks = list(range(0, 100, 5))
    orders = [ticks, ticks[::-1], ticks[::2] + ticks[-1::-2], ticks[1::3] + ticks]
    # the samplers but the last take turns, each asking in its own order
    asks = []
    for turn in zip_longest(*(orders[i % len(orders)] for i in range(len(walks) - 1))):
        asks += [(sampler, t) for sampler, t in zip(samplers, turn) if t is not None]
    # the last reads past the reach of the first, whose walk it shares
    asks += [(samplers[-1], t) for t in range(0, 200, 5)]
    asks += [(samplers[0], t) for t in (195, 0, 150)]
    for (sampler, seed, oid, walk), t in asks:
        assert sampler.sample(t) == walk.value_at(
            t, t // 5, run_seed=seed, object_id=oid), (seed, oid, walk, t)
    assert len(table) == len(walks) - 1
    assert len(table[7, 3, "o1", 1.0, 0.5]) == 40


def test_samplers_sharing_a_table_serve_out_of_order_samples_past_its_end():
    # each run's sampler serves a walk it has read from the table up to its
    # end, and extends the table past it; the other run's sampler of the
    # object then reads the extension through its own list
    walks = {"a": (RandomWalkProcess(start=1.0, step_sigma=0.5, seed=3), 4),
             "b": (RandomWalkProcess(start=-2.0, step_sigma=1.5, seed=1), 7)}
    specs = [ObjectSpec(id=oid, vi=10, update_period=period, value_process=walk)
             for oid, (walk, period) in walks.items()]
    table = {}
    samplers = [{spec.id: ValueSampler(9, spec, table) for spec in specs}
                for _ in range(2)]
    rng = random.Random(4)
    reach = 30
    served = Counter()
    for _ in range(600):
        reach += rng.choice((0, 0, 0, 9))
        i, oid, t = rng.randrange(2), rng.choice("ab"), rng.randrange(reach)
        walk, period = walks[oid]
        values = table.get((9, walk.seed, oid, walk.start, walk.step_sigma), ())
        served[i, t // period < len(values)] += 1
        assert samplers[i][oid].sample(t) == walk.value_at(
            t, t // period, run_seed=9, object_id=oid), (i, oid, t)
    assert len(table) == 2
    assert min(served[i, in_table] for i in (0, 1) for in_table in (False, True)) > 10


def _walk_fleet(horizon, retrieval_mode="store"):
    """Random walks updated periodically, one of them on a stretched grid
    (elastic), and one reader of each. A store reader samples nothing, so
    every sample is an update's; a source reader samples at each access."""
    walk = {"kind": "randomwalk", "start": 1.0, "step_sigma": 0.5}
    objects = [{"id": oid, "vi": 2 * period, "period": period, "cost": 1,
                "process": {**walk, "seed": i}, "policy": policy}
               for i, (oid, period, policy) in enumerate((
                   ("a", 4, {"kind": "periodic"}),
                   ("b", 6, {"kind": "elastic", "target_utilization": 0.55}),
                   ("c", 5, {"kind": "similarity", "delta": 0.3})))]
    txns = [{"id": f"t{i}", "read_set": [o["id"]],
             "retrieval": {o["id"]: 0 if retrieval_mode == "store" else 1},
             "analysis": {o["id"]: 2}, "deadline": 12,
             "arrival": {"kind": "periodic", "start": 1, "period": 9},
             "retrieval_mode": retrieval_mode} for i, o in enumerate(objects)]
    return config_from_dict({"name": "walks", "horizon": horizon,
                             "mode": "multiversion", "enforce_admission": False,
                             "seed": 11, "objects": objects, "transactions": txns})


def _decisions_match_value_at(cfg, records):
    """The number of update decisions in `records`, each checked against
    `RandomWalkProcess.value_at` on the declared grid."""
    specs = {o.id: o for o in cfg.objects}
    decisions = 0
    for t, kind, subject, detail in records:
        if kind == "update_decision":
            spec = specs[subject]
            assert detail["sampled"] == spec.value_process.value_at(
                t, t // spec.update_period, cfg.seed, subject), (subject, t)
            decisions += 1
    return decisions


def test_a_run_without_walks_registers_no_table_entry():
    cfg = _walk_fleet(300)
    records = []
    sim = Simulator(cfg, sink=records.extend)
    sim.run()
    assert all(stream.sampler.values is None for stream in sim._streams.values())
    assert _decisions_match_value_at(cfg, records) > 100


def test_stream_bound_samples_match_value_at_inside_and_past_a_shared_table(monkeypatch):
    # the first run fills the table up to 200; the second reads it there
    # through its streams and extends it past its end
    walks = {}
    short, long = _walk_fleet(200), _walk_fleet(500)
    assert {o.policy.kind for o in short.objects} == {"periodic", "elastic", "similarity"}
    Simulator(short, walks=walks).run()
    reach = {key[2]: len(values) for key, values in walks.items()}
    assert sorted(reach) == ["a", "b", "c"]
    records = []
    sim = Simulator(long, sink=records.extend, walks=walks)
    asked = set()  # the (object id, t) of each `sample` call
    sample = ValueSampler.sample

    def counted(sampler, t):
        asked.add((sampler.object_id, t))
        return sample(sampler, t)

    monkeypatch.setattr(ValueSampler, "sample", counted)
    sim.run()
    # b releases on a stretched grid, indexed by its declared period
    assert sim._streams["b"].period > sim._streams["b"].sampler.period == 6
    tables = {key[2]: values for key, values in walks.items()}
    assert all(stream.sampler.values is tables[oid] for oid, stream in sim._streams.items())
    assert _decisions_match_value_at(long, records) > 150
    specs = {o.id: o for o in long.objects}
    inside = past = 0
    for t, kind, subject, _ in records:
        if kind == "update_decision":
            in_table = t // specs[subject].update_period < reach[subject]
            # a sample inside the table is the stream's, past it the sampler's
            assert ((subject, t) not in asked) == in_table, (subject, t)
            inside += in_table
            past += not in_table
    assert inside > 50 and past > 50


def test_a_walk_steps_once_per_ordinal_with_and_without_a_table(monkeypatch):
    # a sampler that forgot its cursor, or a table that kept no step, would
    # walk again from the start and still give the right values; only the
    # number of steps tells
    steps = count_walk_steps(monkeypatch)
    cfg = _walk_fleet(400, "source")
    specs = {o.id: o for o in cfg.objects}
    walks = {}
    taken = []
    for table in (None, walks, walks):
        records = []
        before = steps["steps"]
        Simulator(cfg, sink=records.extend, walks=table).run()
        taken.append(steps["steps"] - before)
    reach = Counter()  # object id -> the largest ordinal sampled
    sources = 0
    for t, kind, subject, detail in records:
        if kind == "access" and detail["via"] == "source":
            subject = detail["object"]
            sources += 1
        elif kind != "update_decision":
            continue
        reach[subject] = max(reach[subject], t // specs[subject].update_period)
    assert sorted(reach) == ["a", "b", "c"] and sources > 50
    assert taken == [sum(reach.values()), sum(reach.values()), 0]


# -- builtin hash and quantile ---------------------------------------------------

KEY_PARTS = [
    (),
    (0,),
    (1, 9, "o1", "walk"),
    (-1, -(2 ** 70), "\u00f6bj", "arrivals"),
    (2 ** 64, 2 ** 200 + 3, "\u65e5\u672c#1", "astral \U0001f600"),
    ("a|b", "", 'q"uote', "ctl\x00\n"),
]


def test_importing_freshsim_loads_no_openssl_and_no_statistics():
    # a fresh interpreter, since this one has imported them for the tests
    src = Path(freshsim.workload.__file__).resolve().parent.parent
    code = ("import sys, freshsim, freshsim.cli; print(sorted("
            "{'hashlib', '_hashlib', 'statistics'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)}, check=True)
    assert out.stdout == "[]\n"


# Python 3.12 renamed the builtin `_sha256` to `_sha2`, so each interpreter
# lists only one of the two names workload.py tries
_ALLOWED = sys.stdlib_module_names | {"_sha2", "_sha256", "freshsim"}


def test_freshsim_imports_only_the_standard_library():
    src = Path(freshsim.workload.__file__).resolve().parent
    outside = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # not an import, or a relative one: freshsim itself
            outside += [f"{path.name}: {name}" for name in names
                        if name.partition(".")[0] not in _ALLOWED]
    assert outside == []


def test_freshsim_imports_no_name_it_never_uses():
    src = Path(freshsim.workload.__file__).resolve().parent
    unused = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = []
        used = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                # `import a.b` binds `a`
                imported += [alias.asname or alias.name.partition(".")[0]
                             for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported += [alias.asname or alias.name for alias in node.names]
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif (isinstance(node, ast.Assign)
                  and any(isinstance(t, ast.Name) and t.id == "__all__"
                          for t in node.targets)):
                # a package's exports use the names it imports
                used.update(ast.literal_eval(node.value))
        unused += [f"{path.name}: {name}" for name in imported if name not in used]
    assert unused == []


@pytest.mark.parametrize("parts", KEY_PARTS)
def test_stable_key_is_the_head_of_hashlib_sha256(parts):
    text = "|".join(str(p) for p in parts).encode("utf-8")
    assert stable_key(*parts) == int.from_bytes(hashlib.sha256(text).digest()[:8], "big")


def test_normal_quantile_is_normal_dist_inv_cdf_bit_for_bit():
    key = stable_key(3, "quantile")
    # uniform_at's smallest draw, and the largest float below 1 (a float
    # literal 1 - 2**-54 rounds to 1.0, where inv_cdf is undefined)
    draws = [uniform_at(key, j) for j in range(10_000)] + [2 ** -54, 1 - 2 ** -53]
    normal = statistics.NormalDist()
    assert ([_normal_dist_inv_cdf(u, 0.0, 1.0).hex() for u in draws]
            == [normal.inv_cdf(u).hex() for u in draws])


@pytest.mark.parametrize("output, expected", [
    (0, 2 ** -54),
    ((2 ** 53 - 2) << 11, (2 ** 53 - 1.5) / 2 ** 53),
    # (2**53 - 1 + 0.5) / 2**53 rounds to 1.0: the draw is clamped below it
    (2 ** 64 - 1, 1 - 2 ** -53),
])
def test_uniform_draws_stay_inside_the_open_unit_interval(monkeypatch, output, expected):
    monkeypatch.setattr(freshsim.workload, "splitmix64_at", lambda key, index: output)
    u = uniform_at(7, 3)
    assert u == expected and 0.0 < u < 1.0
    # the two uses of a draw: a normal quantile (undefined at 1.0) and an
    # exponential gap of at least one tick
    assert math.isfinite(_normal_dist_inv_cdf(u, 0.0, 1.0))
    spec = _txn(Arrival(kind="poisson", mean_gap=5))
    assert next(iter_arrivals(spec, 10 ** 6, 0)) >= 1


def _walk_values(module) -> list[float]:
    """Values of one random walk, by ordinal and along a sampler's grid,
    from the workload module `module`."""
    walk = module.RandomWalkProcess(start=2.5, step_sigma=0.7, seed=4)
    spec = ObjectSpec(id="\u00f6bj", vi=10, update_period=3, value_process=walk)
    sampler = module.ValueSampler(11, spec)
    return ([walk.value_at(0, i, 11, spec.id) for i in range(0, 300, 7)]
            + [sampler.sample(t) for t in range(0, 3000, 5)])


def test_workload_without_the_builtin_modules_is_the_fallback(monkeypatch):
    # workload.py executed again, as on an interpreter built without the
    # builtin hashes and `_statistics`; `statistics` is imported afresh, so
    # that it too falls back to its pure-Python quantile
    for name in ("_sha2", "_sha256", "_statistics"):
        monkeypatch.setitem(sys.modules, name, None)
    monkeypatch.delitem(sys.modules, "statistics")
    name = "freshsim._workload_without_builtins"
    spec = importlib.util.spec_from_file_location(name, freshsim.workload.__file__)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    assert module.sha256 is hashlib.sha256
    assert inspect.isfunction(module._normal_dist_inv_cdf)
    assert [module.stable_key(*parts) for parts in KEY_PARTS] == [
        stable_key(*parts) for parts in KEY_PARTS]
    assert _walk_values(module) == _walk_values(freshsim.workload)


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


def _rounded_first_poisson_releases(spec, horizon, seed):
    """Poisson releases with each gap rounded up before it is compared with
    the horizon: the reference for iter_arrivals, which compares first."""
    key = stable_key(seed, spec.id, "arrivals")
    t = i = 0
    while True:
        t += max(1, math.ceil(-spec.arrival.mean_gap * math.log(uniform_at(key, i))))
        i += 1
        if t > horizon:
            return
        yield t


@pytest.mark.parametrize("mean_gap", [1, 2, 7, 50, 10 ** 4])
def test_poisson_releases_do_not_change_with_the_unrounded_gap_test(mean_gap):
    spec = _txn(Arrival("poisson", mean_gap=mean_gap))
    for seed in range(20):
        for horizon in (1, 2, 30, 5000):
            assert (expand_arrivals(spec, horizon, seed)
                    == list(_rounded_first_poisson_releases(spec, horizon, seed)))


@pytest.mark.parametrize("arrival", [Arrival("oneshot", t=5),
                                     Arrival("periodic", start=3, period=10),
                                     Arrival("poisson", mean_gap=50)])
def test_iter_arrivals_streams_expand_arrivals(arrival):
    spec = _txn(arrival)
    expanded = expand_arrivals(spec, 10_000, seed=7)
    assert list(iter_arrivals(spec, 10_000, seed=7)) == expanded
    # a class never releases twice in one tick, so (deadline, class,
    # release) orders its instances without a tie
    assert all(a < b for a, b in zip(expanded, expanded[1:]))
    # lazy: an effectively endless stream yields its first release at once
    assert next(iter_arrivals(spec, 10**18, seed=7)) == expanded[0]


# -- parsing / validation ----------------------------------------------------------

def test_minimal_config_parses():
    cfg = parse_config(json.dumps(MINIMAL))
    assert cfg.horizon == 100
    assert cfg.objects[0].vi == 10
    assert cfg.objects[0].policy.kind == "periodic"
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


def test_mode_is_required_and_must_name_a_mode():
    with pytest.raises(ConfigError) as err:
        config_from_dict(doc(mode=""))
    assert err.value.errors == [("mode", "must be 'classical' or 'multiversion', got ''")]
    d = doc()
    del d["mode"]
    with pytest.raises(ConfigError) as err:
        config_from_dict(d)
    assert err.value.errors == [("mode", "missing")]


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


@pytest.mark.parametrize("process,error", [
    (SinusoidProcess(period_ticks=0), ("objects[0].process.period", "must be > 0")),
    (RandomWalkProcess(step_sigma=-1), ("objects[0].process.step_sigma", "must be >= 0")),
    (None, ("objects[0].process", "missing process")),
], ids=["sinusoid-period-0", "negative-step-sigma", "no-process"])
def test_a_config_built_in_code_gets_the_process_rules(process, error):
    # such a config meets the process rules only in validate_config, which
    # Simulator runs: none of these may reach a run, where a zero period
    # divides by zero, no process has no value and a negative sigma walks on
    cfg = one_object_config()
    cfg.objects[0].value_process = process
    assert validate_config(cfg) == [error]
    with pytest.raises(ConfigError) as err:
        Simulator(cfg)
    assert err.value.errors == [error]


# a value of an exact class skips the check, so every such value must pass it
_EXACT_VALUES = {int: st.one_of(st.integers(), st.sampled_from([10 ** 400, -10 ** 400])),
                 str: st.text(), bool: st.booleans()}


@pytest.mark.parametrize("scalar", [INT, NUM, STR, BOOL],
                         ids=["INT", "NUM", "STR", "BOOL"])
@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_every_value_of_an_exact_class_passes_the_check(scalar, data):
    assert scalar.exact
    for cls in scalar.exact:
        assert scalar.check(data.draw(_EXACT_VALUES[cls]))


def _errors_with(keys: tuple, value) -> list[tuple[str, str]]:
    """The errors of MINIMAL, given a random-walk process, with the field at
    `keys` below its object set to `value`."""
    d = doc()
    node = d["objects"][0]
    node["process"] = {"kind": "randomwalk", "start": 0.0, "step_sigma": 0.5}
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = value
    with pytest.raises(ConfigError) as err:
        config_from_dict(d)
    return err.value.errors


@pytest.mark.parametrize("keys,message", [
    (("vi",), "must be an integer"),
    (("access_weight",), "must be a number"),
    (("process", "step_sigma"), "must be a number"),
])
def test_a_bool_is_not_a_number(keys, message):
    assert ("objects[0]." + ".".join(keys), message) in _errors_with(keys, True)


_TOO_BIG = "magnitude exceeds the largest float (1.798e+308)"


@pytest.mark.parametrize("keys,value,message", [
    (("access_weight",), math.nan, "must be a number"),
    (("process", "start"), math.inf, "must be a number"),
    (("process", "step_sigma"), -math.inf, "must be a number"),
    (("vi",), 10 ** 400, _TOO_BIG),
    (("access_weight",), 10 ** 400, _TOO_BIG),
    (("process", "step_sigma"), 10 ** 400, _TOO_BIG),
])
def test_a_non_finite_or_huge_number_gives_one_error(keys, value, message):
    assert _errors_with(keys, value) == [("objects[0]." + ".".join(keys), message)]


@pytest.mark.parametrize("kind", [[], ["constant"], {}, {"kind": "constant"}, 5, 2.5,
                                  None, True],
                         ids=["list", "list-of-kind", "dict", "dict-of-kind", "int",
                              "float", "null", "true"])
@pytest.mark.parametrize("records, key", [("objects", "process"), ("objects", "policy"),
                                         ("transactions", "arrival")])
def test_a_kind_that_is_not_a_string_gives_one_kind_error(records, key, kind):
    # a kind that is no table key, unhashable ones included, takes the path
    # that reports errors; the stand-in "" names no kind, but that follows
    # from the type error and is not reported
    d = doc()
    node = d[records][0]
    node[key] = {**node[key], "kind": kind}
    with pytest.raises(ConfigError) as err:
        config_from_dict(d)
    path = f"{records}[0].{key}"
    assert err.value.errors == [(f"{path}.kind", "must be a string")]


@pytest.mark.parametrize("records, key", [("objects", "process"), ("objects", "policy"),
                                         ("transactions", "arrival")])
def test_a_string_that_names_no_kind_gives_one_kind_error(records, key):
    d = doc()
    node = d[records][0]
    node[key] = {**node[key], "kind": "bogus"}
    with pytest.raises(ConfigError) as err:
        config_from_dict(d)
    assert err.value.errors == [(f"{records}[0].{key}.kind", f"unknown {key} kind 'bogus'")]


def test_syntax_error_reports_location():
    with pytest.raises(ConfigError) as err:
        parse_config("{not json")
    assert "line 1" in str(err.value)


@pytest.mark.parametrize("text", ["[]", "null", "3", '"{}"'])
def test_a_top_level_that_is_not_an_object_is_rejected(text):
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert err.value.errors == [("$", "top level must be an object")]


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


_MK_5_2 = {"kind": "mkfirm", "m": 5, "k": 2}
_M_ABOVE_K = "m <= k violated (m=5, k=2)"
_DUPLICATE = ("objects[1].id", "duplicate object id 'o1'")


@pytest.mark.parametrize("first, second, errors", [
    (_MK_5_2, {"kind": "periodic"},
     [("objects[0].policy", _M_ABOVE_K), _DUPLICATE]),
    ({"kind": "periodic"}, _MK_5_2,
     [_DUPLICATE, ("objects[1].policy", _M_ABOVE_K)]),
    (_MK_5_2, {"kind": "similarity", "delta": -1.0},
     [("objects[0].policy", _M_ABOVE_K), _DUPLICATE,
      ("objects[1].policy.delta", "must be >= 0")]),
], ids=["bad-first", "bad-second", "both-bad"])
def test_objects_with_one_id_each_report_their_own_policy(first, second, errors):
    # each object holds its policy, so a duplicated id neither hides one
    # object's bad policy nor reports it at the other object's path
    d = doc()
    d["objects"].append(json.loads(json.dumps(d["objects"][0])))
    d["objects"][0]["policy"] = first
    d["objects"][1]["policy"] = second
    with pytest.raises(ConfigError) as err:
        config_from_dict(d)
    assert err.value.errors == errors


def _parse_errors(mutate) -> list[tuple[str, str]]:
    d = doc()
    mutate(d)
    with pytest.raises(ConfigError) as err:
        config_from_dict(d)
    return err.value.errors


def _build_errors(mutate) -> list[tuple[str, str]]:
    """The errors of a config built in code, which Simulator validates."""
    cfg = one_object_config()
    mutate(cfg)
    with pytest.raises(ConfigError) as err:
        Simulator(cfg)
    assert validate_config(cfg) == err.value.errors
    return err.value.errors


@pytest.mark.parametrize("errors_of_mutated, mutate, errors", [
    (_parse_errors, lambda d: d["transactions"].append(dict(d["transactions"][0])),
     [("transactions[1].id", "duplicate transaction id 't1'")]),
    (_parse_errors, lambda d: d["transactions"][0].__setitem__(
        "arrival", {"kind": "periodic", "start": -1, "period": 5}),
     [("transactions[0].arrival.start", "start must be >= 0")]),
    (_parse_errors, lambda d: d["objects"][0].__setitem__(
        "policy", {"kind": "elastic", "target_utilization": 0.5, "elasticity": -0.5}),
     [("objects[0].policy.elasticity", "must be >= 0")]),
    (_parse_errors, lambda d: d["objects"][0].__setitem__(
        "policy", {"kind": "prediction", "predictor": "linear", "epsilon": -0.5}),
     [("objects[0].policy.epsilon", "must be >= 0")]),
    (_build_errors, lambda cfg: setattr(cfg.transactions[0], "arrival", Arrival("burst")),
     [("transactions[0].arrival.kind", "unknown arrival kind 'burst'")]),
    (_build_errors, lambda cfg: setattr(cfg.objects[0], "policy", None),
     [("objects[0].policy", "missing policy")]),
], ids=["duplicate-transaction", "negative-arrival-start", "negative-elasticity",
        "negative-epsilon", "unknown-arrival-kind", "missing-policy"])
def test_each_validation_rule_reports_its_exact_errors(errors_of_mutated, mutate, errors):
    assert errors_of_mutated(mutate) == errors


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


# -- follow-on errors ----------------------------------------------------------------

def _set(path, value):
    """A mutation of `doc()` that sets the entry at `path`, a tuple of keys."""
    def mutate(d):
        *parents, last = path
        node = d
        for key in parents:
            node = node[key]
        node[last] = value
    return mutate


def _second_object(**fields):
    """A mutation that declares a second object like the first."""
    def mutate(d):
        d["objects"].append({**d["objects"][0], "id": "o2", **fields})
    return mutate


def _another_transaction(**fields):
    """A mutation that declares one more transaction like the first."""
    def mutate(d):
        d["transactions"].append({**d["transactions"][0], **fields})
    return mutate


def _first(key, value):
    """A mutation that puts `value` first in the list at `key`, so that each
    record after it moves one place on."""
    def mutate(d):
        d[key].insert(0, value)
    return mutate


def _elastic(target):
    return {"kind": "elastic", "target_utilization": target}


@pytest.mark.parametrize("mutations, errors", [
    # the zero that stands in for a value that failed its type check meets
    # no rule: not the value's own range rule
    ([_set(("horizon",), "x")], [("horizon", "must be an integer")]),
    ([lambda d: d.pop("horizon")], [("horizon", "missing")]),
    # nor one that compares another field with it
    ([_set(("objects", 0, "period"), "x")],
     [("objects[0].period", "must be an integer")]),
    # nor one that reads it, such as the read set's for the duration maps
    ([_set(("transactions", 0, "read_set"), 5)],
     [("transactions[0].read_set", "must be a list of object ids")]),
    ([_set(("transactions", 0, "retrieval", "o1"), "x")],
     [("transactions[0].retrieval[o1]", "must be an integer")]),
    ([_set(("transactions", 0, "retrieval_mode"), 5),
      _set(("transactions", 0, "retrieval", "o1"), 0)],
     [("transactions[0].retrieval_mode", "must be a string")]),
    ([_set(("objects", 0, "policy"), {"kind": "mkfirm", "m": "x", "k": 3})],
     [("objects[0].policy.m", "must be an integer")]),
    ([_set(("objects", 0, "policy"), {"kind": "elastic", "target_utilization": "x"}),
      _second_object(policy={"kind": "elastic", "target_utilization": 0.5})],
     [("objects[0].policy.target_utilization", "must be a number")]),
    ([_set(("objects", 0, "id"), 5), _second_object(id="")],
     [("objects[0].id", "must be a string"),
      ("transactions[0].read_set[0]", "unknown object id 'o1'")]),
    # a rule that reads no stand-in still reports
    ([_set(("objects", 0, "period"), "x"), _set(("objects", 0, "cost"), -1)],
     [("objects[0].period", "must be an integer"),
      ("objects[0].cost", "update cost must be >= 0")]),
    ([_set(("transactions", 0, "retrieval"), {"o1": "x", "o2": 1})],
     [("transactions[0].retrieval[o1]", "must be an integer"),
      ("transactions[0].retrieval[o2]", "object is not in the read set")]),
    ([_set(("objects", 0, "id"), 5)],
     [("objects[0].id", "must be a string"),
      ("transactions[0].read_set[0]", "unknown object id 'o1'")]),
    # a number past float range is kept, not replaced, so its rules run
    ([_set(("objects", 0, "vi"), -10 ** 400)],
     [("objects[0].vi", "magnitude exceeds the largest float (1.798e+308)"),
      ("objects[0].vi", "validity interval must be > 0")]),
    # another record's failed id hides no duplicate id
    ([_second_object(id="o1"), _second_object(id=5)],
     [("objects[2].id", "must be a string"),
      ("objects[1].id", "duplicate object id 'o1'")]),
    ([_another_transaction(), _another_transaction(id=7)],
     [("transactions[2].id", "must be a string"),
      ("transactions[1].id", "duplicate transaction id 't1'")]),
    # the shared target is compared among the targets in range
    ([_set(("objects", 0, "policy"), _elastic(0.5)),
      _second_object(policy=_elastic(0.9)), _second_object(id="o3", policy=_elastic("x"))],
     [("objects[2].policy.target_utilization", "must be a number"),
      ("objects", "elastic objects must share one target_utilization")]),
    ([_set(("objects", 0, "policy"), _elastic("x")),
      _second_object(policy=_elastic(0.5)), _second_object(id="o3", policy=_elastic(0.9))],
     [("objects[0].policy.target_utilization", "must be a number"),
      ("objects", "elastic objects must share one target_utilization")]),
    ([_set(("objects", 0, "policy"), _elastic(0.5)), _second_object(policy=_elastic(1.5))],
     [("objects[1].policy.target_utilization", "must be in (0, 1]")]),
    # a rule reports at the path the reader gave the record, its place in
    # the document, even after an entry that is not an object
    ([_set(("objects", 0, "period"), "x"), _set(("objects", 0, "cost"), 3),
      _first("objects", 5)],
     [("objects[0]", "must be an object"), ("objects[1].period", "must be an integer")]),
    ([_set(("transactions", 0, "deadline"), "x"), _first("transactions", 5)],
     [("transactions[0]", "must be an object"),
      ("transactions[1].deadline", "must be an integer")]),
    # an id that failed its check equals no id, not even ''
    ([_second_object(id=5), _second_object(id=""), _second_object(id="")],
     [("objects[1].id", "must be a string"), ("objects[3].id", "duplicate object id ''")]),
    ([_set(("objects", 0, "id"), ""), _second_object(id=5), _second_object(id="")],
     [("objects[1].id", "must be a string"), ("objects[2].id", "duplicate object id ''"),
      ("transactions[0].read_set[0]", "unknown object id 'o1'")]),
    ([_set(("transactions", 0, "id"), 5), _another_transaction(id=""),
      _another_transaction(id="")],
     [("transactions[0].id", "must be a string"),
      ("transactions[2].id", "duplicate transaction id ''")]),
], ids=["horizon-type", "horizon-missing", "period-type", "read-set-type",
        "duration-entry-type", "retrieval-mode-type", "mkfirm-m-type",
        "elastic-target-type", "object-id-type", "period-type-cost-range",
        "duration-entry-type-not-in-read-set", "object-id-unknown-in-read-set",
        "huge-negative-vi", "object-id-duplicate-beside-a-type-error",
        "transaction-id-duplicate-beside-a-type-error",
        "elastic-targets-differ-beside-a-type-error-last",
        "elastic-targets-differ-beside-a-type-error-first",
        "elastic-target-out-of-range", "non-object-before-a-bad-object",
        "non-object-before-a-bad-transaction", "object-ids-empty-after-a-type-error",
        "object-ids-empty-around-a-type-error", "transaction-ids-empty-after-a-type-error"])
def test_a_value_that_fails_its_check_gets_no_follow_on_errors(mutations, errors):
    d = doc()
    for mutate in mutations:
        mutate(d)
    with pytest.raises(ConfigError) as err:
        config_from_dict(d)
    assert err.value.errors == errors


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
