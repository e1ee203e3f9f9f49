"""Golden corpus: the trace hash, emitted-config digest and metrics-report
digest of a fixed set of configs, and the ordered error list of seeded
malformed configs, pinned in golden_hashes.json.

The report digest covers the `emit_csv_rows` output, so a change of trace
format, which re-pins only the trace hashes, shows that every report stays
the same. A change that alters any of them on purpose must re-pin the file
in the same change and say why:

    PYTHONPATH=src python3 tests/test_golden.py
"""

from __future__ import annotations

import copy
import hashlib
import json
import random
from dataclasses import replace
from pathlib import Path

from freshsim.core import ConfigError, FreshnessMode
from freshsim.metrics import MetricsAggregator, emit_csv_rows
from freshsim.policies import (
    ElasticPolicy,
    OnDemandPolicy,
    PeriodicPolicy,
    PredictionPolicy,
    SimilarityPolicy,
)
from freshsim.workload import config_from_dict, emit_config

from randgen import feasible_isolated_config, random_config
from support import hash_records, run_records
from test_acceptance import (
    CHECK_DOC,
    error_bound_config,
    infeasible_restart_config,
    mk_window_config,
    mv_continuation_config,
    on_demand_savings_config,
)

GOLDEN = Path(__file__).with_name("golden_hashes.json")
MALFORMED_CASES = 300


def _oracle_seeds():
    """The generator seeds and modes of test_oracle_equivalence.py."""
    for seed in range(120):
        yield f"{seed}", random_config(seed)
    for seed in range(1000, 1060):
        yield f"{seed}", random_config(seed, mode=FreshnessMode.CLASSICAL)
    for seed in range(2000, 2060):
        yield f"{seed}", random_config(seed, mode=FreshnessMode.MULTIVERSION)


def _acceptance():
    yield "criterion1", infeasible_restart_config()
    for mode in FreshnessMode:
        yield f"criterion2/{mode.value}", mv_continuation_config(mode)
    yield "criterion3", config_from_dict(copy.deepcopy(CHECK_DOC))
    for seed in range(200):
        yield f"criterion4/{seed}", feasible_isolated_config(seed)
    for seed in range(200):
        yield f"criterion5/{seed}", random_config(seed, mode=FreshnessMode.MULTIVERSION,
                                                  horizon_range=(30, 150))
    yield "criterion6/periodic", on_demand_savings_config(PeriodicPolicy())
    yield "criterion6/ondemand", on_demand_savings_config(OnDemandPolicy())
    for m, k in ((1, 2), (2, 3), (3, 5)):
        yield f"criterion7/{m}-{k}", mk_window_config(m, k)
    yield "criterion8/similarity", error_bound_config(SimilarityPolicy(delta=0.5))
    for predictor in ("lastvalue", "linear"):
        yield f"criterion8/{predictor}", error_bound_config(
            PredictionPolicy(predictor=predictor, epsilon=1.0))


def corpus():
    """(name, config) pairs: the oracle seeds as generated, the same seeds
    with every object elastic, and the acceptance scenarios."""
    for name, cfg in _oracle_seeds():
        yield f"oracle/{name}", cfg
        elastic = [replace(o, policy=ElasticPolicy(target_utilization=0.5))
                   for o in cfg.objects]
        yield f"elastic/{name}", replace(cfg, objects=elastic)
    for name, cfg in _acceptance():
        yield f"acceptance/{name}", cfg


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def fingerprint(cfg) -> dict:
    """Config digest, trace hash and report digest. The same config object
    runs twice and must give the same trace both times: per-run state must
    not leak into the config. The report is a function of the records: a
    fresh aggregator fed the run's trace gives the same report."""
    digest = _digest(emit_config(cfg))
    try:
        result, records = run_records(cfg)
    except ConfigError as e:
        return {"config": digest, "error": str(e)}
    first = hash_records(records)
    assert hash_records(run_records(cfg)[1]) == first
    rows = emit_csv_rows(result, cfg.name, cfg.mode.value, "golden")
    replay = MetricsAggregator()
    replay.record(records)
    report = replay.finalize()
    assert report.per_class == result.per_class
    assert report.per_object == result.per_object
    assert emit_csv_rows(report, cfg.name, cfg.mode.value, "golden") == rows
    return {"config": digest, "trace": first, "report": _digest("\n".join(rows))}


# -- malformed configs ----------------------------------------------------------

_BAD_VALUES = (None, True, "x", "", -1, 0, 2.5, -0.5, float("nan"), 10 ** 30,
               [], {}, ["o0"], {"kind": "constant"})
_KINDS = ("constant", "randomwalk", "sinusoid", "periodic", "ondemand",
          "elastic", "mkfirm", "similarity", "prediction", "oneshot",
          "poisson", "bogus")


def _pick(rng: random.Random, doc):
    """A random (container, key) inside doc. Dict keys are drawn in sorted
    order, so the pick does not depend on the order a dict was built in."""
    node = doc
    while True:
        keys = sorted(node) if isinstance(node, dict) else list(range(len(node)))
        if not keys:
            return None
        key = rng.choice(keys)
        child = node[key]
        if isinstance(child, (dict, list)) and child and rng.random() < 0.7:
            node = child
            continue
        return node, key


def malformed_doc(case: int) -> dict:
    """A config document with one to three seeded defects."""
    rng = random.Random(case)
    cfg = random_config(rng.randrange(10_000))
    if rng.random() < 0.3:
        elastic = [replace(o, policy=ElasticPolicy(target_utilization=0.5, elasticity=1.0))
                   for o in cfg.objects]
        cfg = replace(cfg, objects=elastic)
    doc = json.loads(emit_config(cfg))
    for _ in range(rng.randint(1, 3)):
        picked = _pick(rng, doc)
        if picked is None:
            continue
        node, key = picked
        roll = rng.random()
        if roll < 0.25 and isinstance(node, dict):
            del node[key]
        elif roll < 0.35 and isinstance(node, dict):
            node["zz_unknown"] = 1
        elif roll < 0.5 and key == "kind":
            node[key] = rng.choice(_KINDS)
        else:
            node[key] = copy.deepcopy(rng.choice(_BAD_VALUES))
    return doc


def config_errors(doc) -> list[str]:
    try:
        config_from_dict(doc)
    except ConfigError as e:
        return [f"{path}: {msg}" for path, msg in e.errors]
    return []


# -- the pinned file ------------------------------------------------------------


def compute() -> dict:
    return {
        "configs": {name: fingerprint(cfg) for name, cfg in corpus()},
        "malformed": [config_errors(malformed_doc(case))
                      for case in range(MALFORMED_CASES)],
    }


def _pinned() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_trace_hashes_and_config_digests():
    pinned = _pinned()["configs"]
    configs = list(corpus())
    assert [name for name, _ in configs] == list(pinned)
    for name, cfg in configs:
        assert fingerprint(cfg) == pinned[name], name


def test_golden_malformed_config_errors():
    pinned = _pinned()["malformed"]
    assert len(pinned) == MALFORMED_CASES
    for case in range(MALFORMED_CASES):
        assert config_errors(malformed_doc(case)) == pinned[case], f"case {case}"


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(compute(), indent=1) + "\n", encoding="utf-8")
