"""Smoke test of the benchmark at a tiny size.

    python3 -m pytest -q perfbench/test_smoke.py

Checks that tracing does not change results, that repeats agree on the CSV
and trace hash, that the layer accounting adds up, and that the metric names
of workloads.json, layers.py and BENCHMARK.json agree.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import re
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
for path in (BENCH_DIR, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import gen  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from freshsim.cli import main  # noqa: E402

TINY = {
    "restart_cycle": {"horizon": 400, "classes": 8},
    "policy_fleet": {"horizon": 40, "objects": 20},
}


def _tiny_spec() -> dict:
    spec = copy.deepcopy(gen.load_spec())
    for workload, params in TINY.items():
        spec["workloads"][workload]["params"].update(params)
    return spec


def _command(tmp_path: Path, workload: str, tracer=None):
    """Run the workload's command once; returns (csv text, trace hash)."""
    spec = _tiny_spec()
    config = tmp_path / f"{workload}.json"
    config.write_text(json.dumps(gen.generate(workload, 3, spec)), encoding="utf-8")
    out_csv = tmp_path / "out.csv"
    out_csv.unlink(missing_ok=True)
    sub, *extra = spec["workloads"][workload]["cli"]
    out = io.StringIO()
    patch = tracer.patched() if tracer else contextlib.nullcontext()
    with patch, contextlib.redirect_stdout(out):
        assert main([sub, str(config), *extra, "--csv", str(out_csv)]) == 0
    m = re.search(r"trace hash ([0-9a-f]{16})", out.getvalue())
    return out_csv.read_text(encoding="utf-8"), m and m.group(1)


@pytest.mark.parametrize("workload", sorted(TINY))
def test_traced_equals_untraced(tmp_path, workload):
    plain, plain_hash = _command(tmp_path, workload)
    tracer = layers.Tracer()
    traced, traced_hash = _command(tmp_path, workload, tracer)
    assert traced == plain
    assert traced_hash == plain_hash
    assert tracer.spans["engine.run"].calls >= 1


@pytest.mark.parametrize("workload", sorted(TINY))
def test_repeats_agree(tmp_path, workload):
    first = _command(tmp_path, workload)
    second = _command(tmp_path, workload)
    assert first == second
    if workload == "restart_cycle":
        assert first[1] is not None


def test_wrappers_are_removed_after_tracing(tmp_path):
    import freshsim.cli
    import freshsim.engine

    before = (freshsim.engine.Simulator.run, freshsim.cli.config_from_dict)
    _command(tmp_path, "restart_cycle", layers.Tracer())
    assert (freshsim.engine.Simulator.run, freshsim.cli.config_from_dict) == before


@pytest.mark.parametrize("workload", sorted(TINY))
def test_engine_self_plus_children_is_run_time(tmp_path, workload):
    """Every wrapped call inside Simulator.run is counted once: run's self
    time plus the self times of all spans below it is run's total."""
    tracer = layers.Tracer()
    _command(tmp_path, workload, tracer)
    spans = tracer.spans
    inside_run = ("engine.pop", "engine.push", "workload.arrivals", "workload.sample",
                  "store.gc", "store.install", "store.read", "store.unpin",
                  "policies.mkfirm", "policies.similarity", "policies.prediction",
                  "metrics.record")
    run_span = spans["engine.run"]
    below = sum(spans[n].total - spans[n].child for n in inside_run)
    assert run_span.total - run_span.child > 0
    assert (run_span.total - run_span.child) + below == pytest.approx(run_span.total,
                                                                      rel=1e-9)


def test_missing_target_is_left_out(tmp_path):
    targets = dict(layers.TARGETS)
    targets["policies.mkfirm"] = ("freshsim.policies", "no_such_function", None)
    targets["store.gc"] = ("freshsim.store", "VersionStore.no_such_method", None)
    tracer = layers.Tracer(targets)
    csv_text, _ = _command(tmp_path, "policy_fleet", tracer)
    metrics = layers.layer_metrics(tracer.spans, 1.0, run.overall_rows(csv_text))
    assert "policies.mkfirm" not in tracer.spans
    assert "store.gc_s" not in metrics and "store.gc_calls" not in metrics
    assert "policies.decide_s" in metrics  # the other decision functions remain


def test_metric_names_agree(tmp_path):
    spec = gen.load_spec()
    tracer = layers.Tracer()
    csv_text, _ = _command(tmp_path, "policy_fleet", tracer)
    produced = set(layers.layer_metrics(tracer.spans, 1.0, run.overall_rows(csv_text)))
    produced.add("trace.overhead_s")
    tabled = {m for row in spec["layers"] for m in row["metrics"]}
    assert tabled == produced
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"] for m in declared["per_layer"]} == produced
    assert {w["name"] for w in declared["workloads"]} == set(spec["workloads"])
