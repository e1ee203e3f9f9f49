"""The benchmark's hooks into freshsim still hold.

`perfbench/layers.py` skips a target that no longer resolves and leaves its
metrics out, so a rename in freshsim would silently drop per-layer figures;
the tracer test fails instead. A fast path that went round a traced
function would make its counts read low, so the runs here check that the
engine still crosses the traced layers once per event, and once per sample
but those that an update stream indexes in a shared walk table. The
benchmark prints the trace hash of its `run` workload without checking it,
so the hash is pinned here, and so is the CSV of its `compare` workload,
which the benchmark checks only when it runs."""

import json
import sys
from collections import Counter
from pathlib import Path

import pytest

import freshsim.engine
from freshsim.cli import main
from freshsim.core import FreshnessMode
from freshsim.engine import Simulator
from freshsim.workload import RandomWalkProcess, config_from_dict

from randgen import random_config

BENCH_DIR = Path(__file__).resolve().parent.parent / "perfbench"
if str(BENCH_DIR) not in sys.path:
    sys.path.insert(0, str(BENCH_DIR))

import gen  # noqa: E402
import layers  # noqa: E402


@pytest.mark.parametrize("name", sorted(layers.TARGETS))
def test_layer_target_resolves(name):
    module_name, qualname, _ = layers.TARGETS[name]
    assert layers._resolve(module_name, qualname) is not None, (module_name, qualname)


def test_restart_cycle_default_seed_trace_hash(tmp_path, capsys):
    # a 1.5 MB trace streamed through the run command's sink and block hash
    config = tmp_path / "restart_cycle.json"
    config.write_text(json.dumps(gen.generate("restart_cycle", 1)), encoding="utf-8")
    assert main(["run", str(config), "--csv", str(tmp_path / "out.csv")]) == 0
    assert "trace hash 27cc95db8d131847" in capsys.readouterr().out


def _small_configs():
    """Random configs, every policy and retrieval mode among them, and the
    default-seed benchmark configs."""
    cfgs = [random_config(seed, mode=mode) for seed in range(30)
            for mode in FreshnessMode]
    return cfgs + [config_from_dict(gen.generate(name, 1))
                   for name in ("restart_cycle", "policy_fleet")]


@pytest.mark.parametrize("walks", [None, "shared"])
def test_runs_cross_the_traced_layers(monkeypatch, walks):
    # "shared": each config runs twice on one random-walk table, as compare
    # variants do. The first run samples each walk value the table lacks;
    # in the second, every update samples a walk inside the table, which
    # its stream indexes without a `sample` call
    handled = Counter()

    def counted(handler):
        def run_handler(sim, t, subject, payload):
            handled[sim] += 1
            return handler(sim, t, subject, payload)
        return run_handler

    monkeypatch.setattr(freshsim.engine, "_HANDLERS",
                        tuple(map(counted, freshsim.engine._HANDLERS)))
    crossed = Counter()
    for cfg in _small_configs():
        walked = {o.id for o in cfg.objects if isinstance(o.value_process, RandomWalkProcess)}
        table = None if walks is None else {}
        for repeat in range(1 if table is None else 2):
            tracer = layers.Tracer({name: layers.TARGETS[name] for name in
                                    ("engine.pop", "engine.push", "workload.sample",
                                     "store.install")})
            with tracer.patched():
                trace = []
                sim = Simulator(cfg, sink=trace.extend, walks=table)
                sim.run()
            spans = tracer.spans
            decisions = sum(kind == "update_decision" for _, kind, _, _ in trace)
            # the update samples of other processes than a random walk
            unwalked = sum(kind == "update_decision" and subject not in walked
                           for _, kind, subject, _ in trace)
            source_reads = sum(kind == "access" and detail["via"] == "source"
                               for _, kind, _, detail in trace)
            installs = sum(kind == "install" for _, kind, _, _ in trace)
            samples = spans["workload.sample"].calls
            if table is None:
                assert samples == decisions + source_reads
            elif repeat:
                assert samples == unwalked + source_reads
            else:
                assert unwalked + source_reads <= samples <= decisions + source_reads
            assert spans["engine.pop"].calls == handled[sim]
            # every event pushed was popped, unless the horizon cut it off
            assert spans["engine.pop"].calls == spans["engine.push"].calls - len(sim.queue)
            assert spans["store.install"].calls == installs
            crossed.update(decisions=decisions, source_reads=source_reads,
                           installs=installs, bound=decisions - unwalked)
    assert all(crossed[name] for name in ("decisions", "source_reads", "installs", "bound"))


def test_policy_fleet_default_seed_reproduces_the_pinned_csv(tmp_path):
    spec = gen.load_spec()
    command, *args = spec["workloads"]["policy_fleet"]["cli"]
    config = tmp_path / "policy_fleet.json"
    config.write_text(json.dumps(gen.generate("policy_fleet", spec["default_seed"])),
                      encoding="utf-8")
    out = tmp_path / "out.csv"
    assert main([command, str(config), *args, "--csv", str(out)]) == 0
    assert out.read_bytes() == (BENCH_DIR / "expected" / "policy_fleet.csv").read_bytes()
