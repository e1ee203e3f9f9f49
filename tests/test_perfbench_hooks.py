"""The benchmark's hooks into freshsim still hold.

`perfbench/layers.py` skips a target that no longer resolves and leaves its
metrics out, so a rename in freshsim would silently drop per-layer figures;
the tracer test fails instead. The benchmark prints the trace hash of its
`run` workload without checking it, so the hash is pinned here."""

import json
import sys
from pathlib import Path

import pytest

from freshsim.cli import main

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
