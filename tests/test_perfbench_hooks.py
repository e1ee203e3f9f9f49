"""The benchmark's per-layer tracer finds every function it wraps.

`perfbench/layers.py` skips a target that no longer resolves and leaves its
metrics out, so a rename in freshsim would silently drop per-layer figures.
This test fails instead."""

import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent / "perfbench"
if str(BENCH_DIR) not in sys.path:
    sys.path.insert(0, str(BENCH_DIR))

import layers  # noqa: E402


@pytest.mark.parametrize("name", sorted(layers.TARGETS))
def test_layer_target_resolves(name):
    module_name, qualname, _ = layers.TARGETS[name]
    assert layers._resolve(module_name, qualname) is not None, (module_name, qualname)
