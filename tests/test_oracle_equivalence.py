"""Event-driven engine vs tick-by-tick oracle on randomized small configs."""

from hypothesis import given, settings
from hypothesis import strategies as st

from freshsim.core import FreshnessMode

from randgen import random_config
from support import engine_outcomes
from tick_oracle import oracle_outcomes


def compare_seed(seed: int, **kwargs) -> None:
    cfg = random_config(seed, **kwargs)
    engine = engine_outcomes(cfg)
    oracle = oracle_outcomes(cfg)
    assert engine == oracle, f"divergence at generator seed {seed}"


def test_engine_matches_oracle_mixed_modes():
    for seed in range(120):
        compare_seed(seed)


def test_engine_matches_oracle_classical_only():
    for seed in range(1000, 1060):
        compare_seed(seed, mode=FreshnessMode.CLASSICAL)


def test_engine_matches_oracle_multiversion_only():
    for seed in range(2000, 2060):
        compare_seed(seed, mode=FreshnessMode.MULTIVERSION)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       mode=st.sampled_from([None, *FreshnessMode]),
       enforce=st.sampled_from([None, False, True]))
def test_engine_matches_oracle_on_drawn_configs(seed, mode, enforce):
    # None leaves the mode, or the admission gate, to the generator's seed
    compare_seed(seed, mode=mode, enforce=enforce)
