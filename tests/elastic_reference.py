"""Reference elastic period rescaling.

A plain copy of `freshsim.policies.elastic_rescale` as it stood before its
sums were kept running across passes, with the `as_fraction` and
`default_elasticity` it used, which parse every float through its repr.
Every pass re-sums the fixed, clamped and active utilization and the
elasticity of the active objects. `tests/test_policies.py` checks the
library against it on drawn fleets: the same periods, or the same
`PolicyInfeasibleError` message.
"""

from __future__ import annotations

import math
from fractions import Fraction

from freshsim.core import PolicyInfeasibleError

DEFAULT_MAX_PERIOD = 2 ** 20


def as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        return Fraction(str(x))
    return Fraction(x)


def default_elasticity(obj) -> Fraction:
    w = as_fraction(obj.access_weight) if obj.access_weight > 0 else Fraction(1)
    return Fraction(1, obj.update_period) / w


def elastic_rescale(objects, target_utilization, elasticity) -> dict:
    target = as_fraction(target_utilization)
    util = {o.id: Fraction(o.update_cost, o.update_period) for o in objects}
    total = sum(util.values(), Fraction(0))
    new_periods = {o.id: o.update_period for o in objects}
    if total <= target:
        return new_periods

    by_id = {o.id: o for o in objects}
    active = [o.id for o in objects
              if elasticity.get(o.id, Fraction(0)) > 0 and o.update_cost > 0]
    floor = {}
    for oid in active:
        o = by_id[oid]
        cap = o.max_period if o.max_period is not None else DEFAULT_MAX_PERIOD
        floor[oid] = Fraction(o.update_cost, cap)
    fixed = total - sum((util[oid] for oid in active), Fraction(0))
    clamped = {}

    while True:
        budget = target - fixed - sum(clamped.values(), Fraction(0))
        demand = sum((util[oid] for oid in active), Fraction(0))
        excess = demand - budget
        if not active:
            raise PolicyInfeasibleError(
                [("policy.elastic",
                  f"target utilization {target} unreachable even at maximal "
                  f"periods (residual over target: {float(excess)})")])
        esum = sum((elasticity[oid] for oid in active), Fraction(0))
        new_util = {}
        violated = []
        for oid in active:
            u = util[oid] - excess * elasticity[oid] / esum
            if u < floor[oid]:
                violated.append(oid)
            else:
                new_util[oid] = u
        if not violated:
            break
        for oid in violated:
            clamped[oid] = floor[oid]
            active.remove(oid)

    for oid, u in list(new_util.items()) + list(clamped.items()):
        o = by_id[oid]
        new_periods[oid] = max(o.update_period, math.ceil(Fraction(o.update_cost) / u))
    return new_periods
