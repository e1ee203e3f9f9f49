"""Update workload policies: when is a temporal object refreshed, skipped, or
suppressed.

Six policies are supported, one per object per run:

* periodic        - update every `period` ticks, unconditionally.
* ondemand        - no periodic instances; refresh only when an access finds
                    the stored version stale.
* elastic         - keep periodic updates but stretch periods (and validity
                    intervals with them) until total update utilization meets
                    a target; colder objects stretch more.
* mkfirm          - periodic instances, but skip as many as the (m,k) window
                    guarantee allows: after the cold start, every k
                    instances skip k-m and then perform m, so every k
                    consecutive instances perform at least m updates.
* similarity      - periodic instances; skip when the sampled value is within
                    a dead band `delta` of the last installed value.
* prediction      - periodic instances; transmit only when the sampled value
                    deviates from a predictor shared by source and sink by
                    more than `epsilon`.

Each policy decides every update instance of its object itself: the engine
calls `decide(state, t, sampled, newest)` with the per-run state that
`new_state()` made. Skipping or suppressing an instance extends the current
version's effective validity by one update period: the instance is a virtual
update confirming the stored value.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .core import ObjectSpec, PolicyInfeasibleError, Tick, Version

# Decisions recorded in the policy trace. Transmit/suppress are the
# prediction-policy spellings of perform/skip.
PERFORM = "perform"
SKIP = "skip"
TRANSMIT = "transmit"
SUPPRESS = "suppress"
PERFORMED = (PERFORM, TRANSMIT)  # the decisions that install a version

PREDICTOR_KINDS = ("lastvalue", "linear")

# Periods never stretch past this unless the object declares its own
# max_period; keeps the rescaling fixed point finite.
DEFAULT_MAX_PERIOD = 2 ** 20


def as_fraction(x) -> Fraction:
    """Exact rational from a config number. Floats go through their shortest
    decimal repr, so JSON 0.4 becomes 2/5, not the nearest binary float."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        if x.is_integer() and -2 ** 53 < x < 2 ** 53:
            # the repr of such a float is its integer and ".0"
            return Fraction(int(x))
        return Fraction(str(x))
    return Fraction(x)


# ---------------------------------------------------------------------------
# policy configs


class _Policy:
    """Defaults: releases on the update period, nothing to validate, no
    per-run state, every instance performs and the sink takes the sample."""

    periodic = True

    def validate(self, path, errors):
        pass

    def new_state(self):
        """Per-run decision state, kept by the engine, not in the config."""
        return None

    def decide(self, state, t: Tick, sampled: float,
               newest: Version | None) -> tuple[str, float, dict]:
        """Decide the update instance released at t that sampled `sampled`;
        `newest` is the stored version, None before the first install.
        Returns the decision, the value the sink holds after it, and extra
        detail for the trace record, or None when there is none."""
        return PERFORM, sampled, None


@dataclass
class PeriodicPolicy(_Policy):
    kind: str = "periodic"


@dataclass
class OnDemandPolicy(_Policy):
    """Refreshes are launched by readers that find the store stale, and
    each one performs."""

    periodic = False
    kind: str = "ondemand"


@dataclass
class ElasticPolicy(_Policy):
    target_utilization: float = 1.0
    elasticity: float | None = None  # None: derived from period and weight
    kind: str = "elastic"

    def validate(self, path, errors):
        # a float compares with 0 and 1 as its repr does, since the repr
        # rounds back to the float, so no exact fraction is needed here
        if not (0 < self.target_utilization <= 1):
            errors.append((f"{path}.target_utilization", "must be in (0, 1]"))
        if self.elasticity is not None and self.elasticity < 0:
            errors.append((f"{path}.elasticity", "must be >= 0"))


@dataclass
class MKFirmPolicy(_Policy):
    m: int = 1
    k: int = 1
    kind: str = "mkfirm"

    def validate(self, path, errors):
        if not (1 <= self.m <= self.k):
            errors.append((path, f"m <= k violated (m={self.m}, k={self.k})",
                           f"{path}.m", f"{path}.k"))

    def new_state(self) -> itertools.count:
        """The index of the next decision made with a stored version."""
        return itertools.count()

    def decide(self, index, t, sampled, newest):
        if newest is None:
            # cold start: nothing stored to confirm, update is forced; it
            # leaves the window all performs, so it takes no index
            return PERFORM, sampled, None
        decision = mk_firm_decision(self.m, self.k, next(index))
        return decision, sampled if decision == PERFORM else newest.value, None


@dataclass
class SimilarityPolicy(_Policy):
    delta: float = 0.0
    kind: str = "similarity"

    def validate(self, path, errors):
        if self.delta < 0:
            errors.append((f"{path}.delta", "must be >= 0"))

    def decide(self, state, t, sampled, newest):
        if newest is None:
            return PERFORM, sampled, {"stored": None}
        decision = similarity_decision(newest.value, sampled, self.delta)
        sink = sampled if decision == PERFORM else newest.value
        return decision, sink, {"stored": newest.value}


@dataclass
class PredictionPolicy(_Policy):
    predictor: str = "lastvalue"
    epsilon: float = 0.0
    kind: str = "prediction"

    def validate(self, path, errors):
        if self.predictor not in PREDICTOR_KINDS:
            errors.append((f"{path}.predictor",
                           f"must be one of {', '.join(PREDICTOR_KINDS)}"))
        if self.epsilon < 0:
            errors.append((f"{path}.epsilon", "must be >= 0"))

    def new_state(self) -> PredictorState:
        return PredictorState(self.predictor)

    def decide(self, state, t, sampled, newest):
        if newest is None:
            # cold start: transmit even if the predictor already holds a
            # point; with cost = period the first install lands in the tick
            # of the next release, after it
            state.record_transmit(sampled, t)
            return TRANSMIT, sampled, {"predicted": None}
        decision, predicted = prediction_decision(state, sampled, t, self.epsilon)
        sink = sampled if decision == TRANSMIT else predicted
        return decision, sink, {"predicted": predicted}


PolicyConfig = (PeriodicPolicy | OnDemandPolicy | ElasticPolicy
                | MKFirmPolicy | SimilarityPolicy | PredictionPolicy)


# ---------------------------------------------------------------------------
# elastic period rescaling


def default_elasticity(obj: ObjectSpec) -> Fraction:
    """Cold objects (updated often relative to how often they are read)
    stretch the most: elasticity defaults to 1 / (period * access_weight).
    A weight of 1, the default, or one that is not > 0, counts as 1."""
    w = obj.access_weight
    if w == 1 or not w > 0:
        return Fraction(1, obj.update_period)
    w = as_fraction(w)
    return Fraction(w.denominator, obj.update_period * w.numerator)


def elastic_rescale(objects: list[ObjectSpec], target_utilization,
                    elasticity: dict[str, Fraction]) -> dict[str, Tick]:
    """Stretch update periods until total utilization sum(C_i/P_i) meets the
    target; returns the new period per object id.

    If utilization already meets the target, periods are unchanged. Otherwise
    each active object (elasticity and cost both > 0) sheds utilization in
    proportion to its elasticity e_i; any object pushed below the floor
    C_i/cap_i implied by its maximum period is clamped there and the
    shortfall is redistributed until a fixed point. Objects with zero
    elasticity or zero cost keep their periods.

    The arithmetic is exact, in integers over one common denominator L, the
    lcm of the target's denominator, every declared period, and each active
    object's cap and elasticity denominator. Scaled by L, U_i = C_i*L/P_i,
    E_i = e_i*L, F_i = C_i*L/cap_i and T = target*L. On each pass the excess
    is X = sum_active U - (T - fixed - sum_clamped F) and S = sum_active E;
    an object's new utilization, times L*S, is U_i*S - X*E_i, so it clamps
    iff U_i*S - X*E_i < F_i*S. At the fixed point an unclamped object's
    period is max(P_i, ceil(C_i*L*S / (U_i*S - X*E_i))) and a clamped one's
    max(P_i, cap_i): integers that never decrease, and the post-rescale
    utilization never exceeds the target.
    """
    target = as_fraction(target_utilization)
    new_periods = {o.id: o.update_period for o in objects}
    # (object, cap, elasticity) per active object; an elasticity is a
    # Fraction or an int, so it is > 0 iff its numerator is
    active = []
    for o in objects:
        e = elasticity.get(o.id, 0)
        if o.update_cost > 0 and e.numerator > 0:
            active.append((o, DEFAULT_MAX_PERIOD if o.max_period is None else o.max_period, e))
    scale = math.lcm(target.denominator, *new_periods.values(),
                     *(cap for _, cap, _ in active),
                     *(e.denominator for _, _, e in active))
    total = sum(o.update_cost * scale // o.update_period for o in objects)
    # T - fixed - sum_clamped F: the utilization left to the active objects
    budget = target.numerator * (scale // target.denominator)
    if total <= budget:
        return new_periods

    # (object, cap, U, E, F) per active object
    rows = []
    for o, cap, e in active:
        rows.append((o, cap, o.update_cost * scale // o.update_period,
                     e.numerator * (scale // e.denominator),
                     o.update_cost * scale // cap))
    budget -= total - sum(row[2] for row in rows)

    # excess > 0 on every pass: on the first it is total - target, and the
    # objects clamped on a pass shed less than the excess asked of them
    while True:
        excess = sum(row[2] for row in rows) - budget
        if not rows:
            raise PolicyInfeasibleError(
                [("policy.elastic",
                  f"target utilization {target} unreachable even at maximal "
                  f"periods (residual over target: {float(Fraction(excess, scale))})")])
        esum = sum(row[3] for row in rows)
        kept = []
        for row in rows:
            o, cap, u, e, f = row
            if u * esum - excess * e < f * esum:
                budget -= f
                new_periods[o.id] = max(o.update_period, cap)
            else:
                kept.append(row)
        if len(kept) == len(rows):
            break
        rows = kept

    # every floor F_i is > 0, so U_i*S - X*E_i >= F_i*S > 0
    for o, _, u, e, _ in rows:
        period = -(-o.update_cost * scale * esum // (u * esum - excess * e))
        new_periods[o.id] = max(o.update_period, period)
    return new_periods


def extend_vi_for_period(obj: ObjectSpec, new_period: Tick) -> Tick:
    """Validity interval that accompanies a stretched period, keeping the
    half-period rule vi = 2P so a fresh version always exists under jitter
    free periodic updates. Never shrinks the declared interval."""
    return max(obj.vi, 2 * new_period)


def effective_objects(objects: list[ObjectSpec]) -> dict[str, ObjectSpec]:
    """The object table a run uses, by id. Rescaling happens at config time:
    an elastic object whose period the rescale stretches is replaced by a
    copy with the stretched period and the validity interval that goes with
    it, and its own policy; every other object is the declared one."""
    table = {o.id: o for o in objects}
    elastic = [o for o in objects if isinstance(o.policy, ElasticPolicy)]
    if not elastic:
        return table
    elasticity = {o.id: default_elasticity(o) if o.policy.elasticity is None
                  else as_fraction(o.policy.elasticity) for o in elastic}
    # elastic objects share one target (validate_config)
    try:
        periods = elastic_rescale(objects, elastic[0].policy.target_utilization, elasticity)
    except PolicyInfeasibleError as e:
        # the target is the first elastic object's, so the error is anchored there
        first = next(i for i, o in enumerate(objects) if o is elastic[0])
        raise PolicyInfeasibleError(
            [(f"objects[{first}].policy.target_utilization", message)
             for _, message in e.errors]) from None
    for obj in elastic:
        period = periods[obj.id]
        if period > obj.update_period:
            table[obj.id] = ObjectSpec(
                obj.id, extend_vi_for_period(obj, period), period, obj.update_cost,
                obj.value_process, obj.access_weight, obj.max_period, obj.policy)
    return table


# ---------------------------------------------------------------------------
# (m,k)-firm skipping


def mk_firm_decision(m: int, k: int, index: int) -> str:
    """Greedy (m,k) rule for the decision at `index`, counted from the first
    decision made with a stored version.

    The greedy rule skips an instance iff the window of the last k-1
    decisions plus this skip still holds at least m performs; otherwise the
    update is forced. The instances before the run count as performs, and a
    forced cold-start perform appends a perform to a window of performs, so
    it leaves the window as it was. From k-1 performs the rule skips k-m
    instances, then performs m, and repeats: any k consecutive decisions of
    that pattern hold exactly m performs, so the k-1 before a perform hold
    m-1 and the k-1 before a skip hold m, which is the greedy test. Every k
    consecutive instances then contain >= m performs."""
    return SKIP if index % k < k - m else PERFORM


# ---------------------------------------------------------------------------
# similarity dead band


def similarity_decision(last_stored_value: float, sampled_value: float,
                        delta: float) -> str:
    """Skip iff the sample is within the dead band of the last installed
    value. Comparing against the stored value, never the previous sample,
    bounds the store's error by delta at every sampling instant."""
    if abs(sampled_value - last_stored_value) < delta:
        return SKIP
    return PERFORM


# ---------------------------------------------------------------------------
# prediction gating


@dataclass
class PredictorState:
    """The last one or two transmitted (value, time) points, shared by the
    data source and the sink.

    Both sides would hold the same points, since both update them only on
    transmit, so both compute identical predictions; that is what makes
    suppression safe. The state therefore holds one copy of the points.
    """

    predictor: str  # "lastvalue" | "linear"
    points: tuple[tuple[float, Tick], ...] = ()

    def predict(self, t: Tick) -> float | None:
        """Prediction at time t; None until a point exists."""
        pts = self.points
        if not pts:
            return None
        if self.predictor == "lastvalue" or len(pts) < 2:
            return pts[-1][0]
        (v0, t0), (v1, t1) = pts[-2], pts[-1]
        return v1 + (v1 - v0) * (t - t1) / (t1 - t0)

    def record_transmit(self, value: float, t: Tick) -> None:
        self.points = (self.points + ((value, t),))[-2:]


def prediction_decision(state: PredictorState, sampled_value: float,
                        sample_time: Tick, epsilon: float) -> tuple[str, float | None]:
    """Transmit iff the sample deviates from the shared prediction by more
    than epsilon (always transmits while the predictor has no points).
    Returns the decision and the predicted value; on suppress the sink's
    effective value at this instant is that prediction."""
    predicted = state.predict(sample_time)
    if predicted is None or abs(sampled_value - predicted) > epsilon:
        state.record_transmit(sampled_value, sample_time)
        return TRANSMIT, predicted
    return SUPPRESS, predicted
