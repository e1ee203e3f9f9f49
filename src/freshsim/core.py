"""Domain types for temporal data objects, the freshness predicate, and the
admission (feasibility) check.

All timestamps and durations are integer ticks. Nothing in the engine rounds:
a config that parses is simulated exactly, so two runs with the same config
and seed are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any

Tick = int


class ConfigError(Exception):
    """Raised on invalid configuration. Carries every violation found, each as
    a (path, message) pair, not just the first.

    The `validate` methods of the config types append such pairs, under the
    record path they are given, to the list they are given; a rule that
    compares the value at `path` with others names their paths after it."""

    def __init__(self, errors: list[tuple[str, str]]):
        self.errors = errors
        super().__init__("; ".join(f"{p}: {m}" if p else m for p, m in errors))


class PolicyInfeasibleError(ConfigError):
    """Requested utilization target cannot be met even at maximal periods."""


class SimInternalError(RuntimeError):
    """An engine invariant was violated; indicates a bug, not bad input."""


class FreshnessMode(Enum):
    CLASSICAL = "classical"
    MULTIVERSION = "multiversion"


# Transaction retrieval modes. "store" reads cached versions only, "source"
# always reacquires from the data source, "store_then_source" reads the cache
# but falls back to the source when no usable version exists.
RETRIEVAL_MODES = ("source", "store", "store_then_source")


@dataclass
class ObjectSpec:
    """A temporal data object: identity, validity interval, update costs,
    and the update policy that governs it.

    `vi` is the validity interval: a sampled value is fresh at time t iff
    t <= sample_time + vi. `update_period` and `update_cost` drive the update
    workload; `access_weight` expresses relative access frequency and feeds
    the default elasticity of period rescaling. `policy` is one of the
    policy configs of `freshsim.policies`, which decides each update
    instance of this object.
    """

    id: str
    vi: Tick
    update_period: Tick
    update_cost: Tick = 0
    value_process: Any = None
    access_weight: float = 1.0
    max_period: Tick | None = None
    policy: Any = None

    def validate(self, path: str, errors: list[tuple[str, str]]) -> None:
        if self.vi <= 0:
            errors.append((f"{path}.vi", "validity interval must be > 0"))
        if self.update_period <= 0:
            errors.append((f"{path}.period", "update period must be > 0"))
        if self.update_cost < 0:
            errors.append((f"{path}.cost", "update cost must be >= 0"))
        elif self.update_cost > self.update_period:
            errors.append((f"{path}.cost", "update cost must be <= update period",
                           f"{path}.period"))
        if self.access_weight < 0:
            errors.append((f"{path}.access_weight", "access weight must be >= 0"))
        if self.max_period is not None and self.max_period < self.update_period:
            errors.append((f"{path}.max_period", "max_period must be >= period",
                           f"{path}.period"))
        if self.value_process is None:
            errors.append((f"{path}.process", "missing process"))
        else:
            self.value_process.validate(f"{path}.process", errors)
        if self.policy is None:
            errors.append((f"{path}.policy", "missing policy"))
        else:
            self.policy.validate(f"{path}.policy", errors)


@dataclass(slots=True)
class Version:
    """One timestamped sample of a temporal object.

    `expires` is the last instant at which the version is fresh: its
    sample time plus the object's validity interval when it is built, plus
    one update period for each skipped or suppressed update that confirms
    it. `holders` lists, in pin order, whoever pins the version; a version
    is pinned while the list is non-empty.

    A store numbers the versions of each chain from 1. `seq` 0 marks a
    sample a transaction fetched from the source for itself: it sits in no
    chain and is never pinned.

    A version in a chain is not immutable: a skip extends its `expires`,
    and the install that supersedes it while nobody pins it rewrites its
    value, sample time, seq and expiry as the new newest version. Only its
    chain refers to such a version, since a reader refers to no store
    version that it does not pin; whoever keeps a store version must pin
    it.
    """

    object_id: str
    value: float
    sample_time: Tick
    seq: int
    expires: Tick
    holders: list = field(default_factory=list)


@dataclass
class Arrival:
    """Release pattern of a transaction: one-shot, periodic, or Poisson.

    Poisson gaps are drawn by inverse transform from a seeded splitmix64
    stream, rounded up to whole ticks, so expansions are reproducible.
    `mean_gap` is the expected inter-arrival time in ticks.
    """

    kind: str  # "oneshot" | "periodic" | "poisson"
    t: Tick = 0
    start: Tick = 0
    period: Tick = 0
    mean_gap: Tick = 0

    def validate(self, path: str, errors: list[tuple[str, str]]) -> None:
        if self.kind == "oneshot":
            if self.t < 0:
                errors.append((f"{path}.t", "arrival time must be >= 0"))
        elif self.kind == "periodic":
            if self.start < 0:
                errors.append((f"{path}.start", "start must be >= 0"))
            if self.period <= 0:
                errors.append((f"{path}.period", "period must be > 0"))
        elif self.kind == "poisson":
            if self.mean_gap <= 0:
                errors.append((f"{path}.mean_gap", "mean gap must be > 0"))
        else:
            errors.append((f"{path}.kind", f"unknown arrival kind {self.kind!r}"))


@dataclass
class UserTxnSpec:
    """A deadline-constrained analysis transaction over a set of objects.

    The transaction visits `read_set` in order; for each object it spends the
    mapped retrieval time (source acquisitions only) and then the mapped
    analysis time. `relative_deadline` is measured from release.
    """

    id: str
    read_set: list[str]
    retrieval_time: dict[str, Tick]
    analysis_time: dict[str, Tick]
    relative_deadline: Tick
    arrival: Arrival = field(default_factory=lambda: Arrival("oneshot", t=0))
    retrieval_mode: str = "source"

    def validate(self, path: str, object_ids: set[str],
                 errors: list[tuple[str, str]]) -> None:
        if not self.read_set:
            errors.append((f"{path}.read_set", "read set must not be empty"))
        seen = set()
        for i, oid in enumerate(self.read_set):
            if oid not in object_ids:
                errors.append((f"{path}.read_set[{i}]", f"unknown object id {oid!r}"))
            if oid in seen:
                errors.append((f"{path}.read_set[{i}]", f"duplicate object id {oid!r}"))
            seen.add(oid)
        for oid in self.read_set:
            r = self.retrieval_time.get(oid)
            if r is None:
                errors.append((f"{path}.retrieval", f"missing retrieval time for {oid!r}"))
            elif self.retrieval_mode in ("source", "store_then_source"):
                if r <= 0:
                    errors.append((f"{path}.retrieval[{oid}]",
                                   "retrieval time must be > 0 for source acquisition",
                                   f"{path}.retrieval_mode"))
            elif r < 0:
                errors.append((f"{path}.retrieval[{oid}]", "retrieval time must be >= 0",
                               f"{path}.retrieval_mode"))
            a = self.analysis_time.get(oid)
            if a is None:
                errors.append((f"{path}.analysis", f"missing analysis time for {oid!r}"))
            elif a <= 0:
                errors.append((f"{path}.analysis[{oid}]", "analysis time must be > 0"))
        if not (seen.issuperset(self.retrieval_time)
                and seen.issuperset(self.analysis_time)):
            for key, times in (("retrieval", self.retrieval_time),
                               ("analysis", self.analysis_time)):
                for oid in times:
                    if oid not in seen:
                        errors.append((f"{path}.{key}[{oid}]",
                                       "object is not in the read set", f"{path}.read_set"))
        if self.relative_deadline <= 0:
            errors.append((f"{path}.deadline", "relative deadline must be > 0"))
        if self.retrieval_mode not in RETRIEVAL_MODES:
            errors.append((f"{path}.retrieval_mode",
                           f"must be one of {', '.join(RETRIEVAL_MODES)}"))
        self.arrival.validate(f"{path}.arrival", errors)


def is_fresh(version: Version, t: Tick) -> bool:
    """Freshness predicate: a version is fresh at t iff t <= its expiry,
    u + vi for a sample taken at u that no skip has confirmed. The boundary
    is inclusive: a value is still fresh at the exact instant its validity
    interval ends."""
    return t <= version.expires


@dataclass
class FeasibilityEntry:
    object_id: str
    vi: Tick
    retrieval: Tick
    analysis: Tick

    @property
    def ok(self) -> bool:
        return self.vi >= self.retrieval + self.analysis


@dataclass
class FeasibilityReport:
    entries: list[FeasibilityEntry]

    @property
    def passed(self) -> bool:
        return all(e.ok for e in self.entries)

    def failing_objects(self) -> list[str]:
        return [e.object_id for e in self.entries if not e.ok]


def feasibility_check(txn: UserTxnSpec, objects: dict[str, ObjectSpec]) -> FeasibilityReport:
    """Check, per object read by the transaction, that the validity interval
    covers retrieval plus analysis time: vi >= R + A.

    A transaction violating this for any object can be forced to reacquire
    and reanalyze indefinitely, so the run-level admission gate is built on
    this check. Durations are taken as declared by the workload; no contention
    inflation is applied.
    """
    entries = []
    for oid in txn.read_set:
        obj = objects.get(oid)
        if obj is None:
            raise ConfigError([(f"txn[{txn.id}].read_set", f"unknown object id {oid!r}")])
        entries.append(FeasibilityEntry(
            object_id=oid,
            vi=obj.vi,
            retrieval=txn.retrieval_time[oid],
            analysis=txn.analysis_time[oid],
        ))
    return FeasibilityReport(entries=entries)
