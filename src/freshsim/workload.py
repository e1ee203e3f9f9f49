"""Config ingestion and workload synthesis.

The config is a JSON document:

    {
      "name": "scenario",              // optional
      "horizon": 1000,
      "mode": "classical" | "multiversion",
      "enforce_admission": false,
      "seed": 42,
      "rng": "splitmix64-invexp",      // optional; the only supported stream
      "objects": [
        {"id": "o1", "vi": 10, "period": 5, "cost": 1,
         "access_weight": 1.0,          // optional, default 1
         "max_period": 50,              // optional elastic stretch cap
         "process": {"kind": "constant", "value": 7.0},
         "policy":  {"kind": "periodic"}}
      ],
      "transactions": [
        {"id": "t1", "read_set": ["o1"],
         "retrieval": {"o1": 2},        // or a single int for all objects
         "analysis":  {"o1": 3},
         "deadline": 20,
         "arrival": {"kind": "oneshot", "t": 0},
         "retrieval_mode": "source"}
      ]
    }

All durations are integer ticks; unknown keys are rejected. Validation
reports every violation with its path, not just the first, and none that
follows from another: no rule reports on the stand-in that replaces a value
that failed its check (`_Reader.stand_in`). The rules check each record at
the path the reader gave it, its place in the document's list, and a rule
that compares a value with other fields names their paths beside its error,
so the parse drops the error of a rule that compared a stand-in by its paths
alone. A record id that failed its check stands in as None, which equals no
id, so the duplicate rule never compares one. The schema tables below (TOP,
OBJECT, TRANSACTION, and the PROCESSES, POLICIES and ARRIVALS kinds) state
every key with its type and default, once, for both parsing and emission.

Value processes are counter based: the value at a sampling instant is a pure
function of (seed, object id, instant), so a policy that skips samples cannot
perturb the values later samples see. That is what makes policy comparisons
on identical trajectories meaningful.
"""

from __future__ import annotations

import json
import math
import sys
from collections.abc import Iterator
from dataclasses import dataclass, field
from dataclasses import fields as dataclass_fields

# The interpreter's builtin SHA-256 and normal quantile. `hashlib` would load
# OpenSSL's libcrypto, about 3.5 MB of resident memory, for one digest per
# stream; `statistics` would load its own imports for one quantile function.
try:
    from _sha2 import sha256  # Python 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:  # built without the builtin hashes
        from hashlib import sha256
try:
    from _statistics import _normal_dist_inv_cdf
except ImportError:
    # the pure-Python quantile that `NormalDist.inv_cdf` calls
    from statistics import _normal_dist_inv_cdf

from .core import (
    Arrival,
    ConfigError,
    FreshnessMode,
    ObjectSpec,
    Tick,
    UserTxnSpec,
)
from .policies import (
    ElasticPolicy,
    MKFirmPolicy,
    OnDemandPolicy,
    PeriodicPolicy,
    PolicyConfig,
    PredictionPolicy,
    SimilarityPolicy,
)

RNG_ALGORITHM = "splitmix64-invexp"

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def stable_key(*parts) -> int:
    """64-bit key from a sha256 of the textual parts; stable across runs,
    platforms, and interpreter hash randomization."""
    h = sha256("|".join(str(p) for p in parts).encode("utf-8")).digest()
    return int.from_bytes(h[:8], "big")


def splitmix64_at(key: int, index: int) -> int:
    """index-th output of a splitmix64 stream seeded with key. Counter based:
    output n is a pure function of (key, n)."""
    z = (key + (index + 1) * _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


# the largest float below 1
_BELOW_ONE = 1 - 2 ** -53


def uniform_at(key: int, index: int) -> float:
    """Uniform in the open interval (0, 1). The top draw, (2**53 - 1 + 0.5)
    / 2**53, rounds to 1.0, so it is clamped to the largest float below 1."""
    u = ((splitmix64_at(key, index) >> 11) + 0.5) / (1 << 53)
    return u if u < 1.0 else _BELOW_ONE


# ---------------------------------------------------------------------------
# value processes
#
# Each maps (t, sample ordinal, run seed, object id) to a value with
# `value_at`, and reports its out-of-range fields with `validate`.


@dataclass
class ConstantProcess:
    value: float = 0.0
    kind: str = "constant"

    def value_at(self, t: Tick, index: int, run_seed: int, object_id: str) -> float:
        return float(self.value)

    def validate(self, path: str, errors: list[tuple[str, str]]) -> None:
        """Every value is in range."""


@dataclass
class RandomWalkProcess:
    start: float = 0.0
    step_sigma: float = 1.0
    seed: int = 0
    kind: str = "randomwalk"

    def value_at(self, t: Tick, index: int, run_seed: int, object_id: str) -> float:
        """The walk after `index` steps, walked from the start: the
        reference that `ValueSampler` must match. Two queries with the same
        key and index always agree."""
        key = stable_key(run_seed, self.seed, object_id, "walk")
        value = float(self.start)
        for j in range(1, index + 1):
            value += self.step_sigma * _normal_dist_inv_cdf(uniform_at(key, j), 0.0, 1.0)
        return value

    def validate(self, path: str, errors: list[tuple[str, str]]) -> None:
        if self.step_sigma < 0:
            errors.append((f"{path}.step_sigma", "must be >= 0"))


@dataclass
class SinusoidProcess:
    amplitude: float = 1.0
    period_ticks: Tick = 1
    phase: float = 0.0
    offset: float = 0.0
    kind: str = "sinusoid"

    def value_at(self, t: Tick, index: int, run_seed: int, object_id: str) -> float:
        angle = 2.0 * math.pi * t / self.period_ticks + self.phase
        return self.amplitude * math.sin(angle) + self.offset

    def validate(self, path: str, errors: list[tuple[str, str]]) -> None:
        if self.period_ticks <= 0:
            errors.append((f"{path}.period", "must be > 0"))


class ValueSampler:
    """Per-run sampler of the objects' value processes.

    The walk steps once per declared update period, so the sample at time t
    has ordinal t // period regardless of which policy runs or which instants
    it chooses to sample; that pins the real-world trajectory across policy
    variants of the same seeded workload. The steps add up in the order
    `RandomWalkProcess.value_at` adds them, so the values are the same floats.

    Without `walks` the sampler keeps each random walk's last sample: a run
    asks for nondecreasing ordinals, so each walk steps on from there, and
    an earlier ordinal walks again from the start. `walks` is a table that
    samplers share: (run seed, process seed, object id, start, step_sigma),
    which is all that a walk's values depend on, maps to the list of the
    walk's values by ordinal, extended in place as far as any sampler has
    asked. It holds about horizon / period values per walk. `table_walk`
    hands an object's list to its update stream, which indexes a value
    inside the table itself; `sample` extends the table past its end.
    """

    def __init__(self, seed: int, objects: list[ObjectSpec],
                 walks: dict[tuple, list[float]] | None = None):
        self.seed = seed
        self.specs = {o.id: o for o in objects}
        self.walks = walks
        # object id -> [the walk's values in `walks`, stream key], for each
        # walk the sampler has read there; the key is computed when the
        # sampler first extends the walk, which it may never do
        self._table: dict[str, list] = {}
        # object id -> (stream key, ordinal, walk value at that ordinal)
        self._walks: dict[str, tuple] = {}

    def table_walk(self, object_id: str) -> tuple[list[float], Tick] | None:
        """The values of the object's random walk in `walks`, a list that
        the samplers only extend, and the declared update period that indexes
        them: the value at t is at t // period while that is inside the list.
        None without `walks` or for another process."""
        obj = self.specs[object_id]
        process = obj.value_process
        if self.walks is None or not isinstance(process, RandomWalkProcess):
            return None
        return self._table_walk(obj, process)[0], obj.update_period

    def sample(self, object_id: str, t: Tick) -> float:
        obj = self.specs[object_id]
        process = obj.value_process
        index = t // obj.update_period
        if isinstance(process, RandomWalkProcess):
            # the one process with state: the sampler steps it on
            if self.walks is None:
                return self._walk_value(obj, process, index)
            return self._table_value(obj, process, index)
        return process.value_at(t, index, self.seed, object_id)

    def _table_walk(self, obj: ObjectSpec, process: RandomWalkProcess) -> list:
        walk = self._table.get(obj.id)
        if walk is None:
            walk = self._table[obj.id] = [self.walks.setdefault(
                (self.seed, process.seed, obj.id, process.start, process.step_sigma),
                [float(process.start)]), None]
        return walk

    def _table_value(self, obj: ObjectSpec, process: RandomWalkProcess,
                     index: int) -> float:
        walk = self._table_walk(obj, process)
        values, key = walk
        if index >= len(values):
            if key is None:
                key = walk[1] = stable_key(self.seed, process.seed, obj.id, "walk")
            value = values[-1]
            for j in range(len(values), index + 1):
                value += process.step_sigma * _normal_dist_inv_cdf(
                    uniform_at(key, j), 0.0, 1.0)
                values.append(value)
        return values[index]

    def _walk_value(self, obj: ObjectSpec, process: RandomWalkProcess,
                    index: int) -> float:
        walk = self._walks.get(obj.id)
        if walk is None or walk[1] > index:
            walk = (stable_key(self.seed, process.seed, obj.id, "walk"),
                    0, float(process.start))
        key, j, value = walk
        while j < index:
            j += 1
            value += process.step_sigma * _normal_dist_inv_cdf(
                uniform_at(key, j), 0.0, 1.0)
        self._walks[obj.id] = (key, j, value)
        return value


# ---------------------------------------------------------------------------
# arrivals


def iter_arrivals(spec: UserTxnSpec, horizon: Tick, seed: int) -> Iterator[Tick]:
    """Release times of the transaction up to the horizon, in order. Poisson
    gaps are exponential by inverse transform, rounded up to whole ticks (so
    at least one tick apart), from a stream keyed on (seed, txn id)."""
    a = spec.arrival
    if a.kind == "oneshot":
        if a.t <= horizon:
            yield a.t
        return
    if a.kind == "periodic":
        yield from range(a.start, horizon + 1, a.period)
        return
    key = stable_key(seed, spec.id, "arrivals")
    t = 0
    i = 0
    while True:
        gap = max(1, -a.mean_gap * math.log(uniform_at(key, i)))
        # tested before it is rounded up, since a huge mean gap makes it
        # infinite; for an integer bound, ceil(gap) > bound iff gap > bound
        if gap > horizon - t:
            return
        t += math.ceil(gap)
        i += 1
        yield t


def expand_arrivals(spec: UserTxnSpec, horizon: Tick, seed: int) -> list[Tick]:
    """Every release time of iter_arrivals, as a list."""
    return list(iter_arrivals(spec, horizon, seed))


# ---------------------------------------------------------------------------
# config model


@dataclass
class SimConfig:
    """One run's config: the objects, each with the policy that governs its
    updates, and the transactions that read them."""

    horizon: Tick
    mode: FreshnessMode
    enforce_admission: bool
    seed: int
    objects: list[ObjectSpec]
    transactions: list[UserTxnSpec]
    name: str = "config"
    rng: str = RNG_ALGORITHM
    # set by config_from_dict on the config it validated, and by `compare`
    # on a variant it derived from one, so that Simulator does not validate
    # it again; `dataclasses.replace` builds a config without the mark,
    # since the field is not an __init__ argument
    validated: bool = field(default=False, init=False, compare=False, repr=False)


def validate_config(cfg: SimConfig) -> list[tuple[str, str]]:
    """Every declared invariant, checked; returns the full violation list as
    (path, message) pairs, without the paths that a rule compared
    (`_violations`). Each record's path is its place in its list."""
    return [(path, message) for path, message, *_ in _violations(
        cfg, {f"objects[{i}]": o for i, o in enumerate(cfg.objects)},
        {f"transactions[{i}]": t for i, t in enumerate(cfg.transactions)})]


def _violations(cfg: SimConfig, objects: dict[str, ObjectSpec],
                transactions: dict[str, UserTxnSpec]) -> list[tuple]:
    """The violations of `validate_config`, each with the paths that its
    rule compared the value at its path with (`ConfigError`). `objects` and
    `transactions` map each record of `cfg` to its path. A repeated id is
    reported at each record after the first that holds it. The elastic
    objects' shared target is compared among the targets that meet their
    own range rule, so a stand-in, 0.0, takes no part."""
    errors: list[tuple] = []
    if cfg.horizon <= 0:
        errors.append(("horizon", "must be > 0"))
    if cfg.rng != RNG_ALGORITHM:
        errors.append(("rng", f"unsupported generator {cfg.rng!r}"))
    object_ids = set()
    for path, obj in objects.items():
        if obj.id in object_ids:
            errors.append((f"{path}.id", f"duplicate object id {obj.id!r}"))
        object_ids.add(obj.id)
        obj.validate(path, errors)
    # an int and a float of equal value are one set member, so no float()
    # is needed, and none can overflow on an int past float range
    targets = {o.policy.target_utilization for o in objects.values()
               if isinstance(o.policy, ElasticPolicy)
               and 0 < o.policy.target_utilization <= 1}
    if len(targets) > 1:
        errors.append(("objects", "elastic objects must share one target_utilization"))
    txn_ids = set()
    for path, txn in transactions.items():
        if txn.id in txn_ids:
            errors.append((f"{path}.id", f"duplicate transaction id {txn.id!r}"))
        txn_ids.add(txn.id)
        if txn.id == "overall":
            errors.append((f"{path}.id", "'overall' labels the run-wide CSV row"))
        txn.validate(path, object_ids, errors)
    return errors


# ---------------------------------------------------------------------------
# JSON schema
#
# One table per record states the schema for parsing and emission alike.
# A field is (JSON key, attribute, type, default), listed in the order the
# fields are read, which is the order their errors are reported in. A field
# whose default is REQUIRED must be present; an optional field whose value
# is None is left out of the emitted config.

REQUIRED = object()


def _is_int(x) -> bool:
    # the exact class that `json.loads` builds is tested first
    return x.__class__ is int or (isinstance(x, int) and not isinstance(x, bool))


def _is_num(x) -> bool:
    return math.isfinite(x) if isinstance(x, float) else _is_int(x)


def _at(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


# No number may exceed the largest float in magnitude: runs sample, scale
# and draw arrivals in floats, so a larger int would overflow mid-run.
_FLOAT_MAX = sys.float_info.max


def _check_magnitude(r: _Reader, value, path: str, key: str, oid=None) -> None:
    """Report an int past float range at `path`.`key`, or at its `[oid]`
    entry; the path is only built for the error."""
    if value.__class__ is int and not -_FLOAT_MAX <= value <= _FLOAT_MAX:
        at = _at(path, key)
        r.fail(at if oid is None else f"{at}[{oid}]",
               f"magnitude exceeds the largest float ({_FLOAT_MAX:.4g})")


class _Scalar:
    """A JSON value type: the check a value must pass, which every value of
    an `exact` class passes, the error when it does not, and the stand-in.
    `_Record.read` takes a value of a `plain` class, by default the exact
    ones, as it is, if a number within float range."""

    def __init__(self, check, message, zero, exact=(), plain=None):
        self.check = check
        self.message = message
        self.zero = zero
        self.exact = exact
        self.plain = exact if plain is None else plain
        self.ranged = int in self.plain

    def read(self, r: _Reader, d: dict, key: str, path: str, default):
        """d[key], checked. A missing key gives `default`, or an error if
        that is REQUIRED. After a type error the default, or else the zero,
        stands in, so that the parse goes on; no rule reports on it (see
        `_Reader.stand_in`). A number past float range is itself returned
        after its error: it compares exactly, so later checks report only
        what else is wrong with it."""
        if key in d:
            value = d[key]
            if value.__class__ not in self.exact and not self.check(value):
                r.stand_in(_at(path, key), self.message)
                return self.zero if default is None or default is REQUIRED else default
            if value.__class__ is int and not -_FLOAT_MAX <= value <= _FLOAT_MAX:
                _check_magnitude(r, value, path, key)
            return value
        if default is REQUIRED:
            r.stand_in(_at(path, key), "missing")
            return self.zero
        return default


class _Durations(_Scalar):
    """Ticks per object id, or one int for every object read (expanded once
    the read set is known). An entry that is not an integer has the stand-in
    0."""

    def read(self, r, d, key, path, default):
        value = d.get(key)
        if not isinstance(value, dict):
            return super().read(r, d, key, path, default)
        out = {}
        for oid, ticks in value.items():
            if _is_int(ticks):
                _check_magnitude(r, ticks, path, key, oid)
                out[oid] = ticks
            else:
                r.stand_in(f"{_at(path, key)}[{oid}]", "must be an integer")
                out[oid] = 0
        return out


INT = _Scalar(_is_int, "must be an integer", 0, (int,))
NUM = _Scalar(_is_num, "must be a number", 0.0, (int,), (int, float))
STR = _Scalar(lambda v: isinstance(v, str), "must be a string", "", (str,))
# a record id: its stand-in, None, equals no id that passed its check
ID = _Scalar(STR.check, STR.message, None, (str,))
BOOL = _Scalar(lambda v: isinstance(v, bool), "must be a boolean", False, (bool,))
IDS = _Scalar(lambda v: isinstance(v, list) and all(isinstance(x, str) for x in v),
              "must be a list of object ids", [])
DURATIONS = _Durations(_is_int, "must be an integer or an object id map", {}, (int,))

# the value of a key that `_Record.read` does not find
_MISSING = object()


class _Record:
    """The fields of one JSON object; `extra` names the keys it may also
    hold that are read outside the table. A record with a `cls`, a dataclass
    whose __init__ arguments outside the table have defaults, reads into an
    instance of it, with `kind` if given; one without reads into a dict."""

    def __init__(self, fields, extra=(), cls=None, kind=None):
        self.fields = fields
        self.keys = {key for key, *_ in fields} | set(extra)
        self.cls = cls
        if cls is None:
            self.blank = {}
            slots = [attr for _, attr, _, _ in fields]
        else:
            # the positional arguments of cls, at their defaults
            params = [f for f in dataclass_fields(cls) if f.init]
            names = [f.name for f in params]
            self.blank = [f.default for f in params]
            if kind is not None:
                self.blank[names.index("kind")] = kind
            slots = [names.index(attr) for _, attr, _, _ in fields]
        # each field with its slot in `blank`, its type's plain classes,
        # whether those need the range test, and whether a missing key takes
        # the default as it is
        self.reads = tuple(
            (key, slot, type_, default, getattr(type_, "plain", ()),
             getattr(type_, "ranged", False),
             isinstance(type_, _Scalar) and default is not REQUIRED)
            for (key, _, type_, default), slot in zip(fields, slots))

    def read(self, r: _Reader, d: dict, path: str, key: str | None = None):
        """The instance of `cls`, or else {attribute: value}, from every
        field of `d`, read in table order; `d` is at `path`, or at its `key`
        entry when a key is given. A plain value, or the default of a
        missing optional key, is taken as it is; any other value goes
        through its type's `read`, which alone reports errors, and only then
        is the path built."""
        hi = _FLOAT_MAX
        lo = -hi
        get = d.get
        out = self.blank.copy()
        for name, slot, type_, default, plain, ranged, optional in self.reads:
            value = get(name, _MISSING)
            if value.__class__ in plain and (not ranged or lo <= value <= hi):
                out[slot] = value
            elif value is _MISSING and optional:
                out[slot] = default
            else:
                if key is not None:
                    path, key = _at(path, key), None
                out[slot] = type_.read(r, d, name, path, default)
        return out if self.cls is None else self.cls(*out)

    def dump(self, obj) -> dict:
        out = {}
        for key, attr, type_, _ in self.fields:
            value = getattr(obj, attr)
            if value is not None:
                out[key] = type_.dump(value) if isinstance(type_, _Kinds) else value
        return out


class _Kinds:
    """A JSON object tagged by "kind": each kind maps to the record of the
    class it builds, which takes `kind` as a field. The first kind, with its
    defaults, stands in after an error."""

    def __init__(self, noun: str, table: dict):
        self.noun = noun
        self.table = {kind: _Record(fields, ("kind",), cls, kind)
                      for kind, (cls, fields) in table.items()}
        self.first = next(iter(table))

    def zero(self):
        return self.table[self.first].cls(kind=self.first)

    def read(self, r: _Reader, d: dict, key: str, path: str, default):
        """Parse d[key], or the default document if the key is missing."""
        doc = d.get(key, default)
        if doc.__class__ is dict:
            kind = doc.get("kind")
            record = self.table.get(kind) if kind.__class__ is str else None
            if record is not None and doc.keys() <= record.keys:
                # nothing before the fields can fail: read them
                return record.read(r, doc, path, key)
        path = _at(path, key)
        if doc is REQUIRED:
            r.stand_in(path, "missing")
            return self.zero()
        if not isinstance(doc, dict):
            r.stand_in(path, "must be an object")
            return self.zero()
        kind = STR.read(r, doc, "kind", path, REQUIRED)
        if kind not in self.table:
            if isinstance(doc.get("kind"), str):
                # else the kind's read reported it missing or not a string
                r.stand_in(f"{path}.kind", f"unknown {self.noun} kind {kind!r}")
            return self.zero()
        record = self.table[kind]
        r.check_keys(doc, record.keys, path)
        return record.read(r, doc, path)

    def dump(self, value) -> dict:
        return {"kind": value.kind, **self.table[value.kind].dump(value)}


PROCESSES = _Kinds("process", {
    "constant": (ConstantProcess, (("value", "value", NUM, REQUIRED),)),
    "randomwalk": (RandomWalkProcess, (
        ("step_sigma", "step_sigma", NUM, REQUIRED),
        ("start", "start", NUM, REQUIRED),
        ("seed", "seed", INT, 0))),
    "sinusoid": (SinusoidProcess, (
        ("period", "period_ticks", INT, REQUIRED),
        ("amplitude", "amplitude", NUM, REQUIRED),
        ("phase", "phase", NUM, 0.0),
        ("offset", "offset", NUM, 0.0))),
})

POLICIES = _Kinds("policy", {
    "periodic": (PeriodicPolicy, ()),
    "ondemand": (OnDemandPolicy, ()),
    "elastic": (ElasticPolicy, (
        ("elasticity", "elasticity", NUM, None),
        ("target_utilization", "target_utilization", NUM, REQUIRED))),
    "mkfirm": (MKFirmPolicy, (("m", "m", INT, REQUIRED), ("k", "k", INT, REQUIRED))),
    "similarity": (SimilarityPolicy, (("delta", "delta", NUM, REQUIRED),)),
    "prediction": (PredictionPolicy, (
        ("predictor", "predictor", STR, REQUIRED),
        ("epsilon", "epsilon", NUM, REQUIRED))),
})

ARRIVALS = _Kinds("arrival", {
    "oneshot": (Arrival, (("t", "t", INT, 0),)),
    "periodic": (Arrival, (("start", "start", INT, 0),
                           ("period", "period", INT, REQUIRED))),
    "poisson": (Arrival, (("mean_gap", "mean_gap", INT, REQUIRED),)),
})

OBJECT = _Record((
    ("id", "id", ID, REQUIRED),
    ("vi", "vi", INT, REQUIRED),
    ("period", "update_period", INT, REQUIRED),
    ("cost", "update_cost", INT, 0),
    ("access_weight", "access_weight", NUM, 1.0),
    ("max_period", "max_period", INT, None),
    ("process", "value_process", PROCESSES, {"kind": "constant", "value": 0.0}),
    ("policy", "policy", POLICIES, REQUIRED),
), cls=ObjectSpec)

TRANSACTION = _Record((
    ("read_set", "read_set", IDS, []),
    ("id", "id", ID, REQUIRED),
    ("retrieval", "retrieval_time", DURATIONS, REQUIRED),
    ("analysis", "analysis_time", DURATIONS, REQUIRED),
    ("deadline", "relative_deadline", INT, REQUIRED),
    ("arrival", "arrival", ARRIVALS, {"kind": "oneshot", "t": 0}),
    ("retrieval_mode", "retrieval_mode", STR, "source"),
))

TOP = _Record((
    ("horizon", "horizon", INT, REQUIRED),
    ("enforce_admission", "enforce_admission", BOOL, False),
    ("seed", "seed", INT, 0),
    ("name", "name", STR, "config"),
    ("rng", "rng", STR, RNG_ALGORITHM),
), extra=("mode", "objects", "transactions"))


# ---------------------------------------------------------------------------
# JSON parsing


class _Reader:
    """Walks a parsed JSON document collecting typed values and violations."""

    def __init__(self):
        self.errors: list[tuple[str, str]] = []
        # the paths of the values that failed their check and got a
        # stand-in, which the rules of `_violations` must not report on
        self.failed: set[str] = set()

    def fail(self, path, msg):
        self.errors.append((path, msg))

    def stand_in(self, path, msg):
        """Report `msg` at `path`, whose value the read replaces with a
        stand-in. A rule error at that path or below it, or one that names
        such a path as a value its rule compared, follows from this one and
        is not reported."""
        self.errors.append((path, msg))
        self.failed.add(path)

    def check_keys(self, d, allowed, path):
        if d.keys() <= allowed:
            return
        for k in sorted(set(d) - allowed):
            self.fail(_at(path, k), "unknown key")

    def records(self, doc: dict, key: str):
        """(path, object) for each object of the list doc[key]."""
        items = doc.get(key, [])
        if not isinstance(items, list):
            self.fail(key, "must be a list")
            return
        for i, d in enumerate(items):
            if isinstance(d, dict):
                yield f"{key}[{i}]", d
            else:
                self.fail(f"{key}[{i}]", "must be an object")


def config_from_dict(doc: dict) -> SimConfig:
    """Build and fully validate a SimConfig from a parsed JSON document."""
    r = _Reader()
    if not isinstance(doc, dict):
        raise ConfigError([("$", "top level must be an object")])
    r.check_keys(doc, TOP.keys, "")

    mode_s = STR.read(r, doc, "mode", "", REQUIRED)
    mode = FreshnessMode.CLASSICAL
    if mode_s in (m.value for m in FreshnessMode):
        mode = FreshnessMode(mode_s)
    elif isinstance(doc.get("mode"), str):
        # a string that names no mode, "" included; a missing or non-string
        # mode has its error from the read already
        r.fail("mode", f"must be 'classical' or 'multiversion', got {mode_s!r}")

    # each record by the path the reader gave it
    objects = {}
    for path, od in r.records(doc, "objects"):
        r.check_keys(od, OBJECT.keys, path)
        objects[path] = OBJECT.read(r, od, path)

    transactions = {}
    for path, td in r.records(doc, "transactions"):
        r.check_keys(td, TRANSACTION.keys, path)
        txn = TRANSACTION.read(r, td, path)
        read_set = txn["read_set"] = list(txn["read_set"])
        for attr in ("retrieval_time", "analysis_time"):
            if not isinstance(txn[attr], dict):
                txn[attr] = dict.fromkeys(read_set, txn[attr])
        transactions[path] = UserTxnSpec(**txn)

    top = TOP.read(r, doc, "")
    top["seed"] &= _MASK64
    cfg = SimConfig(mode=mode, objects=list(objects.values()),
                    transactions=list(transactions.values()), **top)
    # a rule that read a stand-in, at its own path or at one it compared,
    # found what follows from the failed check
    below = tuple(f + c for f in r.failed for c in ".[")
    errors = r.errors + [
        (path, message) for path, message, *compared in _violations(cfg, objects, transactions)
        if not any(p in r.failed or p.startswith(below) for p in (path, *compared))]
    if errors:
        raise ConfigError(errors)
    cfg.validated = True
    return cfg


def policy_from_dict(doc: dict) -> PolicyConfig:
    """Read one policy document through the POLICIES table. A ConfigError
    lists what the read reported, at paths under `policy`. The policy's own
    rules (its `validate`) are left to the caller."""
    r = _Reader()
    policy = POLICIES.read(r, {"policy": doc}, "policy", "", REQUIRED)
    if r.errors:
        raise ConfigError(r.errors)
    return policy


def decode_json(text: str):
    """The parsed document, or a ConfigError that locates the syntax error."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError([("$", f"JSON syntax error: {e.msg} "
                                 f"(line {e.lineno}, column {e.colno})")]) from None
    except ValueError:
        # an integer literal past int()'s digit limit
        raise ConfigError([("$", "integer literal longer than "
                                 f"{sys.get_int_max_str_digits()} digits")]) from None
    except RecursionError:
        raise ConfigError([("$", "JSON nested too deeply to decode")]) from None


def parse_config(text: str) -> SimConfig:
    return config_from_dict(decode_json(text))


# ---------------------------------------------------------------------------
# canonical emission


def config_to_dict(cfg: SimConfig) -> dict:
    return {
        **TOP.dump(cfg),
        "mode": cfg.mode.value,
        "objects": [OBJECT.dump(o) for o in cfg.objects],
        "transactions": [TRANSACTION.dump(t) for t in cfg.transactions],
    }


def emit_config(cfg: SimConfig) -> str:
    """Canonical serialization; parse(emit(cfg)) reproduces cfg exactly."""
    return json.dumps(config_to_dict(cfg), sort_keys=True, indent=2) + "\n"
