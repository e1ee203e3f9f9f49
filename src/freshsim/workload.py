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
reports every violation with its path, not just the first. The schema
tables below (TOP, OBJECT, TRANSACTION, and the PROCESSES, POLICIES and
ARRIVALS kinds) state every key with its type and default, once, for both
parsing and emission.

Value processes are counter based: the value at a sampling instant is a pure
function of (seed, object id, instant), so a policy that skips samples cannot
perturb the values later samples see. That is what makes policy comparisons
on identical trajectories meaningful.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections.abc import Iterator
from dataclasses import dataclass, field
from statistics import NormalDist

from .core import (
    Arrival,
    ConfigError,
    FreshnessMode,
    ObjectSpec,
    RETRIEVAL_MODES,
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
_NORMAL = NormalDist()


def stable_key(*parts) -> int:
    """64-bit key from a sha256 of the textual parts; stable across runs,
    platforms, and interpreter hash randomization."""
    h = hashlib.sha256("|".join(str(p) for p in parts).encode("utf-8")).digest()
    return int.from_bytes(h[:8], "big")


def splitmix64_at(key: int, index: int) -> int:
    """index-th output of a splitmix64 stream seeded with key. Counter based:
    output n is a pure function of (key, n)."""
    z = (key + (index + 1) * _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def uniform_at(key: int, index: int) -> float:
    """Uniform in the open interval (0, 1)."""
    return ((splitmix64_at(key, index) >> 11) + 0.5) / (1 << 53)


# ---------------------------------------------------------------------------
# value processes


@dataclass
class ConstantProcess:
    value: float = 0.0
    kind: str = "constant"


@dataclass
class RandomWalkProcess:
    start: float = 0.0
    step_sigma: float = 1.0
    seed: int = 0
    kind: str = "randomwalk"


@dataclass
class SinusoidProcess:
    amplitude: float = 1.0
    period_ticks: Tick = 1
    phase: float = 0.0
    offset: float = 0.0
    kind: str = "sinusoid"


ValueProcess = ConstantProcess | RandomWalkProcess | SinusoidProcess


def sample_process(process: ValueProcess, t: Tick, index: int,
                   run_seed: int = 0, object_id: str = "") -> float:
    """Value of the process at time t. For a random walk, `index` is the
    sample ordinal (step count); two queries with the same key and index
    always agree."""
    if isinstance(process, ConstantProcess):
        return float(process.value)
    if isinstance(process, SinusoidProcess):
        angle = 2.0 * math.pi * t / process.period_ticks + process.phase
        return process.amplitude * math.sin(angle) + process.offset
    key = stable_key(run_seed, process.seed, object_id, "walk")
    value = float(process.start)
    for j in range(1, index + 1):
        value += process.step_sigma * _NORMAL.inv_cdf(uniform_at(key, j))
    return value


class ValueSampler:
    """Per-run sampler with memoized random-walk prefixes.

    The walk steps once per declared update period, so the sample at time t
    has ordinal t // period regardless of which policy runs or which instants
    it chooses to sample; that pins the real-world trajectory across policy
    variants of the same seeded workload.
    """

    def __init__(self, seed: int, objects: list[ObjectSpec]):
        self.seed = seed
        self.specs = {o.id: o for o in objects}
        # object id -> (stream key, walk values at ordinals 0, 1, ...)
        self._walk_cache: dict[str, tuple[int, list[float]]] = {}

    def index_at(self, object_id: str, t: Tick) -> int:
        return t // self.specs[object_id].update_period

    def sample(self, object_id: str, t: Tick) -> float:
        obj = self.specs[object_id]
        process = obj.value_process
        if isinstance(process, RandomWalkProcess):
            return self._walk_value(obj, process, self.index_at(object_id, t))
        return sample_process(process, t, 0, self.seed, object_id)

    def _walk_value(self, obj: ObjectSpec, process: RandomWalkProcess,
                    index: int) -> float:
        walk = self._walk_cache.get(obj.id)
        if walk is None:
            walk = self._walk_cache[obj.id] = (
                stable_key(self.seed, process.seed, obj.id, "walk"),
                [float(process.start)])
        key, prefix = walk
        while len(prefix) <= index:
            j = len(prefix)
            step = process.step_sigma * _NORMAL.inv_cdf(uniform_at(key, j))
            prefix.append(prefix[-1] + step)
        return prefix[index]


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
        u = uniform_at(key, i)
        gap = max(1, math.ceil(-a.mean_gap * math.log(u)))
        t += gap
        i += 1
        if t > horizon:
            return
        yield t


def expand_arrivals(spec: UserTxnSpec, horizon: Tick, seed: int) -> list[Tick]:
    """Every release time of iter_arrivals, as a list."""
    return list(iter_arrivals(spec, horizon, seed))


# ---------------------------------------------------------------------------
# config model


@dataclass
class SimConfig:
    horizon: Tick
    mode: FreshnessMode
    enforce_admission: bool
    seed: int
    objects: list[ObjectSpec]
    policies: dict[str, PolicyConfig]
    transactions: list[UserTxnSpec]
    name: str = "config"
    rng: str = RNG_ALGORITHM

    def object_table(self) -> dict[str, ObjectSpec]:
        return {o.id: o for o in self.objects}


def validate_config(cfg: SimConfig) -> list[tuple[str, str]]:
    """Every declared invariant, checked; returns the full violation list."""
    errors: list[tuple[str, str]] = []
    if cfg.horizon <= 0:
        errors.append(("horizon", "must be > 0"))
    if cfg.rng != RNG_ALGORITHM:
        errors.append(("rng", f"unsupported generator {cfg.rng!r}"))
    seen = set()
    for i, obj in enumerate(cfg.objects):
        path = f"objects[{i}]"
        if obj.id in seen:
            errors.append((f"{path}.id", f"duplicate object id {obj.id!r}"))
        seen.add(obj.id)
        obj.validate(path, errors)
        policy = cfg.policies.get(obj.id)
        if policy is None:
            errors.append((f"{path}.policy", "missing policy"))
        else:
            policy.validate(f"{path}.policy", errors)
    targets = {float(p.target_utilization)
               for p in cfg.policies.values() if isinstance(p, ElasticPolicy)}
    if len(targets) > 1:
        errors.append(("objects", "elastic objects must share one target_utilization"))
    ids = {o.id for o in cfg.objects}
    seen_t = set()
    for i, txn in enumerate(cfg.transactions):
        path = f"transactions[{i}]"
        if txn.id in seen_t:
            errors.append((f"{path}.id", f"duplicate transaction id {txn.id!r}"))
        seen_t.add(txn.id)
        txn.validate(path, ids, errors)
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
    return isinstance(x, int) and not isinstance(x, bool)


def _is_num(x) -> bool:
    return (isinstance(x, (int, float)) and not isinstance(x, bool)
            and not (isinstance(x, float) and (math.isnan(x) or math.isinf(x))))


def _at(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


class _Scalar:
    """A JSON value type: the check a value must pass, the error when it
    does not, and the stand-in used after an error so that parsing goes on."""

    def __init__(self, check, message, zero):
        self.check = check
        self.message = message
        self.zero = zero

    def read(self, r: _Reader, d: dict, key: str, path: str, default):
        """d[key], checked. A missing key gives `default`, or an error if
        that is REQUIRED. After an error the default, or else the zero,
        stands in, so that every violation gets reported."""
        if key in d:
            value = d[key]
            if self.check(value):
                return value
            r.fail(_at(path, key), self.message)
            return self.zero if default is None or default is REQUIRED else default
        if default is REQUIRED:
            r.fail(_at(path, key), "missing")
            return self.zero
        return default


class _Bounded(_Scalar):
    """A scalar with a range bound, tested right after the value is read."""

    def __init__(self, base: _Scalar, bound, message: str):
        super().__init__(base.check, base.message, base.zero)
        self.bound = bound
        self.bound_message = message

    def read(self, r, d, key, path, default):
        value = super().read(r, d, key, path, default)
        if not self.bound(value):
            r.fail(_at(path, key), self.bound_message)
        return value


class _Durations(_Scalar):
    """Ticks per object id, or one int for every object read (expanded once
    the read set is known)."""

    def read(self, r, d, key, path, default):
        value = d.get(key)
        if not isinstance(value, dict):
            return super().read(r, d, key, path, default)
        out = {}
        for oid, ticks in value.items():
            if _is_int(ticks):
                out[oid] = ticks
            else:
                r.fail(f"{_at(path, key)}[{oid}]", "must be an integer")
        return out


INT = _Scalar(_is_int, "must be an integer", 0)
NUM = _Scalar(_is_num, "must be a number", 0.0)
STR = _Scalar(lambda v: isinstance(v, str), "must be a string", "")
BOOL = _Scalar(lambda v: isinstance(v, bool), "must be a boolean", False)
POSITIVE_INT = _Bounded(INT, lambda v: v > 0, "must be > 0")
NONNEGATIVE_NUM = _Bounded(NUM, lambda v: v >= 0, "must be >= 0")
IDS = _Scalar(lambda v: isinstance(v, list) and all(isinstance(x, str) for x in v),
              "must be a list of object ids", [])
DURATIONS = _Durations(_is_int, "must be an integer or an object id map", {})


class _Record:
    """The fields of one JSON object; `extra` names the keys it may also
    hold that are read outside the table."""

    def __init__(self, fields, extra=()):
        self.fields = fields
        self.keys = {key for key, *_ in fields} | set(extra)

    def read(self, r: _Reader, d: dict, path: str) -> dict:
        """{attribute: value} of every field, read in table order."""
        out = {}
        for key, attr, type_, default in self.fields:
            out[attr] = type_.read(r, d, key, path, default)
        return out

    def dump(self, obj) -> dict:
        out = {}
        for key, attr, type_, _ in self.fields:
            value = getattr(obj, attr)
            if value is not None:
                out[key] = type_.dump(value) if isinstance(type_, _Kinds) else value
        return out


class _Kinds:
    """A JSON object tagged by "kind": each kind maps to the class it builds
    (which takes `kind` as a field) and that class's record. The first kind,
    with its defaults, stands in after an error."""

    def __init__(self, noun: str, table: dict):
        self.noun = noun
        self.table = {kind: (cls, _Record(fields, ("kind",)))
                      for kind, (cls, fields) in table.items()}
        self.first = next(iter(table))

    def zero(self):
        return self.table[self.first][0](kind=self.first)

    def read(self, r: _Reader, d: dict, key: str, path: str, default):
        """Parse d[key], or the default document if the key is missing."""
        doc = d.get(key, default)
        path = _at(path, key)
        if doc is REQUIRED:
            r.fail(path, "missing")
            return self.zero()
        if not isinstance(doc, dict):
            r.fail(path, "must be an object")
            return self.zero()
        kind = STR.read(r, doc, "kind", path, REQUIRED)
        if kind not in self.table:
            r.fail(f"{path}.kind", f"unknown {self.noun} kind {kind!r}")
            return self.zero()
        cls, record = self.table[kind]
        r.check_keys(doc, record.keys, path)
        return cls(kind=kind, **record.read(r, doc, path))

    def dump(self, value) -> dict:
        return {"kind": value.kind, **self.table[value.kind][1].dump(value)}


PROCESSES = _Kinds("process", {
    "constant": (ConstantProcess, (("value", "value", NUM, REQUIRED),)),
    "randomwalk": (RandomWalkProcess, (
        ("step_sigma", "step_sigma", NONNEGATIVE_NUM, REQUIRED),
        ("start", "start", NUM, REQUIRED),
        ("seed", "seed", INT, 0))),
    "sinusoid": (SinusoidProcess, (
        ("period", "period_ticks", POSITIVE_INT, REQUIRED),
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
    ("id", "id", STR, REQUIRED),
    ("vi", "vi", INT, REQUIRED),
    ("period", "update_period", INT, REQUIRED),
    ("cost", "update_cost", INT, 0),
    ("access_weight", "access_weight", NUM, 1.0),
    ("max_period", "max_period", INT, None),
    ("process", "value_process", PROCESSES, {"kind": "constant", "value": 0.0}),
), extra=("policy",))

TRANSACTION = _Record((
    ("read_set", "read_set", IDS, []),
    ("id", "id", STR, REQUIRED),
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

    def fail(self, path, msg):
        self.errors.append((path, msg))

    def check_keys(self, d, allowed, path):
        if d.keys() <= allowed:
            return
        for k in sorted(set(d) - allowed):
            self.fail(_at(path, k), "unknown key")

    def get(self, d, key, path, type_, default=REQUIRED):
        """d[key] read as `type_`; see _Scalar.read."""
        return type_.read(self, d, key, path, default)

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

    mode_s = r.get(doc, "mode", "", STR)
    mode = FreshnessMode.CLASSICAL
    if mode_s in (m.value for m in FreshnessMode):
        mode = FreshnessMode(mode_s)
    elif mode_s:
        r.fail("mode", f"must be 'classical' or 'multiversion', got {mode_s!r}")

    objects = []
    policies: dict[str, PolicyConfig] = {}
    for path, od in r.records(doc, "objects"):
        r.check_keys(od, OBJECT.keys, path)
        obj = ObjectSpec(**OBJECT.read(r, od, path))
        objects.append(obj)
        policies[obj.id] = r.get(od, "policy", path, POLICIES)

    transactions = []
    for path, td in r.records(doc, "transactions"):
        r.check_keys(td, TRANSACTION.keys, path)
        txn = TRANSACTION.read(r, td, path)
        read_set = txn["read_set"] = list(txn["read_set"])
        for attr in ("retrieval_time", "analysis_time"):
            if not isinstance(txn[attr], dict):
                txn[attr] = dict.fromkeys(read_set, txn[attr])
        transactions.append(UserTxnSpec(**txn))

    top = TOP.read(r, doc, "")
    top["seed"] &= _MASK64
    cfg = SimConfig(mode=mode, objects=objects, policies=policies,
                    transactions=transactions, **top)
    errors = r.errors + validate_config(cfg)
    if errors:
        raise ConfigError(errors)
    return cfg


def decode_json(text: str):
    """The parsed document, or a ConfigError that locates the syntax error."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError([("$", f"JSON syntax error: {e.msg} "
                                 f"(line {e.lineno}, column {e.colno})")]) from None


def parse_config(text: str) -> SimConfig:
    return config_from_dict(decode_json(text))


# ---------------------------------------------------------------------------
# canonical emission


def config_to_dict(cfg: SimConfig) -> dict:
    return {
        **TOP.dump(cfg),
        "mode": cfg.mode.value,
        "objects": [{**OBJECT.dump(o), "policy": POLICIES.dump(cfg.policies[o.id])}
                    for o in cfg.objects],
        "transactions": [TRANSACTION.dump(t) for t in cfg.transactions],
    }


def emit_config(cfg: SimConfig) -> str:
    """Canonical serialization; parse(emit(cfg)) reproduces cfg exactly."""
    return json.dumps(config_to_dict(cfg), sort_keys=True, indent=2) + "\n"
