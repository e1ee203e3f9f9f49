"""Streaming metrics aggregation, canonical trace serialization, and CSV.

The aggregator consumes the run's trace records in order; the report is a
function of that stream alone, so a run's trace rebuilds its report. A
record is a `(t, kind, subject, detail)` tuple. The trace itself is
line-delimited canonical JSON, one `[t,kind,subject,{...}]` array per record,
and a 64-bit FNV-1a hash over those bytes is the run's determinism
fingerprint: identical configs and seeds must produce identical hashes.
"""

from __future__ import annotations

import json
import sys
from array import array
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field, fields

from .core import SimInternalError, Tick
from .policies import PERFORMED

CSV_COLUMNS = [
    "scenario", "mode", "policy", "txn_class", "released", "committed",
    "missed", "miss_ratio", "restarts", "vi_restarts", "updates_performed",
    "updates_skipped", "mean_staleness", "max_staleness", "max_sink_error",
    "peak_live_versions", "stale_at_commit",
]
CSV_HEADER = ",".join(CSV_COLUMNS)


@dataclass
class StalenessStats:
    """Staleness of the accesses merged so far."""

    staleness_sum: int = 0
    staleness_count: int = 0
    max_staleness: int = 0

    @property
    def mean_staleness(self) -> float:
        return self.staleness_sum / self.staleness_count if self.staleness_count else 0.0

    def merge_access(self, staleness: int) -> None:
        self.staleness_sum += staleness
        self.staleness_count += 1
        self.max_staleness = max(self.max_staleness, staleness)


@dataclass
class TxnClassStats(StalenessStats):
    released: int = 0
    committed: int = 0
    missed: int = 0
    restarts: int = 0
    vi_restarts: int = 0
    stale_at_commit: int = 0

    @property
    def miss_ratio(self) -> float:
        return self.missed / self.released if self.released else 0.0


@dataclass
class ObjectStats(StalenessStats):
    updates_performed: int = 0
    updates_skipped: int = 0
    max_sink_error: float = 0.0
    peak_live_versions: int = 0
    stale_at_commit: int = 0


@dataclass
class MetricsReport:
    overall: TxnClassStats
    per_class: dict[str, TxnClassStats]
    per_object: dict[str, ObjectStats]
    rejected: list[str] = field(default_factory=list)

    @property
    def updates_performed(self) -> int:
        return sum(o.updates_performed for o in self.per_object.values())

    @property
    def updates_skipped(self) -> int:
        return sum(o.updates_skipped for o in self.per_object.values())

    @property
    def max_sink_error(self) -> float:
        return max((o.max_sink_error for o in self.per_object.values()), default=0.0)

    @property
    def peak_live_versions(self) -> int:
        return max((o.peak_live_versions for o in self.per_object.values()), default=0)


class MetricsAggregator:
    """Consumes trace records in time order, one batch (a list of records)
    per `record` call; finalize() is idempotent. A run's records give the
    same report however they are split into batches.

    An object's live versions are +1 per `install` and -`reclaimed` per `gc`.
    An install is followed by the `gc` of the version it reclaimed, or by
    its holders' restarts and their sweeps, so its peak sample is due at the
    first later record that is neither a `restart` nor a `gc`, or at
    finalize(): it counts only coexisting versions."""

    def __init__(self):
        self._last_t: Tick = 0
        self._live: dict[str, int] = {}  # object id -> versions in its chain
        self._pending: str | None = None  # the object whose peak sample is due
        # in-flight instance id -> the stats of its class; an instance is
        # forgotten at its commit or miss
        self._class_of: dict[str, TxnClassStats] = {}
        self.per_class: dict[str, TxnClassStats] = {}
        self.per_object: dict[str, ObjectStats] = {}
        self.rejected: list[str] = []

    def _cls(self, name: str) -> TxnClassStats:
        stats = self.per_class.get(name)
        if stats is None:
            stats = self.per_class[name] = TxnClassStats()
        return stats

    def _obj(self, name: str) -> ObjectStats:
        stats = self.per_object.get(name)
        if stats is None:
            stats = self.per_object[name] = ObjectStats()
        return stats

    def record(self, records: list[tuple]) -> None:
        """Merge `records`, the run's next records in order. The kinds most
        records have are handled here; the others through _ON_KIND."""
        last_t = self._last_t
        pending = self._pending
        live = self._live
        per_object = self.per_object
        try:
            for t, kind, subject, detail in records:
                if t < last_t:
                    raise SimInternalError(
                        f"trace record out of order: {t} after {last_t}")
                last_t = t
                if kind == "gc":
                    live[subject] -= detail["reclaimed"]
                    continue
                if pending is not None and kind != "restart":
                    # the install's peak sample
                    obj = per_object.get(pending)
                    if obj is None:
                        obj = self._obj(pending)
                    if live[pending] > obj.peak_live_versions:
                        obj.peak_live_versions = live[pending]
                    pending = None
                if kind == "install":
                    live[subject] = live.get(subject, 0) + 1
                    pending = subject
                elif kind == "update_decision":
                    obj = per_object.get(subject)
                    if obj is None:
                        obj = self._obj(subject)
                    if detail["decision"] in PERFORMED:
                        obj.updates_performed += 1
                    else:
                        obj.updates_skipped += 1
                    # sink_value is left out of the record when it equals sampled
                    if "sink_value" in detail:
                        error = abs(detail["sampled"] - detail["sink_value"])
                        if error > obj.max_sink_error:
                            obj.max_sink_error = error
                else:
                    on_kind = _ON_KIND.get(kind)
                    if on_kind is not None:
                        on_kind(self, subject, detail)
        finally:
            self._last_t = last_t
            self._pending = pending

    def _on_released(self, subject: str, detail: dict) -> None:
        cls = self._class_of[subject] = self._cls(detail["class"])
        cls.released += 1

    def _on_rejected(self, subject: str, detail: dict) -> None:
        self.rejected.append(subject)

    def _on_access(self, subject: str, detail: dict) -> None:
        staleness = detail["staleness"]
        self._class_of[subject].merge_access(staleness)
        self._obj(detail["object"]).merge_access(staleness)

    def _on_restart(self, subject: str, detail: dict) -> None:
        cls = self._class_of[subject]
        cls.restarts += 1
        if detail["cause"] == "vi_expiry":
            cls.vi_restarts += 1

    def _on_commit(self, subject: str, detail: dict) -> None:
        cls = self._class_of.pop(subject)
        cls.committed += 1
        if detail.get("stale_at_commit"):
            cls.stale_at_commit += 1
            for obj_id in detail.get("stale_objects", ()):
                self._obj(obj_id).stale_at_commit += 1

    def _on_miss(self, subject: str, detail: dict) -> None:
        self._class_of.pop(subject).missed += 1

    def finalize(self) -> MetricsReport:
        pending = self._pending
        if pending is not None:
            # the peak sample of the run's last install
            obj = self._obj(pending)
            obj.peak_live_versions = max(obj.peak_live_versions, self._live[pending])
            self._pending = None
        # the run-wide totals: each count is the sum over classes
        classes = self.per_class.values()
        overall = TxnClassStats(**{f.name: sum(getattr(c, f.name) for c in classes)
                                   for f in fields(TxnClassStats)})
        overall.max_staleness = max((c.max_staleness for c in classes), default=0)
        return MetricsReport(
            overall=overall,
            per_class=dict(sorted(self.per_class.items())),
            per_object=dict(sorted(self.per_object.items())),
            rejected=list(self.rejected),
        )


# record handlers of the aggregator, by record kind; `record` itself handles
# `gc`, `install` and `update_decision`
_ON_KIND = {
    "txn_released": MetricsAggregator._on_released,
    "txn_rejected": MetricsAggregator._on_rejected,
    "access": MetricsAggregator._on_access,
    "restart": MetricsAggregator._on_restart,
    "commit": MetricsAggregator._on_commit,
    "miss": MetricsAggregator._on_miss,
}


# ---------------------------------------------------------------------------
# trace serialization and hashing

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1

# the encoder of json.dumps(record, sort_keys=True, separators=(",", ":")):
# `encode` takes json's C path itself, or its Python path on an interpreter
# without the `_json` accelerator. A record holds no cycle, so no markers
# are kept.
_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":"),
                           check_circular=False).encode


def _encode_records(records: Iterable[tuple]) -> Iterator[str]:
    """The canonical line of each record, in order, as it is drawn."""
    return map(_encode, records)


_CALL_RECORDS = 64


def _encode_batch(records: list[tuple]) -> str:
    """The canonical lines of `records`, joined by line breaks. One call
    encodes _CALL_RECORDS records to "[" + their lines joined by "," + "]",
    so each "],[" is a line break, unless a string or a nested array holds
    one too: then each record is encoded on its own. A call keeps each piece
    it writes as a string until it returns, so one call per batch would peak
    at several times the batch's text."""
    text = ",".join([_encode(records[i:i + _CALL_RECORDS])[1:-1]
                     for i in range(0, len(records), _CALL_RECORDS)])
    if text.count("],[") == len(records) - 1:
        return text.replace("],[", "]\n[")
    return "\n".join(_encode_records(records))


# A text run's table: the state that FNV-1a ends at over the run from each
# of the 256 start states 0-255. It is filled with the 256 start states as
# the 128-bit lanes of one integer, lane i holding start i: XOR with b * _ONES
# reaches every lane, a lane times the prime stays under 2**105, and the
# lane mask keeps each lane's low 64 bits, so no lane carries into the next.
_LANES = 256
_ONES = sum(1 << (128 * i) for i in range(_LANES))
_LANE_MASK = _MASK64 * _ONES
_LANE_STARTS = sum(i << (128 * i) for i in range(_LANES))
# the low 64-bit word of each lane, lane 0 first, in the integer's native bytes
_LOW_WORDS = slice(None, None, 2) if sys.byteorder == "little" else slice(None, None, -2)
# a text run is hashed through its table from its _TABLE_AT-th sighting in
# one trace on, and byte by byte before: a fill costs about as much as
# hashing a trace text run byte by byte 30 times
_TABLE_AT = 32
# NUL and the digits are the marked bytes: with each digit mapped to NUL, a
# split at NUL gives the text runs; deleting every other byte, the marked ones
_DIGITS_TO_NUL = bytes.maketrans(b"0123456789", bytes(10))
_UNMARKED = bytes(range(1, 48)) + bytes(range(58, 256))


def _run_table(run: bytes) -> tuple[array, int]:
    """(ends, multiplier) of the text run `run`: ends[c] is the FNV-1a state
    after `run` from the state c, for each c < 256, and the multiplier is
    the prime to the power len(run), modulo 2**64."""
    p = _FNV_PRIME
    ones = _ONES
    mask = _LANE_MASK
    lanes = _LANE_STARTS
    for b in run:
        lanes = (lanes ^ b * ones) * p & mask
    words = memoryview(lanes.to_bytes(16 * _LANES, sys.byteorder)).cast("Q")
    return array("Q", words[_LOW_WORDS]), pow(p, len(run), 1 << 64)


def fnv1a64(data: bytes, h: int = _FNV_OFFSET, tables: dict | None = None) -> int:
    """64-bit FNV-1a of `data`, continuing from the state `h`, so blocks
    chain: fnv1a64(a + b) == fnv1a64(b, fnv1a64(a)).

    Its marked bytes, each digit and NUL, split `data` into text runs. A
    text run that recurs is hashed through its table of 256 endings (see
    _run_table). XOR with a byte changes only the state's low byte, and a
    multiple of 256 stays one when multiplied, so over a run s the state h
    ends at ends[h & 255] + p**len(s) * (h - (h & 255)), modulo 2**64.
    `tables` maps each non-empty text run seen so far to its sightings,
    then, from its _TABLE_AT-th, to its table; pass one dict to every block
    of a trace so that the tables carry over. Marked bytes, and text runs
    seen fewer times, are hashed byte by byte."""
    if tables is None:
        tables = {}
    p = _FNV_PRIME
    m = _MASK64
    get = tables.get
    texts = data.translate(_DIGITS_TO_NUL).split(b"\0")
    marked = data.translate(None, _UNMARKED)
    # a text run, maybe empty, follows each marked byte, and the first one
    # follows a NUL put ahead of the data, from the state that NUL takes to
    # h: the prime is odd, so it has an inverse modulo 2**64
    h = h * pow(p, -1, 1 << 64) & m
    for b, text in zip(b"\0" + marked, texts):
        h = (h ^ b) * p & m
        if not text:
            continue
        entry = get(text, 0)
        if entry.__class__ is int:
            if entry < _TABLE_AT - 1:
                tables[text] = entry + 1
                for b in text:
                    h = (h ^ b) * p & m
                continue
            entry = tables[text] = _run_table(text)
        ends, multiplier = entry
        h = (ends[h & 255] + multiplier * (h & -256)) & m
    return h


def trace_hash(trace: TraceLines) -> str:
    """64-bit FNV-1a over the trace bytes that the sink `trace` kept, as
    fixed-width hex. The blocks share one dict of text-run tables, which
    lives for this call only."""
    h = _FNV_OFFSET
    tables: dict = {}
    for block in trace.blocks:
        h = fnv1a64(block, h, tables)
    return format(h, "016x")


class TraceLines:
    """Trace sink (see `Simulator`) that keeps the canonical trace bytes:
    each non-empty batch, encoded as it arrives with one canonical line per
    record, becomes one block of bytes in `blocks`."""

    def __init__(self):
        self.blocks: list[bytes] = []

    def __call__(self, records: list[tuple]) -> None:
        if records:
            self.blocks.append((_encode_batch(records) + "\n").encode("utf-8"))


# ---------------------------------------------------------------------------
# CSV


def _field(value) -> str:
    """One CSV field: empty for None, else its text, quoted as RFC 4180 does
    when it holds a comma, a quote or a line break."""
    if value is None:
        return ""
    text = str(value)
    if "," in text or '"' in text or "\n" in text or "\r" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _row(label: tuple, stats: TxnClassStats, performed=None, skipped=None,
         sink_error=None, peak_live=None) -> str:
    """The row of one class, or of the overall stats with the run-wide
    figures, which class rows leave empty; `label` is (scenario, mode,
    policy, txn_class)."""
    return ",".join(_field(v) for v in (
        *label, stats.released, stats.committed, stats.missed, stats.miss_ratio,
        stats.restarts, stats.vi_restarts, performed, skipped,
        stats.mean_staleness, stats.max_staleness, sink_error, peak_live,
        stats.stale_at_commit))


def emit_csv_rows(report: MetricsReport, scenario: str, mode: str,
                  policy: str) -> list[str]:
    """One overall row, then one row per transaction class. Update counts,
    sink error, and peak live versions are run-wide figures and appear only
    on the overall row."""
    rows = [_row((scenario, mode, policy, "overall"), report.overall,
                 report.updates_performed, report.updates_skipped,
                 report.max_sink_error, report.peak_live_versions)]
    rows += [_row((scenario, mode, policy, name), cls)
             for name, cls in report.per_class.items()]
    return rows
