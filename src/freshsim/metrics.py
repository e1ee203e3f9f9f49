"""Streaming metrics aggregation, canonical trace serialization, and CSV.

The aggregator consumes the run's trace records in order; everything in the
report is derived from that stream plus the store's end-of-run statistics.
The trace itself is line-delimited canonical JSON, and a 64-bit FNV-1a hash
over those bytes is the run's determinism fingerprint: identical configs and
seeds must produce identical hashes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .core import SimInternalError, Tick

CSV_COLUMNS = [
    "scenario", "mode", "policy", "txn_class", "released", "committed",
    "missed", "miss_ratio", "restarts", "vi_restarts", "updates_performed",
    "updates_skipped", "mean_staleness", "max_staleness", "max_sink_error",
    "peak_live_versions", "stale_at_commit",
]
CSV_HEADER = ",".join(CSV_COLUMNS)


@dataclass
class TxnClassStats:
    released: int = 0
    committed: int = 0
    missed: int = 0
    restarts: int = 0
    vi_restarts: int = 0
    staleness_sum: int = 0
    staleness_count: int = 0
    max_staleness: int = 0
    stale_at_commit: int = 0

    @property
    def miss_ratio(self) -> float:
        return self.missed / self.released if self.released else 0.0

    @property
    def mean_staleness(self) -> float:
        return self.staleness_sum / self.staleness_count if self.staleness_count else 0.0

    @property
    def in_flight(self) -> int:
        return self.released - self.committed - self.missed

    def merge_access(self, staleness: int) -> None:
        self.staleness_sum += staleness
        self.staleness_count += 1
        self.max_staleness = max(self.max_staleness, staleness)


@dataclass
class ObjectStats:
    updates_performed: int = 0
    updates_skipped: int = 0
    update_utilization: float = 0.0
    staleness_sum: int = 0
    staleness_count: int = 0
    max_staleness: int = 0
    max_sink_error: float = 0.0
    peak_live_versions: int = 0
    peak_concurrent_pinners: int = 0
    stale_at_commit: int = 0

    @property
    def mean_staleness(self) -> float:
        return self.staleness_sum / self.staleness_count if self.staleness_count else 0.0


@dataclass
class MetricsReport:
    horizon: Tick
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
    """Consumes trace records in time order; finalize() is idempotent."""

    def __init__(self):
        self._last_t: Tick = 0
        self._class_of: dict[str, str] = {}
        self.overall = TxnClassStats()
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

    def record(self, rec: dict) -> None:
        t = rec["t"]
        if t < self._last_t:
            raise SimInternalError(
                f"trace record out of order: {t} after {self._last_t}")
        self._last_t = t
        kind = rec["kind"]
        subject = rec["subject"]
        detail = rec.get("detail", {})

        if kind == "txn_released":
            self._class_of[subject] = detail["class"]
            self.overall.released += 1
            self._cls(detail["class"]).released += 1
        elif kind == "txn_rejected":
            self.rejected.append(subject)
        elif kind == "access":
            staleness = detail["staleness"]
            self.overall.merge_access(staleness)
            self._cls(self._class_of[subject]).merge_access(staleness)
            obj = self._obj(detail["object"])
            obj.staleness_sum += staleness
            obj.staleness_count += 1
            obj.max_staleness = max(obj.max_staleness, staleness)
        elif kind == "restart":
            cls = self._cls(self._class_of[subject])
            cls.restarts += 1
            self.overall.restarts += 1
            if detail["cause"] == "vi_expiry":
                cls.vi_restarts += 1
                self.overall.vi_restarts += 1
        elif kind == "commit":
            cls = self._cls(self._class_of[subject])
            cls.committed += 1
            self.overall.committed += 1
            if detail.get("stale_at_commit"):
                cls.stale_at_commit += 1
                self.overall.stale_at_commit += 1
                for obj_id in detail.get("stale_objects", ()):
                    self._obj(obj_id).stale_at_commit += 1
        elif kind == "miss":
            self._cls(self._class_of[subject]).missed += 1
            self.overall.missed += 1
        elif kind == "update_decision":
            obj = self._obj(subject)
            if detail["decision"] in ("perform", "transmit"):
                obj.updates_performed += 1
            else:
                obj.updates_skipped += 1
            obj.max_sink_error = max(obj.max_sink_error, detail["sink_error"])
        # install / read / gc records carry no aggregate beyond store stats

    def finalize(self, horizon: Tick, store_stats=None,
                 update_costs: dict[str, int] | None = None) -> MetricsReport:
        if store_stats:
            for oid, stats in store_stats.items():
                obj = self._obj(oid)
                obj.peak_live_versions = stats.peak_live_versions
                obj.peak_concurrent_pinners = stats.peak_active_pins
        if update_costs:
            for oid, cost in update_costs.items():
                obj = self._obj(oid)
                obj.update_utilization = (obj.updates_performed * cost / horizon
                                          if horizon else 0.0)
        return MetricsReport(
            horizon=horizon,
            overall=self.overall,
            per_class=dict(sorted(self.per_class.items())),
            per_object=dict(sorted(self.per_object.items())),
            rejected=list(self.rejected),
        )


# ---------------------------------------------------------------------------
# trace serialization and hashing

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1
# one encoder for every record: json.dumps with these arguments builds a new
# one per call, for the same bytes
_encode_record = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def fnv1a64(data: bytes) -> int:
    h = _FNV_OFFSET
    for byte in data:
        h = ((h ^ byte) * _FNV_PRIME) & _MASK64
    return h


def trace_lines(trace: list[dict]) -> list[str]:
    return [_encode_record(rec) for rec in trace]


def emit_trace(trace: list[dict]) -> str:
    """Line-delimited JSON, one record per line."""
    lines = trace_lines(trace)
    return "\n".join(lines) + ("\n" if lines else "")


def trace_hash(trace: list[dict]) -> str:
    """64-bit FNV-1a over the canonical trace bytes, as fixed-width hex."""
    return format(fnv1a64(emit_trace(trace).encode("utf-8")), "016x")


# ---------------------------------------------------------------------------
# CSV


def _num(x) -> str:
    if isinstance(x, bool):
        return str(int(x))
    if isinstance(x, float):
        return str(x)
    return str(x)


def _row(values: list) -> str:
    return ",".join(_num(v) if v is not None else "" for v in values)


def emit_csv_rows(report: MetricsReport, scenario: str, mode: str,
                  policy: str) -> list[str]:
    """One overall row, then one row per transaction class. Update counts,
    sink error, and peak live versions are run-wide figures and appear only
    on the overall row."""
    o = report.overall
    rows = [_row([
        scenario, mode, policy, "overall",
        o.released, o.committed, o.missed, o.miss_ratio,
        o.restarts, o.vi_restarts,
        report.updates_performed, report.updates_skipped,
        o.mean_staleness, o.max_staleness,
        report.max_sink_error, report.peak_live_versions, o.stale_at_commit,
    ])]
    for name, cls in report.per_class.items():
        rows.append(_row([
            scenario, mode, policy, name,
            cls.released, cls.committed, cls.missed, cls.miss_ratio,
            cls.restarts, cls.vi_restarts,
            None, None,
            cls.mean_staleness, cls.max_staleness,
            None, None, cls.stale_at_commit,
        ]))
    return rows


def emit_csv(report: MetricsReport, scenario: str = "run", mode: str = "",
             policy: str = "") -> str:
    return "\n".join([CSV_HEADER] + emit_csv_rows(report, scenario, mode, policy)) + "\n"
