"""Version store for temporal objects.

Keeps an ascending chain of versions per object and implements the two read
disciplines:

* classical: one live version per object; installing a new version replaces
  the previous one, and any transaction still pinning the replaced version is
  told to restart.
* multiversion: superseded versions are retained while pinned, so an in-flight
  transaction may finish its analysis on the version that was fresh when it
  accessed the object, even if that version expires or is replaced before the
  transaction commits.

New accesses are only ever served the newest version; history exists purely to
let in-flight readers finish. All mutation happens on the simulation thread.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .core import (
    ConfigError,
    FreshnessMode,
    SimInternalError,
    Tick,
    Version,
    is_fresh,
)

TraceFn = Callable[[dict], None]


@dataclass
class ObjectStoreStats:
    peak_live_versions: int = 0
    active_pins: int = 0
    peak_active_pins: int = 0


class VersionStore:
    """Per-run store of version chains, pinning, and garbage collection.

    `vis` maps object id to its effective validity interval (after any
    config-time period rescaling). A version's expiry instant additionally
    includes per-version extensions granted by skipped updates.
    """

    def __init__(self, mode: FreshnessMode, vis: dict[str, Tick],
                 trace: TraceFn | None = None,
                 on_superseded_pinned: Callable[[Version], None] | None = None):
        self.mode = mode
        self.vis = dict(vis)
        self.trace = trace
        self.on_superseded_pinned = on_superseded_pinned
        self.chains: dict[str, list[Version]] = {oid: [] for oid in vis}
        self.stats: dict[str, ObjectStoreStats] = {oid: ObjectStoreStats() for oid in vis}
        # chains that may hold a superseded unpinned version; gc visits only
        # these, in declaration order
        self._order = {oid: i for i, oid in enumerate(vis)}
        self._dirty: set[str] = set()

    # -- helpers -----------------------------------------------------------

    def _chain(self, object_id: str) -> list[Version]:
        try:
            return self.chains[object_id]
        except KeyError:
            raise ConfigError([("store", f"unknown object id {object_id!r}")]) from None

    def newest(self, object_id: str) -> Version | None:
        chain = self._chain(object_id)
        return chain[-1] if chain else None

    def valid_until(self, version: Version) -> Tick:
        return version.valid_until(self.vis[version.object_id])

    def _emit(self, t: Tick, kind: str, object_id: str, detail: dict) -> None:
        if self.trace is not None:
            self.trace({"t": t, "kind": kind, "subject": object_id, "detail": detail})

    # -- operations --------------------------------------------------------

    def install_version(self, object_id: str, value: float, sample_time: Tick,
                        now: Tick | None = None) -> int:
        """Append a new version sampled at `sample_time`; returns its seq.

        `now` is the install completion instant (sample_time plus transmission
        cost); it defaults to sample_time. Sample times must strictly increase
        per object. In classical mode a pinned predecessor triggers restart
        notification before the follow-up sweep reclaims whatever is unpinned.
        """
        if now is None:
            now = sample_time
        chain = self._chain(object_id)
        if chain and chain[-1].sample_time >= sample_time:
            raise SimInternalError(
                f"non-monotone install on {object_id!r}: "
                f"{sample_time} after {chain[-1].sample_time}")
        prev = chain[-1] if chain else None
        seq = prev.seq + 1 if prev else 1
        version = Version(object_id=object_id, value=value,
                          sample_time=sample_time, seq=seq)
        chain.append(version)
        if prev is not None:
            self._dirty.add(object_id)
        self._emit(now, "install", object_id,
                   {"seq": seq, "value": value, "sample_time": sample_time})
        if (self.mode is FreshnessMode.CLASSICAL and prev is not None
                and prev.holders and self.on_superseded_pinned is not None):
            self.on_superseded_pinned(prev)
        self.gc(now)
        stats = self.stats[object_id]
        # the peak statistic is sampled between events, after the piggybacked
        # sweep (which replaces the chain), so it reflects versions that
        # actually coexist
        stats.peak_live_versions = max(stats.peak_live_versions,
                                       len(self.chains[object_id]))
        return seq

    def read_latest(self, object_id: str, t: Tick, holder,
                    exclude: frozenset[int] | set[int] = frozenset()) -> Version | None:
        """Serve the newest version if it is fresh at t, pinned for `holder`.

        Returns None when the chain is empty, the newest version is stale at
        t, or its seq is in `exclude` (a transaction never re-pins a version
        whose expiry already restarted it). The caller decides what stale
        means for it: refresh on demand, wait, or go to the source.
        """
        chain = self._chain(object_id)
        if not chain:
            return None
        version = chain[-1]
        if version.seq in exclude:
            return None
        if not is_fresh(version, self.vis[object_id], t):
            return None
        version.holders.append(holder)
        stats = self.stats[object_id]
        stats.active_pins += 1
        stats.peak_active_pins = max(stats.peak_active_pins, stats.active_pins)
        self._emit(t, "read", object_id,
                   {"seq": version.seq, "sample_time": version.sample_time,
                    "staleness": t - version.sample_time})
        return version

    def extend_validity(self, object_id: str, ticks: Tick) -> None:
        """Stretch the newest version's effective validity, used when an
        update instance is skipped: the skip confirms the stored value."""
        version = self.newest(object_id)
        if version is None:
            raise SimInternalError(f"validity extension on empty chain {object_id!r}")
        version.vi_extend += ticks

    def unpin(self, version: Version, holder) -> None:
        """Drop `holder`'s pin on `version`, which must still be in its chain."""
        if holder not in version.holders:
            raise SimInternalError(f"unpin of {version.object_id!r}#{version.seq} "
                                   f"by non-holder {holder!r}")
        if not any(v is version for v in self._chain(version.object_id)):
            raise SimInternalError(f"unpin of {version.object_id!r}#{version.seq} "
                                   f"after it left its chain")
        version.holders.remove(holder)
        self.stats[version.object_id].active_pins -= 1
        self._dirty.add(version.object_id)

    def gc(self, now: Tick) -> int:
        """Reclaim every version that is superseded and unpinned; returns the
        count removed. Pinned versions are never touched.

        Only a chain that was installed onto or unpinned since the last sweep
        can hold such a version, so only those chains are visited."""
        if not self._dirty:
            return 0
        dirty = sorted(self._dirty, key=self._order.__getitem__)
        self._dirty.clear()
        reclaimed = 0
        for object_id in dirty:
            chain = self.chains[object_id]
            if len(chain) <= 1:
                continue
            keep = [v for v in chain[:-1] if v.holders]
            removed = len(chain) - 1 - len(keep)
            if removed:
                keep.append(chain[-1])
                self.chains[object_id] = keep
                reclaimed += removed
                self._emit(now, "gc", object_id, {"reclaimed": removed})
        return reclaimed
