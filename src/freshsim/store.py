"""Version store for temporal objects.

Keeps an ascending chain of versions per object and implements the two read
disciplines:

* classical: one live version per object; installing a new version replaces
  the previous one, and a replaced version that is still pinned is handed
  back to the caller, whose holders must restart.
* multiversion: superseded versions are retained while pinned, so an in-flight
  transaction may finish its analysis on the version that was fresh when it
  accessed the object, even if that version expires or is replaced before the
  transaction commits.

New accesses are only ever served the newest version; history exists purely to
let in-flight readers finish. All mutation happens on the simulation thread.
Operations return what they did and never call back: the engine writes the
trace records and restarts the readers. A version's pins are its `holders`;
the peak chain length is derived from the `install` and `gc` records.
"""

from __future__ import annotations

from .core import FreshnessMode, SimInternalError, Tick, Version, is_fresh


class VersionStore:
    """Per-run store of version chains, pinning, and garbage collection.

    `vis` maps object id to its effective validity interval (after any
    config-time period rescaling). A version's expiry instant additionally
    includes per-version extensions granted by skipped updates, which the
    engine adds to the newest version's `vi_extend`. Each object's list in
    `chains` is changed only in place, so it stays the object's chain for
    the life of the store.

    A superseded version is reclaimed once nobody pins it: by the install
    that supersedes it when it is unpinned by then, else by the `gc` after
    the `unpin` that frees it.
    """

    def __init__(self, mode: FreshnessMode, vis: dict[str, Tick]):
        self.mode = mode
        self.classical = mode is FreshnessMode.CLASSICAL
        self.vis = dict(vis)
        self.chains: dict[str, list[Version]] = {oid: [] for oid in vis}
        # chains that `unpin` left holding a superseded unpinned version: gc
        # visits only these, in declaration order, and each loses at least
        # one version
        self._order = {oid: i for i, oid in enumerate(vis)}
        self.dirty: set[str] = set()

    # -- helpers -----------------------------------------------------------

    def valid_until(self, version: Version) -> Tick:
        return version.valid_until(self.vis[version.object_id])

    # -- operations --------------------------------------------------------

    def install_version(self, object_id: str, value: float,
                        sample_time: Tick) -> Version | None:
        """Append a new version sampled at `sample_time`.

        Sample times must strictly increase per object. A superseded version
        that nobody pins is reclaimed here, in place of the new version, and
        leaves the chain unmarked: between events every other superseded
        version is pinned, so it is the only version an install can make
        reclaimable. The caller sees it by the chain's length, which stays
        the same. Returns the superseded version when it is still pinned in
        classical mode: its holders must restart.
        """
        chain = self.chains[object_id]
        prev = chain[-1] if chain else None
        if prev is not None and prev.sample_time >= sample_time:
            raise SimInternalError(
                f"non-monotone install on {object_id!r}: "
                f"{sample_time} after {prev.sample_time}")
        version = Version(object_id, value, sample_time,
                          prev.seq + 1 if prev else 1, [])
        if prev is not None and not prev.holders:
            chain[-1] = version
            return None
        chain.append(version)
        return prev if self.classical else None

    def read_latest(self, object_id: str, t: Tick, holder,
                    exclude: int = 0) -> Version | None:
        """Serve the newest version if it is fresh at t, pinned for `holder`.

        Returns None when the chain is empty, the newest version is stale at
        t, or its seq is `exclude` (a transaction never re-pins a version
        whose expiry already restarted it; seqs start at 1, so 0 excludes
        nothing). The caller decides what stale means for it: refresh on
        demand, wait, or go to the source.
        """
        chain = self.chains[object_id]
        if not chain:
            return None
        version = chain[-1]
        if version.seq == exclude:
            return None
        if not is_fresh(version, self.vis[object_id], t):
            return None
        version.holders.append(holder)
        return version

    def unpin(self, version: Version, holder) -> None:
        """Drop `holder`'s pin on `version`. A pinned version is still in
        its chain, since `gc` keeps every pinned version."""
        holders = version.holders
        if holder not in holders:
            raise SimInternalError(f"unpin of {version.object_id!r}#{version.seq} "
                                   f"by non-holder {holder!r}")
        holders.remove(holder)
        if not holders and self.chains[version.object_id][-1] is not version:
            # the last pin on a superseded version: it is now reclaimable
            self.dirty.add(version.object_id)

    def gc(self) -> list[tuple[str, int]]:
        """Reclaim every version that is superseded and unpinned; returns
        (object id, count removed) per chain that lost any, in declaration
        order. Pinned versions are never touched.

        An install reclaims the version it supersedes unpinned itself, so a
        version becomes reclaimable here only when `unpin` frees it
        superseded; that marks its chain, and only marked chains are
        visited."""
        dirty = self.dirty
        visit = sorted(dirty, key=self._order.__getitem__) if len(dirty) > 1 else dirty
        reclaimed = []
        for object_id in visit:
            chain = self.chains[object_id]
            kept = [v for v in chain[:-1] if v.holders]
            reclaimed.append((object_id, len(chain) - 1 - len(kept)))
            chain[:-1] = kept
        dirty.clear()
        return reclaimed
