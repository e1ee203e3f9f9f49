"""Version store for temporal objects.

Keeps an ascending chain of versions per object, with the pins that keep a
superseded version alive. New accesses are only ever served the newest
version, and only while it is fresh; history exists purely to let in-flight
readers finish. Which readers may keep a superseded version is the engine's
read discipline, not the store's. All mutation happens on the simulation
thread. Operations return what they did and never call back: the engine
writes the trace records and restarts the readers. A version's pins are its
`holders`; the peak chain length is derived from the `install` and `gc`
records.

Only its chain refers to a superseded version that nobody pins: a reader
refers to the versions it pins and to source samples (`seq` 0), which are
never in a chain. So an install may rewrite such a version in place as the
new newest one (`RECLAIMED`) instead of building another.
"""

from __future__ import annotations

from .core import SimInternalError, Tick, Version, is_fresh

# what `install_version` returns when it rewrote the version it superseded,
# which nobody pinned, in place as the new one
RECLAIMED = "reclaimed"


class VersionStore:
    """Per-run store of version chains, pinning, and garbage collection.

    `vis` maps object id to its effective validity interval (after any
    config-time period rescaling); an install sets the new version's
    `expires` from it. Each object's list in `chains` is changed only in
    place, so it stays the object's chain for the life of the store.

    A superseded version is reclaimed once nobody pins it: by the install
    that supersedes it when it is unpinned by then, which rewrites that
    version in place as the new one, else by the `gc` after the `unpin`
    that frees it.
    """

    def __init__(self, vis: dict[str, Tick]):
        self.vis = vis
        self.chains: dict[str, list[Version]] = {oid: [] for oid in vis}
        # chains that `unpin` left holding a superseded unpinned version: gc
        # visits only these, in declaration order, and each loses at least
        # one version
        self._order = {oid: i for i, oid in enumerate(vis)}
        self.dirty: set[str] = set()

    # -- operations --------------------------------------------------------

    def install_version(self, object_id: str, value: float,
                        sample_time: Tick) -> Version | str | None:
        """Make a version sampled at `sample_time` the object's newest.
        Returns None on the object's first install, `RECLAIMED` when the
        superseded version was unpinned and has been rewritten in place as
        the new one, and else the superseded version, which stays in the
        chain for its holders.

        Sample times must strictly increase per object. A reclaim leaves the
        chain unmarked: between events every other superseded version is
        pinned, so the superseded one is the only version an install can
        make reclaimable, and only the chain refers to it.
        """
        chain = self.chains[object_id]
        expires = sample_time + self.vis[object_id]
        if not chain:
            chain.append(Version(object_id, value, sample_time, 1, expires, []))
            return None
        prev = chain[-1]
        if prev.sample_time >= sample_time:
            raise SimInternalError(
                f"non-monotone install on {object_id!r}: "
                f"{sample_time} after {prev.sample_time}")
        if prev.holders:
            chain.append(Version(object_id, value, sample_time, prev.seq + 1, expires, []))
            return prev
        # its empty holder list stays
        prev.value = value
        prev.sample_time = sample_time
        prev.seq += 1
        prev.expires = expires
        return RECLAIMED

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
        if not is_fresh(version, t):
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
