import random

import pytest

from freshsim.core import FreshnessMode, SimInternalError, Version
from freshsim.store import RECLAIMED, VersionStore

from support import one_object_config, run_outcomes, run_records


def make_store(vi=5):
    return VersionStore({"o1": vi})


def install(store, object_id, value, sample_time):
    """Install as the engine does: the engine sweeps after every unpin, so
    the versions earlier unpins freed are swept first and the install finds
    every superseded version pinned. Returns the superseded version, if
    any."""
    store.gc()
    return store.install_version(object_id, value, sample_time)


def test_first_install():
    store = make_store()
    assert store.install_version("o1", 1.0, 0) is None
    assert [v.seq for v in store.chains["o1"]] == [1]
    assert store.chains["o1"][0].expires == 5  # sample time + vi


def test_install_hands_back_a_pinned_predecessor_until_its_reader_unpins():
    store = make_store()
    install(store, "o1", 1.0, 0)
    first = store.read_latest("o1", 1, "r")
    superseded = install(store, "o1", 2.0, 3)
    assert superseded is first and superseded.seq == 1
    # still present until the reader unpins
    assert [v.seq for v in store.chains["o1"]] == [1, 2]
    store.unpin(first, "r")
    assert store.gc() == [("o1", 1)]
    assert [v.seq for v in store.chains["o1"]] == [2]


@pytest.mark.parametrize("pinned", [False, True], ids=["unpinned", "pinned"])
def test_install_returns_what_it_supersedes_and_reclaims_it_iff_unpinned(pinned):
    store = make_store()
    install(store, "o1", 1.0, 0)
    chain = store.chains["o1"]
    first = chain[0]
    holders = first.holders
    if pinned:
        assert store.read_latest("o1", 1, "r") is first
    superseded = store.install_version("o1", 2.0, 10)
    # kept for its holder, or reclaimed by rewriting it in place as the new
    # version; either way the chain stays the object's list and nothing is
    # left for gc
    assert store.chains["o1"] is chain
    if pinned:
        assert superseded is first
        assert (first.seq, first.value, first.sample_time, first.holders) == (1, 1.0, 0, ["r"])
        assert [v.seq for v in chain] == [1, 2]
    else:
        assert superseded is RECLAIMED
        assert chain == [first] and first.holders is holders == []
        assert (first.seq, first.value, first.sample_time) == (2, 2.0, 10)
    assert chain[-1].expires == 15
    assert not store.dirty


def test_install_rejects_non_monotone_sample_time():
    store = make_store()
    store.install_version("o1", 1.0, 5)
    with pytest.raises(SimInternalError):
        store.install_version("o1", 2.0, 5)


@pytest.mark.parametrize("t,served", [(3, True), (5, True), (6, False)])
def test_read_latest_freshness(t, served):
    store = make_store(vi=5)
    store.install_version("o1", 1.0, 0)
    result = store.read_latest("o1", t, "r")
    assert (result is not None) is served
    assert store.chains["o1"][0].holders == (["r"] if served else [])
    if served:
        assert result is store.chains["o1"][0]


def test_read_latest_empty_chain():
    store = make_store()
    assert store.read_latest("o1", 0, "r") is None


def test_read_latest_never_serves_excluded_newest():
    store = make_store(vi=50)
    store.install_version("o1", 1.0, 0)
    store.install_version("o1", 2.0, 10)
    store.read_latest("o1", 11, "r")  # keep seq 1 alive through a pin
    assert store.read_latest("o1", 12, "r", exclude=2) is None
    # an older excluded seq does not keep the newest from being served
    assert store.read_latest("o1", 12, "r", exclude=1) is store.chains["o1"][-1]


def reader_config(mode):
    # one reader pins the t=0 version (vi 5) at 3 and analyses it until 7
    return one_object_config(vi=5, period=5, cost=0, retrieval=0, analysis=4,
                             deadline=17, arrival_t=3, retrieval_mode="store",
                             mode=mode)


def test_may_continue_multiversion_survives_expiry():
    store = make_store(vi=5)
    install(store, "o1", 1.0, 0)
    version = store.read_latest("o1", 3, "r")
    assert version.expires == 5
    # past its expiry and its replacement the pinned version stays; the
    # store hands it back, and only the classical engine restarts its holder
    superseded = install(store, "o1", 2.0, 6)
    store.gc()
    assert superseded is version
    assert [v.seq for v in store.chains["o1"]] == [1, 2]
    store.unpin(version, "r")
    # the access was fresh, so the analysis finishes at 7 on it
    inst = run_outcomes(reader_config(FreshnessMode.MULTIVERSION))[2]["t1#0"]
    assert (inst["state"], inst["commit_time"], inst["restarts"]) == ("committed", 7, 0)


def test_may_continue_classical():
    store = make_store(vi=5)
    store.install_version("o1", 1.0, 0)
    version = store.read_latest("o1", 3, "r")
    assert version.expires == 5
    # the holder keeps going at 4 and restarts at the expiry instant itself
    _, records = run_records(reader_config(FreshnessMode.CLASSICAL))
    restarts = [(t, detail["cause"]) for t, kind, _, detail in records
                if kind == "restart"]
    assert restarts == [(5, "vi_expiry")]


def test_gc_examples():
    store = make_store(vi=100)
    store.install_version("o1", 1.0, 0)
    first = store.read_latest("o1", 1, "r")
    store.install_version("o1", 2.0, 10)
    assert store.gc() == []           # pinned predecessor protected
    store.unpin(first, "r")
    assert store.gc() == [("o1", 1)]  # superseded and unpinned
    assert store.gc() == []           # newest never reclaimed
    assert [v.seq for v in store.chains["o1"]] == [2]


def test_unpin_without_pin_is_internal_error():
    store = make_store()
    store.install_version("o1", 1.0, 0)
    version = store.chains["o1"][0]
    with pytest.raises(SimInternalError):
        store.unpin(version, "r")
    store.read_latest("o1", 1, "r")
    with pytest.raises(SimInternalError):
        store.unpin(version, "other")


def test_extend_validity_defers_expiry():
    store = make_store(vi=5)
    store.install_version("o1", 1.0, 0)
    assert store.read_latest("o1", 6, "r") is None
    assert store.chains["o1"][-1].holders == []  # untouched by the failed read
    # a skipped update extends the newest version by one period
    store.chains["o1"][-1].expires += 5
    assert store.read_latest("o1", 6, "r") is not None


def test_gc_never_reclaims_pinned_random_walkthrough():
    rng = random.Random(17)
    store = make_store(vi=8)
    pinned = []
    sample_time = 0
    for i in range(300):
        action = rng.random()
        if action < 0.4:
            sample_time += rng.randint(1, 3)
            install(store, "o1", rng.random(), sample_time)
        elif action < 0.7:
            version = store.read_latest("o1", sample_time, f"r{i}")
            if version is not None:
                pinned.append((version, f"r{i}"))
        elif pinned:
            store.unpin(*pinned.pop(rng.randrange(len(pinned))))
        store.gc()
        seqs = {v.seq for v in store.chains["o1"]}
        assert {v.seq for v, _ in pinned} <= seqs  # pinned versions never vanish


class FullSweepStore(VersionStore):
    """Reference store: an install only appends a new version and returns
    the one it supersedes, pinned or not, and `gc` sweeps every chain in
    declaration order."""

    def install_version(self, object_id, value, sample_time):
        chain = self.chains[object_id]
        if chain and chain[-1].sample_time >= sample_time:
            raise SimInternalError(f"non-monotone install on {object_id!r}")
        prev = chain[-1] if chain else None
        chain.append(Version(object_id=object_id, value=value,
                             sample_time=sample_time,
                             seq=prev.seq + 1 if prev else 1,
                             expires=sample_time + self.vis[object_id]))
        return prev

    def gc(self):
        reclaimed = []
        for object_id, chain in self.chains.items():
            removed = [v for v in chain[:-1] if not v.holders]
            if removed:
                self.chains[object_id] = [v for v in chain[:-1] if v.holders] + [chain[-1]]
                reclaimed.append((object_id, len(removed)))
        return reclaimed


def _twin_stores(vis):
    return VersionStore(vis), FullSweepStore(vis)


def _checked_gc(store):
    """`store.gc()`, checking that every chain it visits (the chains marked
    dirty) loses at least one version."""
    visits = sorted(store.dirty, key=list(store.chains).index)
    reclaimed = store.gc()
    assert [oid for oid, _ in reclaimed] == visits
    assert all(count >= 1 for _, count in reclaimed)
    return reclaimed


def _assert_twins_agree(stores):
    dirty, full = stores
    for oid in full.chains:
        assert ([(v.seq, v.value, v.sample_time, v.expires, v.holders)
                 for v in dirty.chains[oid]]
                == [(v.seq, v.value, v.sample_time, v.expires, v.holders)
                    for v in full.chains[oid]])


@pytest.mark.parametrize("seed", range(8))
def test_dirty_chain_gc_matches_full_sweep(seed):
    rng = random.Random(seed)
    vis = {"o3": 6, "o1": 9, "o2": 4, "o4": 12}  # declaration order is not sorted
    stores = _twin_stores(vis)
    pins = []  # (object id, seq, holder), pinned in both stores
    last_sample = dict.fromkeys(vis, -1)
    now = 0
    for i in range(600):
        oid = rng.choice(list(vis))
        action = rng.random()
        if action < 0.35:
            now = last_sample[oid] = max(now + rng.randint(0, 2), last_sample[oid] + 1)
            # the engine sweeps after every unpin, so an install finds every
            # superseded version pinned
            assert _checked_gc(stores[0]) == stores[1].gc()
            chain = stores[0].chains[oid]
            newest = chain[-1] if chain else None
            superseded, reference = [store.install_version(oid, float(i), now)
                                     for store in stores]
            assert not stores[0].dirty
            if reference is None or reference.holders:
                # the first install, or a pinned predecessor kept
                assert (superseded is reference is None
                        or (superseded is newest and superseded.seq == reference.seq
                            and superseded.expires == reference.expires
                            and superseded.holders == reference.holders))
                assert stores[1].gc() == []
            else:
                # the unpinned predecessor is rewritten as the new version,
                # and the reference sweeps it
                assert superseded is RECLAIMED and chain[-1] is newest
                assert stores[1].gc() == [(oid, 1)]
            assert chain[-1].sample_time == now
        elif action < 0.65:
            seqs = [v.seq if v else None for v in
                    (store.read_latest(oid, now, f"r{i}") for store in stores)]
            assert seqs[0] == seqs[1]
            if seqs[0] is not None:
                pins.append((oid, seqs[0], f"r{i}"))
        elif action < 0.9 and pins:
            oid, seq, holder = pins.pop(rng.randrange(len(pins)))
            dirty = set(stores[0].dirty)
            for store in stores:
                store.unpin(next(v for v in store.chains[oid] if v.seq == seq), holder)
            if stores[0].chains[oid][-1].seq == seq:
                # freeing the newest version frees nothing to reclaim
                assert stores[0].dirty == dirty
        else:
            # every reclaimed count, chains in sweep order
            assert _checked_gc(stores[0]) == stores[1].gc()
        _assert_twins_agree(stores)


def test_dirty_chain_gc_sweeps_in_declaration_order():
    # "b" becomes reclaimable before "a", yet "a" is declared first
    stores = _twin_stores({"a": 50, "b": 50})
    for store in stores:
        pinned = {oid: (install(store, oid, 1.0, 0),
                        store.read_latest(oid, 1, "r"))[1] for oid in ("a", "b")}
        install(store, "a", 2.0, 2)
        install(store, "b", 2.0, 2)
        store.unpin(pinned["b"], "r")
        store.unpin(pinned["a"], "r")
        assert store.gc() == [("a", 1), ("b", 1)]
    _assert_twins_agree(stores)
