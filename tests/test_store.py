import random

import pytest

from freshsim.core import FreshnessMode, SimInternalError
from freshsim.store import VersionStore

from support import one_object_config, run_config


def make_store(mode=FreshnessMode.MULTIVERSION, vi=5, trace=None, cb=None):
    return VersionStore(mode, {"o1": vi}, trace=trace, on_superseded_pinned=cb)


def test_first_install():
    store = make_store()
    assert store.install_version("o1", 1.0, 0) == 1
    assert len(store.chains["o1"]) == 1


def test_mv_install_retains_pinned_predecessor():
    store = make_store()
    store.install_version("o1", 1.0, 0)
    store.read_latest("o1", 1, "r")  # pins seq 1
    store.install_version("o1", 2.0, 10)
    assert [v.seq for v in store.chains["o1"]] == [1, 2]


def test_classical_install_replaces_unpinned():
    store = make_store(FreshnessMode.CLASSICAL)
    store.install_version("o1", 1.0, 0)
    store.install_version("o1", 2.0, 10)
    assert [v.seq for v in store.chains["o1"]] == [2]


def test_classical_install_notifies_pinned_readers():
    superseded = []
    store = make_store(FreshnessMode.CLASSICAL, cb=lambda v: superseded.append(v.seq))
    store.install_version("o1", 1.0, 0)
    first = store.read_latest("o1", 1, "r")
    store.install_version("o1", 2.0, 3)
    assert superseded == [1]
    # still present until the reader unpins
    assert [v.seq for v in store.chains["o1"]] == [1, 2]
    store.unpin(first, "r")
    store.gc(3)
    assert [v.seq for v in store.chains["o1"]] == [2]


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
    assert store.read_latest("o1", 12, "r", exclude={2}) is None


def reader_config(mode):
    # one reader pins the t=0 version (vi 5) at 3 and analyses it until 7
    return one_object_config(vi=5, period=5, cost=0, retrieval=0, analysis=4,
                             deadline=17, arrival_t=3, retrieval_mode="store",
                             mode=mode)


def test_may_continue_multiversion_survives_expiry():
    superseded = []
    store = make_store(vi=5, cb=superseded.append)
    store.install_version("o1", 1.0, 0)
    version = store.read_latest("o1", 3, "r")
    assert store.valid_until(version) == 5
    # past its expiry and its replacement the pinned version stays and
    # nobody is told to restart
    store.install_version("o1", 2.0, 6)
    store.gc(7)
    assert superseded == []
    assert [v.seq for v in store.chains["o1"]] == [1, 2]
    store.unpin(version, "r")
    # the access was fresh, so the analysis finishes at 7 on it
    inst = run_config(reader_config(FreshnessMode.MULTIVERSION)).instances[0]
    assert (inst.state, inst.commit_time, inst.restart_count) == ("committed", 7, 0)


def test_may_continue_classical():
    store = make_store(FreshnessMode.CLASSICAL, vi=5)
    store.install_version("o1", 1.0, 0)
    version = store.read_latest("o1", 3, "r")
    assert store.valid_until(version) == 5
    # the holder keeps going at 4 and restarts at the expiry instant itself
    result = run_config(reader_config(FreshnessMode.CLASSICAL))
    restarts = [(r["t"], r["detail"]["cause"]) for r in result.trace
                if r["kind"] == "restart"]
    assert restarts == [(5, "vi_expiry")]


def test_gc_examples():
    store = make_store(vi=100)
    store.install_version("o1", 1.0, 0)
    first = store.read_latest("o1", 1, "r")
    store.install_version("o1", 2.0, 10)
    assert store.gc(11) == 0          # pinned predecessor protected
    store.unpin(first, "r")
    assert store.gc(12) == 1          # superseded and unpinned
    assert store.gc(13) == 0          # newest never reclaimed
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
    # a pinned version that left its chain means the store lost it
    store.chains["o1"] = []
    with pytest.raises(SimInternalError):
        store.unpin(version, "r")


def test_extend_validity_defers_expiry():
    store = make_store(vi=5)
    store.install_version("o1", 1.0, 0)
    assert store.read_latest("o1", 6, "r") is None
    assert store.chains["o1"][-1].holders == []  # untouched by the failed read
    store.extend_validity("o1", 5)
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
            store.install_version("o1", rng.random(), sample_time)
        elif action < 0.7:
            version = store.read_latest("o1", sample_time, f"r{i}")
            if version is not None:
                pinned.append((version, f"r{i}"))
        elif pinned:
            store.unpin(*pinned.pop(rng.randrange(len(pinned))))
        store.gc(sample_time)
        seqs = {v.seq for v in store.chains["o1"]}
        assert {v.seq for v, _ in pinned} <= seqs  # pinned versions never vanish


def test_peak_live_versions_counts_coexisting_versions():
    store = make_store(vi=100)
    store.install_version("o1", 1.0, 0)
    store.read_latest("o1", 1, "r1")
    store.read_latest("o1", 2, "r2")
    store.install_version("o1", 2.0, 10)
    stats = store.stats["o1"]
    assert stats.peak_live_versions == 2
    assert stats.peak_active_pins == 2
    assert stats.peak_live_versions <= 1 + stats.peak_active_pins


class FullSweepStore(VersionStore):
    """Reference GC: sweeps every chain, in declaration order."""

    def gc(self, now):
        reclaimed = 0
        for object_id, chain in self.chains.items():
            removed = [v for v in chain[:-1] if not v.holders]
            if removed:
                self.chains[object_id] = [v for v in chain[:-1] if v.holders] + [chain[-1]]
                self.stats[object_id].live_versions -= len(removed)
                self.stats[object_id].reclaimed += len(removed)
                reclaimed += len(removed)
                self._emit(now, "gc", object_id, {"reclaimed": len(removed)})
        return reclaimed


def _twin_stores(mode, vis):
    traces = ([], [])
    stores = (VersionStore(mode, vis, trace=traces[0].append),
              FullSweepStore(mode, vis, trace=traces[1].append))
    return stores, traces


def _assert_twins_agree(stores, traces):
    dirty, full = stores
    assert traces[0] == traces[1]  # every record, gc records in sweep order
    for oid in full.chains:
        assert ([(v.seq, v.holders) for v in dirty.chains[oid]]
                == [(v.seq, v.holders) for v in full.chains[oid]])
        assert dirty.stats[oid] == full.stats[oid]


@pytest.mark.parametrize("mode", list(FreshnessMode))
@pytest.mark.parametrize("seed", range(4))
def test_dirty_chain_gc_matches_full_sweep(mode, seed):
    rng = random.Random(seed)
    vis = {"o3": 6, "o1": 9, "o2": 4, "o4": 12}  # declaration order is not sorted
    stores, traces = _twin_stores(mode, vis)
    pins = []  # (object id, seq, holder), pinned in both stores
    last_sample = dict.fromkeys(vis, -1)
    now = 0
    for i in range(600):
        oid = rng.choice(list(vis))
        action = rng.random()
        if action < 0.35:
            now = last_sample[oid] = max(now + rng.randint(0, 2), last_sample[oid] + 1)
            for store in stores:
                store.install_version(oid, float(i), now)
        elif action < 0.65:
            seqs = [v.seq if v else None for v in
                    (store.read_latest(oid, now, f"r{i}") for store in stores)]
            assert seqs[0] == seqs[1]
            if seqs[0] is not None:
                pins.append((oid, seqs[0], f"r{i}"))
        elif action < 0.9 and pins:
            oid, seq, holder = pins.pop(rng.randrange(len(pins)))
            for store in stores:
                store.unpin(next(v for v in store.chains[oid] if v.seq == seq), holder)
        else:
            assert stores[0].gc(now) == stores[1].gc(now)
        _assert_twins_agree(stores, traces)


def test_dirty_chain_gc_sweeps_in_declaration_order():
    # "b" becomes reclaimable before "a", yet "a" is declared first
    stores, traces = _twin_stores(FreshnessMode.MULTIVERSION, {"a": 50, "b": 50})
    for store in stores:
        pinned = {oid: (store.install_version(oid, 1.0, 0),
                        store.read_latest(oid, 1, "r"))[1] for oid in ("a", "b")}
        store.install_version("a", 2.0, 2)
        store.install_version("b", 2.0, 2)
        store.unpin(pinned["b"], "r")
        store.unpin(pinned["a"], "r")
        assert store.gc(3) == 2
    gc_records = [r["subject"] for r in traces[0] if r["kind"] == "gc"]
    assert gc_records == ["a", "b"]
    _assert_twins_agree(stores, traces)
