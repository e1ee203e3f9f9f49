"""README's trace v2 rebuild rules, against what the engine did.

Format v2 leaves out a store read's version and an install's value. README
(Trace) says how to rebuild them from the trace; this test rebuilds them on
every golden config, in about 0.6 s, and compares them with the versions
and values the engine used, captured by hooking the engine's helpers."""

from freshsim.core import ConfigError
from freshsim.engine import Simulator

from test_golden import corpus


class RecordingSimulator(Simulator):
    """A Simulator that records each version it serves from the store and
    each value it installs, and keeps every trace record."""

    def __init__(self, config):
        self.records = []
        super().__init__(config, sink=self.records.extend)
        # (t, instance id, object id, seq, sample_time) per store access
        self.reads = []
        # (object id, sample_time, value) per install
        self.installs = []
        install_version = self.store.install_version

        def install(object_id, value, sample_time):
            self.installs.append((object_id, sample_time, value))
            return install_version(object_id, value, sample_time)

        self.store.install_version = install

    def _acquire(self, inst, t, version, via):
        if via == "store":
            self.reads.append((t, inst.inst_id, version.object_id, version.seq,
                               version.sample_time))
        super()._acquire(inst, t, version, via)


def rebuilt(trace):
    """The store reads and installs of a trace, by README's rules: a read's
    version has the seq of its object's last `install` record before it and
    `sample_time` `t - staleness`; an install's value is the `sampled` of
    its object's `update_decision` at its `sample_time`."""
    seqs, sampled = {}, {}
    reads, installs = [], []
    for t, kind, subject, detail in trace:
        if kind == "update_decision":
            sampled[subject, t] = detail["sampled"]
        elif kind == "install":
            seqs[subject] = detail["seq"]
            sample_time = detail["sample_time"]
            installs.append((subject, sample_time, sampled[subject, sample_time]))
        elif kind == "access" and detail["via"] == "store":
            object_id = detail["object"]
            reads.append((t, subject, object_id, seqs[object_id],
                          t - detail["staleness"]))
    return reads, installs


def test_readme_rebuild_rules_give_the_engine_s_reads_and_installs():
    runs = reads = installs = 0
    for name, cfg in corpus():
        try:
            sim = RecordingSimulator(cfg)
        except ConfigError:
            continue
        sim.run()
        assert rebuilt(sim.records) == (sim.reads, sim.installs), name
        runs += 1
        reads += len(sim.reads)
        installs += len(sim.installs)
    assert runs > 800 and reads > 1000 and installs > 10_000
