import csv
import dataclasses
import json
import math
import os
import random
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import freshsim.cli
import freshsim.engine
import freshsim.metrics
import freshsim.workload
from freshsim.cli import _parse_policy_token, _set_path, _write_csv, main
from freshsim.core import ConfigError, FreshnessMode, SimInternalError
from freshsim.engine import Simulator
from freshsim.policies import effective_objects
from freshsim.metrics import (
    CSV_COLUMNS,
    CSV_HEADER,
    MetricsAggregator,
    TraceLines,
    _TABLE_AT,
    _encode_records,
    _run_table,
    emit_csv_rows,
    fnv1a64,
    trace_hash,
)
from freshsim.workload import config_from_dict, policy_from_dict

from randgen import random_config
from support import count_walk_steps, hash_records, one_object_config, run_records

BENCH_DIR = Path(__file__).resolve().parent.parent / "perfbench"
if str(BENCH_DIR) not in sys.path:
    sys.path.insert(0, str(BENCH_DIR))

import gen  # noqa: E402


CONFIG_INFEASIBLE = {
    "horizon": 40,
    "mode": "classical",
    "enforce_admission": False,
    "seed": 1,
    "objects": [{"id": "o1", "vi": 5, "period": 10, "cost": 0,
                 "process": {"kind": "constant", "value": 1.0},
                 "policy": {"kind": "periodic"}}],
    "transactions": [{"id": "t1", "read_set": ["o1"],
                      "retrieval": {"o1": 2}, "analysis": {"o1": 4},
                      "deadline": 30,
                      "arrival": {"kind": "oneshot", "t": 0},
                      "retrieval_mode": "source"}],
}


def _endless_restarts(horizon: int) -> dict:
    """CONFIG_INFEASIBLE released every 10 ticks up to `horizon`: endless vi
    restarts, about 0.9 trace records per tick."""
    doc = json.loads(json.dumps(CONFIG_INFEASIBLE))
    doc["horizon"] = horizon
    doc["transactions"][0]["arrival"] = {"kind": "periodic", "start": 0, "period": 10}
    return doc


def write_config(tmp_path: Path, doc, name="config.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


# -- aggregation ---------------------------------------------------------------

def released(agg, n, cls="t1"):
    agg.record([(0, "txn_released", f"{cls}#{i}", {"class": cls, "deadline": 10})
                for i in range(n)])


def test_miss_ratio():
    agg = MetricsAggregator()
    released(agg, 10)
    agg.record([(5, "miss", f"t1#{i}", {}) for i in range(2)])
    report = agg.finalize()
    assert report.overall.miss_ratio == pytest.approx(0.2)
    overall = report.overall
    assert overall.released - overall.committed - overall.missed == 8


def test_empty_report_all_zero():
    report = MetricsAggregator().finalize()
    assert report.overall.released == 0
    assert report.overall.miss_ratio == 0.0
    assert report.updates_performed == 0


def test_staleness_aggregation():
    agg = MetricsAggregator()
    released(agg, 1)
    agg.record([(7, "access", "t1#0",
                 {"object": "o1", "via": "store", "value": 0.0, "staleness": 4})])
    report = agg.finalize()
    assert report.per_object["o1"].max_staleness == 4
    assert report.per_class["t1"].mean_staleness == pytest.approx(4.0)


def test_out_of_order_records_rejected():
    agg = MetricsAggregator()
    released(agg, 1)
    agg.record([(9, "miss", "t1#0", {})])
    with pytest.raises(SimInternalError):
        agg.record([(8, "miss", "t1#0", {})])


def test_finalize_is_idempotent():
    agg = MetricsAggregator()
    released(agg, 3)
    agg.record([(4, "miss", "t1#0", {})])
    first = agg.finalize()
    second = agg.finalize()
    assert emit_csv_rows(first, "r", "m", "p") == emit_csv_rows(second, "r", "m", "p")
    # and a full rebuild of the same run aggregates identically
    report = Simulator(one_object_config()).run()
    again = Simulator(one_object_config()).run()
    assert emit_csv_rows(report, "r", "m", "p") == emit_csv_rows(again, "r", "m", "p")


def test_aggregator_keeps_only_in_flight_instances():
    # an instance is forgotten at its commit or miss, so what is left at
    # the end is the work the horizon cut off
    from randgen import random_config
    left, finished = [], 0
    for seed in range(40):
        sim = Simulator(random_config(seed))
        report = sim.run()
        in_flight = sum(cls.released - cls.committed - cls.missed
                        for cls in report.per_class.values())
        assert len(sim.metrics._class_of) == in_flight, seed
        left.append(in_flight)
        finished += report.overall.committed + report.overall.missed
    assert finished > 0 and 0 in left and max(left) > 0


def random_batches(records, rng, cuts=()):
    """`records` split into consecutive batches, some of them empty: at
    `cuts` and at up to 40 random points."""
    points = sorted({*cuts, *rng.choices(range(len(records) + 1), k=rng.randint(0, 40))})
    return [records[a:b] for a, b in zip([0, *points], [*points, len(records)])]


def test_aggregator_report_does_not_depend_on_the_batches():
    # a cut right after an install leaves its peak sample due across the
    # batch boundary, while the restarts and sweeps that follow it arrive
    rng = random.Random(5)
    cfgs = [random_config(seed) for seed in range(30)]
    cfgs += [random_config(seed, mode=mode) for seed in (12, 19, 25)
             for mode in FreshnessMode]
    due = 0
    for cfg in cfgs:
        expected, trace = run_records(cfg)
        rows = emit_csv_rows(expected, "r", "m", "p")
        after_install = [i + 1 for i in range(len(trace) - 1)
                         if trace[i][1] == "install"
                         and trace[i + 1][1] in ("restart", "gc", "install")]
        due += len(after_install)
        for cuts in ((), after_install, rng.sample(after_install, len(after_install) // 2)):
            agg = MetricsAggregator()
            for batch in random_batches(trace, rng, cuts):
                agg.record(batch)
            report = agg.finalize()
            assert report.per_class == expected.per_class
            assert report.per_object == expected.per_object
            assert emit_csv_rows(report, "r", "m", "p") == rows
    assert due > 100


def install(agg, t, seq, oid="o1"):
    agg.record([(t, "install", oid, {"seq": seq, "sample_time": t})])


def test_peak_live_versions_counts_coexisting_versions():
    # multiversion: two readers pin seq 1, so seq 2 joins it in the chain
    agg = MetricsAggregator()
    install(agg, 0, 1)
    released(agg, 2)
    agg.record([(1, "access", f"t1#{i}",
                 {"object": "o1", "via": "store", "value": 1.0, "staleness": 1})
                for i in range(2)])
    install(agg, 10, 2)
    agg.record([(11, "commit", "t1#0", {"stale_at_commit": False, "stale_objects": []})])
    agg.record([(12, "commit", "t1#1", {"stale_at_commit": False, "stale_objects": []})])
    agg.record([(12, "gc", "o1", {"reclaimed": 1})])
    assert agg._live == {"o1": 1}
    assert agg.finalize().per_object["o1"].peak_live_versions == 2


def test_peak_live_versions_waits_for_the_sweeps_after_an_install():
    # classical: both holders of seq 1 restart, then the sweep reclaims it
    agg = MetricsAggregator()
    install(agg, 0, 1)
    released(agg, 2)
    install(agg, 10, 2)
    agg.record([(10, "restart", f"t1#{i}", {"cause": "superseded", "object": "o1"})
                for i in range(2)])
    agg.record([(10, "gc", "o1", {"reclaimed": 1})])
    agg.record([(11, "miss", "t1#0", {})])
    assert agg.finalize().per_object["o1"].peak_live_versions == 1


def test_peak_live_versions_samples_a_last_install_at_finalize():
    agg = MetricsAggregator()
    install(agg, 0, 1)
    released(agg, 1)
    install(agg, 10, 2)
    first = agg.finalize()
    assert first.per_object["o1"].peak_live_versions == 2
    assert emit_csv_rows(agg.finalize(), "r", "m", "p") == emit_csv_rows(first, "r", "m", "p")


# -- csv / trace -----------------------------------------------------------------

def test_csv_header_is_pinned():
    assert CSV_HEADER == ("scenario,mode,policy,txn_class,released,committed,"
                          "missed,miss_ratio,restarts,vi_restarts,"
                          "updates_performed,updates_skipped,mean_staleness,"
                          "max_staleness,max_sink_error,peak_live_versions,"
                          "stale_at_commit")


def test_empty_report_emits_header_and_overall(capsys):
    _write_csv(emit_csv_rows(MetricsAggregator().finalize(), "s", "classical", "periodic"),
               None)
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 2 and lines[0] == CSV_HEADER
    assert lines[1].startswith("s,classical,periodic,overall,0,0,0,0.0")


@pytest.mark.parametrize("file_name, name, class_id", [
    ("a,b.json", None, "t1"),
    ("config.json", 'a,b "q"', "t1"),
    ("config.json", "two\nlines", "t,1"),
    ("config.json", "plain", 'say "x"\r\n'),
], ids=["stem-comma", "name-comma-quote", "class-comma", "class-quote-crlf"])
def test_cli_csv_reads_back_with_csv_reader(tmp_path, capsys, file_name, name, class_id):
    doc = json.loads(json.dumps(CONFIG_INFEASIBLE))
    if name is not None:
        doc["name"] = name
    doc["transactions"][0]["id"] = class_id
    path = write_config(tmp_path, doc, name=file_name)
    out = tmp_path / "out.csv"
    assert main(["run", path, "--csv", str(out)]) == 0
    with open(out, encoding="utf-8", newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == CSV_COLUMNS
    scenario = name if name is not None else Path(file_name).stem
    assert [row[:4] for row in rows[1:]] == [
        [scenario, "classical", "periodic", "overall"],
        [scenario, "classical", "periodic", class_id]]
    assert all(len(row) == len(CSV_COLUMNS) for row in rows)


def test_csv_quotes_only_fields_that_need_it():
    report = Simulator(one_object_config(vi=10, retrieval=2, analysis=3)).run()
    plain = emit_csv_rows(report, "s", "classical", "periodic")
    quoted = emit_csv_rows(report, 's,"t"', "classical", "periodic")
    assert quoted == ['"s,""t"""' + row[1:] for row in plain]


def test_single_commit_zero_miss_ratio_column():
    report = Simulator(one_object_config(vi=10, retrieval=2, analysis=3)).run()
    row = emit_csv_rows(report, "s", "classical", "periodic")[0].split(",")
    assert row[CSV_HEADER.split(",").index("miss_ratio")] == "0.0"


def fnv1a64_bytewise(data: bytes, h: int = 0xCBF29CE484222325) -> int:
    """FNV-1a by its definition: XOR in a byte, then multiply by the prime."""
    for byte in data:
        h = ((h ^ byte) * 0x100000001B3) % 2 ** 64
    return h


def test_fnv1a64_reference_values():
    # standard FNV-1a test vectors, for the hash and for its reference
    for fnv in (fnv1a64, fnv1a64_bytewise):
        assert fnv(b"") == 0xCBF29CE484222325
        assert fnv(b"a") == 0xAF63DC4C8601EC8C
        assert fnv(b"foobar") == 0x85944171F73967E8


@pytest.mark.parametrize("length", range(21))
def test_fnv1a64_chains_across_every_split(length):
    # the second part starts from every state that the first part reaches,
    # and each split point cuts a digit run or a text run of the data
    data = bytes((37 * i + 11) % 256 for i in range(length))
    whole = fnv1a64(data)
    for split in range(length + 1):
        a, b = data[:split], data[split:]
        assert fnv1a64(b, fnv1a64(a)) == whole


# the 40-byte text run of a restart record between its time and the next
# record's, with a letter-only object id
_RESTART_TEXT_RUN = b'",{"cause":"vi_expiry","object":"oa"}]\n['


@pytest.mark.parametrize("run", [b"", b"[", _RESTART_TEXT_RUN],
                         ids=["empty", "one-byte", "restart-record"])
def test_run_table_ends_where_bytewise_fnv1a_ends(run):
    ends, multiplier = _run_table(run)
    assert len(ends) == 256
    assert list(ends) == [fnv1a64_bytewise(run, start) for start in range(256)]
    assert multiplier == 0x100000001B3 ** len(run) % 2 ** 64
    # the identity the hash uses, from states beyond the table's starts
    for h in (256, 0xCBF29CE484222325, 2 ** 64 - 1, 0x0123456789ABCDEF):
        assert (ends[h & 255] + multiplier * (h - (h & 255))) % 2 ** 64 == \
            fnv1a64_bytewise(run, h)


# text runs without digits, so each stays one run between its digit runs
_TEXT_RUNS = (b",", b"#", b'"]\n[', b"x" * 17, _RESTART_TEXT_RUN)
# digit runs of 1 to 22 digits
_DIGIT_RUNS = st.integers(0, 10 ** 21).map(lambda n: str(n).encode())


@st.composite
def _recurring_runs(draw):
    """(data, sightings): the data, from text runs each seen just below, at
    or just above _TABLE_AT times, in a drawn order, each followed by a
    digit run; and each text run's number of sightings."""
    sightings = {run: _TABLE_AT + draw(st.integers(-1, 1)) for run in _TEXT_RUNS}
    runs = draw(st.permutations([run for run, n in sightings.items() for _ in range(n)]))
    digits = draw(st.lists(_DIGIT_RUNS, min_size=len(runs), max_size=len(runs)))
    return b"".join(t + d for t, d in zip(runs, digits)), sightings


# no shrink phase: each example holds about 160 runs, and shrinking a
# failing one would take minutes
@settings(max_examples=60, derandomize=True, database=None, deadline=None,
          phases=(Phase.explicit, Phase.generate))
@given(drawn=_recurring_runs(), start=st.integers(0, 2 ** 64 - 1), data=st.data())
def test_fnv1a64_is_bytewise_fnv1a_with_and_without_shared_tables(drawn, start, data):
    whole, sightings = drawn
    expected = fnv1a64_bytewise(whole, start)
    tables = {}
    assert fnv1a64(whole, start, tables) == expected
    # a table from the _TABLE_AT-th sighting on, a count before
    for run, n in sightings.items():
        assert isinstance(tables[run], tuple) == (n >= _TABLE_AT), (run, n)
    cuts = sorted(data.draw(st.lists(st.integers(0, len(whole)), max_size=6)))
    blocks = [whole[i:j] for i, j in zip([0] + cuts, cuts + [len(whole)])]
    shared, fresh, tables = start, start, {}
    for block in blocks:
        shared = fnv1a64(block, shared, tables)
        fresh = fnv1a64(block, fresh, {})
    assert shared == fresh == expected


# inputs that no trace holds: NUL is a marked byte, like a digit
_EDGE_INPUTS = {
    "nul": b"\0",
    "nuls": b"\0" * 40,
    "nul-between-text": b'"a\0b"\0]\n',
    "nul-next-to-digits": b"[1\x002,\x00\x003\x004]9\x00",
    "digit-run-100000": bytes(48 + (7 * i + i // 10) % 10 for i in range(100_000)),
    "no-digits": bytes(range(1, 48)) + bytes(range(58, 256)) + b"no digits" * 500,
}


@pytest.mark.parametrize("data", _EDGE_INPUTS.values(), ids=_EDGE_INPUTS.keys())
def test_fnv1a64_is_bytewise_fnv1a_on_edge_inputs(data):
    for start in (0xCBF29CE484222325, 0, 2 ** 64 - 1):
        assert fnv1a64(data, start) == fnv1a64_bytewise(data, start)
    # the same data _TABLE_AT + 1 times over, so that its text runs recur
    # until they are hashed through their tables
    tables = {}
    h = shared = 0xCBF29CE484222325
    for _ in range(_TABLE_AT + 1):
        h = fnv1a64_bytewise(data, h)
        shared = fnv1a64(data, shared, tables)
        assert shared == h


@pytest.mark.parametrize("blocks", [1, _TABLE_AT])
def test_fnv1a64_counts_and_tables_the_run_that_opens_the_data(blocks):
    # the run b"ab" opens every block and is seen _TABLE_AT times in all,
    # so the last sighting builds its table
    data = b"ab" + b"1ab" * (_TABLE_AT // blocks - 1)
    tables = {}
    h = 0xCBF29CE484222325
    for _ in range(blocks):
        h = fnv1a64(data, h, tables)
    assert h == fnv1a64_bytewise(data * blocks)
    assert isinstance(tables[b"ab"], tuple)


def test_fnv1a64_fills_a_pinned_number_of_tables_on_the_default_seed_trace():
    # a deterministic cost guard: a change that cut the trace's text runs
    # into other pieces would fill another number of tables, and fail here
    # without timing anything
    sink = TraceLines()
    Simulator(config_from_dict(gen.generate("restart_cycle", 1)), sink=sink).run()
    h = 0xCBF29CE484222325
    tables = {}
    for block in sink.blocks:
        h = fnv1a64(block, h, tables)
    assert format(h, "016x") == "27cc95db8d131847"
    assert sum(isinstance(entry, tuple) for entry in tables.values()) == 33


def test_trace_hash_tables_live_for_one_call(monkeypatch):
    # each trace_hash call hands its blocks one fresh dict of tables
    seen = []

    def recording(data, h, tables):
        seen.append(tables)
        return original(data, h, tables)

    original = freshsim.metrics.fnv1a64
    monkeypatch.setattr(freshsim.metrics, "fnv1a64", recording)
    sink = TraceLines()
    sink(ODD_RECORDS)
    sink(ODD_RECORDS)
    first = trace_hash(sink)
    assert trace_hash(sink) == first
    assert len(seen) == 4 and seen[0] is seen[1] and seen[2] is seen[3]
    assert seen[0] is not seen[2]


def test_trace_roundtrip_and_hash_stability():
    records = run_records(one_object_config())[1]
    sink = TraceLines()
    sink(records)
    text = b"".join(sink.blocks).decode("utf-8")
    parsed = [json.loads(line) for line in text.strip().split("\n")]
    assert parsed == [list(rec) for rec in records]
    assert hash_records(records) == hash_records(parsed)


def dumps(record) -> str:
    """The trace line of `record`, as json.dumps writes it."""
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def dumps_bytes(records) -> bytes:
    """The trace bytes of `records`, as json.dumps writes each line."""
    return "".join(dumps(record) + "\n" for record in records).encode("utf-8")


ODD_IDS = ["\u00f6bj", "\u65e5\u672c#1", 'q"uote', "back\\slash", "ctl\x00\x1f\n\t\x7f",
           "astral \U0001f600", "lone \ud800"]
ODD_RECORDS = [
    (0, "update_decision", "o1", {"decision": "perform", "sampled": math.nan}),
    (1, "update_decision", "o1", {"decision": "skip", "sampled": math.inf,
                                  "sink_value": -math.inf}),
    (2, "update_decision", "o1", {"decision": "transmit", "sampled": -0.0,
                                  "sink_value": 5e-324}),
    (3, "update_decision", "o1", {"decision": "suppress", "sampled": 1e16,
                                  "sink_value": 0.1 + 0.2}),
    (2 ** 64 + 1, "install", "o1", {"seq": -(2 ** 70), "sample_time": 2 ** 63}),
    (5, "miss", "t1#0", {}),
    (6, "commit", "t1#1", {"stale_at_commit": True, "stale_objects": ODD_IDS}),
    (7, "commit", "t1#2", {"stale_at_commit": False, "stale_objects": []}),
    (8, "txn_rejected", "t2", {"failing": ODD_IDS, "admitted": None}),
    (9, "restart", ODD_IDS[4], {"cause": "vi_expiry", "object": ODD_IDS[3]}),
] + [(10, "access", oid, {"object": oid, "staleness": 0, "via": "store", oid: oid})
     for oid in ODD_IDS]


def test_encoder_writes_the_bytes_of_json_dumps():
    sink = TraceLines()
    for record in ODD_RECORDS:
        sink([record])
    expected = [dumps(record) for record in ODD_RECORDS]
    assert list(_encode_records(ODD_RECORDS)) == expected
    assert b"".join(sink.blocks) == dumps_bytes(ODD_RECORDS)
    # the encoder of an interpreter without the `_json` accelerator
    fallback = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
    assert [fallback(record) for record in ODD_RECORDS] == expected
    assert hash_records(ODD_RECORDS) == trace_hash(sink) == format(
        fnv1a64(dumps_bytes(ODD_RECORDS)), "016x")


def _without_the_c_encoder(monkeypatch) -> list:
    """Switch json's C encoder off, as on an interpreter without `_json`;
    returns the list of json's Python-path encoders built from then on."""
    built = []
    make = json.encoder._make_iterencode

    def counted(*args, **kwargs):
        built.append(args)
        return make(*args, **kwargs)

    monkeypatch.setattr(json.encoder, "c_make_encoder", None)
    monkeypatch.setattr(json.encoder, "_make_iterencode", counted)
    return built


def test_encoder_without_the_c_accelerator_is_the_fallback(monkeypatch):
    # one encoder, whose `encode` takes json's Python path by itself
    expected = [dumps(record) for record in ODD_RECORDS]
    expected_hash = hash_records(ODD_RECORDS)
    built = _without_the_c_encoder(monkeypatch)
    assert list(_encode_records(ODD_RECORDS)) == expected
    assert len(built) == len(ODD_RECORDS)
    sink = TraceLines()
    sink(ODD_RECORDS)
    assert len(built) == len(ODD_RECORDS) + 1
    assert trace_hash(sink) == expected_hash


def test_restart_cycle_default_seed_trace_hash_without_the_c_encoder(monkeypatch):
    built = _without_the_c_encoder(monkeypatch)
    sink = TraceLines()
    Simulator(config_from_dict(gen.generate("restart_cycle", 1)), sink=sink).run()
    assert built
    assert trace_hash(sink) == "27cc95db8d131847"


@pytest.mark.parametrize("odd", [
    ("access", "t],[1#0", {"object": "o],[", "staleness": 0, "via": "store"}),
    ("commit", "t1#0", {"stale_at_commit": True, "stale_objects": ["a", "],[", "b"]}),
    ("txn_rejected", "t2", {"failing": [["a"], ["b"]]}),
    ("restart", "t3#1", {"cause": "vi_expiry", "object": "]],[["}),
])
def test_a_batch_holding_the_line_separator_is_encoded_record_by_record(
        monkeypatch, odd):
    # a batch is encoded with one call per slice of records, and the "],["
    # between records become line breaks; a batch with "],[" inside a
    # record takes one call per record
    per_record = []
    encode_records = freshsim.metrics._encode_records

    def spy(records):
        per_record.append(len(records))
        return encode_records(records)

    monkeypatch.setattr(freshsim.metrics, "_encode_records", spy)
    clean = ODD_RECORDS * 5
    sink = TraceLines()
    sink(clean)
    assert sink.blocks == [dumps_bytes(clean)] and per_record == []
    # the odd record in the first slice of one batch and the second of another
    assert len(ODD_RECORDS) * 4 == freshsim.metrics._CALL_RECORDS + 4
    batches = [ODD_RECORDS[:4] + [(11, *odd)] + ODD_RECORDS[4:],
               ODD_RECORDS * 4 + [(12, *odd)] + ODD_RECORDS, [(13, *odd)]]
    for batch in batches:
        sink(batch)
    assert per_record == [len(batch) for batch in batches]
    assert sink.blocks[1:] == [dumps_bytes(batch) for batch in batches]
    assert trace_hash(sink) == hash_records(clean + sum(batches, []))


@pytest.mark.parametrize("count", [0, 1, 1023, 1024, 1025, 2049])
def test_trace_lines_keeps_one_block_of_json_dumps_lines_per_batch(count):
    # the bytes `run --trace` writes: one json.dumps line per record
    records = [(t, *ODD_RECORDS[t % len(ODD_RECORDS)][1:]) for t in range(count)]
    digest = format(fnv1a64(dumps_bytes(records)), "016x")
    sink = TraceLines()
    for record in records:
        sink([record])
    assert sink.blocks == [dumps_bytes([record]) for record in records]
    whole = TraceLines()
    whole(records)
    assert whole.blocks == ([dumps_bytes(records)] if records else [])
    assert b"".join(sink.blocks) == dumps_bytes(records)
    assert trace_hash(sink) == trace_hash(whole) == digest


def test_trace_lines_joined_bytes_and_hash_do_not_depend_on_the_batches():
    # each block is one batch's lines; the bytes the blocks join to and
    # their hash are the trace's, however the records were batched
    records = run_records(config_from_dict(_endless_restarts(4000)))[1]
    expected = dumps_bytes(records)
    digest = format(fnv1a64(expected), "016x")
    rng = random.Random(3)
    for _ in range(8):
        batches = random_batches(records, rng, cuts=[1023, 1024, 2049])
        sink = TraceLines()
        for batch in batches:
            sink(batch)
        assert sink.blocks == [dumps_bytes(batch) for batch in batches if batch]
        assert b"".join(sink.blocks) == expected
        assert trace_hash(sink) == digest


def test_trace_lines_keeps_one_block_per_engine_batch_and_nothing_pending():
    # one block of bytes per batch the engine hands over, and no lines
    # waiting for a block
    batches = []
    sink = TraceLines()

    def keep(records):
        batches.append(records)
        sink(records)

    Simulator(config_from_dict(_endless_restarts(3000)), sink=keep).run()
    assert len(batches) >= 2 and all(batches)
    assert {type(block) for block in sink.blocks} == {bytes}
    assert sink.blocks == [dumps_bytes(batch) for batch in batches]
    assert vars(sink) == {"blocks": sink.blocks}


def test_trace_lines_adds_no_block_for_an_empty_batch():
    sink = TraceLines()
    sink([])
    assert sink.blocks == [] and trace_hash(sink) == format(fnv1a64(b""), "016x")
    sink(ODD_RECORDS[:2])
    sink([])
    assert sink.blocks == [dumps_bytes(ODD_RECORDS[:2])]
    assert trace_hash(sink) == hash_records(ODD_RECORDS[:2])


def test_encoder_writes_the_bytes_of_json_dumps_for_every_record_kind():
    kinds = set()
    for doc in _every_kind_docs():
        sink = TraceLines()
        Simulator(config_from_dict(doc), sink=sink).run()
        trace = run_records(config_from_dict(doc))[1]
        assert b"".join(sink.blocks) == dumps_bytes(trace)
        assert list(_encode_records(trace)) == [dumps(record) for record in trace]
        assert trace_hash(sink) == hash_records(trace)
        kinds |= {kind for _, kind, _, _ in trace}
    assert kinds == set(_readme_trace_table())


# -- cli ----------------------------------------------------------------------------

def test_cli_check_exit_codes(tmp_path, capsys):
    path = write_config(tmp_path, CONFIG_INFEASIBLE)
    assert main(["check", path]) == 1
    out = capsys.readouterr().out
    assert "o1" in out and "INFEASIBLE" in out

    feasible = json.loads(json.dumps(CONFIG_INFEASIBLE))
    feasible["objects"][0]["vi"] = 6  # boundary: R + A = 6 <= 6
    path = write_config(tmp_path, feasible, "feasible.json")
    assert main(["check", path]) == 0


def test_cli_check_uses_the_rescaled_objects(tmp_path, capsys):
    # elastic at target 0.5 stretches the period 2 -> 4 and vi 4 -> 8, so
    # R + A = 6 fits; the declared vi of 4 would not
    doc = json.loads(json.dumps(CONFIG_INFEASIBLE))
    doc["objects"][0].update(vi=4, period=2, cost=2, policy={
        "kind": "elastic", "target_utilization": 0.5})
    doc["transactions"][0].update(retrieval={"o1": 3}, analysis={"o1": 3})
    path = write_config(tmp_path, doc)
    assert main(["check", path]) == 0
    out = capsys.readouterr().out
    assert "txn t1 object o1: vi=8 retrieval=3 analysis=3 [ok]" in out


@pytest.mark.parametrize("command", ["run", "check"])
def test_cli_reports_an_unreachable_elastic_target_at_the_first_elastic_object(
        tmp_path, capsys, command):
    # o2's utilization 1 stays above the target 0.1 even at its maximal
    # period 2; the target read is o2's, objects[1]
    doc = json.loads(json.dumps(CONFIG_INFEASIBLE))
    doc["objects"].append({"id": "o2", "vi": 4, "period": 2, "cost": 2, "max_period": 2,
                           "process": {"kind": "constant", "value": 1.0},
                           "policy": {"kind": "elastic", "target_utilization": 0.1}})
    path = write_config(tmp_path, doc)
    assert main([command, path]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: objects[1].policy.target_utilization: target utilization 1/10 "
        "unreachable even at maximal periods (residual over target: 0.9)"]


def test_cli_run_rescales_a_tiny_weight_beside_a_float_elasticity(tmp_path, capsys):
    # o1's default elasticity 1 / (period * 5e-324) is an exact fraction near
    # 1e323, past float range; o2's elasticity 0.3 is read as 3/10, so the
    # sums stay exact: o1 clamps at the default cap 2**20 and o2 sheds the
    # rest, 1/2 - 2**-20 left of its 1/2, so its period becomes 3
    doc = json.loads(json.dumps(CONFIG_INFEASIBLE))
    doc["objects"] = [
        {"id": "o1", "vi": 4, "period": 2, "cost": 1, "access_weight": 5e-324,
         "policy": {"kind": "elastic", "target_utilization": 0.5}},
        {"id": "o2", "vi": 4, "period": 2, "cost": 1,
         "policy": {"kind": "elastic", "target_utilization": 0.5, "elasticity": 0.3}},
    ]
    path = write_config(tmp_path, doc)
    assert main(["run", path]) == 0
    assert main(["check", path]) == 0
    out = capsys.readouterr().out
    assert "txn t1 object o1: vi=2097152 retrieval=2 analysis=4 [ok]" in out
    cfg = config_from_dict(doc)
    assert effective_objects(cfg.objects)["o2"].update_period == 3


def test_cli_check_reports_validation_errors(tmp_path, capsys):
    bad = json.loads(json.dumps(CONFIG_INFEASIBLE))
    bad["objects"][0]["vi"] = 0
    path = write_config(tmp_path, bad)
    assert main(["check", path]) == 1
    assert "objects[0].vi" in capsys.readouterr().err


def test_cli_rejects_durations_of_an_object_outside_the_read_set(tmp_path, capsys):
    doc = json.loads(json.dumps(CONFIG_INFEASIBLE))
    doc["objects"][0].update(id="a", vi=10)
    doc["transactions"][0].update(read_set=["a"], retrieval={"a": 1, "zz": 3},
                                  analysis={"a": 2, "zz": 4})
    path = write_config(tmp_path, doc)
    for command in ("check", "run"):
        assert main([command, path]) == 1
        err = capsys.readouterr().err
        assert "transactions[0].retrieval[zz]: object is not in the read set" in err
        assert "transactions[0].analysis[zz]: object is not in the read set" in err
    del doc["transactions"][0]["retrieval"]["zz"], doc["transactions"][0]["analysis"]["zz"]
    assert main(["check", write_config(tmp_path, doc)]) == 0


def test_cli_run_writes_csv_and_trace(tmp_path, capsys):
    path = write_config(tmp_path, CONFIG_INFEASIBLE)
    csv_out = tmp_path / "out.csv"
    trace_out = tmp_path / "out.trace"
    assert main(["run", path, "--csv", str(csv_out),
                 "--trace", str(trace_out)]) == 0
    assert csv_out.read_text().startswith(CSV_HEADER)
    assert "trace hash" in capsys.readouterr().out
    assert trace_out.read_text().count("\n") > 5


def test_cli_run_trace_file_matches_printed_and_library_hash(tmp_path, capsys):
    # about 2.7k records, so the hash spans blocks
    doc = _endless_restarts(3000)
    path = write_config(tmp_path, doc)
    trace_out = tmp_path / "out.trace"
    assert main(["run", path, "--trace", str(trace_out), "--csv",
                 str(tmp_path / "out.csv")]) == 0
    printed = re.search(r"trace hash ([0-9a-f]{16})", capsys.readouterr().out).group(1)
    trace = run_records(config_from_dict(doc))[1]
    assert sum(kind == "restart" for _, kind, _, _ in trace) > 0
    assert len(trace) > 2048
    data = trace_out.read_bytes()
    assert format(fnv1a64(data), "016x") == printed == hash_records(trace)
    assert data == dumps_bytes(trace)


def _readme_trace_table() -> dict[str, set[str]]:
    """kind -> detail keys, parsed from the README's trace table."""
    readme = Path(__file__).resolve().parent.parent / "README.md"
    text = readme.read_text(encoding="utf-8")
    section = text[text.index("### Trace"):]
    section = section[:section.index("\n## ")]
    table = {}
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        kind = re.fullmatch(r"`(\w+)`", cells[0])
        if line.startswith("|") and len(cells) == 3 and kind:
            table[kind.group(1)] = set(re.findall(r"`(\w+)`", cells[2]))
    return table


def _every_kind_docs() -> list[dict]:
    """Configs that between them write every record kind and detail key of
    the README's trace table."""
    from freshsim.core import FreshnessMode
    from freshsim.workload import emit_config
    from test_worked_trace import worked_config

    docs = [json.loads(emit_config(worked_config(FreshnessMode.CLASSICAL))), _walk_doc()]
    docs.append(dict(_walk_doc(), objects=[
        dict(od, policy={"kind": "prediction", "predictor": "linear", "epsilon": 0.5})
        for od in _walk_doc()["objects"]]))
    return docs


def test_cli_run_trace_lines_match_the_readme_table(tmp_path):
    table = _readme_trace_table()
    assert len(table) == 9 and table["miss"] == set()
    kinds, keys = set(), set()
    for i, doc in enumerate(_every_kind_docs()):
        trace_out = tmp_path / f"{i}.trace"
        assert main(["run", write_config(tmp_path, doc, f"{i}.json"),
                     "--trace", str(trace_out), "--csv", str(tmp_path / "out.csv")]) == 0
        for line in trace_out.read_text(encoding="utf-8").splitlines():
            record = json.loads(line)
            assert isinstance(record, list) and len(record) == 4, line
            t, kind, subject, detail = record
            assert isinstance(t, int) and isinstance(subject, str), line
            assert isinstance(detail, dict) and kind in table, line
            assert set(detail) <= table[kind], line
            kinds.add(kind)
            keys |= set(detail)
    # the configs between them write every kind and every key listed
    assert kinds == set(table)
    assert keys == set().union(*table.values())


def test_cli_checks_and_runs_the_readme_minimal_example(tmp_path, capsys):
    readme = Path(__file__).resolve().parent.parent / "README.md"
    text = readme.read_text(encoding="utf-8")
    block = text[text.index("Minimal example"):]
    block = block[block.index("```json\n") + len("```json\n"):]
    config = tmp_path / "minimal.json"
    config.write_text(block[:block.index("```")], encoding="utf-8")
    # vi 10 covers retrieval 2 + analysis 3
    assert main(["check", str(config)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "txn t1 object o1: vi=10 retrieval=2 analysis=3 [ok]", "txn t1: feasible"]
    assert main(["run", str(config)]) == 0
    assert capsys.readouterr().err == ""


def test_cli_run_is_deterministic(tmp_path, capsys):
    path = write_config(tmp_path, CONFIG_INFEASIBLE)
    main(["run", path])
    first = capsys.readouterr().out
    main(["run", path])
    second = capsys.readouterr().out
    assert first == second


def test_cli_sweep_merges_rows(tmp_path, capsys):
    path = write_config(tmp_path, CONFIG_INFEASIBLE)
    assert main(["sweep", path, "--param", "objects[0].vi",
                 "--values", "5,6,10"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert sum(1 for line in lines if ",overall," in line) == 3
    assert "objects[0].vi=6" in out


def test_cli_sweep_bad_path_fails(tmp_path, capsys):
    path = write_config(tmp_path, CONFIG_INFEASIBLE)
    assert main(["sweep", path, "--param", "objects[9].vi",
                 "--values", "1"]) == 1


@pytest.mark.parametrize("name, args", [
    (5, ["run"]),
    (5, ["compare", "--modes", "classical"]),
    (5, ["sweep", "--param", "objects[0].vi", "--values", "10"]),
    ("c", ["sweep", "--param", "name", "--values", "5"]),
], ids=["run", "compare", "sweep", "sweep-name"])
def test_cli_rejects_a_name_that_is_not_a_string(tmp_path, capsys, name, args):
    # sweep labels its rows from the swept config's name, and only from a
    # string
    path = write_config(tmp_path, {**CONFIG_INFEASIBLE, "name": name})
    assert main([args[0], path, *args[1:]]) == 1
    assert capsys.readouterr().err == "error: name: must be a string\n"


@pytest.mark.parametrize("args", [
    ["run", "--csv"],
    ["run", "--trace"],
    ["sweep", "--param", "objects[0].vi", "--values", "10", "--csv"],
    ["compare", "--modes", "classical", "--csv"],
], ids=["run-csv", "run-trace", "sweep", "compare"])
def test_cli_output_that_cannot_be_written_is_invalid_input(tmp_path, capsys, args):
    # the form of a config that cannot be read, not a runtime error
    path = write_config(tmp_path, CONFIG_INFEASIBLE)
    out = str(tmp_path / "no" / "such" / "dir" / "out")
    assert main([args[0], path, *args[1:], out]) == 1
    assert capsys.readouterr().err == f"error: {out}: No such file or directory\n"


def test_cli_run_with_a_huge_poisson_mean_gap_releases_nothing(tmp_path, capsys):
    # the first gap of seed 6 is infinite as a float
    u = freshsim.workload.uniform_at(freshsim.workload.stable_key(6, "t1", "arrivals"), 0)
    assert -10 ** 308 * math.log(u) == math.inf
    doc = {**CONFIG_INFEASIBLE, "seed": 6}
    doc["transactions"] = [{**CONFIG_INFEASIBLE["transactions"][0],
                            "arrival": {"kind": "poisson", "mean_gap": 10 ** 308}}]
    path = write_config(tmp_path, doc)
    assert main(["run", path]) == 0
    assert "released=0 " in capsys.readouterr().out


@pytest.mark.parametrize("command", [["run"], ["check"], ["compare", "--modes", "multiversion"]])
def test_cli_rejects_a_class_with_the_overall_rows_label(tmp_path, capsys, command):
    # its CSV row would be told from the run-wide row by the empty columns only
    doc = {**CONFIG_INFEASIBLE, "transactions": [
        {**CONFIG_INFEASIBLE["transactions"][0], "id": "overall"}]}
    path = write_config(tmp_path, doc)
    assert main([command[0], path, *command[1:]]) == 1
    assert capsys.readouterr().err == (
        "error: transactions[0].id: 'overall' labels the run-wide CSV row\n")


def test_python_m_freshsim_prints_what_main_prints(tmp_path, capsys):
    path = write_config(tmp_path, CONFIG_INFEASIBLE)
    assert main(["run", path]) == 0
    expected = capsys.readouterr().out
    src = Path(freshsim.cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-m", "freshsim", "run", path],
                          capture_output=True, text=True, env=env, cwd=tmp_path)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == expected


@pytest.mark.parametrize("command", [
    ["run"], ["check"], ["compare", "--modes", "classical,multiversion"]])
def test_a_closed_stdout_is_an_unwritable_output(tmp_path, command):
    # the read end of stdout's pipe is closed before the command starts, so
    # its first write fails, whatever it writes and whenever it flushes
    path = write_config(tmp_path, CONFIG_INFEASIBLE)
    src = Path(freshsim.cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, "-m", "freshsim", command[0], path,
                               *command[1:]], stdout=write, stderr=subprocess.PIPE,
                              text=True, env=env, cwd=tmp_path)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (1, "error: stdout: Broken pipe\n")


def test_cli_sweep_leaves_the_loaded_document_as_it_was(tmp_path, monkeypatch):
    loaded = []
    load = freshsim.cli._load_doc

    def keep(path):
        doc = load(path)
        loaded.append((doc, json.loads(json.dumps(doc))))
        return doc

    monkeypatch.setattr(freshsim.cli, "_load_doc", keep)
    path = write_config(tmp_path, _walk_doc())
    assert main(["sweep", path, "--param", "objects[1].policy.delta",
                 "--values", "0,0.8,3"]) == 0
    [(doc, before)] = loaded
    assert doc == before


def test_cli_sweep_rows_are_the_rows_of_run_on_each_value(tmp_path):
    base = {**_walk_doc(), "name": "walks"}
    param = "transactions[0].arrival.period"
    swept = tmp_path / "sweep.csv"
    assert main(["sweep", write_config(tmp_path, base), "--param", param,
                 "--values", "3,7,20", "--csv", str(swept)]) == 0
    header, *rows = swept.read_text(encoding="utf-8").splitlines()
    expected = []
    for value in (3, 7, 20):
        doc = json.loads(json.dumps(base))
        doc["transactions"][0]["arrival"]["period"] = value
        doc["name"] = f"walks[{param}={value}]"
        out = tmp_path / "run.csv"
        assert main(["run", write_config(tmp_path, doc, "value.json"),
                     "--csv", str(out)]) == 0
        expected += out.read_text(encoding="utf-8").splitlines()[1:]
    assert header == CSV_HEADER and rows == expected
    assert len({row.split(",")[0] for row in rows}) == 3


def test_cli_compare_modes_side_by_side(tmp_path, capsys):
    path = write_config(tmp_path, CONFIG_INFEASIBLE)
    assert main(["compare", path, "--modes", "classical,multiversion"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    classical = next(l for l in lines if l.split(",")[1] == "classical"
                     and ",overall," in l)
    multiversion = next(l for l in lines if l.split(",")[1] == "multiversion"
                        and ",overall," in l)
    idx = CSV_HEADER.split(",").index("vi_restarts")
    assert int(classical.split(",")[idx]) > 0
    assert int(multiversion.split(",")[idx]) == 0


def test_cli_compare_policies(tmp_path, capsys):
    doc = json.loads(json.dumps(CONFIG_INFEASIBLE))
    doc["horizon"] = 300
    doc["transactions"][0]["retrieval_mode"] = "store"
    doc["transactions"][0]["retrieval"] = {"o1": 1}
    doc["transactions"][0]["analysis"] = {"o1": 2}
    doc["transactions"][0]["arrival"] = {"kind": "periodic", "start": 0,
                                         "period": 50}
    doc["objects"][0]["vi"] = 20
    path = write_config(tmp_path, doc)
    assert main(["compare", path, "--policies", "periodic,ondemand"]) == 0
    out = capsys.readouterr().out
    idx = CSV_HEADER.split(",").index("updates_performed")
    by_policy = {}
    for line in out.strip().split("\n")[1:]:
        cells = line.split(",")
        if cells[3] == "overall":
            by_policy[cells[2]] = int(cells[idx])
    assert by_policy["ondemand"] < by_policy["periodic"]


def _walk_doc() -> dict:
    """Two random-walk objects, one skipping updates; t1 reads from the store
    and falls back to the source, t2 reads the source only."""
    walk = {"kind": "randomwalk", "start": 0.0, "step_sigma": 1.0}
    return {
        "horizon": 200, "mode": "classical", "enforce_admission": False,
        "seed": 5,
        "objects": [
            {"id": "a", "vi": 6, "period": 5, "cost": 1, "process": walk,
             "policy": {"kind": "periodic"}},
            {"id": "b", "vi": 3, "period": 8, "cost": 1, "process": walk,
             "policy": {"kind": "similarity", "delta": 0.8}},
        ],
        "transactions": [
            {"id": "t1", "read_set": ["a", "b"], "retrieval": {"a": 1, "b": 2},
             "analysis": {"a": 2, "b": 1}, "deadline": 20,
             "arrival": {"kind": "periodic", "start": 1, "period": 7},
             "retrieval_mode": "store_then_source"},
            {"id": "t2", "read_set": ["b"], "retrieval": {"b": 1},
             "analysis": {"b": 1}, "deadline": 9,
             "arrival": {"kind": "periodic", "start": 2, "period": 11},
             "retrieval_mode": "source"},
        ],
    }


def _sampled_values(trace: list[tuple]) -> dict[tuple, float]:
    """(object id, t) -> value, for each value sampled in `trace`: by an
    update decision or by a source access."""
    values = {}
    for t, kind, subject, detail in trace:
        if kind == "update_decision":
            values[(subject, t)] = detail["sampled"]
        elif kind == "access" and detail["via"] == "source":
            values[(detail["object"], t)] = detail["value"]
    return values


@pytest.mark.parametrize("workload", ["policy_fleet", "walk"])
def test_cli_compare_variants_sample_equal_values_at_equal_instants(
        tmp_path, monkeypatch, workload):
    # compare keeps no sampled value: its variants share the seed, the
    # objects' value processes and one walk table, so a value depends only
    # on (object, t)
    if workload == "walk":
        doc, args = _walk_doc(), ["--policies", ",".join(_POLICY_DOCS)]
    else:
        spec = gen.load_spec()
        doc = gen.generate(workload, spec["default_seed"])
        args = spec["workloads"][workload]["cli"][1:]
    runs = []
    simulator = freshsim.cli.Simulator

    def listed(cfg, walks=None):
        trace = []
        runs.append((trace, walks))
        return simulator(cfg, sink=trace.extend, walks=walks)

    monkeypatch.setattr(freshsim.cli, "Simulator", listed)
    assert main(["compare", write_config(tmp_path, doc), "--modes",
                 "classical,multiversion", *args,
                 "--csv", str(tmp_path / "out.csv")]) == 0
    assert len(runs) == 12
    walks = runs[0][1]
    assert walks and all(shared is walks for _, shared in runs)
    first = {}
    variants = Counter()
    for trace, _ in runs:
        for key, value in _sampled_values(trace).items():
            assert first.setdefault(key, value) == value, key
            variants[key] += 1
    assert max(variants.values()) > 1
    if workload == "walk":
        vias = {detail["via"] for trace, _ in runs
                for _, kind, _, detail in trace if kind == "access"}
        assert vias == {"store", "source"}


_POLICY_DOCS = {
    "periodic": {"kind": "periodic"},
    "ondemand": {"kind": "ondemand"},
    "elastic:0.2": {"kind": "elastic", "target_utilization": 0.2},
    "mkfirm:2:3": {"kind": "mkfirm", "m": 2, "k": 3},
    "similarity:0.5": {"kind": "similarity", "delta": 0.5},
    "prediction:linear:0.5": {"kind": "prediction", "predictor": "linear",
                              "epsilon": 0.5},
}


def test_cli_compare_leaves_the_loaded_document_as_it_was(tmp_path, monkeypatch):
    loaded = []
    load = freshsim.cli._load_doc

    def keep(path):
        doc = load(path)
        loaded.append((doc, json.loads(json.dumps(doc))))
        return doc

    monkeypatch.setattr(freshsim.cli, "_load_doc", keep)
    path = write_config(tmp_path, _walk_doc())
    assert main(["compare", path, "--modes", "classical,multiversion",
                 "--policies", ",".join(_POLICY_DOCS)]) == 0
    [(doc, before)] = loaded
    assert doc == before


def test_cli_compare_rows_are_the_rows_of_run_on_each_variant(tmp_path):
    # `run` labels the policy column by kind, `compare` by token
    base = {**_walk_doc(), "name": "walks"}
    compared = tmp_path / "compare.csv"
    assert main(["compare", write_config(tmp_path, base), "--modes",
                 "classical,multiversion", "--policies", ",".join(_POLICY_DOCS),
                 "--csv", str(compared)]) == 0
    header, *rows = compared.read_text(encoding="utf-8").splitlines()
    expected = []
    for mode in ("classical", "multiversion"):
        for token, policy in _POLICY_DOCS.items():
            doc = {**base, "mode": mode,
                   "objects": [{**od, "policy": policy} for od in base["objects"]]}
            out = tmp_path / "run.csv"
            assert main(["run", write_config(tmp_path, doc, "variant.json"),
                         "--csv", str(out)]) == 0
            for line in out.read_text(encoding="utf-8").splitlines()[1:]:
                cells = line.split(",")
                assert cells[1:3] == [mode, policy["kind"]]
                cells[2] = token
                expected.append(",".join(cells))
    assert header == CSV_HEADER and rows == expected


def test_cli_compare_steps_each_walk_once_for_all_of_its_variants(tmp_path, monkeypatch):
    # only a walk step draws a normal quantile; the first variant, periodic,
    # samples every ordinal up to the horizon, so no later variant needs
    # a step that it did not take
    steps = count_walk_steps(monkeypatch)
    base = _walk_doc()
    assert main(["compare", write_config(tmp_path, base), "--modes",
                 "classical,multiversion", "--policies", ",".join(_POLICY_DOCS),
                 "--csv", str(tmp_path / "compare.csv")]) == 0
    compared = steps["steps"]
    first = {**base, "objects": [{**od, "policy": _POLICY_DOCS["periodic"]}
                                 for od in base["objects"]]}
    assert main(["run", write_config(tmp_path, first, "first.json"),
                 "--csv", str(tmp_path / "run.csv")]) == 0
    assert compared == steps["steps"] - compared > 0


def test_cli_compare_parses_its_config_once(tmp_path, monkeypatch):
    parsed = []
    parse = freshsim.cli.config_from_dict

    def counted(doc):
        parsed.append(doc)
        return parse(doc)

    monkeypatch.setattr(freshsim.cli, "config_from_dict", counted)
    assert main(["compare", write_config(tmp_path, _walk_doc()), "--modes",
                 "classical,multiversion", "--policies", ",".join(_POLICY_DOCS),
                 "--csv", str(tmp_path / "compare.csv")]) == 0
    assert len(parsed) == 1


def _count_validations(monkeypatch) -> list:
    """Count every pass of the config rules (`workload._violations`), which
    a parse makes once, and `validate_config` from Simulator once."""
    calls = []
    violations = freshsim.workload._violations

    def counted(cfg, *records):
        calls.append(cfg)
        return violations(cfg, *records)

    monkeypatch.setattr(freshsim.workload, "_violations", counted)
    return calls


def test_a_parsed_config_is_validated_once(monkeypatch):
    calls = _count_validations(monkeypatch)
    cfg = config_from_dict(_walk_doc())
    Simulator(cfg)
    Simulator(cfg)
    assert calls == [cfg]
    # a copy made by dataclasses.replace is validated, and so is a config
    # built by hand
    derived = dataclasses.replace(cfg, mode=FreshnessMode.MULTIVERSION)
    Simulator(derived)
    Simulator(one_object_config())
    assert len(calls) == 3 and calls[1] is derived


def test_cli_compare_validates_each_variant_once(tmp_path, monkeypatch):
    # the first variant is validated whole, by its parse; each derived one
    # only by what changed, the token's policy, and Simulator trusts its
    # mark
    calls = _count_validations(monkeypatch)
    policies = []
    for cls in {type(policy_from_dict(doc)) for doc in _POLICY_DOCS.values()}:
        def counted(self, path, errors, validate=cls.validate):
            policies.append(self)
            validate(self, path, errors)

        monkeypatch.setattr(cls, "validate", counted)
    configs = _compared_configs(tmp_path, monkeypatch, [
        "--modes", "classical,multiversion", "--policies", ",".join(_POLICY_DOCS)])
    first, *derived = configs
    assert calls == [first]
    assert len(derived) == 2 * len(_POLICY_DOCS) - 1
    assert all(cfg.validated for cfg in configs)
    # the parse checks each of the first variant's objects' one policy
    assert policies[:len(first.objects)] == [first.objects[0].policy] * len(first.objects)
    assert policies[len(first.objects):] == [cfg.objects[0].policy for cfg in derived]


@pytest.mark.parametrize("objects, args, err", [
    # an int is not iterable either: the error is still the config's
    (7, ["--policies", "periodic"],
     "error: objects: must be a list\n"
     "error: transactions[0].read_set[0]: unknown object id 'o1'\n"),
    ({"o1": {}}, ["--policies", "periodic"],
     "error: objects: must be a list\n"
     "error: transactions[0].read_set[0]: unknown object id 'o1'\n"),
    ("o1", ["--policies", "periodic,ondemand"],
     "error: objects: must be a list\n"
     "error: transactions[0].read_set[0]: unknown object id 'o1'\n"),
    ([7, "o1"], ["--modes", "classical", "--policies", "periodic"],
     "error: objects[0]: must be an object\n"
     "error: objects[1]: must be an object\n"
     "error: transactions[0].read_set[0]: unknown object id 'o1'\n"),
    (None, ["--policies", "periodic,mkfirm:2"],
     "error: policies: cannot parse policy token 'mkfirm:2'\n"),
])
def test_cli_compare_errors_on_a_malformed_base(tmp_path, capsys, objects, args, err):
    doc = json.loads(json.dumps(CONFIG_INFEASIBLE))
    if objects is not None:
        doc["objects"] = objects
    assert main(["compare", write_config(tmp_path, doc), *args]) == 1
    assert capsys.readouterr().err == err


def _two_object_doc() -> dict:
    """CONFIG_INFEASIBLE with a second object like the first, so that a
    policy error is reported once per object."""
    doc = json.loads(json.dumps(CONFIG_INFEASIBLE))
    doc["objects"].append({**doc["objects"][0], "id": "o2"})
    return doc


@pytest.mark.parametrize("args, errors", [
    (["--modes", "classical,foo"],
     ["mode: must be 'classical' or 'multiversion', got 'foo'"]),
    (["--modes", "multiversion,"],
     ["mode: must be 'classical' or 'multiversion', got ''"]),
    (["--policies", "periodic,mkfirm:3:2"],
     [f"objects[{i}].policy: m <= k violated (m=3, k=2)" for i in (0, 1)]),
    (["--policies", "periodic,similarity:nan"],
     [f"objects[{i}].policy.delta: must be a number" for i in (0, 1)]),
    (["--policies", "periodic,prediction:cubic:0.5"],
     [f"objects[{i}].policy.predictor: must be one of lastvalue, linear" for i in (0, 1)]),
    # the type error of each object, and no range error of the zero that
    # stands in for it
    (["--policies", "periodic,elastic:inf"],
     [f"objects[{i}].policy.target_utilization: must be a number" for i in (0, 1)]),
])
def test_cli_compare_reports_a_bad_later_variant_as_its_config_would(
        tmp_path, capsys, args, errors):
    assert main(["compare", write_config(tmp_path, _two_object_doc()), *args]) == 1
    assert capsys.readouterr().err == "".join(f"error: {e}\n" for e in errors)


def _compared_configs(tmp_path, monkeypatch, args) -> list:
    """The config of each variant that `compare` runs with `args`."""
    configs = []
    simulator = freshsim.cli.Simulator

    def listed(cfg, walks=None):
        configs.append(cfg)
        return simulator(cfg, walks=walks)

    monkeypatch.setattr(freshsim.cli, "Simulator", listed)
    assert main(["compare", write_config(tmp_path, _walk_doc()), *args,
                 "--csv", str(tmp_path / "compare.csv")]) == 0
    return configs


def test_cli_compare_gives_each_policy_variant_objects_of_its_own(tmp_path, monkeypatch):
    # a policy variant copies the first variant's objects, each with the
    # token's one policy in place of its own and every other field shared
    first, *derived = _compared_configs(tmp_path, monkeypatch, [
        "--modes", "classical,multiversion", "--policies", "periodic,mkfirm:2:3"])
    assert [(cfg.mode.value, cfg.objects[0].policy.kind) for cfg in derived] == [
        ("classical", "mkfirm"), ("multiversion", "periodic"), ("multiversion", "mkfirm")]
    for cfg in derived:
        [policy] = {id(o.policy) for o in cfg.objects}
        assert len(cfg.objects) == len(first.objects) > 1
        for o, declared in zip(cfg.objects, first.objects):
            assert o is not declared
            for f in dataclasses.fields(o):
                if f.name != "policy":
                    assert getattr(o, f.name) is getattr(declared, f.name), f.name
    assert derived[1].objects[0].policy == first.objects[0].policy


def test_cli_compare_mode_variants_share_the_first_variants_objects(tmp_path, monkeypatch):
    first, second = _compared_configs(tmp_path, monkeypatch,
                                      ["--modes", "classical,multiversion"])
    assert second.mode is FreshnessMode.MULTIVERSION
    assert second.objects is first.objects


def test_cli_compare_requires_a_variant_axis(tmp_path, capsys):
    path = write_config(tmp_path, CONFIG_INFEASIBLE)
    assert main(["compare", path]) == 2


def test_cli_an_engine_fault_is_a_runtime_error(tmp_path, capsys, monkeypatch):
    # a fault of the program, not of the input: one stderr line, exit 2
    def broken(self):
        raise SimInternalError("version chain out of order")

    monkeypatch.setattr(Simulator, "run", broken)
    assert main(["run", write_config(tmp_path, CONFIG_INFEASIBLE)]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", "runtime error: version chain out of order\n")


def test_cli_missing_file_is_invalid(tmp_path):
    assert main(["run", str(tmp_path / "absent.json")]) == 1


def test_cli_directory_config_is_invalid(tmp_path, capsys):
    assert main(["run", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {tmp_path}: ")


def test_cli_non_utf8_config_is_invalid(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"name": "caf\xe9"}')
    assert main(["check", str(path)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {path}: ")


def test_cli_invalid_config_lists_paths(tmp_path, capsys):
    bad = json.loads(json.dumps(CONFIG_INFEASIBLE))
    bad["objects"][0]["policy"] = {"kind": "mkfirm", "m": 4, "k": 3}
    path = write_config(tmp_path, bad)
    assert main(["run", path]) == 1
    assert "m <= k" in capsys.readouterr().err


@pytest.mark.parametrize("args", [["run"], ["check"],
                                  ["sweep", "--param", "horizon", "--values", "10"],
                                  ["compare", "--modes", "classical"]],
                         ids=["run", "check", "sweep", "compare"])
def test_cli_rejects_a_config_that_is_not_an_object(tmp_path, capsys, args):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]", encoding="utf-8")
    assert main([args[0], str(path), *args[1:]]) == 1
    assert capsys.readouterr().err == "error: $: top level must be an object\n"


def _huge_number_doc() -> dict:
    """One object per value process, an elastic policy and Poisson
    arrivals: every number that a run turns into a float."""
    return {
        "horizon": 40, "mode": "classical", "seed": 1,
        "objects": [
            {"id": "c", "vi": 20, "period": 5,
             "process": {"kind": "constant", "value": 1.0},
             "policy": {"kind": "periodic"}},
            {"id": "w", "vi": 20, "period": 5,
             "process": {"kind": "randomwalk", "start": 0.0, "step_sigma": 1.0},
             "policy": {"kind": "periodic"}},
            {"id": "s", "vi": 20, "period": 5,
             "process": {"kind": "sinusoid", "amplitude": 1.0, "period": 10,
                         "phase": 0.0, "offset": 0.0},
             "policy": {"kind": "elastic", "target_utilization": 1.0}},
        ],
        "transactions": [{"id": "t1", "read_set": ["c", "w", "s"],
                          "retrieval": 1, "analysis": 1, "deadline": 30,
                          "arrival": {"kind": "poisson", "mean_gap": 5}}],
    }


@pytest.mark.parametrize("command", ["run", "check"])
@pytest.mark.parametrize("path", [
    "objects[0].process.value", "objects[1].process.start",
    "objects[1].process.step_sigma", "objects[2].process.amplitude",
    "objects[2].process.period", "objects[2].process.phase",
    "objects[2].process.offset", "objects[2].policy.target_utilization",
    "transactions[0].arrival.mean_gap", "$"])
def test_cli_rejects_numbers_too_large_for_a_float(tmp_path, capsys, command, path):
    doc = _huge_number_doc()
    assert main([command, write_config(tmp_path, doc, "ok.json")]) == 0
    capsys.readouterr()
    if path == "$":
        # past int()'s digit limit, so json.loads itself fails
        limit = sys.get_int_max_str_digits()
        huge, message = "9" * (limit + 1), f"integer literal longer than {limit} digits"
    else:
        huge, message = 10 ** 400, "magnitude exceeds the largest float (1.798e+308)"
    _set_path(doc, "objects[0].process.value" if path == "$" else path, "HUGE")
    config = tmp_path / "huge.json"
    config.write_text(json.dumps(doc).replace('"HUGE"', str(huge)), encoding="utf-8")
    assert main([command, str(config)]) == 1
    assert capsys.readouterr().err.splitlines()[0] == f"error: {path}: {message}"


@pytest.mark.parametrize("path", [
    "horizon", "seed", "objects[0].vi", "objects[0].period", "objects[1].max_period",
    "objects[2].process.period", "objects[1].process.step_sigma",
    "transactions[0].deadline", "transactions[0].arrival.mean_gap"])
def test_cli_reports_a_number_past_float_range_once(tmp_path, capsys, path):
    # the number itself, not a stand-in 0, meets the checks after the range
    # rule, so a value that is in range for them adds no second error
    doc = _huge_number_doc()
    doc["objects"][1]["max_period"] = 10
    _set_path(doc, path, "HUGE")
    config = tmp_path / "huge.json"
    config.write_text(json.dumps(doc).replace('"HUGE"', str(10 ** 400)), encoding="utf-8")
    assert main(["run", str(config)]) == 1
    assert capsys.readouterr().err == (
        f"error: {path}: magnitude exceeds the largest float (1.798e+308)\n")


@pytest.mark.parametrize("key", ["retrieval", "analysis"])
def test_cli_rejects_a_per_object_duration_past_float_range(tmp_path, capsys, key):
    doc = _huge_number_doc()
    doc["transactions"][0][key] = {"c": 1, "w": "HUGE", "s": 1}
    config = tmp_path / "huge.json"
    config.write_text(json.dumps(doc).replace('"HUGE"', str(10 ** 400)), encoding="utf-8")
    assert main(["run", str(config)]) == 1
    assert capsys.readouterr().err == (f"error: transactions[0].{key}[w]: "
                                       "magnitude exceeds the largest float (1.798e+308)\n")


def test_cli_sweep_takes_an_overlong_integer_as_text(tmp_path, capsys):
    path = write_config(tmp_path, CONFIG_INFEASIBLE)
    assert main(["sweep", path, "--param", "objects[0].vi",
                 "--values", "9" * (sys.get_int_max_str_digits() + 1)]) == 1
    assert capsys.readouterr().err.splitlines()[0] == (
        "error: objects[0].vi: must be an integer")


def test_cli_check_takes_too_deeply_nested_json_as_bad_input(tmp_path, capsys):
    # past the decoder's recursion limit: one error at the document, exit 1
    config = tmp_path / "deep.json"
    config.write_text("[" * 200_000, encoding="utf-8")
    assert main(["check", str(config)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: $: JSON nested too deeply to decode\n"


def test_cli_check_reports_each_type_error_without_its_follow_ons(tmp_path, capsys):
    # no range error on a stand-in zero, no cost-vs-period error on a
    # stand-in period, and no read-set error on a stand-in read set
    doc = json.loads(json.dumps(CONFIG_INFEASIBLE))
    doc["horizon"] = "x"
    doc["objects"][0].update(period="x", cost=1)
    doc["transactions"][0]["read_set"] = 5
    assert main(["check", write_config(tmp_path, doc)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: objects[0].period: must be an integer\n"
                            "error: transactions[0].read_set: must be a list of object ids\n"
                            "error: horizon: must be an integer\n")


def test_cli_sweep_takes_a_too_deeply_nested_value_as_text(tmp_path, capsys):
    path = write_config(tmp_path, CONFIG_INFEASIBLE)
    assert main(["sweep", path, "--param", "objects[0].vi",
                 "--values", "[" * 200_000]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    # the item taken as text is not an integer; the range rule does not
    # report on the zero that stands in for it
    assert captured.err == "error: objects[0].vi: must be an integer\n"


@pytest.mark.parametrize("param, message", [
    ("objects[5].vi", "path 'objects[5].vi' does not resolve"),
    ("objects[0].nokey", "path 'objects[0].nokey' does not resolve"),
    ("horizon.vi", "path 'horizon.vi' does not resolve"),
    ("...", "cannot parse path '...'"),
    # characters outside the path grammar are not skipped
    ("horizon%$", "cannot parse path 'horizon%$'"),
    ("objects[0]]]vi", "cannot parse path 'objects[0]]]vi'"),
    ("objects.0", "cannot parse path 'objects.0'"),
    # a string can be indexed but not set
    ("name[0]", "path 'name[0]' does not resolve"),
])
def test_cli_sweep_names_a_bad_param_path(tmp_path, capsys, param, message):
    path = write_config(tmp_path, CONFIG_INFEASIBLE)
    assert main(["sweep", path, "--param", param, "--values", "1"]) == 1
    assert capsys.readouterr().err == f"error: param: {message}\n"


_TOKEN_DOCS = {
    **_POLICY_DOCS,
    # a bare elastic token targets full utilization
    "elastic": {"kind": "elastic", "target_utilization": 1.0},
    "elastic:0.5": {"kind": "elastic", "target_utilization": 0.5},
    # float() reads these; the policy's own read rejects them later
    "similarity:nan": {"kind": "similarity", "delta": math.nan},
    "similarity:1e400": {"kind": "similarity", "delta": math.inf},
}


@pytest.mark.parametrize("token, policy", _TOKEN_DOCS.items(), ids=_TOKEN_DOCS)
def test_a_policy_token_gives_its_values_to_the_required_fields_in_order(token, policy):
    # repr, since nan equals no float
    assert repr(_parse_policy_token(token)) == repr(policy)


@pytest.mark.parametrize("token", [
    "mkfirm:2", "mkfirm:x:3", "mkfirm:1.0:2", "periodic:1", "elastic:1:2", "elastic:",
    "prediction:0.5:linear", "bogus", ":", ""])
def test_a_policy_token_that_does_not_fit_its_kind_is_rejected(token):
    with pytest.raises(ConfigError) as err:
        _parse_policy_token(token)
    assert err.value.errors == [("policies", f"cannot parse policy token {token!r}")]


def test_cli_compare_rejects_a_bad_policy_token(tmp_path, capsys):
    path = write_config(tmp_path, CONFIG_INFEASIBLE)
    assert main(["compare", path, "--policies", "periodic,mkfirm:x:3"]) == 1
    assert capsys.readouterr().err == (
        "error: policies: cannot parse policy token 'mkfirm:x:3'\n")
