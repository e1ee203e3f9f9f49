"""The mutant corpus: faults in `src/freshsim` that the tests must catch.

Each mutant is a record: a name, a file under `src/freshsim`, an exact
snippet that occurs once in that file, the replacement that makes the
fault, the change the mutant comes from (by its commit where it has one),
and the test node ids that must fail with it.

Usage, from the root of the checkout:

    python tests/mutants.py [NAME ...]

It copies the checkout's `src`, `tests`, `perfbench`, `pyproject.toml` and
`README.md` to a temporary directory, applies one mutant at a time there,
and runs only that mutant's nodes, with pytest's `pythonpath` pointing at
the copy. Each mutant is reported as

* caught: every one of its nodes failed;
* survived: some node passed (named in the report);
* stale: its snippet does not occur exactly once, so the code it broke has
  moved and the record must follow it.

First it runs every chosen node on the unmutated copy: a node that fails
there proves nothing, and stops the run. The exit status is 1 then, and if
any mutant survived or is stale. pytest does not
collect this file (it has no `test_` prefix); `test_mutants.py` checks the
snippets without running anything.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "freshsim"
# what a run of the tests reads from the checkout
COPIED = ("src", "tests", "perfbench", "pyproject.toml", "README.md")


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str  # under src/freshsim
    old: str
    new: str
    source: str
    nodes: tuple[str, ...]


_IN_PLACE = "reclaim in place: an install rewrites the unpinned version it supersedes"
_STREAMS = ("2db7948 Keep each object's update state on its stream: wait lists on "
            "UpdateStream, cohorts and refreshes as one kind of release run")
_MK_INDEX = "e47020f Decide (m,k)-firm skips from the instance's index and delete MKHistory"
_RUN_TABLES = ("hash the trace a text run at a time: each recurring text run through "
               "its table of 256 endings")
_TRANSLATE = "split the trace for hashing with two bytes.translate passes, not a regex"
_NAMED = ("config rules name the values they compare: each error of a comparing rule "
          "names the paths it compared, and `_follows_on` is gone")
_ENCODER = "one trace encoder, whose `encode` takes json's C or Python path itself"
_HOLDERS = "ebe0b66 Keep each engine fact once: events carry their instance"
_AGGREGATOR = "cf7d440 Document trace v2 and tie the README table to the code"
_INVARIANTS = "95a5e72 Fold the segment-end handlers into one and drop unreachable branches"
_READER_PATHS = ("config rules are checked at the paths the reader gave each record, and "
                 "an id that failed its check stands in as None")
_TOKENS = "policy tokens are read through the POLICIES table"
_CLAMPED = "f53aadd Cut compare's per-variant overhead and dispatch records by kind"
_DURATION_RANGE = ("201e635 Derive peak live versions from install/gc records; drop the "
                   "store's counters")
_SAMPLER = "one ValueSampler per object, kept on its update stream"
_OVERALL = ("e8cc685 Cut the per-record work around the engine: compare drops its value sink, "
            "shared walks take one lookup, TraceLines encodes a batch in a few calls")

_ORACLE_SEEDS = "tests/test_invariants.py::test_invariants_hold_on_the_oracle_seeds"
_RUNS = "tests/test_invariants.py::test_cohort_queue_invariants_hold_at_both_horizons[1000]"
_BYTEWISE_PROPERTY = ("tests/test_metrics_cli.py::test_fnv1a64_is_bytewise_fnv1a_with_and_"
                      "without_shared_tables")
_DEFAULT_SEED_HASH = "tests/test_perfbench_hooks.py::test_restart_cycle_default_seed_trace_hash"
_OPENING_RUN = ("tests/test_metrics_cli.py::test_fnv1a64_counts_and_tables_the_run_that_"
                "opens_the_data")
_EDGE_INPUT = "tests/test_metrics_cli.py::test_fnv1a64_is_bytewise_fnv1a_on_edge_inputs"
_WALK_STEPS = ("tests/test_workload.py::test_a_walk_steps_once_per_ordinal_with_and_"
               "without_a_table")
_COMPARE_STEPS = ("tests/test_metrics_cli.py::test_cli_compare_steps_each_walk_once_for_"
                  "all_of_its_variants")
_FOLLOW_ON = ("tests/test_workload.py::test_a_value_that_fails_its_check_gets_no_follow_"
              "on_errors")

MUTANTS = (
    Mutant("rewrite-a-pinned-version", "store.py",
           "        if prev.holders:\n            chain.append(",
           "        if False:\n            chain.append(",
           _IN_PLACE,
           (_ORACLE_SEEDS,
            "tests/test_store.py::test_install_returns_what_it_supersedes_and_"
            "reclaims_it_iff_unpinned[pinned]")),
    Mutant("drop-the-in-place-gc-record", "engine.py",
           '                record((t, "gc", object_id, _RECLAIMED_ONE))',
           "                pass",
           _IN_PLACE,
           ("tests/test_engine.py::test_the_engine_sweeps_the_store_only_when_a_"
            "chain_is_dirty[policy_fleet]",
            "tests/test_invariants.py::test_invariants_hold_on_the_benchmark_configs"
            "[policy_fleet]")),
    Mutant("derive-skips-the-policy-validate", "cli.py",
           '            p.validate("", errors)',
           "            pass",
           _IN_PLACE,
           ("tests/test_metrics_cli.py::test_cli_compare_validates_each_variant_once",
            "tests/test_metrics_cli.py::test_cli_compare_reports_a_bad_later_variant_as_"
            "its_config_would[args2-errors2]")),
    Mutant("one-run-per-periodic-stream", "engine.py",
           "by_period.setdefault(stream.period, [])",
           "by_period.setdefault(oid, [])",
           _STREAMS,
           (_RUNS,)),
    Mutant("refresh-queued-unmarked", "engine.py",
           "            stream.refreshing = True\n",
           "",
           _STREAMS,
           (_RUNS,)),
    Mutant("periodic-run-requeued-two-periods-on", "engine.py",
           "(following := t + first.period)",
           "(following := t + 2 * first.period)",
           _STREAMS,
           (_RUNS,)),
    Mutant("first-runs-sorted-in-reverse", "engine.py",
           "sorted(streams, key=_release_object)",
           "sorted(streams, key=_release_object, reverse=True)",
           _STREAMS,
           (_RUNS,)),
    Mutant("leave-waiting-keeps-the-instance", "engine.py",
           "        if inst in queue:\n            queue.remove(inst)",
           "        if inst in queue:\n            pass",
           _STREAMS,
           (_ORACLE_SEEDS,)),
    Mutant("cold-start-perform-takes-an-index", "policies.py",
           "            # leaves the window all performs, so it takes no index\n"
           "            return PERFORM, sampled, None",
           "            # leaves the window all performs, so it takes no index\n"
           "            next(index)\n"
           "            return PERFORM, sampled, None",
           _MK_INDEX,
           ("tests/test_oracle_equivalence.py::test_engine_matches_oracle_on_mkfirm_"
            "past_the_generators_k[3-7-3]",)),
    Mutant("table-read-at-seven-low-bits", "metrics.py",
           "h = (ends[h & 255] + multiplier * (h & -256)) & m",
           "h = (ends[h & 127] + multiplier * (h & -256)) & m",
           _RUN_TABLES,
           (_BYTEWISE_PROPERTY, _DEFAULT_SEED_HASH)),
    Mutant("run-multiplier-one-power-short", "metrics.py",
           "pow(p, len(run), 1 << 64)",
           "pow(p, len(run) - 1, 1 << 64)",
           _RUN_TABLES,
           ("tests/test_metrics_cli.py::test_run_table_ends_where_bytewise_fnv1a_ends"
            "[restart-record]",
            _BYTEWISE_PROPERTY)),
    Mutant("table-building-sighting-unhashed", "metrics.py",
           "            entry = tables[text] = _run_table(text)\n",
           "            tables[text] = _run_table(text)\n            continue\n",
           _RUN_TABLES,
           (_BYTEWISE_PROPERTY, _DEFAULT_SEED_HASH)),
    Mutant("nul-left-out-of-the-marked-bytes", "metrics.py",
           "_UNMARKED = bytes(range(1, 48))",
           "_UNMARKED = bytes(range(48))",
           _TRANSLATE,
           (f"{_EDGE_INPUT}[nuls]", f"{_EDGE_INPUT}[nul-next-to-digits]")),
    Mutant("first-text-run-hashed-uncounted", "metrics.py",
           "    h = h * pow(p, -1, 1 << 64) & m\n"
           '    for b, text in zip(b"\\0" + marked, texts):\n',
           "    for b in texts[0]:\n"
           "        h = (h ^ b) * p & m\n"
           "    for b, text in zip(marked, texts[1:]):\n",
           _TRANSLATE,
           (f"{_OPENING_RUN}[1]", f"{_OPENING_RUN}[32]", _BYTEWISE_PROPERTY)),
    Mutant("holders-walked-in-reverse", "engine.py",
           "for inst in list(superseded.holders):",
           "for inst in reversed(superseded.holders):",
           _HOLDERS,
           ("tests/test_engine.py::test_superseded_version_restarts_every_classical_"
            "holder_in_pin_order",)),
    Mutant("aggregator-never-forgets-a-commit", "metrics.py",
           "cls = self._class_of.pop(subject)",
           "cls = self._class_of[subject]",
           _AGGREGATOR,
           ("tests/test_metrics_cli.py::test_aggregator_keeps_only_in_flight_instances",)),
    Mutant("gc-reclaims-pinned-versions", "store.py",
           "kept = [v for v in chain[:-1] if v.holders]",
           "kept = []",
           _INVARIANTS,
           (_ORACLE_SEEDS,
            "tests/test_store.py::test_gc_never_reclaims_pinned_random_walkthrough",
            "tests/test_store.py::test_dirty_chain_gc_matches_full_sweep[0]")),
    Mutant("cost-rule-names-no-period", "core.py",
           '"update cost must be <= update period",\n'
           '                           f"{path}.period"))',
           '"update cost must be <= update period"))',
           _NAMED,
           (f"{_FOLLOW_ON}[period-type]",)),
    Mutant("filter-ignores-named-paths", "workload.py",
           "for p in (path, *compared))",
           "for p in (path,))",
           _NAMED,
           (f"{_FOLLOW_ON}[period-type]", f"{_FOLLOW_ON}[read-set-type]",
            f"{_FOLLOW_ON}[retrieval-mode-type]", f"{_FOLLOW_ON}[mkfirm-m-type]")),
    Mutant("elastic-rule-compares-stand-ins", "workload.py",
           "\n               and 0 < o.policy.target_utilization <= 1}",
           "}",
           _NAMED,
           (f"{_FOLLOW_ON}[elastic-target-type]", f"{_FOLLOW_ON}[elastic-target-out-of-range]")),
    Mutant("id-stand-in-is-the-empty-string", "workload.py",
           "ID = _Scalar(STR.check, STR.message, None, (str,))",
           'ID = _Scalar(STR.check, STR.message, "", (str,))',
           _READER_PATHS,
           (f"{_FOLLOW_ON}[object-ids-empty-after-a-type-error]",
            f"{_FOLLOW_ON}[transaction-ids-empty-after-a-type-error]")),
    Mutant("rule-paths-from-list-positions", "workload.py",
           "objects[path] = OBJECT.read(r, od, path)",
           'objects[f"objects[{len(objects)}]"] = OBJECT.read(r, od, path)',
           _READER_PATHS,
           (f"{_FOLLOW_ON}[non-object-before-a-bad-object]",)),
    Mutant("token-values-zipped-in-reverse-field-order", "cli.py",
           "zip(fields, values)",
           "zip(fields[::-1], values)",
           _TOKENS,
           ("tests/test_metrics_cli.py::test_a_policy_token_gives_its_values_to_the_"
            "required_fields_in_order[mkfirm:2:3]",
            "tests/test_metrics_cli.py::test_a_policy_token_gives_its_values_to_the_"
            "required_fields_in_order[prediction:linear:0.5]")),
    Mutant("table-append-dropped", "workload.py",
           "                values.append(value)",
           "                pass",
           _SAMPLER,
           (_WALK_STEPS, _COMPARE_STEPS)),
    Mutant("cursor-not-kept", "workload.py",
           "            self._cursor = (j, value)",
           "            pass",
           _SAMPLER,
           (_WALK_STEPS, _COMPARE_STEPS)),
    Mutant("sampler-built-from-the-effective-object", "engine.py",
           "ValueSampler(self.config.seed, obj, self._walks)",
           "ValueSampler(self.config.seed, eff, self._walks)",
           _SAMPLER,
           ("tests/test_workload.py::test_stream_bound_samples_match_value_at_inside_"
            "and_past_a_shared_table",)),
    # regressions: each brings back a fault that an earlier change mended
    Mutant("uniform-draw-left-unclamped", "workload.py",
           "return u if u < 1.0 else _BELOW_ONE",
           "return u",
           _CLAMPED,
           ("tests/test_workload.py::test_uniform_draws_stay_inside_the_open_unit_"
            "interval[18446744073709551615-0.9999999999999999]",)),
    Mutant("duration-entry-past-float-range-accepted", "workload.py",
           "                _check_magnitude(r, ticks, path, key, oid)\n",
           "",
           _DURATION_RANGE,
           ("tests/test_metrics_cli.py::test_cli_rejects_a_per_object_duration_past_"
            "float_range[retrieval]",
            "tests/test_metrics_cli.py::test_cli_rejects_a_per_object_duration_past_"
            "float_range[analysis]")),
    Mutant("overall-label-accepted-as-a-transaction-id", "workload.py",
           'if txn.id == "overall":',
           "if False:",
           _OVERALL,
           ("tests/test_metrics_cli.py::test_cli_rejects_a_class_with_the_overall_rows_"
            "label[command0]",)),
    Mutant("encoder-loses-sort-keys", "metrics.py",
           'json.JSONEncoder(sort_keys=True, separators=(",", ":"),',
           'json.JSONEncoder(separators=(",", ":"),',
           _ENCODER,
           ("tests/test_metrics_cli.py::test_encoder_writes_the_bytes_of_json_dumps",
            _DEFAULT_SEED_HASH)),
)


def occurrences(mutant: Mutant, src: Path = SRC) -> int:
    """How often the mutant's snippet occurs in its file."""
    return (src / mutant.file).read_text(encoding="utf-8").count(mutant.old)


def _failed_nodes(output: str) -> set[str]:
    """The node ids of the `FAILED` lines of a `pytest -rf` report."""
    return {line.split()[1] for line in output.splitlines()
            if line.startswith("FAILED ")}


def _run_nodes(work: Path, nodes) -> set[str]:
    """Run `nodes` in the copy at `work`; the nodes that failed."""
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider", *nodes],
        cwd=work, capture_output=True, text=True,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    return _failed_nodes(result.stdout)


def run(mutant: Mutant, work: Path) -> tuple[str, list[str]]:
    """Apply `mutant` in the copy at `work`, run its nodes, restore the
    file; the verdict and the nodes that passed."""
    if occurrences(mutant, work / "src" / "freshsim") != 1:
        return "stale", []
    path = work / "src" / "freshsim" / mutant.file
    original = path.read_text(encoding="utf-8")
    path.write_text(original.replace(mutant.old, mutant.new), encoding="utf-8")
    try:
        failed = _run_nodes(work, mutant.nodes)
    finally:
        path.write_text(original, encoding="utf-8")
    survivors = [node for node in mutant.nodes if node not in failed]
    return ("survived" if survivors else "caught"), survivors


def main(names: list[str]) -> int:
    chosen = [m for m in MUTANTS if not names or m.name in names]
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}")
        return 1
    bad = 0
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", "*.pyc")
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                shutil.copytree(source, work / name, ignore=ignore)
            else:
                shutil.copy2(source, work / name)
        nodes = sorted({node for mutant in chosen for node in mutant.nodes})
        failing = _run_nodes(work, nodes)
        if failing or not nodes:
            print(f"failing without a mutant: {', '.join(sorted(failing)) or 'no nodes'}")
            return 1
        for mutant in chosen:
            verdict, survivors = run(mutant, work)
            bad += verdict != "caught"
            print(f"{verdict:8} {mutant.name}"
                  + (f" (passed: {', '.join(survivors)})" if survivors else ""))
    print(f"{len(chosen) - bad} of {len(chosen)} mutants caught")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
