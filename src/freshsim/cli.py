"""Command-line interface.

Subcommands:

  run <config> [--trace OUT] [--csv OUT]
      One simulation; prints a summary and the trace hash.
  sweep <config> --param objects[0].vi --values 5,6,10 [--csv OUT]
      One simulation per value of a config path, merged CSV.
  compare <config> [--modes classical,multiversion] [--policies p1,p2] [--csv OUT]
      The same seeded workload under each variant, side by side. Policy
      tokens: periodic | ondemand | elastic[:target] | mkfirm:M:K |
      similarity:DELTA | prediction:{lastvalue|linear}:EPSILON.
  check <config>
      Validation plus the per-transaction feasibility report; exits 0 only
      if the config is valid and every transaction is feasible.

Exit codes: 0 success, 1 invalid input (an unreadable or invalid config, or
an output file that cannot be written, a closed stdout included) or a
feasibility failure, 2 runtime error.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from contextlib import contextmanager
from copy import copy
from dataclasses import replace
from pathlib import Path

from .core import ConfigError, FreshnessMode, ObjectSpec, feasibility_check
from .engine import Simulator
from .metrics import CSV_HEADER, TraceLines, emit_csv_rows, trace_hash
from .policies import effective_objects
from .workload import (
    INT,
    NUM,
    POLICIES,
    REQUIRED,
    STR,
    SimConfig,
    config_from_dict,
    decode_json,
    policy_from_dict,
)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_RUNTIME = 2


@contextmanager
def _file_errors(path: str):
    """An OSError on the file at `path` is bad input: a ConfigError at the
    path, with the reason the system gives."""
    try:
        yield
    except OSError as e:
        raise ConfigError([(path, e.strerror or str(e))]) from None


def _load_doc(path: str) -> dict:
    try:
        with _file_errors(path):
            text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise ConfigError([(path, f"not UTF-8 text ({e.reason} at byte {e.start})")]) from None
    doc = decode_json(text)
    if not isinstance(doc, dict):
        raise ConfigError([("$", "top level must be an object")])
    doc.setdefault("name", Path(path).stem)
    return doc


def _policy_string(cfg: SimConfig) -> str:
    return "+".join(sorted({o.policy.kind for o in cfg.objects})) or "none"


def _write_csv(rows: list[str], path: str | None) -> None:
    """The header and `rows`, to the file at `path` or else to stdout."""
    text = "\n".join([CSV_HEADER] + rows) + "\n"
    if path:
        with _file_errors(path):
            Path(path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# run


def cmd_run(args) -> int:
    cfg = config_from_dict(_load_doc(args.config))
    lines = TraceLines()
    report = Simulator(cfg, sink=lines).run()
    rows = emit_csv_rows(report, cfg.name, cfg.mode.value, _policy_string(cfg))
    if args.csv:
        _write_csv(rows, args.csv)
    if args.trace:
        with _file_errors(args.trace), open(args.trace, "wb") as out:
            out.writelines(lines.blocks)
    o = report.overall
    print(f"scenario {cfg.name}: mode={cfg.mode.value} policy={_policy_string(cfg)}")
    print(f"  released={o.released} committed={o.committed} missed={o.missed} "
          f"miss_ratio={o.miss_ratio} restarts={o.restarts} vi_restarts={o.vi_restarts}")
    print(f"  updates performed={report.updates_performed} "
          f"skipped={report.updates_skipped}")
    if report.rejected:
        print(f"  rejected at admission: {', '.join(report.rejected)}")
    print(f"  trace hash {trace_hash(lines)}")
    if not args.csv:
        _write_csv(rows, None)
    return EXIT_OK


# ---------------------------------------------------------------------------
# check


def cmd_check(args) -> int:
    doc = _load_doc(args.config)
    cfg = config_from_dict(doc)
    objects = effective_objects(cfg.objects)
    all_ok = True
    for txn in cfg.transactions:
        report = feasibility_check(txn, objects)
        for entry in report.entries:
            verdict = "ok" if entry.ok else "INFEASIBLE"
            print(f"txn {txn.id} object {entry.object_id}: vi={entry.vi} "
                  f"retrieval={entry.retrieval} analysis={entry.analysis} "
                  f"[{verdict}]")
        if not report.passed:
            all_ok = False
            print(f"txn {txn.id}: INFEASIBLE "
                  f"({', '.join(report.failing_objects())})")
        else:
            print(f"txn {txn.id}: feasible")
    return EXIT_OK if all_ok else EXIT_INVALID


# ---------------------------------------------------------------------------
# sweep

_NAME = r"[A-Za-z_][A-Za-z_0-9]*"
_PATH = re.compile(rf"{_NAME}(?:\.{_NAME}|\[\d+\])*")
_PATH_TOKEN = re.compile(rf"({_NAME})|\[(\d+)\]")


def _set_path(doc: dict, path: str, value) -> None:
    """Set the entry at `path`, which must exist, to `value`. `doc` itself
    is changed, but each container below it on the path is replaced by a
    copy first: set on a shallow copy of a document, it leaves the
    document as it was. A path is a name followed by `.name` or `[n]`
    steps."""
    if not _PATH.fullmatch(path):
        raise ConfigError([("param", f"cannot parse path {path!r}")])
    *parents, last = [m.group(1) if m.group(1) is not None else int(m.group(2))
                      for m in _PATH_TOKEN.finditer(path)]
    target = doc
    try:
        for tok in parents:
            target[tok] = target = copy(target[tok])
        target[last]  # the path must exist already
        target[last] = value
    except (KeyError, IndexError, TypeError):
        raise ConfigError([("param", f"path {path!r} does not resolve")]) from None


def _parse_value(text: str):
    try:
        return json.loads(text)
    # not JSON, an integer past int()'s digit limit, or nested too deeply
    except (ValueError, RecursionError):
        return text


def cmd_sweep(args) -> int:
    base = _load_doc(args.config)
    values = [_parse_value(v) for v in args.values.split(",")]
    rows = []
    for value in values:
        doc = dict(base)
        _set_path(doc, args.param, value)
        if isinstance(doc["name"], str):
            # any other name is left for config_from_dict to reject
            doc["name"] = f"{doc['name']}[{args.param}={value}]"
        cfg = config_from_dict(doc)
        rows += emit_csv_rows(Simulator(cfg).run(), cfg.name, cfg.mode.value,
                              _policy_string(cfg))
    _write_csv(rows, args.csv)
    return EXIT_OK


# ---------------------------------------------------------------------------
# compare


_TOKEN_VALUE = {INT: int, NUM: float, STR: str}


def _parse_policy_token(token: str) -> dict:
    """The policy document of a `--policies` token: its kind, then one value
    for each REQUIRED field of the kind's POLICIES record, in table order,
    converted by the field's type."""
    kind, *values = token.split(":")
    if kind == "elastic" and not values:
        values = ["1"]  # a bare elastic token targets full utilization
    record = POLICIES.table.get(kind)
    if record is not None:
        fields = [(key, type_) for key, _, type_, default in record.fields
                  if default is REQUIRED]
        if len(values) == len(fields):
            try:
                return {"kind": kind, **{key: _TOKEN_VALUE[type_](value)
                                         for (key, type_), value in zip(fields, values)}}
            except ValueError:
                pass
    raise ConfigError([("policies", f"cannot parse policy token {token!r}")])


def _variant_doc(base: dict, mode: str | None, policy: dict | None) -> dict:
    """The document of one variant: a shallow copy of `base` with new dicts
    only where it differs, so that the loaded document is never changed."""
    doc = dict(base)
    if mode is not None:
        doc["mode"] = mode
    objects = base.get("objects")
    if policy is not None and isinstance(objects, list):
        doc["objects"] = [{**od, "policy": policy} if isinstance(od, dict) else od
                          for od in objects]
    return doc


def _derive(first: SimConfig, mode: str | None, policy: dict | None) -> SimConfig | None:
    """`first` under `mode`, with `policy` in place of each object's own and
    all else shared, marked validated; None when the mode or the policy does
    not read, or the policy breaks a rule of its own. `first` was validated,
    and the result differs from it only in its mode, or in one policy that
    every object shares and whose rules hold, so no other rule can fail."""
    changes = {}
    try:
        if mode is not None:
            changes["mode"] = FreshnessMode(mode)
        if policy is not None:
            p = policy_from_dict(policy)
            errors = []
            p.validate("", errors)
            if errors:
                return None
            changes["objects"] = [
                ObjectSpec(o.id, o.vi, o.update_period, o.update_cost,
                           o.value_process, o.access_weight, o.max_period, p)
                for o in first.objects]
    except (ValueError, ConfigError):
        return None
    cfg = replace(first, **changes)
    cfg.validated = True
    return cfg


def cmd_compare(args) -> int:
    base = _load_doc(args.config)
    modes = args.modes.split(",") if args.modes else [None]
    tokens = args.policies.split(",") if args.policies else [None]
    rows = []
    # the variants share the seed and the objects' value processes, and so
    # every sampled value; each walk step is computed once, by the first
    # variant that needs it
    walks = {}
    first = None
    for mode in modes:
        for token in tokens:
            policy = None if token is None else _parse_policy_token(token)
            cfg = None if first is None else _derive(first, mode, policy)
            if cfg is None:
                # the first variant, or a token that does not read or
                # breaks its policy's rules: the variant's document gives
                # its config or the errors of it
                cfg = config_from_dict(_variant_doc(base, mode, policy))
                if first is None:
                    first = cfg
            label = token if token is not None else _policy_string(cfg)
            report = Simulator(cfg, walks=walks).run()
            rows += emit_csv_rows(report, cfg.name, cfg.mode.value, label)
    _write_csv(rows, args.csv)
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="freshsim",
        description="Deterministic freshness simulator for real-time temporal data.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run one simulation")
    p.add_argument("config")
    p.add_argument("--trace", help="write line-delimited JSON trace here")
    p.add_argument("--csv", help="write the metrics CSV here")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("check", help="validate and report feasibility")
    p.add_argument("config")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("sweep", help="run once per value of a config path")
    p.add_argument("config")
    p.add_argument("--param", required=True,
                   help="config path, e.g. objects[0].vi")
    p.add_argument("--values", required=True, help="comma-separated values")
    p.add_argument("--csv", help="write the merged CSV here")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("compare",
                       help="same workload under mode/policy variants")
    p.add_argument("config")
    p.add_argument("--modes", help="comma-separated: classical,multiversion")
    p.add_argument("--policies", help="comma-separated policy tokens")
    p.add_argument("--csv", help="write the side-by-side CSV here")
    p.set_defaults(func=cmd_compare)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "compare" and not (args.modes or args.policies):
        print("compare: need --modes and/or --policies", file=sys.stderr)
        return EXIT_RUNTIME
    try:
        code = args.func(args)
        # what stdout still buffers is written here, where a closed pipe
        # is reported, not at the interpreter's exit; stdout is None when
        # fd 1 was closed at start
        if sys.stdout is not None:
            sys.stdout.flush()
        return code
    except ConfigError as e:
        for path, msg in e.errors:
            print(f"error: {path}: {msg}" if path else f"error: {msg}",
                  file=sys.stderr)
        return EXIT_INVALID
    except BrokenPipeError as e:
        # an output that cannot be written, as an unwritable --csv file is;
        # fd 1 then takes the rest of the buffer, which the interpreter
        # flushes at exit, to os.devnull
        print(f"error: stdout: {e.strerror}", file=sys.stderr)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, 1)
        os.close(devnull)
        return EXIT_INVALID
    except Exception as e:  # noqa: BLE001 - CLI boundary
        print(f"runtime error: {e}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
