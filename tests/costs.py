"""The cost ledger: what each benchmark workload's seed-1 command does,
counted rather than timed, so that two versions of the code can be compared
on a loaded host.

Usage, from the root of the checkout:

    python tests/costs.py [--opcodes]

For each workload of `perfbench/workloads.json` it writes the seed-1 config
(`perfbench/gen.py`) to a temporary directory and runs the workload's CLI
command in this process through `freshsim.cli.main`, with its CSV to a file
and its summary discarded. Then it prints

* the trace records per kind, as the metrics aggregators receive them;
* the event-queue pushes per event kind;
* the random-walk steps (one normal quantile each);
* the fnv1a64 run tables built;
* the config rule passes (`workload._violations`) and the parses
  (`config_from_dict`) that the command makes.

With --opcodes it also prints the bytecode instructions executed in each
`freshsim` module, counted through `sys.settrace` opcode events; that takes
a few seconds per workload. The counts depend on the interpreter, so the
first line names it. Every count is a function of the code and the
interpreter alone: the output must not change with PYTHONHASHSEED.

pytest does not collect this file (it has no `test_` prefix).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import gen  # noqa: E402

import freshsim  # noqa: E402
import freshsim.cli  # noqa: E402
import freshsim.engine  # noqa: E402
import freshsim.metrics  # noqa: E402
import freshsim.workload  # noqa: E402

EVENT_KINDS = ("TXN_ARRIVAL", "SEGMENT_DONE", "VI_EXPIRY", "UPDATES", "DEADLINE")


@contextlib.contextmanager
def _patched(owner, name: str, wrap):
    """`owner.name` replaced by `wrap(original)` inside the block."""
    original = getattr(owner, name)
    setattr(owner, name, wrap(original))
    try:
        yield
    finally:
        setattr(owner, name, original)


def _counting(counts: Counter, key: str):
    """A wrapper that counts each call under `key`."""
    def wrap(original):
        def counted(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)
        return counted
    return wrap


def _counting_records(records: Counter):
    def wrap(original):
        def counted(self, batch):
            records.update(kind for _, kind, _, _ in batch)
            return original(self, batch)
        return counted
    return wrap


def _counting_pushes(pushes: Counter):
    names = {getattr(freshsim.engine, name): name for name in EVENT_KINDS}

    def wrap(original):
        def counted(self, time, kind, subject, payload):
            pushes[names[kind]] += 1
            return original(self, time, kind, subject, payload)
        return counted
    return wrap


@contextlib.contextmanager
def _opcodes(counts: Counter):
    """Count the opcodes executed in each freshsim module inside the block."""
    package = os.path.dirname(freshsim.__file__) + os.sep
    tracers = {}

    def tracer_of(module: str):
        def local(frame, event, arg):
            if event == "opcode":
                counts[module] += 1
            return local
        return local

    def trace(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(package):
            return None
        frame.f_trace_opcodes = True
        local = tracers.get(filename)
        if local is None:
            module = "freshsim." + Path(filename).stem
            local = tracers[filename] = tracer_of(module)
        return local

    sys.settrace(trace)
    try:
        yield
    finally:
        sys.settrace(None)


def ledger(workload: str, spec: dict, opcodes: bool) -> list[str]:
    """The ledger lines of one workload's seed-1 command."""
    records, pushes, calls, ops = Counter(), Counter(), Counter(), Counter()
    sub, *extra = spec["cli"]
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / f"{workload}.json"
        config.write_text(json.dumps(gen.generate(workload, 1)), encoding="utf-8")
        argv = [sub, str(config), *extra, "--csv", str(Path(tmp) / "out.csv")]
        with contextlib.ExitStack() as stack:
            stack.enter_context(_patched(freshsim.metrics.MetricsAggregator, "record",
                                         _counting_records(records)))
            stack.enter_context(_patched(freshsim.engine.EventQueue, "push",
                                         _counting_pushes(pushes)))
            for owner, name, key in (
                    (freshsim.workload, "_normal_dist_inv_cdf", "walk steps"),
                    (freshsim.metrics, "_run_table", "fnv1a64 tables"),
                    (freshsim.workload, "_violations", "rule passes"),
                    (freshsim.cli, "config_from_dict", "parses")):
                stack.enter_context(_patched(owner, name, _counting(calls, key)))
            stack.enter_context(contextlib.redirect_stdout(io.StringIO()))
            if opcodes:
                stack.enter_context(_opcodes(ops))
            code = freshsim.cli.main(argv)
    if code != 0:
        raise SystemExit(f"{workload}: {' '.join(spec['cli'])} exited {code}")
    lines = [f"{workload}: {' '.join(spec['cli'])}"]
    for title, counts in (("records", records), ("pushes", pushes)):
        lines.append(f"  {title} {sum(counts.values())}: "
                     + ", ".join(f"{k} {n}" for k, n in sorted(counts.items())))
    lines += [f"  {key} {calls[key]}"
              for key in ("walk steps", "fnv1a64 tables", "rule passes", "parses")]
    if opcodes:
        lines.append(f"  opcodes {sum(ops.values())}: "
                     + ", ".join(f"{k} {n}" for k, n in sorted(ops.items())))
    return lines


def main(args: list[str]) -> int:
    if args not in ([], ["--opcodes"]):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    workloads = json.loads((ROOT / "perfbench" / "workloads.json")
                           .read_text(encoding="utf-8"))["workloads"]
    print(f"python {tuple(sys.version_info)}")
    for workload, spec in workloads.items():
        print("\n".join(ledger(workload, spec, args == ["--opcodes"])))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
