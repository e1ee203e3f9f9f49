"""freshsim benchmark driver (standard library only).

    python3 perfbench/run.py --workload restart_cycle --seed 3 --seconds 40 --trace 0
    python3 perfbench/run.py --workload policy_fleet --pin

Run from the repository root. The driver writes the seeded config of the
workload (perfbench/gen.py), then times the workload's CLI command in this
process through `freshsim.cli.main`, from reading the config file to
writing the CSV. Scratch files go to `.perfbench_work/`.

--trace 0 reports the end-to-end metrics:
  wall_s       wall time of the command
  items_per_s  (released instances + update decisions) / wall_s
  setup_s      config_from_dict + Simulator(cfg) over every config the
               command builds, repeated after each command
  peak_rss_mb  peak RSS of a fresh child process that runs the command once
               (perfbench/rss_child.py)
--trace 1 alternates untraced and traced runs of the command and reports the
per-layer metrics of perfbench/layers.py from the fastest traced run, plus
trace.overhead_s (traced minus untraced wall_s).

Times are steadied against the host's CPU speed. On a CPU shared with other
tenants, the median time of a fixed Python loop can move by 2x from one
minute to the next, and a command's wall time with it, while the ratio of
the two stays within a few percent. So a fixed reference loop is timed
(mean of REFERENCE_RUNS runs) right before and after each measured call,
and a time is reported as the median over the run of call time /
reference time, times REFERENCE_S: seconds on a CPU where the reference
loop takes REFERENCE_S.
Raw wall times and reference times are printed above the result line.

Every run also checks correctness: each command must exit 0, repeats must
write the same CSV, the traced CSV must equal the untraced one, and the
default-seed config must reproduce the CSV pinned in perfbench/expected/
(--pin rewrites that file). A failed check counts in `failed`. The trace
hash of a `run` command is printed but not checked. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import csv
import gc
import io
import json
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
EXPECTED = BENCH_DIR / "expected"

SETUP_SHARE = 0.1     # set-up repeats after each command, as a share of its wall time
MIN_SETUP_REPEATS = 2
CHILD_TIMEOUT_S = 150
REFERENCE_ITERATIONS = 30_000
REFERENCE_CHAINS = 5_000
REFERENCE_RUNS = 4
# time of one reference loop on an idle 2.1 GHz x86-64 vCPU, Python 3.11
REFERENCE_S = 0.006

sys.path.insert(0, str(BENCH_DIR))
import gen  # noqa: E402
import layers  # noqa: E402


class SpeedProbe:
    """Times REFERENCE_RUNS back-to-back runs of a fixed reference loop and
    keeps the mean time of one run, for each measurement.

    The loop mixes a tight dict-and-integer loop (like the trace hash) with
    a walk over small dicts in short lists (like the store's GC sweep).
    Another tenant on the core slows the two kinds of code by different
    amounts, so a reference made of one kind alone tracks one workload well
    and the other badly."""

    def __init__(self):
        self.times: list[float] = []
        self._chains = [[{"seq": j, "pins": (i + j) % 3} for j in range(4)]
                        for i in range(REFERENCE_CHAINS)]

    def _loop(self) -> int:
        table: dict[int, int] = {}
        total = 0
        for i in range(REFERENCE_ITERATIONS):
            table[i & 1023] = i
            total += table.get(i & 511, 0) * 3
        for chain in self._chains:
            keep = [v for v in chain[:-1] if v["pins"] > 0]
            total += len(keep) + chain[-1]["seq"]
        return total

    def measure(self) -> float:
        start = time.perf_counter()
        for _ in range(REFERENCE_RUNS):
            self._loop()
        mean = (time.perf_counter() - start) / REFERENCE_RUNS
        self.times.append(mean)
        return mean

    @staticmethod
    def scaled(ratios: list[float]) -> float:
        """Median of call/reference ratios, in seconds at REFERENCE_S."""
        return statistics.median(ratios) * REFERENCE_S


class Bench:
    """One benchmark run of one workload: commands attempted and failed."""

    def __init__(self, workload: str, spec: dict):
        self.workload = workload
        self.spec = spec["workloads"][workload]
        self.default_seed = spec["default_seed"]
        self.attempted = 0
        self.failures: list[str] = []

    def argv(self, config: Path, csv_path: Path) -> list[str]:
        sub, *extra = self.spec["cli"]
        return [sub, str(config), *extra, "--csv", str(csv_path)]

    def write_config(self, seed: int) -> Path:
        path = WORK / f"{self.workload}-{seed}.json"
        doc = gen.generate(self.workload, seed)
        path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
        return path

    def fail(self, why: str) -> None:
        self.failures.append(why)

    def run_command(self, argv: list[str], csv_path: Path, expect: str | None,
                    tracer: layers.Tracer | None = None):
        """Run the CLI once in-process. Returns (wall_s, csv_text, stdout);
        csv_text is None if the command failed. A CSV different from
        `expect` counts as a failure."""
        from freshsim.cli import main

        csv_path.unlink(missing_ok=True)
        out = io.StringIO()
        patch = tracer.patched() if tracer else contextlib.nullcontext()
        self.attempted += 1
        gc.collect()
        with patch, contextlib.redirect_stdout(out):
            start = time.perf_counter()
            rc = main(argv)
            wall = time.perf_counter() - start
        if rc != 0 or not csv_path.exists():
            self.fail(f"{argv[0]} exited {rc}")
            return wall, None, out.getvalue()
        text = csv_path.read_text(encoding="utf-8")
        if expect is not None and text != expect:
            self.fail(f"{argv[0]}: CSV differs from the reference")
        return wall, text, out.getvalue()

    def check_pinned(self) -> None:
        """The default-seed config must reproduce the pinned CSV."""
        pinned = (EXPECTED / f"{self.workload}.csv").read_text(encoding="utf-8")
        config = self.write_config(self.default_seed)
        self.run_command(self.argv(config, WORK / "pinned.csv"), WORK / "pinned.csv",
                         expect=pinned)

    def setup_docs(self, doc: dict) -> list[dict]:
        """The config documents the command builds, one per variant."""
        args = self.spec["cli"]
        if args[0] != "compare":
            return [doc]
        modes = _flag(args, "--modes", [None])
        policies = _flag(args, "--policies", [None])
        docs = []
        for mode in modes:
            for token in policies:
                d = copy.deepcopy(doc)
                if mode is not None:
                    d["mode"] = mode
                if token is not None:
                    for od in d["objects"]:
                        od["policy"] = _policy_doc(token)
                docs.append(d)
        return docs

    def measure_setup(self, docs: list[dict], seconds: float) -> list[float]:
        from freshsim.engine import Simulator
        from freshsim.workload import config_from_dict

        samples = []
        deadline = time.perf_counter() + seconds
        while len(samples) < MIN_SETUP_REPEATS or time.perf_counter() < deadline:
            start = time.perf_counter()
            for d in docs:
                Simulator(config_from_dict(d))
            samples.append(time.perf_counter() - start)
        return samples

    def measure_rss(self, argv: list[str], csv_path: Path, expect: str) -> float | None:
        """Peak RSS of a fresh interpreter that runs the command once."""
        self.attempted += 1
        csv_path.unlink(missing_ok=True)
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "rss_child.py"), str(SRC), *argv],
                capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
        except subprocess.TimeoutExpired:
            self.fail(f"child did not finish in {CHILD_TIMEOUT_S} s")
            return None
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            self.fail(f"child exited {proc.returncode}: {proc.stderr.strip()[-200:]}")
            return None
        report = json.loads(lines[-1])
        if report["rc"] != 0:
            self.fail(f"child command exited {report['rc']}")
            return None
        if not csv_path.exists() or csv_path.read_text(encoding="utf-8") != expect:
            self.fail("child CSV differs from the reference")
        return report["peak_rss_mb"]


def _flag(args: list[str], name: str, default):
    return args[args.index(name) + 1].split(",") if name in args else default


def _policy_doc(token: str) -> dict:
    """Config form of a `compare --policies` token."""
    kind, *a = token.split(":")
    if kind == "elastic":
        return {"kind": kind, "target_utilization": float(a[0]) if a else 1.0}
    if kind == "mkfirm":
        return {"kind": kind, "m": int(a[0]), "k": int(a[1])}
    if kind == "similarity":
        return {"kind": kind, "delta": float(a[0])}
    if kind == "prediction":
        return {"kind": kind, "predictor": a[0], "epsilon": float(a[1])}
    return {"kind": kind}


def overall_rows(csv_text: str) -> list[dict]:
    return [r for r in csv.DictReader(io.StringIO(csv_text))
            if r["txn_class"] == "overall"]


def work_items(csv_text: str) -> int:
    """Released instances plus update decisions, over every simulation."""
    return sum(int(r["released"]) + int(r["updates_performed"])
               + int(r["updates_skipped"]) for r in overall_rows(csv_text))


def _summary(values: list[float]) -> str:
    if len(values) < 2:
        return f"{values[0]:.6g} (n=1)"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"median {q2:.6g} (q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)})"


def run_end_to_end(bench: Bench, config: Path, seconds: float) -> dict:
    csv_path = WORK / "out.csv"
    argv = bench.argv(config, csv_path)
    docs = bench.setup_docs(json.loads(config.read_text(encoding="utf-8")))

    _, reference, stdout = bench.run_command(argv, csv_path, expect=None)
    if reference is None:
        return {}
    m = re.search(r"trace hash ([0-9a-f]{16})", stdout)
    if m:
        print(f"{bench.workload}: trace hash {m.group(1)} (reported, not checked)")
    items = work_items(reference)
    probe = SpeedProbe()
    walls, wall_ratios, setup_ratios = [], [], []
    deadline = time.perf_counter() + seconds
    while not walls or time.perf_counter() < deadline:
        before = probe.measure()
        wall, _, _ = bench.run_command(argv, csv_path, expect=reference)
        setup = bench.measure_setup(docs, wall * SETUP_SHARE)
        ref = (before + probe.measure()) / 2
        walls.append(wall)
        wall_ratios.append(wall / ref)
        setup_ratios += [s / ref for s in setup]
    rss = bench.measure_rss(argv, csv_path, reference)

    wall_s = probe.scaled(wall_ratios)
    print(f"{bench.workload}: raw wall_s {_summary(walls)}")
    print(f"{bench.workload}: reference loop s {_summary(probe.times)}")
    print(f"{bench.workload}: {items} work items per command")
    metrics = {
        "wall_s": (wall_s, "s"),
        "items_per_s": (items / wall_s, "1/s"),
        "setup_s": (probe.scaled(setup_ratios), "s"),
    }
    if rss is not None:
        metrics["peak_rss_mb"] = (rss, "MB")
    return metrics


def run_traced(bench: Bench, config: Path, seconds: float) -> dict:
    """Per-layer metrics of the fastest traced run; counts must agree
    between all traced runs."""
    csv_path = WORK / "out.csv"
    argv = bench.argv(config, csv_path)
    probe = SpeedProbe()
    plain, traced = [], []   # (wall / reference, ...)
    reference = None
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        before = probe.measure()
        wall, text, _ = bench.run_command(argv, csv_path, expect=reference)
        if text is None:
            return {}
        reference = reference or text
        middle = probe.measure()
        plain.append(wall / ((before + middle) / 2))
        tracer = layers.Tracer()
        wall, text, _ = bench.run_command(argv, csv_path, expect=reference,
                                          tracer=tracer)
        if text is None:
            return {}
        ratio = wall / ((middle + probe.measure()) / 2)
        traced.append((ratio, layers.layer_metrics(tracer.spans, wall, overall_rows(text))))

    metrics = min(traced, key=lambda run: run[0])[1]
    for name, (value, unit) in metrics.items():
        if unit != "s" and any(run[name][0] != value for _, run in traced):
            bench.fail(f"{name} differs between traced runs")
    untraced_s = probe.scaled(plain)
    traced_s = probe.scaled([ratio for ratio, _ in traced])
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    print(f"{bench.workload}: untraced wall_s {untraced_s:.6g}, traced wall_s "
          f"{traced_s:.6g}, n={len(plain)}")
    return metrics


def pin(bench: Bench) -> None:
    config = bench.write_config(bench.default_seed)
    csv_path = WORK / "pinned.csv"
    _, text, _ = bench.run_command(bench.argv(config, csv_path), csv_path, expect=None)
    if text is None:
        sys.exit(f"cannot pin {bench.workload}: {bench.failures}")
    (EXPECTED / f"{bench.workload}.csv").write_text(text, encoding="utf-8")
    print(f"pinned {EXPECTED / (bench.workload + '.csv')}")


def main() -> int:
    spec = gen.load_spec()
    parser = argparse.ArgumentParser(description="freshsim benchmark driver")
    parser.add_argument("--workload", required=True, choices=sorted(spec["workloads"]))
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: default_seed of workloads.json)")
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true",
                        help="rewrite the expected CSV of the default seed and exit")
    args = parser.parse_args()

    if not (SRC / "freshsim" / "cli.py").is_file():
        print(f"error: freshsim sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    bench = Bench(args.workload, spec)
    if args.pin:
        pin(bench)
        return 0

    seed = spec["default_seed"] if args.seed is None else args.seed
    config = bench.write_config(seed)
    if args.trace:
        metrics = run_traced(bench, config, args.seconds)
    else:
        metrics = run_end_to_end(bench, config, args.seconds)
    bench.check_pinned()

    for why in bench.failures:
        print(f"FAILED: {why}")
    print(json.dumps({
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
