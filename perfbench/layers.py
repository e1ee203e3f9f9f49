"""Per-layer tracing from outside the program.

`Tracer.patched()` wraps public functions and methods of the freshsim
modules for the duration of a `with` block and restores them afterwards.
Each wrapper adds to one `Span`: call count, inclusive time, and the time
spent in wrapped calls it made (its children), so a layer's self time is
inclusive minus children. Spans are aggregated per target rather than kept
one per call, because a run makes millions of calls.

A target that no longer exists is skipped, and every metric that needs it
is left out of `layer_metrics` instead of failing the run.
"""

from __future__ import annotations

import contextlib
import importlib
import sys
import time


class Span:
    __slots__ = ("calls", "total", "child", "hits", "amount", "peak")

    def __init__(self):
        self.calls = 0      # completed calls
        self.total = 0.0    # inclusive seconds
        self.child = 0.0    # seconds inside wrapped callees
        self.hits = 0       # calls with a useful outcome (see hooks)
        self.amount = 0     # summed size of results (see hooks)
        self.peak = 0       # high-water mark (see hooks)


def _hit_if_not_none(span, args, result):
    span.hits += result is not None


def _hit_if_positive(span, args, result):
    span.hits += bool(result)


def _amount_len_result(span, args, result):
    span.amount += len(result)


def _amount_len_arg(span, args, result):
    span.amount += len(args[0])


def _peak_len_self(span, args, result):
    span.peak = max(span.peak, len(args[0]))


# span name -> (module, qualified name, hook run after each call)
TARGETS = {
    "workload.parse": ("freshsim.workload", "config_from_dict", None),
    "engine.init": ("freshsim.engine", "Simulator.__init__", None),
    "policies.rescale": ("freshsim.policies", "elastic_rescale", None),
    "engine.run": ("freshsim.engine", "Simulator.run", None),
    "engine.pop": ("freshsim.engine", "EventQueue.pop", None),
    "engine.push": ("freshsim.engine", "EventQueue.push", _peak_len_self),
    "workload.arrivals": ("freshsim.workload", "expand_arrivals", _amount_len_result),
    "workload.sample": ("freshsim.workload", "ValueSampler.sample", None),
    "store.gc": ("freshsim.store", "VersionStore.gc", _hit_if_positive),
    "store.install": ("freshsim.store", "VersionStore.install_version", None),
    "store.read": ("freshsim.store", "VersionStore.read_latest", _hit_if_not_none),
    "store.unpin": ("freshsim.store", "VersionStore.unpin", None),
    "policies.mkfirm": ("freshsim.policies", "mk_firm_decision", None),
    "policies.similarity": ("freshsim.policies", "similarity_decision", None),
    "policies.prediction": ("freshsim.policies", "prediction_decision", None),
    "metrics.record": ("freshsim.metrics", "MetricsAggregator.record", None),
    "metrics.hash": ("freshsim.metrics", "trace_hash", None),
    "metrics.fnv": ("freshsim.metrics", "fnv1a64", _amount_len_arg),
    "metrics.csv": ("freshsim.metrics", "emit_csv_rows", None),
}

DECISION_SPANS = ("policies.mkfirm", "policies.similarity", "policies.prediction")
# spans called by the CLI itself; cli.self_s is the wall time outside them
CLI_CHILD_SPANS = ("workload.parse", "engine.init", "engine.run",
                   "metrics.hash", "metrics.csv")


def _resolve(module_name: str, qualname: str):
    """(owner, attribute, original) or None when the target is gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    if original is None:
        return None
    return owner, attr, original


class Tracer:
    def __init__(self, targets: dict = TARGETS):
        self.targets = targets
        self.spans: dict[str, Span] = {}
        self._stack = [0.0]   # child-time accumulators, innermost last

    def _wrap(self, span: Span, fn, hook):
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                span.child += stack.pop()
                stack[-1] += elapsed
                span.total += elapsed
                span.calls += 1
            if hook is not None:
                hook(span, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    @contextlib.contextmanager
    def patched(self):
        """Install every live wrapper; restore the originals on exit.

        A module-level function is replaced in every freshsim module that
        bound it by name, since `from x import f` copies the reference."""
        undo = []
        try:
            for name, (module_name, qualname, hook) in self.targets.items():
                found = _resolve(module_name, qualname)
                if found is None:
                    continue
                owner, attr, original = found
                span = self.spans[name] = Span()
                wrapper = self._wrap(span, original, hook)
                if isinstance(owner, type):
                    bindings = [owner]
                else:
                    bindings = [m for key, m in list(sys.modules.items())
                                if (key == "freshsim" or key.startswith("freshsim."))
                                and getattr(m, attr, None) is original]
                for holder in bindings:
                    undo.append((holder, attr, original))
                    setattr(holder, attr, wrapper)
            yield self
        finally:
            for holder, attr, original in reversed(undo):
                setattr(holder, attr, original)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans: dict[str, Span], wall_s: float, rows: list[dict]) -> dict:
    """Per-layer metrics from one traced command.

    `rows` are the overall CSV rows of the command's simulations; counts the
    CSV already carries (instances, restarts, decisions) come from there so
    they do not depend on which functions exist. Returns name -> (value, unit).
    """
    out = {}

    def put(name, value, unit, *needs):
        if all(n in spans for n in needs):
            out[name] = (value(), unit)

    s = spans.get
    released = sum(int(r["released"]) for r in rows)
    performed = sum(int(r["updates_performed"]) for r in rows)
    skipped = sum(int(r["updates_skipped"]) for r in rows)

    put("engine.run_s", lambda: s("engine.run").total, "s", "engine.run")
    put("engine.self_s", lambda: s("engine.run").total - s("engine.run").child,
        "s", "engine.run")
    put("engine.events", lambda: s("engine.pop").calls, "count", "engine.pop")
    put("engine.pushes", lambda: s("engine.push").calls, "count", "engine.push")
    put("engine.heap_peak", lambda: s("engine.push").peak, "count", "engine.push")
    out["engine.instances"] = (released, "count")
    out["engine.restarts"] = (sum(int(r["restarts"]) for r in rows), "count")
    out["engine.commit_ratio"] = (
        _ratio(sum(int(r["committed"]) for r in rows), released), "ratio")

    put("store.gc_s", lambda: s("store.gc").total, "s", "store.gc")
    put("store.gc_calls", lambda: s("store.gc").calls, "count", "store.gc")
    put("store.gc_useful_ratio", lambda: _ratio(s("store.gc").hits, s("store.gc").calls),
        "ratio", "store.gc")
    put("store.install_s", lambda: s("store.install").total, "s", "store.install")
    put("store.installs", lambda: s("store.install").calls, "count", "store.install")
    put("store.read_s", lambda: s("store.read").total, "s", "store.read")
    put("store.reads", lambda: s("store.read").calls, "count", "store.read")
    put("store.read_hit_ratio",
        lambda: _ratio(s("store.read").hits, s("store.read").calls), "ratio", "store.read")
    put("store.unpin_s", lambda: s("store.unpin").total, "s", "store.unpin")
    put("store.unpins", lambda: s("store.unpin").calls, "count", "store.unpin")
    out["store.peak_live_versions"] = (
        max((int(r["peak_live_versions"]) for r in rows), default=0), "count")

    put("workload.sample_s", lambda: s("workload.sample").total, "s", "workload.sample")
    put("workload.samples", lambda: s("workload.sample").calls, "count", "workload.sample")
    decide = [n for n in DECISION_SPANS if n in spans]
    if decide:
        out["policies.decide_s"] = (sum(spans[n].total for n in decide), "s")
    out["policies.decisions"] = (performed + skipped, "count")
    out["policies.skip_ratio"] = (_ratio(skipped, performed + skipped), "ratio")

    put("workload.parse_s", lambda: s("workload.parse").total, "s", "workload.parse")
    put("policies.rescale_s", lambda: s("policies.rescale").total, "s", "policies.rescale")
    put("workload.arrivals_s", lambda: s("workload.arrivals").total, "s", "workload.arrivals")
    put("workload.arrival_instants", lambda: s("workload.arrivals").amount, "count",
        "workload.arrivals")

    put("metrics.hash_s", lambda: s("metrics.hash").total, "s", "metrics.hash")
    put("metrics.trace_bytes", lambda: s("metrics.fnv").amount, "bytes", "metrics.fnv")
    put("metrics.csv_s", lambda: s("metrics.csv").total, "s", "metrics.csv")
    put("metrics.record_s", lambda: s("metrics.record").total, "s", "metrics.record")
    put("metrics.records", lambda: s("metrics.record").calls, "count", "metrics.record")
    put("cli.self_s",
        lambda: wall_s - sum(spans[n].total for n in CLI_CHILD_SPANS),
        "s", *CLI_CHILD_SPANS)
    return out
