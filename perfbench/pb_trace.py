"""Tracing for the benchmark: wraps topoflow's public layer functions from
outside, records one span per call, and turns the spans into per-layer call
counts and self times.

Nothing here edits topoflow.  ``Tracer.install`` replaces every module (and
class) binding of each traced function with a wrapper, so a call is seen no
matter which module the caller looked the name up in; ``Tracer.restore`` puts
every original object back.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

# (span name, module, attribute) for module-level functions; the function
# object found there is replaced in every ``topoflow.*`` module that binds it.
FUNCTIONS = (
    ("dag.validate", "topoflow.dag", "validate_dag"),
    ("dag.ingest", "topoflow.dag", "ingest"),
    ("metrics.compute", "topoflow.metrics", "compute_metrics"),
    ("metrics.layers", "topoflow.metrics", "topological_layers"),
    ("metrics.width_exact", "topoflow.metrics", "width_exact"),
    ("routing.route", "topoflow.routing", "route"),
    ("execution.plan", "topoflow.execution", "make_plan"),
    ("execution.merge_context", "topoflow.execution", "merge_context"),
    ("synthesis.synthesize", "topoflow.synthesis", "synthesize"),
    ("synthesis.cosine", "topoflow.synthesis", "cosine"),
    ("synthesis.consistency", "topoflow.synthesis", "consistency_score"),
    ("synthesis.consistency", "topoflow.synthesis", "consistency_of_candidate"),
    ("runlog.write", "topoflow.runlog", "atomic_write"),
    ("convergence.simulate", "topoflow.convergence", "simulate_variance"),
    ("convergence.qualities", "topoflow.convergence", "assumption_one_qualities"),
    ("archetypes.generate", "topoflow.archetypes", "generate_archetype"),
    ("cli.exec", "topoflow.cli", "cmd_exec"),
    ("cli.route", "topoflow.cli", "cmd_route"),
)

# (span name, module, class, method) for methods, patched on the class.
METHODS = (
    ("execution.run", "topoflow.execution", "ExecutionEngine", "run"),
    ("synthesis.embed", "topoflow.synthesis", "HashedEmbedder", "embed"),
    ("backends.invoke", "topoflow.backends", "MockBackend", "invoke"),
    ("backends.invoke", "topoflow.backends", "ScriptedBackend", "invoke"),
    ("accounting.record", "topoflow.accounting", "CostLedger", "record"),
    ("accounting.cost", "topoflow.accounting", "CostLedger", "cost_picodollars"),
)

SYNTHESIS_PATHS = ("merge", "arbiter", "escalated", "sequential_last")
INVOKE_KINDS = ("execute", "lead", "merge", "arbiter")

# span names reported with both a call count and a self time
TIMED = (
    "dag.validate", "dag.ingest", "metrics.compute", "metrics.layers", "metrics.width_exact",
    "routing.route", "execution.plan", "execution.run", "execution.merge_context",
    "synthesis.synthesize", "synthesis.embed", "synthesis.cosine", "synthesis.consistency",
    *(f"backends.invoke.{kind}" for kind in INVOKE_KINDS),
    "accounting.cost", "runlog.write", "convergence.simulate", "convergence.qualities",
    "archetypes.generate",
)
COUNTERS = {
    "backends.invoke.failures": "count/op",
    "backends.invoke.transient_retries": "count/op",
    "runlog.write.bytes": "bytes/op",
    "execution.virtual_makespan_s": "s/op",
}
# every per-layer metric of a traced run, with its unit
PER_LAYER = {
    **{f"{name}.{part}": unit for name in TIMED for part, unit in (("calls", "calls/op"), ("self_ms", "ms/op"))},
    "accounting.record.calls": "calls/op",
    "cli.exec.self_ms": "ms/op",
    "cli.route.self_ms": "ms/op",
    **COUNTERS,
    "execution.useful_ratio": "ratio",
    "synthesis.iterations": "count",
    **{f"synthesis.path.{p}": "count/op" for p in SYNTHESIS_PATHS},
    "ledger.agent_calls_per_op": "count",
    "ledger.tokens_per_op": "tokens",
    "ledger.cost_usd_per_op": "USD",
    "trace.overhead_ratio": "ratio",
}


def invoke_kind(tag: str | None) -> str:
    """Backend call kind from the engine's tag: lead / merge / arbiter / execute."""
    if tag and tag.startswith("lead:"):
        return "lead"
    if tag in ("merge", "arbiter"):
        return tag
    return "execute"


class Tracer:
    """Holds spans in memory: ``[name, start, end, parent index, op id]``."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.op_id = 0
        self.pending_retry: set[tuple[int, int, str | None]] = set()  # (op, backend id, tag)
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------------

    def _enter(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op_id])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _exit(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn, observe=None):
        """Wrap ``fn`` in a span; ``name`` is a string or a function of the
        call's ``(args, kwargs)``; ``observe`` sees each result or exception."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else name
            idx = tracer._enter(span_name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if observe is not None:
                    observe(tracer, args, kwargs, None, exc)
                raise
            finally:
                tracer._exit(idx)
            if observe is not None:
                observe(tracer, args, kwargs, result, None)
            return result

        return traced

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        """Patch every binding of every traced function and method."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        for _, module, *_ in FUNCTIONS + METHODS:
            importlib.import_module(module)
        modules = [m for n, m in sorted(sys.modules.items()) if n == "topoflow" or n.startswith("topoflow.")]
        for name, module, attr in FUNCTIONS:
            original = getattr(sys.modules[module], attr)
            wrapper = self._wrap(name, original, _OBSERVERS.get(name))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, key, original))
                        setattr(mod, key, wrapper)
        for name, module, cls_name, meth in METHODS:
            cls = getattr(sys.modules[module], cls_name)
            original = cls.__dict__[meth]
            span_name = _invoke_span if name == "backends.invoke" else name
            wrapper = self._wrap(span_name, original, _OBSERVERS.get(name))
            self._patched.append((cls, meth, original))
            setattr(cls, meth, wrapper)

    def restore(self) -> None:
        """Put back every original object, newest patch first."""
        while self._patched:
            owner, key, original = self._patched.pop()
            setattr(owner, key, original)

    # -- aggregation -----------------------------------------------------------

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls`` and ``self_ms`` summed over all spans."""
        totals: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "self_ms": 0.0})
        for name, self_s in zip((s[0] for s in self.spans), self_times(self.spans)):
            totals[name]["calls"] += 1
            totals[name]["self_ms"] += self_s * 1000.0
        return dict(totals)


def self_times(spans: list[list]) -> list[float]:
    """Self time of each span: its duration minus the part of its interval
    covered by its direct children (overlapping children counted once)."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    out = []
    for idx, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(idx, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out.append(end - start - covered)
    return out


def _invoke_span(args, kwargs) -> str:
    return "backends.invoke." + invoke_kind(kwargs.get("tag"))


def _observe_invoke(tracer, args, kwargs, result, exc) -> None:
    # a retry is a call that follows a transient failure on the same backend
    # and tag; a transient failure on the last attempt is not followed by one
    key = (tracer.op_id, id(args[0]), kwargs.get("tag"))
    if key in tracer.pending_retry:
        tracer.pending_retry.discard(key)
        tracer.counters["backends.invoke.transient_retries"] += 1
    if exc is None:
        return
    tracer.counters["backends.invoke.failures"] += 1
    if getattr(exc, "transient", False):
        tracer.pending_retry.add(key)


def _observe_run(tracer, args, kwargs, result, exc) -> None:
    if exc is None:
        tracer.counters["execution.virtual_makespan_s"] += result.wall_clock


def _observe_synthesize(tracer, args, kwargs, result, exc) -> None:
    if exc is None:
        tracer.counters["synthesis.iterations"] += result.iterations
        tracer.counters["synthesis.path." + result.path.value] += 1


def _observe_write(tracer, args, kwargs, result, exc) -> None:
    text = args[1] if len(args) > 1 else kwargs["text"]
    tracer.counters["runlog.write.bytes"] += len(text.encode("utf-8"))


_OBSERVERS = {
    "backends.invoke": _observe_invoke,
    "execution.run": _observe_run,
    "synthesis.synthesize": _observe_synthesize,
    "runlog.write": _observe_write,
}


def per_layer_metrics(tracer: Tracer, ops: int, execs: int) -> dict[str, float]:
    """Per-op layer metrics from one traced pass set.

    ``ops`` is the number of traced ops, ``execs`` how many of them were
    ``topoflow exec`` runs (the denominator of ``execution.useful_ratio``).
    """
    totals = tracer.layer_totals()
    out: dict[str, float] = {}

    def put(name: str, calls: bool = True, self_ms: bool = True) -> None:
        t = totals.get(name, {"calls": 0, "self_ms": 0.0})
        if calls:
            out[name + ".calls"] = t["calls"] / ops
        if self_ms:
            out[name + ".self_ms"] = t["self_ms"] / ops

    for name in TIMED:
        put(name)
    put("accounting.record", self_ms=False)
    put("cli.exec", calls=False)
    put("cli.route", calls=False)
    for name in COUNTERS:
        out[name] = tracer.counters.get(name, 0.0) / ops
    runs = totals.get("execution.run", {"calls": 0})["calls"]
    out["execution.useful_ratio"] = execs / runs if runs else 0.0
    syntheses = totals.get("synthesis.synthesize", {"calls": 0})["calls"]
    out["synthesis.iterations"] = (
        tracer.counters.get("synthesis.iterations", 0.0) / syntheses if syntheses else 0.0
    )
    for path in SYNTHESIS_PATHS:
        key = "synthesis.path." + path
        out[key] = tracer.counters.get(key, 0.0) / ops
    return out
