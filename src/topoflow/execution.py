"""One scheduler for the four topologies: parallel, sequential, hierarchical, hybrid.

Agent invocations run under a bounded worker limit.  The engine supports two
clocks: "wall" measures real time on one thread pool per run, whose workers
(and so each worker's backend connection) serve every group; "virtual"
executes invocations deterministically in schedule order and computes the
makespan from backend-reported latencies, which keeps traces
byte-reproducible with mock and scripted backends.  ``run_task`` is the
adaptive pipeline around the engine: route, execute, synthesize, re-route.
"""

from __future__ import annotations

import heapq
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from functools import partial
from types import SimpleNamespace
from typing import Sequence

from .backends import AgentBackend, AgentOutput, BackendError
from .dag import Subtask, TaskDag
from .routing import RouterConfig, RoutingDecision, TopologyKind, route
from .synthesis import DEFAULT_THETA_CS, Embedder, HashedEmbedder, SynthesisConfig, SynthesisError, SynthesisResult
from .synthesis import _sparse_cosine, _template, synthesize
from .synthesis import cosine  # noqa: F401  (the dense reference; perfbench's self-test patches this binding)

DEFAULT_CONCURRENCY = 8
DEFAULT_CONTEXT_BUDGET = 4000
RETRIES = 2  # transient-failure retries per agent call: vertex, lead, merge or arbiter
BACKOFF_BASE = 0.5

LEAD_ASSIGN_PREFIX = _template("lead_assign.txt")
LEAD_RECONCILE_PREFIX = _template("lead_reconcile.txt")

@dataclass(frozen=True)
class ExecutionPlan:
    topology: TopologyKind
    assignments: dict[str, AgentBackend]
    order: tuple[tuple[str, ...], ...]  # concurrent groups in sequence
    context_budget: int = DEFAULT_CONTEXT_BUDGET


@dataclass(frozen=True)
class VertexTiming:
    start: float
    finish: float


@dataclass
class ExecutionTrace:
    outputs: dict[str, AgentOutput] = field(default_factory=dict)
    wall_clock: float = 0.0
    group_timings: list[float] = field(default_factory=list)
    timings: dict[str, VertexTiming] = field(default_factory=dict)
    edge_violations: list[tuple[str, str]] = field(default_factory=list)
    failures: dict[str, str] = field(default_factory=dict)
    lead: dict[str, AgentOutput] = field(default_factory=dict)  # assign / reconcile

    def ordered_outputs(self) -> list[AgentOutput]:
        """Outputs ordered by schedule completion (ties broken by subtask id)."""
        return [self.outputs[v] for v in sorted(self.outputs, key=lambda v: (self.timings[v].finish, v))]

    def to_record(self) -> dict:
        def out_rec(out: AgentOutput) -> dict:
            return {
                "text": out.text,
                "prompt_tokens": out.prompt_tokens,
                "completion_tokens": out.completion_tokens,
                "latency": round(out.latency, 9),
                "backend": out.backend,
            }

        return {
            "outputs": {vid: out_rec(o) for vid, o in sorted(self.outputs.items())},
            "lead": {phase: out_rec(o) for phase, o in sorted(self.lead.items())},
            "wall_clock": round(self.wall_clock, 9),
            "group_timings": [round(t, 9) for t in self.group_timings],
            "edge_violations": sorted(self.edge_violations),
            "failures": dict(sorted(self.failures.items())),
        }


class ExecutionFailure(Exception):
    """One or more vertices failed after retries; carries the partial trace."""

    def __init__(self, failed: dict[str, str], trace: ExecutionTrace):
        super().__init__(f"execution failed for vertices: {sorted(failed)}")
        self.failed = failed
        self.trace = trace


def assign_agents(dag: TaskDag, pool: Sequence[AgentBackend]) -> dict[str, AgentBackend]:
    """Round-robin assignment over vertices sorted by (layer, id)."""
    if not pool:
        raise ValueError("backend pool must be nonempty")
    ordered = [vid for layer in dag.index.layers for vid in layer]
    return {vid: pool[i % len(pool)] for i, vid in enumerate(ordered)}


def make_plan(
    dag: TaskDag,
    topology: TopologyKind,
    pool: Sequence[AgentBackend],
    *,
    context_budget: int = DEFAULT_CONTEXT_BUDGET,
) -> ExecutionPlan:
    """Build the concrete schedule for a routed topology."""
    index = dag.index
    assignments = assign_agents(dag, pool)
    if topology is TopologyKind.PARALLEL:
        order: tuple[tuple[str, ...], ...] = (tuple(vid for layer in index.layers for vid in layer),)
    elif topology is TopologyKind.SEQUENTIAL:
        order = tuple((vid,) for vid in index.order)
    else:  # hybrid and hierarchical: longest-path layers, each concurrent
        order = tuple(map(tuple, index.layers))
    return ExecutionPlan(
        topology=topology, assignments=assignments, order=order, context_budget=context_budget
    )


def merge_context(
    predecessor_outputs: list[AgentOutput],
    target: Subtask,
    budget: int,
    embedder: Embedder,
) -> str:
    """Relevance-ranked greedy inclusion of whole predecessor outputs.

    Outputs are ranked by the embedding cosine between their text and the
    target's description, ties by subtask id, and included whole, in rank
    order, until the next one would exceed the token budget (sizes use
    backend-reported completion token counts).
    """
    if budget <= 0:
        raise ValueError("budget must be positive")
    if not predecessor_outputs:
        return ""
    want = embedder.sparse(target.description)
    ranked = sorted(
        predecessor_outputs,
        key=lambda o: (-_sparse_cosine(embedder.sparse(o.text), want), o.subtask_id),
    )
    parts: list[str] = []
    used = 0
    for out in ranked:
        if used + out.completion_tokens > budget:
            break
        parts.append(f"## {out.subtask_id}\n{out.text}")
        used += out.completion_tokens
    return "\n\n".join(parts)


class ExecutionEngine:
    """Runs an execution plan over a backend pool with bounded concurrency."""

    def __init__(
        self,
        *,
        concurrency_limit: int = DEFAULT_CONCURRENCY,
        clock: str = "virtual",
        task_text: str = "",
    ):
        if clock not in ("virtual", "wall"):
            raise ValueError(f"clock must be 'virtual' or 'wall', got {clock!r}")
        if concurrency_limit < 1:
            raise ValueError(f"concurrency_limit must be at least 1, got {concurrency_limit!r}")
        self.concurrency_limit = concurrency_limit
        self.clock = clock
        self.task_text = task_text
        self.embedder = HashedEmbedder()  # its memo serves context merging, and synthesis in run_task

    def run(self, dag: TaskDag, plan: ExecutionPlan) -> ExecutionTrace:
        """Run the plan's groups in order, each group's vertices concurrently.

        A vertex's context is the global context (task text and plan summary)
        followed by the relevance-ranked earlier outputs its topology lets it
        see.  The topology also decides what a failed vertex does:

        ============  =====================  ======================  ==================
        topology      groups                 outputs a vertex sees   a failed vertex
        ============  =====================  ======================  ==================
        parallel      one, of all vertices   none                    raise after group
        sequential    one per vertex         its DAG predecessors    stop and raise
        hybrid        longest-path layers    every earlier output    stop and raise
        hierarchical  longest-path layers    every earlier output    notice to the lead
        ============  =====================  ======================  ==================

        Parallel ignores edge order and records each edge it ran out of order
        in ``edge_violations``.  Under hierarchical the lead, the first
        vertex's backend and so the pool's first, makes an assign call before
        the first group and a reconcile call, with a failure notice per failed
        vertex, after the last; a failed lead call raises at once, with its
        tag (``lead:assign`` or ``lead:reconcile``) among the failures.
        "Raise" is ``ExecutionFailure`` with the partial trace.
        """
        kind = plan.topology
        hierarchical = kind is TopologyKind.HIERARCHICAL
        trace = ExecutionTrace()
        glob = (
            f"{self.task_text}\n\nThis subtask is part of a plan of {len(plan.assignments)} "
            f"subtasks executed with the {kind.value} topology in {len(plan.order)} group(s)."
        ).strip()
        cursor = 0.0
        if hierarchical:
            lead = next(iter(plan.assignments.values()))
            subtask_list = "\n".join(
                f"- {v.id}: {v.description or v.id}"
                f" (depends on {', '.join(sorted(dag.predecessors(v.id))) or 'nothing'})"
                for v in sorted(dag.vertices, key=lambda s: s.id)
            )
            cursor = self._lead_call(
                trace, lead, "assign", LEAD_ASSIGN_PREFIX + subtask_list, glob, cursor
            )
        shared = kind in (TopologyKind.HYBRID, TopologyKind.HIERARCHICAL)
        workers = nullcontext()
        if self.clock == "wall":
            from concurrent.futures import ThreadPoolExecutor  # here, so that offline runs load neither it nor logging

            workers = ThreadPoolExecutor(self.concurrency_limit)
        with workers as pool:
            for group in plan.order:
                earlier = [trace.outputs[v] for v in sorted(trace.outputs)] if shared else []
                prompts = {}
                for vid in group:
                    sub = dag.subtask(vid)
                    sources = earlier
                    if kind is TopologyKind.SEQUENTIAL:
                        sources = [trace.outputs[p] for p in sorted(dag.predecessors(vid)) if p in trace.outputs]
                    merged = merge_context(sources, sub, plan.context_budget, self.embedder)
                    prompts[vid] = (sub.description or sub.id, f"{glob}\n\n{merged}".strip() if merged else glob)
                if prompts:
                    group_end = self._run_group(trace, plan, prompts, cursor, pool)
                    trace.group_timings.append(group_end - cursor)
                    cursor = group_end
                if trace.failures and not hierarchical:
                    break
        if hierarchical:
            sections = [
                f"## {vid}\n{trace.outputs[vid].text}"
                if vid in trace.outputs
                else f"## {vid}\nFAILURE NOTICE: {trace.failures.get(vid, 'no output')}"
                for vid in sorted(dag.vertex_ids)
            ]
            cursor = self._lead_call(
                trace, lead, "reconcile", LEAD_RECONCILE_PREFIX + "\n\n".join(sections), "", cursor
            )
        trace.wall_clock = cursor
        if kind is TopologyKind.PARALLEL:
            for u, v in dag.edges:
                tu, tv = trace.timings.get(u), trace.timings.get(v)
                if tu is not None and tv is not None and tv.start < tu.finish:
                    trace.edge_violations.append((u, v))
        if trace.failures and not hierarchical:
            raise ExecutionFailure(dict(trace.failures), trace)
        return trace

    # -- internals --------------------------------------------------------------

    def _invoke_with_retry(
        self, backend: AgentBackend, instruction: str, context: str, *, tag: str
    ) -> AgentOutput:
        backoff = 0.0
        for attempt in range(RETRIES + 1):
            try:
                out = backend.invoke(instruction, context, tag=tag)
                break
            except BackendError as exc:
                if not exc.transient or attempt == RETRIES:
                    raise
                delay = BACKOFF_BASE * (2**attempt)
                backoff += delay
                if self.clock == "wall":
                    time.sleep(delay)
        # retried calls carry their backoff in the reported latency
        return replace(out, latency=out.latency + backoff) if backoff else out

    def _lead_call(
        self, trace: ExecutionTrace, lead: AgentBackend, phase: str, instruction: str,
        context: str, cursor: float,
    ) -> float:
        """One lead call, recorded in ``trace``; returns the clock after it."""
        tag = f"lead:{phase}"
        try:
            out = self._invoke_with_retry(lead, instruction, context, tag=tag)
        except BackendError as exc:
            trace.failures[tag] = str(exc)
            trace.wall_clock = cursor
            raise ExecutionFailure(dict(trace.failures), trace) from exc
        trace.lead[phase] = out.with_subtask(tag)
        return cursor + out.latency

    def _run_group(self, trace, plan, prompts, group_start, pool) -> float:
        """Run ``prompts`` (vid -> (instruction, context)) concurrently on
        ``pool``, or in schedule order without one; record outputs, timings and
        ``BackendError`` failures in ``trace``; return the group's end.

        The virtual clock takes each vertex's start from the earliest free of
        ``concurrency_limit`` simulated workers and its finish from the
        backend-reported latency; the wall clock measures both.
        """
        t0 = time.monotonic()

        def call(item):
            vid, (instruction, context) = item
            start = time.monotonic()
            try:
                out = self._invoke_with_retry(plan.assignments[vid], instruction, context, tag=vid)
            except BackendError as exc:
                out = exc
            return vid, out, start - t0 + group_start, time.monotonic() - t0 + group_start

        workers = [group_start] * min(self.concurrency_limit, len(prompts))
        group_end = group_start
        for vid, out, start, finish in (map if pool is None else pool.map)(call, prompts.items()):
            failed = isinstance(out, BackendError)
            if pool is None:
                start = heapq.heappop(workers)
                finish = start if failed else start + out.latency
                heapq.heappush(workers, finish)
                group_end = max(group_end, finish)
            if failed:
                trace.failures[vid] = str(out)
            else:
                trace.outputs[vid] = out.with_subtask(vid)
                trace.timings[vid] = VertexTiming(start=start, finish=finish)
        return group_end if pool is None else time.monotonic() - t0 + group_start


@dataclass
class TaskRun:
    """One adaptive run: each route, every execution (failed ones too) and
    each merge or arbiter call in run order, then the result or the failure."""

    routes: list[RoutingDecision] = field(default_factory=list)
    traces: list[ExecutionTrace] = field(default_factory=list)
    synthesis_calls: list[AgentOutput] = field(default_factory=list)
    result: SynthesisResult | None = None
    failure: str | None = None


def run_task(
    dag: TaskDag,
    pool: Sequence[AgentBackend],
    *,
    router_config: RouterConfig | None = None,
    task: str = "",
    concurrency: int = DEFAULT_CONCURRENCY,
    context_budget: int = DEFAULT_CONTEXT_BUDGET,
    theta_cs: float = DEFAULT_THETA_CS,
    clock: str = "virtual",
) -> TaskRun:
    """Route ``dag``, execute it on ``pool``, synthesize the outputs with the
    pool's first backend, and re-route at a higher γ while synthesis asks to.

    Context merging and synthesis share the engine's embedder, and merge and
    arbiter calls get the engine's transient-failure retry.  A failed
    execution or synthesis call ends the run without raising: ``failure``
    says why, and a failed execution's partial trace is the last of
    ``traces``.
    """
    engine = ExecutionEngine(concurrency_limit=concurrency, clock=clock, task_text=task)
    run = TaskRun()

    def execute(gamma: float | None = None) -> tuple[list[str], TopologyKind]:
        decision = route(dag, router_config, gamma_override=gamma)
        run.routes.append(decision)
        trace = engine.run(dag, make_plan(dag, decision.topology, pool, context_budget=context_budget))
        run.traces.append(trace)
        texts = [o.text for o in trace.ordered_outputs()]
        if "reconcile" in trace.lead:
            texts.append(trace.lead["reconcile"].text)
        return texts, decision.topology

    try:
        texts, topology = execute()
        run.result = synthesize(
            texts,
            topology,
            SynthesisConfig(theta_cs=theta_cs, gamma0=run.routes[0].gamma_used),
            SimpleNamespace(invoke=partial(engine._invoke_with_retry, pool[0])),  # pool[0] behind the retry
            reroute=execute,
            embedder=engine.embedder,
            calls=run.synthesis_calls,
        )
    except ExecutionFailure as exc:
        run.traces.append(exc.trace)  # the calls that did complete were paid for
        run.failure = f"execute: failed vertices {sorted(exc.failed)}"
    except SynthesisError as exc:
        run.failure = f"synthesize: {exc}"
    return run
