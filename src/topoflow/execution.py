"""One scheduler for the four topologies: parallel, sequential, hierarchical, hybrid.

Agent invocations run under a bounded worker limit.  The engine supports two
clocks: "wall" measures real time with a thread pool, "virtual" executes
invocations deterministically in schedule order and computes the makespan
from backend-reported latencies, which keeps traces byte-reproducible with
mock and scripted backends.
"""

from __future__ import annotations

import heapq
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from importlib import resources
from typing import Callable, Sequence

from .backends import AgentBackend, AgentOutput, BackendError
from .dag import Subtask, TaskDag
from .metrics import _topological_order, topological_layers
from .routing import Topology, TopologyKind
from .synthesis import Embedder, HashedEmbedder, cosine

DEFAULT_CONCURRENCY = 8
DEFAULT_CONTEXT_BUDGET = 4000
DEFAULT_RETRIES = 2
BACKOFF_BASE = 0.5

LEAD_ASSIGN_PREFIX = (
    resources.files("topoflow.templates").joinpath("lead_assign.txt").read_text(encoding="utf-8")
)
LEAD_RECONCILE_PREFIX = (
    resources.files("topoflow.templates").joinpath("lead_reconcile.txt").read_text(encoding="utf-8")
)

RelevanceFn = Callable[[str, str], float]


def embedding_relevance(embedder: Embedder | None = None) -> RelevanceFn:
    """Relevance oracle shared with synthesis: embedding cosine similarity."""
    emb = embedder or HashedEmbedder()

    def rel(text: str, target_description: str) -> float:
        return cosine(emb.embed(text), emb.embed(target_description))

    return rel


@dataclass(frozen=True)
class ExecutionPlan:
    topology: Topology
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
        return [
            self.outputs[vid]
            for vid in sorted(
                self.outputs,
                key=lambda v: (self.timings[v].finish if v in self.timings else 0.0, v),
            )
        ]

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
    ordered = _vertices_by_layer(dag)
    return {vid: pool[i % len(pool)] for i, vid in enumerate(ordered)}


def _vertices_by_layer(dag: TaskDag) -> list[str]:
    ordered: list[str] = []
    for layer in topological_layers(dag):
        ordered.extend(sorted(layer))
    return ordered


def make_plan(
    dag: TaskDag,
    topology: Topology,
    pool: Sequence[AgentBackend],
    *,
    context_budget: int = DEFAULT_CONTEXT_BUDGET,
) -> ExecutionPlan:
    """Build the concrete schedule for a routed topology."""
    assignments = assign_agents(dag, pool)
    if topology.kind is TopologyKind.PARALLEL:
        order: tuple[tuple[str, ...], ...] = (tuple(_vertices_by_layer(dag)),)
    elif topology.kind is TopologyKind.SEQUENTIAL:
        order = tuple((vid,) for vid in _topological_order(dag))
    elif topology.kind is TopologyKind.HYBRID:
        order = tuple(tuple(sorted(stage)) for stage in topology.stages)
    else:  # hierarchical: DAG order, concurrent where independent
        order = tuple(tuple(sorted(layer)) for layer in topological_layers(dag))
    return ExecutionPlan(
        topology=topology, assignments=assignments, order=order, context_budget=context_budget
    )


def merge_context(
    predecessor_outputs: list[AgentOutput],
    target: Subtask,
    budget: int,
    relevance: RelevanceFn,
) -> str:
    """Relevance-ranked greedy inclusion of whole predecessor outputs.

    Outputs are ranked by relevance to the target's description and included
    whole, in rank order, until the next one would exceed the token budget
    (sizes use backend-reported completion token counts).
    """
    if budget <= 0:
        raise ValueError("budget must be positive")
    if not predecessor_outputs:
        return ""
    ranked = sorted(
        predecessor_outputs,
        key=lambda o: (-relevance(o.text, target.description), o.subtask_id),
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
        relevance: RelevanceFn | None = None,
        retries: int = DEFAULT_RETRIES,
        lead: AgentBackend | None = None,
    ):
        if clock not in ("virtual", "wall"):
            raise ValueError(f"clock must be 'virtual' or 'wall', got {clock!r}")
        self.concurrency_limit = concurrency_limit
        self.clock = clock
        self.task_text = task_text
        self.relevance = relevance or embedding_relevance()
        self.retries = retries
        self.lead = lead

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
        hybrid        the routed stages      every earlier output    stop and raise
        hierarchical  longest-path layers    every earlier output    notice to the lead
        ============  =====================  ======================  ==================

        Parallel ignores edge order and records each edge it ran out of order
        in ``edge_violations``.  Under hierarchical the lead's assign call
        comes before the first group and its reconcile call, with a failure
        notice per failed vertex, after the last; a failed lead call raises
        ``BackendError``.  "Raise" is ``ExecutionFailure`` with the partial
        trace.
        """
        kind = plan.topology.kind
        hierarchical = kind is TopologyKind.HIERARCHICAL
        trace = ExecutionTrace()
        glob = (
            f"{self.task_text}\n\nThis subtask is part of a plan of {len(plan.assignments)} "
            f"subtasks executed with the {kind.value} topology in {len(plan.order)} group(s)."
        ).strip()
        cursor = 0.0
        if hierarchical:
            lead = self.lead or next(iter(plan.assignments.values()))
            subtask_list = "\n".join(
                f"- {v.id}: {v.description or v.id}"
                f" (depends on {', '.join(sorted(dag.predecessors(v.id))) or 'nothing'})"
                for v in sorted(dag.vertices, key=lambda s: s.id)
            )
            assign_out = self._invoke_with_retry(
                lead, LEAD_ASSIGN_PREFIX + subtask_list, glob, tag="lead:assign"
            )
            trace.lead["assign"] = assign_out.with_subtask("lead:assign")
            cursor = assign_out.latency
        shared = kind in (TopologyKind.HYBRID, TopologyKind.HIERARCHICAL)
        run_group = self._run_group_virtual if self.clock == "virtual" else self._run_group_wall
        for group in plan.order:
            earlier = [trace.outputs[v] for v in sorted(trace.outputs)] if shared else []
            prompts = {}
            for vid in group:
                sub = dag.subtask(vid)
                sources = earlier
                if kind is TopologyKind.SEQUENTIAL:
                    sources = [trace.outputs[p] for p in sorted(dag.predecessors(vid)) if p in trace.outputs]
                merged = merge_context(sources, sub, plan.context_budget, self.relevance)
                prompts[vid] = (sub.description or sub.id, f"{glob}\n\n{merged}".strip() if merged else glob)
            if prompts:
                group_end = run_group(trace, plan, prompts, cursor)
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
            reconcile_out = self._invoke_with_retry(
                lead, LEAD_RECONCILE_PREFIX + "\n\n".join(sections), "", tag="lead:reconcile"
            )
            trace.lead["reconcile"] = reconcile_out.with_subtask("lead:reconcile")
            cursor += reconcile_out.latency
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
        attempts = self.retries + 1
        backoff = 0.0
        for attempt in range(attempts):
            try:
                out = backend.invoke(instruction, context, tag=tag)
                if backoff:
                    # retried calls carry their backoff in the reported latency
                    out = replace(out, latency=out.latency + backoff)
                return out
            except BackendError as exc:
                if not exc.transient or attempt == attempts - 1:
                    raise
                delay = BACKOFF_BASE * (2**attempt)
                backoff += delay
                if self.clock == "wall":
                    time.sleep(delay)
        raise AssertionError("unreachable")

    def _call(self, plan: ExecutionPlan, vid: str, prompt: tuple[str, str]) -> AgentOutput:
        instruction, context = prompt
        return self._invoke_with_retry(
            plan.assignments[vid], instruction, context, tag=vid
        ).with_subtask(vid)

    # A group runner executes ``prompts`` (vid -> (instruction, context))
    # concurrently, records outputs and failures in ``trace`` without
    # raising, and returns the group's end time on the engine clock.

    def _run_group_virtual(self, trace, plan, prompts, group_start) -> float:
        # invocations execute in schedule order; the makespan is simulated
        # over `concurrency_limit` workers using backend-reported latencies
        workers = [group_start] * min(self.concurrency_limit, len(prompts))
        heapq.heapify(workers)
        group_end = group_start
        for vid, prompt in prompts.items():
            start = heapq.heappop(workers)
            try:
                out = self._call(plan, vid, prompt)
                trace.outputs[vid] = out
                finish = start + out.latency
                trace.timings[vid] = VertexTiming(start=start, finish=finish)
            except BackendError as exc:
                trace.failures[vid] = str(exc)
                finish = start
            heapq.heappush(workers, finish)
            group_end = max(group_end, finish)
        return group_end

    def _run_group_wall(self, trace, plan, prompts, group_start) -> float:
        t0 = time.monotonic()

        def work(vid: str):
            s = time.monotonic() - t0 + group_start
            out = self._call(plan, vid, prompts[vid])
            return out, s, time.monotonic() - t0 + group_start

        group_end = group_start
        with ThreadPoolExecutor(max_workers=self.concurrency_limit) as pool:
            futures = {pool.submit(work, vid): vid for vid in prompts}
            for fut, vid in futures.items():
                try:
                    out, s, f = fut.result()
                    trace.outputs[vid] = out
                    trace.timings[vid] = VertexTiming(start=s, finish=f)
                    group_end = max(group_end, f)
                except BackendError as exc:
                    trace.failures[vid] = str(exc)
        return max(group_end, group_start + (time.monotonic() - t0))
