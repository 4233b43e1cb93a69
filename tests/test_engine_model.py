"""A reference model of ``ExecutionEngine.run``'s schedule, checked by property.

The model is written from README's topology table, not from the engine:

- the plan's groups run in order, a group's vertices concurrently on
  ``concurrency_limit`` workers;
- on the virtual clock a vertex starts when the earliest-free worker frees
  and finishes its backend-reported latency later (a failed vertex frees its
  worker at once), and a group ends when its last vertex does;
- a failed vertex lets its group finish; parallel, sequential and hybrid
  then stop, skipping every later group, while hierarchical runs on and
  hands the failure to the lead's reconcile call;
- the hierarchical lead makes an assign call before the first group and a
  reconcile call after the last, and a failed lead call stops the run at once;
- each call is retried ``RETRIES`` times on a transient failure, with
  backoffs of 0.5 s, 1.0 s, ... added to its reported latency;
- with a context budget larger than all outputs together, a vertex's context
  holds, as ``## vid`` sections, no output under parallel, those of its DAG
  predecessors under sequential, and every output of the earlier groups under
  hybrid and hierarchical.
"""

import re
import threading
import time

from hypothesis import given, settings
from hypothesis import strategies as st

from topoflow.backends import ScriptedBackend
from topoflow.execution import BACKOFF_BASE, RETRIES, ExecutionEngine, ExecutionFailure, make_plan
from topoflow.routing import TopologyKind

from conftest import brute_levels, make_dag

LATENCIES = st.one_of(st.sampled_from([0.0, 0.1, 0.25, 1.0]), st.floats(min_value=0.0, max_value=5.0))


def check_groups(dag, kind, order):
    """The plan's groups are those README's table gives each topology."""
    ids = sorted(dag.vertex_ids)
    levels = brute_levels(dag)
    if kind is TopologyKind.PARALLEL:
        assert [sorted(g) for g in order] == [ids]
    elif kind is TopologyKind.SEQUENTIAL:
        assert all(len(g) == 1 for g in order) and sorted(g[0] for g in order) == ids
        position = {g[0]: i for i, g in enumerate(order)}
        assert all(position[u] < position[v] for u, v in dag.edges)
    else:
        layers = [sorted(v for v in ids if levels[v] == lv) for lv in range(1, max(levels.values()) + 1)]
        assert [sorted(g) for g in order] == layers


def model(kind, order, limit, entries):
    """Expected (outputs, timings, group_timings, failures, wall_clock) of a run.

    ``entries`` maps each call tag to its scripted fixture entry.  Timings are
    (start, finish) per vertex that produced an output.
    """
    def attempt(tag):
        """The call's reported latency, or None if it fails after retries."""
        entry = entries[tag]
        transient = entry.get("fail_times", 0)
        if entry.get("fail") or transient > RETRIES:
            return None
        return entry["latency"] + sum(BACKOFF_BASE * 2**k for k in range(transient))

    hierarchical = kind is TopologyKind.HIERARCHICAL
    outputs, timings, group_timings, failures = set(), {}, [], set()
    clock = 0.0
    if hierarchical:
        latency = attempt("lead:assign")
        if latency is None:
            return outputs, timings, group_timings, {"lead:assign"}, clock
        clock += latency
    for group in order:
        free = [clock] * min(limit, len(group))  # each worker's next free time
        end = clock
        for vid in group:
            worker = free.index(min(free))
            start = free[worker]
            latency = attempt(vid)
            if latency is None:
                failures.add(vid)
                finish = start
            else:
                outputs.add(vid)
                finish = start + latency
                timings[vid] = (start, finish)
            free[worker] = finish
            end = max(end, finish)
        group_timings.append(end - clock)
        clock = end
        if failures and not hierarchical:
            break
    if hierarchical:
        latency = attempt("lead:reconcile")
        if latency is None:
            failures.add("lead:reconcile")
        else:
            clock += latency
    return outputs, timings, group_timings, failures, clock


def model_sources(dag, kind, order, outputs):
    """The context sources of each vertex that the plan's groups reach, given
    the vertices that produce an output."""
    sources, earlier = {}, []
    for group in order:
        for vid in group:
            if kind is TopologyKind.PARALLEL:
                sources[vid] = []
            elif kind is TopologyKind.SEQUENTIAL:
                sources[vid] = sorted(p for p in dag.predecessors(vid) if p in outputs)
            else:
                sources[vid] = sorted(earlier)
        earlier += [vid for vid in group if vid in outputs]
    return sources


def spy_on(backend):
    """``backend``, with ``backend.sources`` recording the ``## vid`` sections
    of the context of each vertex call, sorted, by vertex and in call order."""
    invoke, backend.sources = backend.invoke, {}

    def spied(instruction, context, *, tag=None):
        if not tag.startswith("lead:"):
            backend.sources.setdefault(tag, []).append(sorted(re.findall(r"^## (\S+)$", context, re.M)))
        return invoke(instruction, context, tag=tag)

    backend.invoke = spied
    return backend


def check_sources(dag, kind, order, backend, outputs, failures):
    """Each vertex was called, once per attempt, with the sources the model gives it."""
    expected = model_sources(dag, kind, order, outputs)
    called = outputs | (failures - {"lead:assign", "lead:reconcile"})
    assert set(backend.sources) == called
    for vid, calls in backend.sources.items():
        assert calls == [expected[vid]] * len(calls)


@st.composite
def scenarios(draw, *, transient=True):
    n = draw(st.integers(min_value=1, max_value=12))
    rank = draw(st.permutations(range(n)))
    pairs = [(i, j) for i in range(n) for j in range(n) if rank[i] < rank[j]]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    dag = make_dag(n, edges)
    kind = draw(st.sampled_from(list(TopologyKind)))
    limit = draw(st.integers(min_value=1, max_value=4))
    entries = {}
    for tag in [*sorted(dag.vertex_ids), "lead:assign", "lead:reconcile"]:
        entry = {"text": f"out {tag}", "latency": draw(LATENCIES)}
        if draw(st.integers(min_value=0, max_value=5)) == 0:
            entry["fail"] = True
        elif transient and draw(st.integers(min_value=0, max_value=5)) == 0:
            entry["fail_times"] = draw(st.integers(min_value=1, max_value=RETRIES + 1))
        entries[tag] = entry
    return dag, kind, limit, entries


BUDGET = 10**6  # more tokens than all outputs together, so a context holds all its sources


def run(engine, dag, kind, backend):
    """The trace of one run, whether or not it raised."""
    plan = make_plan(dag, kind, [backend], context_budget=BUDGET)
    check_groups(dag, kind, plan.order)
    try:
        return plan, engine.run(dag, plan)
    except ExecutionFailure as exc:
        return plan, exc.trace


@given(scenarios())
@settings(max_examples=150, deadline=None)
def test_virtual_clock_matches_the_model(scenario):
    dag, kind, limit, entries = scenario
    engine = ExecutionEngine(concurrency_limit=limit, clock="virtual")
    backend = spy_on(ScriptedBackend(entries))
    plan, trace = run(engine, dag, kind, backend)
    outputs, timings, group_timings, failures, clock = model(kind, plan.order, limit, entries)
    check_sources(dag, kind, plan.order, backend, outputs, failures)
    assert set(trace.outputs) == outputs
    assert {v: (t.start, t.finish) for v, t in trace.timings.items()} == timings
    assert trace.group_timings == group_timings
    assert set(trace.failures) == failures
    assert trace.wall_clock == clock
    skipped = set(dag.vertex_ids) - outputs - failures
    assert set(dag.vertex_ids) - set(trace.outputs) - set(trace.failures) == skipped
    if kind is TopologyKind.PARALLEL:
        late = {(u, v) for u, v in dag.edges if u in timings and v in timings and timings[v][0] < timings[u][1]}
        assert set(trace.edge_violations) == late


class SleepingScripted(ScriptedBackend):
    """Sleeps each call's scripted latency, so wall-clock workers overlap."""

    def invoke(self, instruction, context, *, tag=None):
        time.sleep(self.fixture[tag]["latency"])
        return super().invoke(instruction, context, tag=tag)


TINY = st.sampled_from([0.0, 0.001, 0.003])


@given(scenarios(transient=False), st.data())
@settings(max_examples=8, deadline=None)
def test_wall_clock_matches_the_model_but_for_times(scenario, data):
    dag, kind, limit, entries = scenario
    for entry in entries.values():
        entry["latency"] = data.draw(TINY)
    threads = threading.active_count()
    backend = spy_on(SleepingScripted(entries))
    with ExecutionEngine(concurrency_limit=limit, clock="wall") as engine:
        plan, trace = run(engine, dag, kind, backend)
    outputs, _, group_timings, failures, _ = model(kind, plan.order, limit, entries)
    check_sources(dag, kind, plan.order, backend, outputs, failures)
    assert set(trace.outputs) == outputs
    assert set(trace.failures) == failures
    assert len(trace.group_timings) == len(group_timings)
    assert threading.active_count() == threads

