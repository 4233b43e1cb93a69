import hashlib
import json

import pytest

from topoflow.backends import AgentOutput, BackendError, HttpChatBackend, MockBackend, ScriptedBackend
from topoflow.dag import Subtask
from topoflow.execution import (
    ExecutionEngine,
    ExecutionFailure,
    assign_agents,
    embedding_relevance,
    make_plan,
    merge_context,
)
from topoflow.routing import Topology, TopologyKind, route

from conftest import make_dag

PARALLEL = Topology(TopologyKind.PARALLEL)
SEQUENTIAL = Topology(TopologyKind.SEQUENTIAL)
HIERARCHICAL = Topology(TopologyKind.HIERARCHICAL)


def out(vid, text, tokens=10):
    return AgentOutput(
        text=text, prompt_tokens=5, completion_tokens=tokens, latency=0.1,
        backend="mock:mock", subtask_id=vid,
    )


class TestBackends:
    def test_mock_deterministic(self):
        b = MockBackend()
        a = b.invoke("do x", "ctx")
        assert a == b.invoke("do x", "ctx")
        assert a.text.startswith("[mock] result ")
        assert a.latency == 0.1

    def test_scripted_by_tag_with_default(self):
        b = ScriptedBackend({"v0": {"text": "zero"}, "default": {"text": "dflt"}})
        assert b.invoke("i", "c", tag="v0").text == "zero"
        assert b.invoke("i", "c", tag="v9").text == "dflt"

    def test_scripted_no_entry(self):
        b = ScriptedBackend({"v0": {"text": "zero"}})
        with pytest.raises(BackendError):
            b.invoke("i", "c", tag="missing")

    def test_scripted_transient_then_success(self):
        b = ScriptedBackend({"v0": {"text": "ok", "fail_times": 2}})
        for _ in range(2):
            with pytest.raises(BackendError) as ei:
                b.invoke("i", "c", tag="v0")
            assert ei.value.transient
        assert b.invoke("i", "c", tag="v0").text == "ok"

    def test_scripted_permanent_failure(self):
        b = ScriptedBackend({"v0": {"fail": True}})
        with pytest.raises(BackendError) as ei:
            b.invoke("i", "c", tag="v0")
        assert not ei.value.transient


class FakeResponse:
    def __init__(self, status_code, body):
        self.status_code = status_code
        self.text = body if isinstance(body, str) else json.dumps(body)

    def json(self):
        return json.loads(self.text)


class FakeSession:
    def __init__(self, response):
        self.response = response

    def post(self, url, **kwargs):
        return self.response


class TestHttpChatBackend:
    @pytest.fixture(autouse=True)
    def api_key(self, monkeypatch):
        monkeypatch.setenv("OPENAI_API_KEY", "test-key")

    def backend(self, status_code, body):
        return HttpChatBackend("openai", "gpt-4o-mini", session=FakeSession(FakeResponse(status_code, body)))

    def test_reads_choices_and_usage(self):
        body = {
            "choices": [{"message": {"content": "hello"}}],
            "usage": {"prompt_tokens": 7, "completion_tokens": 2},
        }
        result = self.backend(200, body).invoke("do x", "")
        assert (result.text, result.prompt_tokens, result.completion_tokens) == ("hello", 7, 2)
        assert result.backend == "openai:gpt-4o-mini"

    @pytest.mark.parametrize("body", [{"error": "no choices"}, {"choices": []}, "<html>bad gateway</html>"])
    def test_malformed_body_is_permanent_backend_error(self, body):
        with pytest.raises(BackendError) as ei:
            self.backend(200, body).invoke("do x", "")
        assert not ei.value.transient

    def test_rate_limit_is_transient(self):
        with pytest.raises(BackendError) as ei:
            self.backend(429, "slow down").invoke("do x", "")
        assert ei.value.transient


class TestAssignAgents:
    def test_round_robin_by_layer_order(self, diamond):
        pool = [MockBackend("m0"), MockBackend("m1")]
        assigned = assign_agents(diamond, pool)
        # layer order: v0 | v1, v2 | v3  -> m0, m1, m0, m1
        assert assigned["v0"] is pool[0]
        assert assigned["v1"] is pool[1]
        assert assigned["v2"] is pool[0]
        assert assigned["v3"] is pool[1]

    def test_empty_pool(self, diamond):
        with pytest.raises(ValueError):
            assign_agents(diamond, [])


class TestMakePlan:
    def test_parallel_single_group(self, diamond):
        plan = make_plan(diamond, PARALLEL, [MockBackend()])
        assert len(plan.order) == 1
        assert sorted(plan.order[0]) == ["v0", "v1", "v2", "v3"]

    def test_sequential_singletons_in_topo_order(self, diamond):
        plan = make_plan(diamond, SEQUENTIAL, [MockBackend()])
        assert plan.order == (("v0",), ("v1",), ("v2",), ("v3",))

    def test_hybrid_uses_stages(self, diamond):
        decision = route(diamond)
        plan = make_plan(diamond, decision.topology, [MockBackend()])
        assert plan.order == (("v0",), ("v1", "v2"), ("v3",))

    def test_hierarchical_uses_layers(self, diamond):
        plan = make_plan(diamond, HIERARCHICAL, [MockBackend()])
        assert plan.order == (("v0",), ("v1", "v2"), ("v3",))


class TestMergeContext:
    def test_ranked_greedy_whole_inclusion(self):
        target = Subtask("t", description="weather forecast report")
        preds = [
            out("v0", "weather forecast data for the report", tokens=50),
            out("v1", "unrelated database schema notes", tokens=50),
        ]
        rel = embedding_relevance()
        merged = merge_context(preds, target, budget=60, relevance=rel)
        assert "weather forecast" in merged
        assert "database" not in merged  # second-ranked output exceeds budget

    def test_stops_at_first_overflow(self):
        target = Subtask("t", description="anything")
        preds = [out("v0", "aaa", tokens=30), out("v1", "bbb", tokens=30)]
        merged = merge_context(preds, target, budget=45, relevance=lambda t, d: 0.0)
        # rank tie broken by id; only v0 fits whole
        assert "v0" in merged and "v1" not in merged

    def test_empty_predecessors(self):
        assert merge_context([], Subtask("t"), 100, lambda t, d: 0.0) == ""

    def test_budget_positive(self):
        with pytest.raises(ValueError):
            merge_context([], Subtask("t"), 0, lambda t, d: 0.0)


class TestVirtualClock:
    def test_parallel_makespan_with_limit(self):
        # 9 unit-latency leaves over 8 workers: two waves -> makespan 0.2
        dag = make_dag(9, [])
        plan = make_plan(dag, PARALLEL, [MockBackend(latency=0.1)])
        engine = ExecutionEngine(concurrency_limit=8, clock="virtual")
        trace = engine.run(dag, plan)
        assert trace.wall_clock == pytest.approx(0.2)

    def test_sequential_makespan_sums(self):
        dag = make_dag(4, [(0, 1), (1, 2), (2, 3)])
        plan = make_plan(dag, SEQUENTIAL, [MockBackend(latency=0.1)])
        trace = ExecutionEngine(clock="virtual").run(dag, plan)
        assert trace.wall_clock == pytest.approx(0.4)
        assert trace.group_timings == pytest.approx([0.1] * 4)

    def test_trace_is_reproducible(self, diamond):
        def run():
            plan = make_plan(diamond, route(diamond).topology, [MockBackend()])
            return ExecutionEngine(clock="virtual", task_text="t").run(diamond, plan)

        a, b = run().to_record(), run().to_record()
        assert a == b

    def test_timings_respect_edges_in_hybrid(self, diamond):
        plan = make_plan(diamond, route(diamond).topology, [MockBackend()])
        trace = ExecutionEngine(clock="virtual").run(diamond, plan)
        for u, v in diamond.edges:
            assert trace.timings[v].start >= trace.timings[u].finish
        assert trace.edge_violations == []

    def test_parallel_records_edge_violations(self, diamond):
        plan = make_plan(diamond, PARALLEL, [MockBackend()])
        trace = ExecutionEngine(concurrency_limit=8, clock="virtual").run(diamond, plan)
        # all four start at 0.0 so every edge is violated
        assert sorted(trace.edge_violations) == sorted(diamond.edges)


class TestRetries:
    def test_transient_failures_retried_with_backoff(self):
        dag = make_dag(1, [])
        backend = ScriptedBackend({"v0": {"text": "ok", "latency": 0.1, "fail_times": 2}})
        plan = make_plan(dag, PARALLEL, [backend])
        trace = ExecutionEngine(clock="virtual", retries=2).run(dag, plan)
        # backoff 0.5 + 1.0 added to the reported latency
        assert trace.outputs["v0"].latency == pytest.approx(1.6)

    def test_exhausted_retries_fail(self):
        dag = make_dag(1, [])
        backend = ScriptedBackend({"v0": {"text": "ok", "fail_times": 5}})
        plan = make_plan(dag, PARALLEL, [backend])
        with pytest.raises(ExecutionFailure) as ei:
            ExecutionEngine(clock="virtual", retries=2).run(dag, plan)
        assert set(ei.value.failed) == {"v0"}

    def test_permanent_failure_not_retried(self):
        dag = make_dag(1, [])
        backend = ScriptedBackend({"v0": {"fail": True}})
        plan = make_plan(dag, PARALLEL, [backend])
        with pytest.raises(ExecutionFailure):
            ExecutionEngine(clock="virtual").run(dag, plan)

    def test_sequential_stops_after_failure(self):
        dag = make_dag(3, [(0, 1), (1, 2)])
        backend = ScriptedBackend({
            "v0": {"text": "a"}, "v1": {"fail": True}, "v2": {"text": "c"},
        })
        plan = make_plan(dag, SEQUENTIAL, [backend])
        with pytest.raises(ExecutionFailure) as ei:
            ExecutionEngine(clock="virtual").run(dag, plan)
        trace = ei.value.trace
        assert "v0" in trace.outputs and "v2" not in trace.outputs


class TestContextFlow:
    def test_sequential_context_includes_predecessor_output(self):
        dag = make_dag(2, [(0, 1)])
        seen = {}

        class Spy(MockBackend):
            def invoke(self, instruction, context, *, tag=None):
                seen[tag] = context
                return super().invoke(instruction, context, tag=tag)

        backend = Spy()
        plan = make_plan(dag, SEQUENTIAL, [backend])
        trace = ExecutionEngine(clock="virtual", task_text="main task").run(dag, plan)
        assert trace.outputs["v0"].text in seen["v1"]
        assert "main task" in seen["v1"]

    def test_parallel_context_is_global_only(self, diamond):
        seen = {}

        class Spy(MockBackend):
            def invoke(self, instruction, context, *, tag=None):
                seen[tag] = context
                return super().invoke(instruction, context, tag=tag)

        plan = make_plan(diamond, PARALLEL, [Spy()])
        ExecutionEngine(clock="virtual", task_text="main task").run(diamond, plan)
        assert len(set(seen.values())) == 1
        assert "main task" in seen["v3"]


class TestHierarchical:
    def test_lead_assign_and_reconcile(self, diamond):
        lead = ScriptedBackend(
            {"lead:assign": {"text": "plan"}, "lead:reconcile": {"text": "final"}},
            name="lead",
        )
        plan = make_plan(diamond, HIERARCHICAL, [MockBackend()])
        engine = ExecutionEngine(clock="virtual", lead=lead)
        trace = engine.run(diamond, plan)
        assert trace.lead["assign"].text == "plan"
        assert trace.lead["reconcile"].text == "final"
        assert len(trace.outputs) == 4
        # wall clock covers lead calls plus three layers of 0.1
        assert trace.wall_clock == pytest.approx(0.1 + 0.3 + 0.1)

    def test_sub_failure_becomes_notice(self, diamond):
        captured = {}

        class Lead(ScriptedBackend):
            def invoke(self, instruction, context, *, tag=None):
                if tag == "lead:reconcile":
                    captured["prompt"] = instruction
                return super().invoke(instruction, context, tag=tag)

        lead = Lead({"lead:assign": {"text": "p"}, "lead:reconcile": {"text": "f"}})
        sub = ScriptedBackend({"v2": {"fail": True}, "default": {"text": "ok"}})
        plan = make_plan(diamond, HIERARCHICAL, [sub])
        trace = ExecutionEngine(clock="virtual", lead=lead).run(diamond, plan)
        assert "FAILURE NOTICE" in captured["prompt"]
        assert "v2" in trace.failures

    def test_lead_failure_is_fatal(self, diamond):
        lead = ScriptedBackend({"lead:assign": {"fail": True}})
        plan = make_plan(diamond, HIERARCHICAL, [MockBackend()])
        with pytest.raises(BackendError):
            ExecutionEngine(clock="virtual", lead=lead).run(diamond, plan)


class TestWallClock:
    def test_parallel_faster_than_sequential(self):
        dag = make_dag(4, [])
        mk = lambda: MockBackend(latency=0.05, sleep=True)
        seq = ExecutionEngine(clock="wall").run(
            dag, make_plan(dag, SEQUENTIAL, [mk()])
        )
        par = ExecutionEngine(clock="wall", concurrency_limit=8).run(
            dag, make_plan(dag, PARALLEL, [mk()])
        )
        assert par.wall_clock < seq.wall_clock

    def test_invalid_clock_rejected(self):
        with pytest.raises(ValueError):
            ExecutionEngine(clock="cpu")


class TestTraceRecord:
    def test_ordered_outputs_by_finish(self, diamond):
        plan = make_plan(diamond, route(diamond).topology, [MockBackend()])
        trace = ExecutionEngine(clock="virtual").run(diamond, plan)
        order = [o.subtask_id for o in trace.ordered_outputs()]
        assert order == ["v0", "v1", "v2", "v3"]

    def test_record_shape(self, diamond):
        plan = make_plan(diamond, route(diamond).topology, [MockBackend()])
        rec = ExecutionEngine(clock="virtual").run(diamond, plan).to_record()
        assert set(rec) == {
            "outputs", "lead", "wall_clock", "group_timings", "edge_violations", "failures",
        }
        assert set(rec["outputs"]) == {"v0", "v1", "v2", "v3"}


class FailOn(MockBackend):
    def __init__(self, name, fail_tag):
        super().__init__(name)
        self.fail_tag = fail_tag

    def invoke(self, instruction, context, *, tag=None):
        if tag == self.fail_tag:
            raise BackendError(f"injected failure for {tag}")
        return super().invoke(instruction, context, tag=tag)


# sha256 of the sorted-key JSON trace record per case, recorded before the four
# topology executors became one scheduler.  Mock output text hashes the
# instruction and context, so these pin every context string, the schedule,
# the virtual timings and the failure handling.
SCHEDULE_DIGESTS = {
    "parallel": "278e26812d3c4508d05f59fe129b9fadbd83a59ce3d8174fad425127b822f86c",
    "sequential": "261e30046f17f32cbd06a7e63da1f7f3e7a27609ab444ab73f6d91a41b28baaf",
    "hybrid": "3057622bec6a8217377bc4c6480a06890f08b3963834a68f20b9269c3038a950",
    "hierarchical": "2db3b9460edabb0d932ab1b2b7b6518e7a9c6d534003e183e7866fec0f9ad0f6",
    "parallel-fail-v2": "4fdd9edde8a8b1905d7630e91fa25b64f216998381e149004846ae978ae19fb0",
    "sequential-fail-v2": "f1f517b19d2aaf4fb43f5f5e73b3e3c37a432797f58a1879885d3aa54f7a9489",
    "hybrid-fail-v2": "09b136597861d0892842583943fca8cc49d804c3bebe9f68016b88845507b6b7",
    "hierarchical-fail-v2": "9a18f7f942069be33d344f840b16af0429ccd28fc6d86073c8e0b702b033223e",
}


@pytest.mark.parametrize("case", sorted(SCHEDULE_DIGESTS))
def test_schedule_pinned(case, diamond):
    kind, _, fail = case.partition("-fail-")
    topology = route(diamond).topology if kind == "hybrid" else Topology(TopologyKind(kind))
    pool = [FailOn("m0", fail) if fail else MockBackend("m0"), MockBackend("m1")]
    plan = make_plan(diamond, topology, pool)
    engine = ExecutionEngine(clock="virtual", task_text="pin the schedule")
    if fail and kind != "hierarchical":
        with pytest.raises(ExecutionFailure) as ei:
            engine.run(diamond, plan)
        trace = ei.value.trace
    else:
        trace = engine.run(diamond, plan)
    assert bool(trace.failures) == bool(fail)
    record = json.dumps(trace.to_record(), sort_keys=True)
    assert hashlib.sha256(record.encode()).hexdigest() == SCHEDULE_DIGESTS[case]
