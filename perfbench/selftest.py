"""The benchmark's own tests: span arithmetic, wrapper hygiene, and that
tracing neither changes topoflow's outputs nor miscounts its layers.

    PYTHONPATH=src python3 -m pytest -q perfbench/selftest.py

The file name keeps these out of the repository's default test collection:
the scripted-diamond counts pin topoflow's behaviour at the commit the
benchmark was defined on, and a change that legitimately alters them
(for example one that stops re-executing identical topologies) is measured
by the benchmark, not blocked by it.
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import pb_inputs  # noqa: E402
import pb_trace  # noqa: E402
import pb_worker  # noqa: E402
import run  # noqa: E402


def test_self_time_subtracts_child_coverage():
    # root [0, 10] has children [1, 4] and [5, 9]; [5, 9] has child [6, 7];
    # a second root [20, 30] has overlapping children [21, 25] and [23, 26],
    # which together cover [21, 26]
    spans = [
        ["root", 0.0, 10.0, -1, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["b", 5.0, 9.0, 0, 0],
        ["c", 6.0, 7.0, 2, 0],
        ["root", 20.0, 30.0, -1, 1],
        ["a", 21.0, 25.0, 4, 1],
        ["b", 23.0, 26.0, 4, 1],
    ]
    assert pb_trace.self_times(spans) == pytest.approx([3.0, 3.0, 3.0, 1.0, 5.0, 4.0, 3.0])
    tracer = pb_trace.Tracer()
    tracer.spans = spans
    totals = tracer.layer_totals()
    assert totals["root"] == {"calls": 2, "self_ms": pytest.approx(8000.0)}
    assert totals["b"] == {"calls": 2, "self_ms": pytest.approx(6000.0)}


def _bindings():
    import topoflow.cli  # noqa: F401  (loads every submodule)

    snap = {}
    for name, mod in sys.modules.items():
        if name == "topoflow" or name.startswith("topoflow."):
            snap.update({(name, k): v for k, v in vars(mod).items() if callable(v)})
    for _, module, cls_name, meth in pb_trace.METHODS:
        cls = getattr(sys.modules[module], cls_name)
        snap[(cls_name, meth)] = cls.__dict__[meth]
    return snap


def test_wrappers_are_installed_everywhere_and_restored():
    import topoflow.execution
    import topoflow.synthesis

    before = _bindings()
    tracer = pb_trace.Tracer()
    tracer.install()
    try:
        # the name a caller looks up is patched in each module that binds it
        assert topoflow.synthesis.cosine is not before[("topoflow.synthesis", "cosine")]
        assert topoflow.execution.cosine is topoflow.synthesis.cosine
        assert topoflow.execution.ExecutionEngine.run is not before[("ExecutionEngine", "run")]
        with pytest.raises(RuntimeError):
            tracer.install()
    finally:
        tracer.restore()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def _artefacts(op):
    return {n: open(os.path.join(op["out_dir"], n), "rb").read() for n in pb_worker.ARTEFACTS}


def test_traced_and_untraced_exec_give_identical_artefacts(tmp_path):
    spec = pb_inputs.make_spec("exec", 3, str(tmp_path))
    with open(os.path.join(tmp_path, "inputs", "pricing.json")) as fh:
        runner = pb_worker.Runner(json.load(fh))
    picks = [next(i for i, op in enumerate(spec["ops"]) if op["label"].startswith(kind))
             for kind in ("small-mock-", "small-agree-", "small-retry-")]
    for i in picks:
        op = spec["ops"][i]
        assert pb_worker.run_op(runner, op, i)["ok"]
        untraced = _artefacts(op)
        tracer = pb_trace.Tracer()
        tracer.install()
        try:
            rec = pb_worker.run_op(runner, op, i)
        finally:
            tracer.restore()
        assert rec["ok"], rec.get("error")
        assert tracer.spans
        assert _artefacts(op) == untraced


def test_scripted_diamond_layer_counts(tmp_path):
    op = pb_inputs.scripted_diamond(str(tmp_path))
    runner = pb_worker.Runner(pb_inputs.PRICING)
    tracer = pb_trace.Tracer()
    tracer.install()
    try:
        rec = pb_worker.run_op(runner, op, 0)
    finally:
        tracer.restore()
    assert rec["ok"], rec.get("error")
    layers = pb_trace.per_layer_metrics(tracer, ops=1, execs=1)
    # hybrid -> hybrid -> hybrid: |V| = 4 never exceeds theta_delta, so the
    # raised coupling cannot route hierarchical and all three passes run
    assert layers["execution.run.calls"] == 3
    assert layers["routing.route.calls"] == 3
    assert layers["execution.useful_ratio"] == pytest.approx(1 / 3)
    # four vertex calls per execution plus one arbiter call per synthesis pass
    assert layers["backends.invoke.execute.calls"] == 12
    assert layers["backends.invoke.arbiter.calls"] == 3
    assert layers["backends.invoke.merge.calls"] == 0
    assert layers["backends.invoke.lead.calls"] == 0
    assert rec["agent_calls"] == 15
    assert layers["accounting.record.calls"] == 15
    assert layers["synthesis.iterations"] == 3
    assert layers["synthesis.path.escalated"] == 1
    # per execution: one merge per vertex, 0 + 1 + 1 + 3 relevance scores;
    # per synthesis pass: 4-output consistency (6 pairs) plus a candidate
    # against the 4 originals
    assert layers["execution.merge_context.calls"] == 12
    assert layers["synthesis.consistency.calls"] == 6
    assert layers["synthesis.cosine.calls"] == 3 * 5 + 3 * (6 + 4)
    assert layers["synthesis.embed.calls"] == 3 * 5 * 2 + 3 * (4 + 5)
    assert layers["runlog.write.calls"] == 4
    assert layers["backends.invoke.failures"] == 0
    assert layers["backends.invoke.transient_retries"] == 0


def test_transient_retries_count_only_calls_that_follow_a_failure():
    from topoflow.backends import BackendError

    def invoke(self, instruction, context, *, tag=None):
        if tag == "v1":
            raise BackendError("scripted transient failure", transient=True)
        return "ok"

    tracer = pb_trace.Tracer()
    traced = tracer._wrap(pb_trace._invoke_span, invoke, pb_trace._observe_invoke)
    backend = object()
    for _ in range(3):  # three attempts, all failing: the last one is not retried
        with pytest.raises(BackendError):
            traced(backend, "do", "", tag="v1")
    traced(backend, "do", "", tag="v2")
    assert tracer.counters["backends.invoke.failures"] == 3
    assert tracer.counters["backends.invoke.transient_retries"] == 2


def test_benchmark_json_names_every_reported_metric():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == pb_trace.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(pb_inputs.WORKLOADS)
