"""The benchmark calls topoflow from outside; each name and call must fit.

``perfbench/pb_trace.py`` lists the functions and methods it replaces, and
``perfbench/pb_worker.py`` builds ``SimConfig`` and ``DagArchetype`` itself.
A name that no longer resolves, or a call whose arguments a signature no
longer accepts, would break every benchmark run, so both are checked here
against the package.
"""

import ast
import importlib
import importlib.util
import inspect
import os
import sys

import pytest

from topoflow import execution, routing
from topoflow.archetypes import DagArchetype
from topoflow.cli import main
from topoflow.convergence import SimConfig

from test_cli import FIXTURES, write_manifest

PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")
PB_TRACE = os.path.join(PERFBENCH, "pb_trace.py")
PB_WORKER = os.path.join(PERFBENCH, "pb_worker.py")


def load_pb_trace():
    spec = importlib.util.spec_from_file_location("pb_trace", PB_TRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


pb_trace = load_pb_trace()


@pytest.mark.parametrize("module, attr", [(m, a) for _, m, a in pb_trace.FUNCTIONS])
def test_traced_function_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


@pytest.mark.parametrize("module, cls, method", [(m, c, f) for _, m, c, f in pb_trace.METHODS])
def test_traced_method_resolves(module, cls, method):
    # the tracer patches ``cls.__dict__[method]``, so the class itself must define it
    assert callable(vars(getattr(importlib.import_module(module), cls))[method])


def test_execution_binds_synthesis_cosine():
    # perfbench's self-test checks that the tracer replaces this binding too
    from topoflow import execution, synthesis

    assert execution.cosine is synthesis.cosine


def worker_calls():
    """(name, positional count, keywords) of each SimConfig or DagArchetype call."""
    with open(PB_WORKER, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in ("SimConfig", "DagArchetype"):
                found.append((name, len(node.args), tuple(k.arg for k in node.keywords)))
    return found


@pytest.mark.parametrize(
    "name, positional, keywords",
    [pytest.param(*call, id="-".join([call[0], f"{call[1]}args", *call[2]])) for call in worker_calls()],
)
def test_worker_call_binds(name, positional, keywords):
    cls = {"SimConfig": SimConfig, "DagArchetype": DagArchetype}[name]
    inspect.signature(cls).bind(*[None] * positional, **dict.fromkeys(keywords))


def test_worker_calls_found():
    assert {name for name, _, _ in worker_calls()} == {"SimConfig", "DagArchetype"}


def test_tracer_reaches_every_layer_of_an_exec(tmp_path, capsys):
    # the scripted diamond routes three times; each route is planned and run
    original_route = routing.route
    tracer = pb_trace.Tracer()
    tracer.install()
    try:
        assert main(["exec", write_manifest(tmp_path)]) == 0
    finally:
        tracer.restore()
    totals = tracer.layer_totals()
    calls = {name: totals.get(name, {"calls": 0})["calls"] for name in (
        "routing.route", "execution.plan", "execution.run", "synthesis.synthesize", "cli.exec",
    )}
    assert calls == {
        "routing.route": 3, "execution.plan": 3, "execution.run": 3, "synthesis.synthesize": 1, "cli.exec": 1,
    }
    assert execution.route is routing.route is original_route


def test_tracer_reaches_the_function_local_imports_of_route_and_simulate(tmp_path, capsys):
    # cmd_simulate imports simulate_variance when it runs, so it must find the wrapper
    for _, module, *_ in pb_trace.FUNCTIONS + pb_trace.METHODS:
        importlib.import_module(module)
    modules = [m for n, m in sorted(sys.modules.items()) if n == "topoflow" or n.startswith("topoflow.")]
    classes = [getattr(sys.modules[module], cls) for _, module, cls, _ in pb_trace.METHODS]
    before = [dict(vars(owner)) for owner in modules + classes]
    tracer = pb_trace.Tracer()
    tracer.install()
    try:
        assert main(["route", os.path.join(FIXTURES, "diamond.json")]) == 0
        argv = ["simulate", "--archetype", "diamond", "--trials", "5", "--out", str(tmp_path / "sim")]
        assert main(argv) == 0
    finally:
        tracer.restore()
    calls = {name: totals["calls"] for name, totals in tracer.layer_totals().items()}
    assert calls["dag.validate"] >= 1 and calls["routing.route"] == 1 and calls["cli.route"] == 1
    assert calls["convergence.simulate"] == 1
    after = [dict(vars(owner)) for owner in modules + classes]
    for old, new in zip(before, after):
        assert {key: new[key] for key in old if new[key] is not old[key]} == {}
