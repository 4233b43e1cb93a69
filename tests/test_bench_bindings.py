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

import pytest

from topoflow.archetypes import DagArchetype
from topoflow.convergence import SimConfig

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
