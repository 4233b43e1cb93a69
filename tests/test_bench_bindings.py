"""The benchmark's tracer wraps topoflow names from outside; each must exist.

``perfbench/pb_trace.py`` lists the functions and methods it replaces.  A
name that no longer resolves would break every traced benchmark run, so the
lists are checked here against the package.
"""

import importlib
import importlib.util
import os

import pytest

PB_TRACE = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "pb_trace.py")


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
