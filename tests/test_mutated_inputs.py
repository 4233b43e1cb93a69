"""Drawn mutations of valid input documents: the CLI exits with its documented
code and never with a traceback.

Each property starts from a valid document, applies one to three drawn
mutations (delete a field or an element, replace any value with any JSON
value, wrap the whole document in a list) and runs ``topoflow`` in-process.
Covered so far: the two DAG inputs that ``topoflow route`` reads, decomposer
records and the canonical document.  The numeric flags of ``ratio`` and
``simulate`` are drawn too: any float or integer, spelt as on a command line.
"""

import contextlib
import io
import json
import os
import shutil

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from topoflow.archetypes import ArchetypeKind
from topoflow.cli import main
from topoflow.dag import load_dag, serialize_dag

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
DIAMOND = os.path.join(FIXTURES, "diamond.json")

# any JSON value, including what a strict reader would refuse: NaN,
# infinities and integers too large for a float
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from([10**400, -(10**400)])
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=6)
    | st.sampled_from(["v0", "v1", "none", "weak", "strong", "critical"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def _paths(doc, prefix=()):
    """The path of every value in ``doc``, the document itself first."""
    yield prefix
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _paths(value, (*prefix, key))


def _parent(doc, path):
    for key in path[:-1]:
        doc = doc[key]
    return doc


@st.composite
def mutated(draw, valid):
    """``valid``, with one to three drawn mutations applied."""
    doc = json.loads(json.dumps(valid))
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(["delete", "replace", "wrap"]))
        if op == "wrap":
            doc = [doc]
            continue
        paths = list(_paths(doc))
        if op == "delete" and len(paths) > 1:
            path = draw(st.sampled_from(paths[1:]))
            del _parent(doc, path)[path[-1]]
            continue
        path = draw(st.sampled_from(paths))
        value = draw(json_values)
        if path:
            _parent(doc, path)[path[-1]] = value
        else:
            doc = value
    return doc


with open(DIAMOND, encoding="utf-8") as _fh:
    RECORDS = json.load(_fh)
CANONICAL = serialize_dag(load_dag(DIAMOND))


def _run(argv):
    """``main(argv)``'s exit code and standard error."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def _route(directory, doc):
    path = os.path.join(directory, "dag.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)  # NaN and infinities as their JavaScript names
    return _run(["route", path])


@pytest.mark.parametrize("valid", [RECORDS, CANONICAL], ids=["records", "canonical"])
def test_valid_document_routes(valid, tmp_path):
    assert _route(str(tmp_path), valid) == (0, "")


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return str(tmp_path_factory.mktemp("mutated"))


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(doc=mutated(RECORDS))
def test_mutated_records_exit_cleanly(scratch, doc):
    code, err = _route(scratch, doc)
    assert code in (0, 2, 3)
    assert "Traceback" not in err


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(doc=mutated(CANONICAL))
def test_mutated_canonical_documents_exit_cleanly(scratch, doc):
    code, err = _route(scratch, doc)
    assert code in (0, 2, 3)
    assert "Traceback" not in err


# a number flag's text: finite, huge, subnormal and non-finite floats, and
# integers, a float flag's past the float range too; the in-range draws come
# first, so that some commands get past their checks
FLOAT_FLAG = st.one_of(
    st.floats(min_value=0, max_value=1),
    st.floats(min_value=1, allow_infinity=False),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([1e155, 1e308, 5e-324, -5e-324, 2.2250738585072014e-308]),
    st.integers(),
    st.sampled_from([10**400, -(10**400)]),
).map(str)
INT_FLAG = st.one_of(st.integers(1, 50), st.integers(), st.sampled_from([10**400, -(10**400)])).map(str)


@settings(max_examples=150, deadline=None)
@given(omega=FLOAT_FLAG, gamma=FLOAT_FLAG, k=INT_FLAG, eps=FLOAT_FLAG)
def test_ratio_number_flags_exit_cleanly(omega, gamma, k, eps):
    # ``--flag=value``, so that a negative value is not read as a flag
    code, err = _run(["ratio", f"--omega={omega}", f"--gamma={gamma}", f"--k={k}", f"--eps={eps}"])
    assert code in (0, 2)
    assert "Traceback" not in err


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    kind=st.sampled_from([k.value for k in ArchetypeKind]),
    size=st.one_of(st.integers(1, 40), st.integers(max_value=0)).map(str),
    eps=FLOAT_FLAG,
    trials=st.one_of(st.integers(1, 3), st.integers(max_value=0)).map(str),
    seed=INT_FLAG,
)
@example(kind="diamond", size="6", eps="1e155", trials="2", seed="42")
def test_simulate_number_flags_exit_cleanly(scratch, kind, size, eps, trials, seed):
    out = os.path.join(scratch, "sim")
    argv = ["simulate", f"--archetype={kind}", f"--size={size}", f"--eps={eps}", f"--trials={trials}"]
    code, err = _run([*argv, f"--seed={seed}", f"--out={out}"])
    assert code in (0, 2)
    assert "Traceback" not in err
    if code == 2:
        assert not os.path.exists(out)
    shutil.rmtree(out, ignore_errors=True)
