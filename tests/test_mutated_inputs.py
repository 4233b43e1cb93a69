"""Drawn mutations of valid input documents: the CLI exits with its documented
code and never with a traceback.

Each property starts from a valid document, applies one to three drawn
mutations (delete a field or an element, replace any value with any JSON
value, wrap the whole document in a list) and runs ``topoflow`` in-process.
Covered: the two DAG inputs that ``topoflow route`` reads, decomposer records
and the canonical document; the four other files that ``exec`` reads (its
manifest, a scripted fixture, a router config and a pricing file), each beside
valid others; a ``calibrate`` task file; and a ``run`` record of a ``report``
log.  Exits 2 and 3 of these leave no new file or directory.  The numeric
flags of ``ratio``, ``simulate`` and ``calibrate`` are drawn too: any float or
integer, spelt as on a command line.
"""

import contextlib
import io
import json
import os
import shutil
import tempfile

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from topoflow.archetypes import ArchetypeKind
from topoflow.cli import main
from topoflow.dag import load_dag, serialize_dag
from topoflow.routing import RouterConfig

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
DIAMOND = os.path.join(FIXTURES, "diamond.json")
SCRIPTED = os.path.join(FIXTURES, "scripted.json")

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


with open(SCRIPTED, encoding="utf-8") as _fh:
    FIXTURE = json.load(_fh)
# a valid instance of each other input kind: its file, relative to a run's
# directory, and its document.  An ``exec`` run reads the manifest and the
# files it names, ``calibrate`` a directory of tasks and ``report`` one of logs.
EXEC_INPUTS = {
    "manifest": ("manifest.json", {
        "dag": "dag.json", "backend": "scripted:fixture.json", "router_config": "router.json",
        "pricing": "pricing.json", "task": "evaluate two options", "concurrency": 2,
        "context_budget": 4000, "theta_cs": 0.8, "output_dir": "out",
    }),
    "fixture": ("fixture.json", FIXTURE),
    "router-config": ("router.json", RouterConfig().to_dict()),
    "pricing": ("pricing.json", {
        "as_of": "2026-01-01", "rates": {"scripted": {"input_per_1m": "0.5", "output_per_1m": "2"}},
    }),
}
OTHER_INPUTS = {
    "calibration-task": ("tasks/task.json", {
        "dag": RECORDS, "scores": {"parallel": 0.5, "sequential": 0.9, "hierarchical": 0.4, "hybrid": 0.6},
    }),
    "run-record": ("logs/runs.jsonl", {
        "type": "run", "total_tokens": 120, "cost_microdollars": 45, "cost_dollars": 4.5e-05,
        "wall_clock": 0.3, "topology": "hybrid", "iterations": 2, "group": "code", "oracle_topology": "hybrid",
    }),
}
INPUTS = {**EXEC_INPUTS, **OTHER_INPUTS}
ARGV = {
    **dict.fromkeys(EXEC_INPUTS, ["exec", "{d}/manifest.json"]),
    "calibration-task": ["calibrate", "--tasks", "{d}/tasks", "--out", "{d}/out"],
    "run-record": ["report", "--logs", "{d}/logs", "--out", "{d}/out"],
}


def _write_inputs(directory, kind, doc):
    """Write valid inputs of ``kind``'s command into ``directory``, ``doc`` as
    the input of ``kind``; return the command line."""
    files = {"dag.json": RECORDS, **dict(EXEC_INPUTS.values())} if kind in EXEC_INPUTS else {}
    files[INPUTS[kind][0]] = doc
    for name, content in files.items():
        path = os.path.join(directory, name)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(content, fh)  # on one line, so also one log record
    return [arg.format(d=directory) for arg in ARGV[kind]]


@pytest.mark.parametrize("kind", INPUTS)
def test_valid_inputs_run(kind, tmp_path):
    assert _run(_write_inputs(str(tmp_path), kind, INPUTS[kind][1])) == (0, "")


@pytest.mark.parametrize("kind", INPUTS)
@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_mutated_inputs_exit_cleanly(scratch, kind, data):
    doc = data.draw(mutated(INPUTS[kind][1]), label="doc")
    if kind == "manifest" and isinstance(doc, dict) and isinstance(doc.get("output_dir"), str):
        assume(not os.path.isabs(doc["output_dir"]))  # it would write outside the run's directory
    directory = tempfile.mkdtemp(dir=scratch)
    try:
        argv = _write_inputs(directory, kind, doc)
        inputs = sorted(os.listdir(directory))
        code, err = _run(argv)
        assert code in (0, 2, 3, 4)
        assert "Traceback" not in err
        if code in (2, 3):
            assert sorted(os.listdir(directory)) == inputs
    finally:
        shutil.rmtree(directory)


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


# ``calibrate``'s fraction and grid thresholds lie in [0, 1]: half the draws
# come from there, so that some runs get past the flag checks.  A ``--grid``
# text is up to four numbers joined by commas.
UNIT_FLAG = st.one_of(st.floats(min_value=0, max_value=1).map(str), FLOAT_FLAG)
GRID_FLAG = st.one_of(
    st.lists(st.floats(min_value=0, max_value=1).map(str), min_size=1, max_size=4),
    st.lists(FLOAT_FLAG, max_size=4),
).map(",".join)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    synthetic=st.one_of(st.integers(1, 40), st.integers(max_value=40)).map(str),
    fraction=UNIT_FLAG,
    seed=INT_FLAG,
    grid=GRID_FLAG,
)
@example(synthetic="3", fraction="0.999999", seed="42", grid="0.4")  # every task in dev, none in test
def test_calibrate_number_flags_exit_cleanly(scratch, synthetic, fraction, seed, grid):
    out = os.path.join(scratch, "cal")
    argv = ["calibrate", f"--synthetic={synthetic}", f"--fraction={fraction}", f"--seed={seed}", f"--grid={grid}"]
    code, err = _run([*argv, f"--out={out}"])
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err
    if code in (2, 3):
        assert not os.path.exists(out)
    shutil.rmtree(out, ignore_errors=True)
