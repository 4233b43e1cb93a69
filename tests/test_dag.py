import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from topoflow.dag import (
    CouplingLabel,
    DagIndex,
    ParseError,
    Subtask,
    TaskDag,
    Violation,
    deserialize_dag,
    ingest,
    load_json,
    parse_decomposition,
    serialize_dag,
    validate_dag,
)

from conftest import make_dag, oracle_build_index, oracle_validate_dag, random_small_dag

NAMES = ("a", "b", "c", "d", "e", "f", "")
UNKNOWN = ("x", "y")


@st.composite
def flawed_dags(draw):
    """Small digraphs with every kind of violation: cycles (often several at
    once), dangling edges, duplicate and empty ids, duplicate and self edges,
    non-positive, NaN and infinite weights, and missing or out-of-range couplings."""
    ids = draw(st.lists(st.sampled_from(NAMES), max_size=8))
    weights = draw(st.lists(
        st.sampled_from((1.0, 250.0, 0.0, -3.0, math.nan, math.inf)), min_size=len(ids), max_size=len(ids)
    ))
    ends = st.sampled_from(ids + list(UNKNOWN))
    edges = draw(st.lists(st.tuples(ends, ends), max_size=16))
    coupling = {}
    for edge in edges:
        c = draw(st.sampled_from((None, 0.0, 0.3, 1.0, -0.1, 1.5, math.nan)))
        if c is not None:
            coupling[edge] = c
    vertices = tuple(Subtask(vid, weight=w) for vid, w in zip(ids, weights))
    return TaskDag(vertices=vertices, edges=tuple(edges), coupling=coupling)


@st.composite
def shuffled_dags(draw):
    """Valid DAGs of up to 60 vertices whose file order is neither
    topological nor sorted by id, with edges listed in shuffled order."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    n = draw(st.integers(0, 60))
    p = draw(st.floats(0.0, 0.3))
    ids = [f"t{k}" for k in rng.sample(range(1000), n)]  # topological by construction
    edges = [(ids[i], ids[j]) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    rng.shuffle(edges)
    vertices = [Subtask(vid) for vid in ids]
    rng.shuffle(vertices)
    return TaskDag(vertices=tuple(vertices), edges=tuple(edges), coupling=dict.fromkeys(edges, 0.3))


def edge_coupling(label):
    """The strength that ``parse_decomposition`` gives an edge into a record labelled ``label``."""
    dag = parse_decomposition([
        {"id": "a", "description": "", "depends_on": [], "coupling": "none"},
        {"id": "b", "description": "", "depends_on": ["a"], "coupling": label},
    ])
    return dag.coupling[("a", "b")]


class TestCouplingFromLabel:
    @pytest.mark.parametrize(
        "label,value",
        [
            (CouplingLabel.NONE, 0.0),
            (CouplingLabel.WEAK, 0.3),
            (CouplingLabel.STRONG, 0.7),
            (CouplingLabel.CRITICAL, 1.0),
        ],
    )
    def test_values(self, label, value):
        assert edge_coupling(label.value) == value

    def test_string_accepted(self):
        assert edge_coupling("Weak") == 0.3

    def test_unknown_label(self):
        with pytest.raises(ParseError, match="unknown coupling label 'medium'"):
            edge_coupling("medium")


class TestValidateDag:
    def test_wellformed_chain(self, chain3):
        report = validate_dag(chain3)
        assert report.ok
        assert report.violations == ()

    def test_two_cycle_witness(self):
        dag = TaskDag(
            vertices=(Subtask("a"), Subtask("b")),
            edges=(("a", "b"), ("b", "a")),
            coupling={("a", "b"): 0.3, ("b", "a"): 0.3},
        )
        report = validate_dag(dag)
        assert not report.ok
        [v] = [v for v in report.violations if v.kind == "cycle"]
        # witness is a closed walk a -> ... -> a
        assert "a -> b -> a" in v.detail or "b -> a -> b" in v.detail

    def test_coupling_out_of_range(self):
        dag = make_dag(2, [(0, 1)], couplings=[1.3])
        report = validate_dag(dag)
        assert any(v.kind == "coupling_range" for v in report.violations)

    def test_dangling_edge(self):
        dag = TaskDag(vertices=(Subtask("a"),), edges=(("a", "zz"),), coupling={("a", "zz"): 0.3})
        report = validate_dag(dag)
        assert any(v.kind == "dangling_edge" for v in report.violations)

    def test_duplicate_id(self):
        dag = TaskDag(vertices=(Subtask("a"), Subtask("a")))
        assert any(v.kind == "duplicate_id" for v in validate_dag(dag).violations)

    def test_self_edge(self):
        dag = TaskDag(vertices=(Subtask("a"),), edges=(("a", "a"),), coupling={("a", "a"): 0.1})
        kinds = {v.kind for v in validate_dag(dag).violations}
        assert "self_edge" in kinds

    def test_nonpositive_weight(self):
        dag = TaskDag(vertices=(Subtask("a", weight=0.0),))
        assert any(v.kind == "bad_weight" for v in validate_dag(dag).violations)

    def test_injected_back_edge_always_rejected(self):
        rng = random.Random(7)
        for _ in range(50):
            dag = random_small_dag(rng)
            if not dag.edges:
                continue
            u, v = rng.choice(dag.edges)
            bad = TaskDag(
                vertices=dag.vertices,
                edges=dag.edges + ((v, u),),
                coupling={**dag.coupling, (v, u): 0.3},
            )
            report = validate_dag(bad)
            assert any(x.kind in ("cycle", "duplicate_edge") for x in report.violations)

    def test_cycle_witness_follows_edge_order(self):
        # source a reaches two cycles, c-e first in edge order and b-d first
        # in sorted order; the DFS takes successors in edge order
        edges = (("a", "c"), ("a", "b"), ("b", "d"), ("d", "b"), ("c", "e"), ("e", "c"))
        dag = TaskDag(tuple(Subtask(vid) for vid in "abcde"), edges, dict.fromkeys(edges, 0.3))
        report = validate_dag(dag)
        assert report == oracle_validate_dag(dag)
        assert report.violations == (Violation("cycle", "cycle c -> e -> c"),)

    def test_cycle_search_skips_a_root_already_searched(self):
        # the search from a finishes b, so b is no root of its own
        edges = (("a", "b"), ("c", "d"), ("d", "c"))
        dag = TaskDag(tuple(Subtask(vid) for vid in "abcd"), edges, dict.fromkeys(edges, 0.3))
        report = validate_dag(dag)
        assert report == oracle_validate_dag(dag)
        assert report.violations == (Violation("cycle", "cycle c -> d -> c"),)

    @settings(max_examples=400, deadline=None)
    @given(flawed_dags())
    # an edge set with repeats, where duplicates are named edge by edge: a
    # valid edge twice, a dangling edge twice and an edge with no coupling
    @example(TaskDag(
        tuple(Subtask(vid) for vid in "abc"),
        (("a", "b"), ("a", "x"), ("b", "c"), ("a", "x"), ("a", "b"), ("a", "c")),
        {("a", "b"): 0.3, ("b", "c"): 0.7},
    ))
    # repeats only among dangling edges, which name no duplicate
    @example(TaskDag(
        tuple(Subtask(vid) for vid in "ab"), (("a", "y"), ("a", "b"), ("a", "y")), {("a", "b"): 0.3}
    ))
    # no repeats: the per-edge set is never built
    @example(TaskDag(tuple(Subtask(vid) for vid in "ab"), (("a", "b"), ("b", "a")), {}))
    def test_report_matches_the_reference(self, dag):
        # the same violations in the same order, each with the same detail
        assert validate_dag(dag) == oracle_validate_dag(dag)


class TestIndex:
    @settings(max_examples=200, deadline=None)
    @given(shuffled_dags())
    def test_index_matches_the_reference(self, dag):
        got, want = dag.index, oracle_build_index(dag)
        for name in DagIndex._fields:
            assert getattr(got, name) == getattr(want, name), name


class TestParseDecomposition:
    def test_two_records(self):
        records = [
            {"id": "v0", "description": "first", "depends_on": [], "coupling": "weak", "estimated_tokens": 500},
            {"id": "v1", "description": "second", "depends_on": ["v0"], "coupling": "strong", "estimated_tokens": 800},
        ]
        dag = parse_decomposition(records)
        assert dag.edges == (("v0", "v1"),)
        # edge coupling comes from the dependent record's label
        assert dag.coupling[("v0", "v1")] == 0.7
        assert dag.subtask("v1").weight == 800

    def test_single_record_no_edges(self):
        dag = parse_decomposition(
            [{"id": "v0", "description": "only", "depends_on": [], "coupling": "none", "estimated_tokens": 100}]
        )
        assert dag.vertex_count == 1
        assert dag.edges == ()

    def test_unknown_dependency_named(self):
        records = [
            {"id": "v0", "description": "x", "depends_on": ["vX"], "coupling": "weak", "estimated_tokens": 100}
        ]
        with pytest.raises(ParseError, match="vX"):
            parse_decomposition(records)

    def test_missing_field_named(self):
        with pytest.raises(ParseError, match="depends_on"):
            parse_decomposition([{"id": "v0", "description": "x", "coupling": "weak"}])

    def test_unknown_coupling_label(self):
        for label in ("medium", ["weak"]):  # unknown, and unhashable
            with pytest.raises(ParseError) as exc:
                parse_decomposition(
                    [{"id": "v0", "description": "x", "depends_on": [], "coupling": label}]
                )
            assert str(exc.value) == f"record 'v0' has unknown coupling label {label!r}"

    def test_missing_estimated_tokens_defaults(self, capsys):
        dag = parse_decomposition(
            [{"id": "v0", "description": "x", "depends_on": [], "coupling": "weak"}]
        )
        assert dag.subtask("v0").weight == 500.0
        assert capsys.readouterr().err == "record 'v0' missing estimated_tokens; defaulting to 500.0\n"

    def test_accepts_all_four_labels(self):
        records = [
            {"id": f"v{i}", "description": "x", "depends_on": [], "coupling": lbl, "estimated_tokens": 10}
            for i, lbl in enumerate(["none", "weak", "strong", "critical"])
        ]
        dag = parse_decomposition(records)
        assert dag.vertex_count == 4


class TestSerialization:
    def test_round_trip_identity(self):
        rng = random.Random(11)
        for _ in range(25):
            dag = random_small_dag(rng)
            back = deserialize_dag(serialize_dag(dag))
            assert back.vertices == dag.vertices
            assert back.edges == dag.edges
            assert back.coupling == dag.coupling

    def test_ingest_dispatch(self, chain3):
        assert ingest(serialize_dag(chain3)).edges == chain3.edges
        records = [
            {"id": "a", "description": "", "depends_on": [], "coupling": "weak", "estimated_tokens": 5}
        ]
        assert ingest(records).vertex_count == 1

    @pytest.mark.parametrize(
        "label, message",
        [
            ("medium", "'medium' is not a valid CouplingLabel"),
            ("WEAK", "'WEAK' is not a valid CouplingLabel"),
            (["weak"], "['weak'] is not a valid CouplingLabel"),
        ],
    )
    def test_unknown_declared_coupling(self, label, message):
        doc = {"vertices": [{"id": "a", "declared_coupling": label}], "edges": []}
        with pytest.raises(ParseError) as exc:
            deserialize_dag(doc)
        assert str(exc.value) == f"malformed canonical DAG document: {message}"

    @pytest.mark.parametrize(
        "weight, coupling, message",
        [
            ("5", 0.3, "vertex 'a' has a weight that is not a number: '5'"),
            (True, 0.3, "vertex 'a' has a weight that is not a number: True"),
            (5, "0.3", "edge ('a', 'b') has a coupling that is not a number: '0.3'"),
            (5, True, "edge ('a', 'b') has a coupling that is not a number: True"),
        ],
        ids=["weight-string", "weight-bool", "coupling-string", "coupling-bool"],
    )
    def test_number_fields_are_numbers(self, weight, coupling, message):
        # the decomposer loader's estimated_tokens test: the exact type is int or float
        doc = {
            "vertices": [{"id": "a", "weight": weight}, {"id": "b"}],
            "edges": [{"source": "a", "target": "b", "coupling": coupling}],
        }
        with pytest.raises(ParseError) as exc:
            deserialize_dag(doc)
        assert str(exc.value) == f"malformed canonical DAG document: {message}"

    @pytest.mark.parametrize(
        "content",
        [b'{"a": "\xff"}', b'{"a": ', b"[" * 100_000 + b"]" * 100_000, b"1" * 4301],
        ids=["not-utf8", "not-json", "nested-too-deep", "int-past-digit-limit"],
    )
    def test_load_json_names_the_file(self, tmp_path, content):
        path = tmp_path / "input.json"
        path.write_bytes(content)
        with pytest.raises(ParseError) as exc:
            load_json(str(path))
        assert str(exc.value).startswith(f"{path}: ")

    def test_ingest_garbage(self):
        with pytest.raises(ParseError):
            ingest({"not": "a dag"})
