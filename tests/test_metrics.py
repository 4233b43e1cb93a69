import dataclasses
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from topoflow.archetypes import ArchetypeKind, DagArchetype, generate_archetype
from topoflow.dag import Subtask, TaskDag, ValidationError, validate_dag
from topoflow.metrics import (
    WidthMode,
    compute_metrics,
    critical_path_depth,
    topological_layers,
    width_exact,
)

from conftest import (
    brute_critical_depth,
    brute_levels,
    brute_max_antichain,
    make_dag,
    oracle_width_exact,
    random_small_dag,
    reachability,
)


def deep_augmenting_dag(k):
    """Sources p_0..p_k over sinks q_0..q_k, with p_i -> q_(i+1) listed
    before p_i -> q_i.  The greedy cover takes every p_i -> q_(i+1) and leaves
    p_k alone; the one augmenting path then runs p_k, q_k, p_(k-1), ..., q_0.
    The matching p_i -> q_i is perfect, so the width is k + 1."""
    p, q = range(k + 1), range(k + 1, 2 * k + 2)
    edges = [(p[i], q[i + 1]) for i in range(k)] + [(p[i], q[i]) for i in range(k + 1)]
    return make_dag(2 * k + 2, edges)


class TestFixedExamples:
    def test_diamond(self, diamond):
        m = compute_metrics(diamond)
        assert m.width_exact == 2
        assert m.width_approx == 2
        assert m.depth == 3.0
        assert m.coupling_density == pytest.approx(0.3)
        assert m.parallelism_ratio == pytest.approx(0.5)
        assert topological_layers(diamond) == [{"v0"}, {"v1", "v2"}, {"v3"}]

    def test_weighted_chain(self):
        dag = make_dag(3, [(0, 1), (1, 2)], weights=[2.0, 3.0, 5.0])
        m = compute_metrics(dag)
        assert m.width_exact == 1
        assert m.depth == 10.0

    def test_isolated_vertices(self, isolated4):
        m = compute_metrics(isolated4)
        assert m.width_exact == 4
        assert m.depth == 1.0
        assert m.coupling_density == 0.0
        assert m.parallelism_ratio == 1.0

    def test_single_vertex(self):
        dag = make_dag(1, [], weights=[7.0])
        m = compute_metrics(dag)
        assert m.width_exact == 1
        assert m.depth == 7.0
        assert m.parallelism_ratio == 1.0

    def test_approx_strictly_below_exact(self):
        # Layering spreads {v2, v3, v4} across levels, so the layer width (2)
        # underestimates the true maximum antichain {v2, v3, v4} of size 3.
        dag = make_dag(5, [(0, 1), (0, 2), (1, 3)])
        m = compute_metrics(dag)
        assert m.width_approx == 2
        assert m.width_exact == 3 == brute_max_antichain(dag)


class TestOracleProperties:
    def test_width_exact_matches_brute_force(self):
        rng = random.Random(101)
        for _ in range(200):
            dag = random_small_dag(rng)
            assert width_exact(dag) == brute_max_antichain(dag)

    def test_width_approx_lower_bounds_exact(self):
        rng = random.Random(202)
        for _ in range(200):
            dag = random_small_dag(rng)
            m = compute_metrics(dag)
            assert m.width_approx <= m.width_exact

    def test_depth_matches_brute_force(self):
        rng = random.Random(303)
        for _ in range(200):
            dag = random_small_dag(rng)
            assert critical_path_depth(dag) == pytest.approx(brute_critical_depth(dag))

    def test_layers_partition_and_are_antichains(self):
        rng = random.Random(404)
        for _ in range(100):
            dag = random_small_dag(rng)
            layers = topological_layers(dag)
            flat = [vid for layer in layers for vid in layer]
            assert sorted(flat) == sorted(dag.vertex_ids)
            reach = reachability(dag)
            for layer in layers:
                for a in layer:
                    assert not (reach[a] & layer)

    def test_every_edge_crosses_layers_forward(self):
        rng = random.Random(505)
        for _ in range(100):
            dag = random_small_dag(rng)
            layers = topological_layers(dag)
            index = {vid: i for i, layer in enumerate(layers) for vid in layer}
            for u, v in dag.edges:
                assert index[u] < index[v]


class TestWidthModes:
    def test_approximate_mode_reports_layer_width(self):
        dag = make_dag(4, [(0, 2), (1, 2), (1, 3)])
        m = compute_metrics(dag, mode=WidthMode.APPROXIMATE)
        assert m.width_mode is WidthMode.APPROXIMATE
        assert m.width_exact == m.width_approx == 2

    def test_exact_mode_default(self, diamond):
        assert compute_metrics(diamond).width_mode is WidthMode.EXACT


@st.composite
def small_dags(draw, max_n=12):
    """Any DAG on up to max_n vertices, with ids and edges in any order."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    rank = draw(st.permutations(range(n)))
    edges = [(rank[i], rank[j]) for (i, j), k in zip(pairs, keep) if k]
    # the greedy path cover follows edge order, so vary it too
    return make_dag(n, draw(st.permutations(edges)))


@st.composite
def searched_dags(draw):
    """DAGs of 20-200 vertices with a mean out-degree of 1-8, in shuffled
    vertex and edge order.  On such DAGs the layer bound and the greedy cover
    almost never meet (on 98% of draws at degree 1, and on all at 2 and
    above), so the augmenting search runs."""
    n = draw(st.integers(20, 200))
    p = draw(st.floats(1.0, 8.0)) / n
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    rank = list(range(n))
    rng.shuffle(rank)
    edges = [(rank[i], rank[j]) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    rng.shuffle(edges)
    return make_dag(n, edges)


class TestExactWidth:
    @given(small_dags())
    @settings(max_examples=300, deadline=None)
    def test_matches_brute_force(self, dag):
        assert width_exact(dag) == brute_max_antichain(dag)

    @pytest.mark.parametrize(
        "kind, width",
        [
            (ArchetypeKind.CHAIN, 1),
            (ArchetypeKind.WIDE_SHALLOW, 2999),
            (ArchetypeKind.DIAMOND, 2998),
            # the layer bound (2) and the greedy cover (1500) do not meet, so
            # this one builds the closure and runs the augmenting search
            (ArchetypeKind.DEEP_NARROW, 1500),
        ],
    )
    def test_known_widths_at_3000(self, kind, width):
        dag = generate_archetype(DagArchetype(kind, 3000, seed=3))
        assert width_exact(dag) == width

    def test_deep_augmenting_path(self):
        # the augmenting path is deeper than the recursion limit
        assert width_exact(deep_augmenting_dag(1500)) == 1501

    @given(searched_dags())
    @example(deep_augmenting_dag(1500))
    @settings(max_examples=150, deadline=None)
    def test_matches_the_reference(self, dag):
        # a different maximum matching may be found, but never a different size
        assert width_exact(dag) == oracle_width_exact(dag)


class TestCycles:
    """A cycle, or any other violation, makes every metric raise ValidationError."""

    A, B = Subtask("a"), Subtask("b")
    INVALID = {
        # v1 -> v2 -> v1 is a cycle
        "cycle": make_dag(3, [(0, 1), (1, 2), (2, 1)]),
        "dangling_edge": TaskDag((A, B), (("a", "b"), ("a", "zz")), {("a", "b"): 0.3, ("a", "zz"): 0.3}),
        "bad_weight": TaskDag((Subtask("a", weight=-5.0), B), (("a", "b"),), {("a", "b"): 0.3}),
        "missing_coupling": TaskDag((A, B), (("a", "b"),), {}),
    }

    @pytest.mark.parametrize("case", sorted(INVALID))
    @pytest.mark.parametrize(
        "metric",
        [width_exact, critical_path_depth, topological_layers, compute_metrics],
        ids=lambda f: f.__name__,
    )
    def test_invalid_dag_raises(self, metric, case):
        dag = self.INVALID[case]
        with pytest.raises(ValidationError) as ei:
            metric(dag)
        assert ei.value.report.violations == validate_dag(dag).violations
        assert case in {v.kind for v in ei.value.report.violations}


class TestIndex:
    @given(small_dags())
    @settings(max_examples=200, deadline=None)
    def test_matches_edges_and_brute_force_levels(self, dag):
        index = dag.index
        assert sorted(index.order) == sorted(dag.vertex_ids)
        for u, v in dag.edges:
            assert index.position[u] < index.position[v]
        levels = brute_levels(dag)
        depth = max(levels.values())
        expected = [sorted(vid for vid in levels if levels[vid] == lv) for lv in range(1, depth + 1)]
        assert index.layers == expected
        for vid in dag.vertex_ids:
            assert dag.predecessors(vid) == [u for u, v in dag.edges if v == vid]

    def test_built_once_per_dag(self, diamond, validations):
        assert diamond.index is diamond.index
        assert len(validations) == 1
        cut = dataclasses.replace(diamond, edges=diamond.edges[:2])
        assert cut.index is not diamond.index
        assert cut.index.layers == [["v0", "v3"], ["v1", "v2"]]
        assert validations == [diamond, cut]
