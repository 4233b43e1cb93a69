import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topoflow.archetypes import (
    COUPLING_LEVELS,
    WEIGHT_RANGE,
    ArchetypeKind,
    DagArchetype,
    generate_archetype,
    random_dag,
)
from topoflow.dag import validate_dag
from topoflow.metrics import compute_metrics

from conftest import oracle_generate_archetype


class TestShapes:
    def test_chain(self):
        dag = generate_archetype(DagArchetype(ArchetypeKind.CHAIN, 5, seed=1))
        m = compute_metrics(dag)
        assert m.width_exact == 1
        assert dag.edge_count == 4

    def test_wide_shallow(self):
        dag = generate_archetype(DagArchetype(ArchetypeKind.WIDE_SHALLOW, 9, seed=1))
        m = compute_metrics(dag)
        assert m.width_exact == 8
        assert dag.edge_count == 8

    def test_diamond(self):
        dag = generate_archetype(DagArchetype(ArchetypeKind.DIAMOND, 6, seed=1))
        m = compute_metrics(dag)
        assert m.width_exact == 4  # four middle vertices
        assert dag.edge_count == 8

    def test_deep_narrow(self):
        dag = generate_archetype(DagArchetype(ArchetypeKind.DEEP_NARROW, 8, seed=1))
        m = compute_metrics(dag)
        assert validate_dag(dag).ok
        assert 1 < m.width_exact < 8

    def test_diamond_too_small(self):
        with pytest.raises(ValueError):
            generate_archetype(DagArchetype(ArchetypeKind.DIAMOND, 2, seed=0))

    def test_size_must_be_positive(self):
        with pytest.raises(ValueError):
            generate_archetype(DagArchetype(ArchetypeKind.CHAIN, 0, seed=0))


class TestRandomness:
    @pytest.mark.parametrize("kind", list(ArchetypeKind))
    def test_seed_reproducibility(self, kind):
        spec = DagArchetype(kind, 6, seed=42)
        a, b = generate_archetype(spec), generate_archetype(spec)
        assert a.vertices == b.vertices
        assert a.coupling == b.coupling

    def test_seed_sensitivity(self):
        a = generate_archetype(DagArchetype(ArchetypeKind.CHAIN, 6, seed=1))
        b = generate_archetype(DagArchetype(ArchetypeKind.CHAIN, 6, seed=2))
        assert a.vertices != b.vertices

    @pytest.mark.parametrize("kind", list(ArchetypeKind))
    def test_weight_and_coupling_ranges(self, kind):
        dag = generate_archetype(DagArchetype(kind, 7, seed=3))
        lo, hi = WEIGHT_RANGE
        for v in dag.vertices:
            assert lo <= v.weight <= hi
        for c in dag.coupling.values():
            assert c in COUPLING_LEVELS

    def test_uniform_weights(self):
        dag = generate_archetype(
            DagArchetype(ArchetypeKind.WIDE_SHALLOW, 9, seed=4), uniform_weights=True
        )
        assert {v.weight for v in dag.vertices} == {500.0}


class TestRandomDag:
    def test_always_valid(self):
        for seed in range(20):
            dag = random_dag(12, 0.3, seed)
            assert validate_dag(dag).ok

    def test_reproducible(self):
        assert random_dag(10, 0.25, 9).edges == random_dag(10, 0.25, 9).edges

    def test_density_extremes(self):
        assert random_dag(6, 0.0, 0).edge_count == 0
        assert random_dag(6, 1.0, 0).edge_count == 15


@settings(max_examples=200, deadline=None)
@given(
    kind=st.sampled_from(list(ArchetypeKind)),
    size=st.integers(-1, 30),
    seed=st.integers(-(2**40), 2**40),
    uniform=st.booleans(),
)
def test_generate_matches_the_reference(kind, size, seed, uniform):
    spec = DagArchetype(kind, size, seed=seed)
    try:
        want = oracle_generate_archetype(spec, uniform_weights=uniform)
    except ValueError as exc:
        with pytest.raises(ValueError, match=str(exc)):
            generate_archetype(spec, uniform_weights=uniform)
        return
    assert repr(generate_archetype(spec, uniform_weights=uniform)) == repr(want)
