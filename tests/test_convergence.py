import math
import random
import statistics
import struct
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from topoflow import convergence
from topoflow.archetypes import ArchetypeKind, DagArchetype
from topoflow.convergence import (
    BoundDiverges,
    ConvergenceParams,
    OracleError,
    SimConfig,
    _variance,
    assumption_one_qualities,
    confusion_matrix,
    format_confusion_matrix,
    make_calibration_corpus,
    model_variance_bound,
    oracle_route,
    simulate_variance,
    variance_ratio_bound,
)
from topoflow.metrics import WidthMode, compute_metrics
from topoflow.routing import TOPOLOGY_ORDER, RouterConfig, TopologyKind

from conftest import (
    make_dag,
    oracle_assumption_one_qualities,
    oracle_simulate_variance,
    oracle_variance_ratio_bound,
    random_small_dag,
)


def bound(omega, gamma, k, eps):
    return variance_ratio_bound(ConvergenceParams(epsilon=eps, omega=omega, gamma=gamma, k=k))


class TestVarianceRatioBound:
    def test_reference_values(self):
        # oracle recomputation: (w-1)^2 (1-g)^2 / (4 e^2 k)
        assert bound(3.4, 0.35, 5, 0.05) == pytest.approx(
            (2.4**2) * (0.65**2) / (4 * 0.0025 * 5)
        )
        assert bound(3.4, 0.35, 5, 0.05) == pytest.approx(48.672, abs=1e-9)
        assert bound(3.0, 0.4, 6, 0.05) == pytest.approx(24.0)

    def test_epsilon_zero_diverges(self):
        with pytest.raises(BoundDiverges):
            bound(3.0, 0.4, 6, 0.0)

    def test_omega_one_gives_zero(self):
        assert bound(1.0, 0.3, 4, 0.05) == 0.0

    def test_gamma_one_gives_zero(self):
        assert bound(3.0, 1.0, 4, 0.05) == 0.0

    @pytest.mark.parametrize(
        "omega, gamma, k, eps, want",
        [
            (3, 0, 1, 1e-200, math.inf),  # eps**2 underflows to 0
            (1e308, 0, 1, 1e-300, math.inf),  # (omega - 1)**2 overflows
            (1, 0.3, 4, 1e-200, 0.0),  # a zero numerator stays zero
            (3, 1.0, 4, 1e-200, 0.0),
            (1e308, 0, 1, 1e300, 2.5e15),  # both squares overflow, the bound does not
            (3, 0, 10**400, 0.5, 0.0),  # k beyond the float range
        ],
    )
    def test_out_of_float_range_terms_give_the_rounded_bound(self, omega, gamma, k, eps, want):
        assert bound(omega, gamma, k, eps) == pytest.approx(want)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"epsilon": -0.1, "omega": 2, "gamma": 0.5, "k": 3},
            {"epsilon": 0.1, "omega": 0.5, "gamma": 0.5, "k": 3},
            {"epsilon": 0.1, "omega": 2, "gamma": 1.5, "k": 3},
            {"epsilon": 0.1, "omega": 2, "gamma": 0.5, "k": 0},
            {"epsilon": math.nan, "omega": 2, "gamma": 0.5, "k": 3},
            {"epsilon": math.inf, "omega": 2, "gamma": 0.5, "k": 3},
            {"epsilon": 0.1, "omega": math.nan, "gamma": 0.5, "k": 3},
            {"epsilon": 0.1, "omega": math.inf, "gamma": 0.5, "k": 3},
        ],
    )
    def test_param_validation(self, kwargs):
        with pytest.raises(ValueError):
            ConvergenceParams(**kwargs)

    def test_model_variance_bound(self):
        assert model_variance_bound(0.05) == pytest.approx(0.0025)
        with pytest.raises(ValueError):
            model_variance_bound(-1)


class TestQualityModel:
    def test_chain_prefers_sequential(self):
        chain = make_dag(4, [(0, 1), (1, 2), (2, 3)], default_coupling=0.7)
        q = assumption_one_qualities(chain)
        # omega = 1 so the gap vanishes; the context-loss term breaks the tie
        assert max(q, key=q.get) is TopologyKind.SEQUENTIAL
        assert q[TopologyKind.SEQUENTIAL] == 0.9

    def test_wide_low_coupling_prefers_parallel(self):
        star = make_dag(9, [(0, i) for i in range(1, 9)], default_coupling=0.0)
        q = assumption_one_qualities(star)
        assert max(q, key=q.get) is TopologyKind.PARALLEL

    def test_high_coupling_penalizes_parallel(self):
        star = make_dag(9, [(0, i) for i in range(1, 9)], default_coupling=1.0)
        q = assumption_one_qualities(star)
        assert q[TopologyKind.PARALLEL] < q[TopologyKind.SEQUENTIAL]


def _outcome(fn, *args, **kwargs):
    """The repr of ``fn``'s result, or the type of what it raises."""
    try:
        return repr(fn(*args, **kwargs))
    except Exception as exc:
        return type(exc)


# gamma = 0.5 takes the parallel quality's other branch; omega = 1 zeroes the
# gap and 1e308 squares past the float range; epsilon = 1e-200 squares to 0
OMEGAS = st.one_of(st.sampled_from([1, 1.0, 1e308]), st.integers(1, 10**6), st.floats(1.0, 1e308))
GAMMAS = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0))


class TestReferenceFormulas:
    """The quality model and the bound against the written-out copies in conftest."""

    @settings(max_examples=300, deadline=None)
    @given(
        dag_seed=st.integers(0, 2**32 - 1),
        base=st.one_of(st.just(convergence.S_STAR), st.floats(0.0, 1.0)),
        omega=OMEGAS,
        gamma=GAMMAS,
        depth=st.one_of(st.just(0.0), st.floats(0.0, 1e4)),
        with_metrics=st.booleans(),
    )
    @example(dag_seed=0, base=0.9, omega=3, gamma=0.5, depth=2.0, with_metrics=True)
    @example(dag_seed=0, base=0.9, omega=1e308, gamma=0.0, depth=0.0, with_metrics=True)
    @example(dag_seed=0, base=0.9, omega=1, gamma=1.0, depth=1.0, with_metrics=True)
    def test_qualities_match_the_reference(self, dag_seed, base, omega, gamma, depth, with_metrics):
        dag = random_small_dag(random.Random(dag_seed))
        if with_metrics:
            m = replace(compute_metrics(dag, mode=WidthMode.EXACT), width_exact=omega, coupling_density=gamma, depth=depth)
            got = _outcome(assumption_one_qualities, dag, base=base, metrics=m)
            want = _outcome(oracle_assumption_one_qualities, dag, base=base, metrics=m)
        else:
            got = _outcome(assumption_one_qualities, dag, base=base)
            want = _outcome(oracle_assumption_one_qualities, dag, base=base)
        assert got == want

    def test_qualities_of_half_coupled_edges(self):
        # two edges coupled 0.3 and 0.7 average to exactly 0.5
        star = make_dag(3, [(0, 1), (0, 2)], couplings=[0.3, 0.7])
        assert compute_metrics(star).coupling_density == 0.5
        assert repr(assumption_one_qualities(star)) == repr(oracle_assumption_one_qualities(star))

    @settings(max_examples=300, deadline=None)
    @given(
        epsilon=st.one_of(st.sampled_from([0.0, -0.0, 1e-200, 5e-324, 0.05]), st.floats(0.0, 1e300)),
        omega=OMEGAS,
        gamma=GAMMAS,
        k=st.one_of(st.integers(1, 10**6), st.just(10**400)),
    )
    @example(epsilon=0.0, omega=3, gamma=0.4, k=6)
    @example(epsilon=1e-200, omega=3, gamma=0.0, k=1)
    @example(epsilon=1e-300, omega=1e308, gamma=0.0, k=1)
    def test_bound_matches_the_reference(self, epsilon, omega, gamma, k):
        p = ConvergenceParams(epsilon=epsilon, omega=omega, gamma=gamma, k=k)
        assert _outcome(variance_ratio_bound, p) == _outcome(oracle_variance_ratio_bound, p)


class TestOracleRoute:
    def test_argmax(self, diamond):
        def evaluator(dag):
            return {
                TopologyKind.PARALLEL: 0.1,
                TopologyKind.SEQUENTIAL: 0.2,
                TopologyKind.HIERARCHICAL: 0.9,
                TopologyKind.HYBRID: 0.3,
            }

        best, scores = oracle_route(diamond, evaluator)
        assert best is TopologyKind.HIERARCHICAL
        assert set(scores) == set(TOPOLOGY_ORDER)

    def test_tie_break_order(self, diamond):
        best, _ = oracle_route(diamond, lambda d: {k: 0.5 for k in TOPOLOGY_ORDER})
        assert best is TopologyKind.PARALLEL
        best2, _ = oracle_route(
            diamond,
            lambda d: {
                k: (0.9 if k in (TopologyKind.SEQUENTIAL, TopologyKind.HYBRID) else 0.1)
                for k in TOPOLOGY_ORDER
            },
        )
        assert best2 is TopologyKind.SEQUENTIAL

    def test_chain_example_sequential(self):
        chain = make_dag(4, [(0, 1), (1, 2), (2, 3)], default_coupling=0.7)
        best, _ = oracle_route(chain, assumption_one_qualities)
        assert best is TopologyKind.SEQUENTIAL

    def test_evaluator_failures_wrapped(self, diamond):
        with pytest.raises(OracleError):
            oracle_route(diamond, lambda d: 1 / 0)
        with pytest.raises(OracleError):
            oracle_route(diamond, lambda d: {TopologyKind.PARALLEL: 1.0})


class TestConfusionMatrix:
    def test_perfect_agreement_with_aligned_evaluator(self):
        tasks = [
            make_dag(4, []),  # parallel (empty edges)
            make_dag(3, [(0, 1), (1, 2)]),  # sequential (width 1)
            make_dag(6, [(0, i) for i in range(1, 6)], default_coupling=1.0),  # hierarchical
            make_dag(4, [(0, 1), (0, 2), (1, 3), (2, 3)], default_coupling=0.3),  # hybrid
        ]
        from topoflow.routing import route

        def aligned(dag):
            routed = route(dag, RouterConfig()).topology
            return {k: (1.0 if k is routed else 0.0) for k in TOPOLOGY_ORDER}

        cm = confusion_matrix(tasks, RouterConfig(), aligned)
        assert cm.accuracy == 1.0
        assert cm.total == 4
        for k in TOPOLOGY_ORDER:
            assert sum(cm.counts[k][o] for o in TOPOLOGY_ORDER if o is not k) == 0

    def test_formatting_shape(self, diamond):
        cm = confusion_matrix([diamond], RouterConfig(), assumption_one_qualities)
        text = format_confusion_matrix(cm)
        lines = text.splitlines()
        assert len(lines) == 6  # header + 4 rows + accuracy
        assert lines[0].startswith("router \\ oracle")
        assert "accuracy" in lines[-1]

    def test_empty_tasks(self):
        with pytest.raises(ValueError):
            confusion_matrix([], RouterConfig(), assumption_one_qualities)


class TestSimulation:
    def test_small_run_satisfies_bound(self):
        cfg = SimConfig(
            archetype=DagArchetype(ArchetypeKind.DIAMOND, 6),
            epsilon=0.05,
            trials=50,
            seed=42,
        )
        res = simulate_variance(cfg)
        assert res.trials == 50
        assert len(res.rows) == 50
        assert res.var_model <= 1.1 * 0.05**2
        assert res.ratio >= res.bound
        assert res.summary()["satisfies_bound"]

    def test_reproducible(self):
        cfg = SimConfig(
            archetype=DagArchetype(ArchetypeKind.WIDE_SHALLOW, 6), epsilon=0.02, trials=20
        )
        assert simulate_variance(cfg).summary() == simulate_variance(cfg).summary()

    def test_metrics_computed_once_per_call(self, monkeypatch):
        compute, generate = convergence.compute_metrics, convergence.generate_archetype
        calls, shapes = [], []
        monkeypatch.setattr(
            convergence, "compute_metrics", lambda dag, **kw: calls.append(dag) or compute(dag, **kw)
        )
        monkeypatch.setattr(
            convergence, "generate_archetype", lambda spec, **kw: shapes.append(spec) or generate(spec, **kw)
        )
        cfg = SimConfig(archetype=DagArchetype(ArchetypeKind.DIAMOND, 6), epsilon=0.05, trials=5)
        simulate_variance(cfg)
        assert len(calls) == 1
        assert len(shapes) == 1

    def test_per_call_work_stays_out_of_the_trials(self, monkeypatch):
        params, qualities = [], []
        build, model = convergence.ConvergenceParams, convergence.assumption_one_qualities
        monkeypatch.setattr(convergence, "ConvergenceParams", lambda **kw: params.append(kw) or build(**kw))
        monkeypatch.setattr(
            convergence, "assumption_one_qualities", lambda *a, **kw: qualities.append(a) or model(*a, **kw)
        )
        cfg = SimConfig(archetype=DagArchetype(ArchetypeKind.DIAMOND, 6), epsilon=0.05, trials=50)
        assert len(simulate_variance(cfg).rows) == 50
        assert params == []  # nothing of the bound's checks can fail here
        assert qualities == []

    @settings(max_examples=150, deadline=None)
    @given(
        kind=st.sampled_from(list(ArchetypeKind)),
        size=st.integers(1, 30),
        seed=st.one_of(st.integers(0, 2**31 - 1), st.integers(-5, 5)),
        epsilon=st.one_of(st.sampled_from([0.0, 0.01, 0.05]), st.floats(1e-6, 0.5)),
        trials=st.integers(1, 5),
    )
    @example(kind=ArchetypeKind.DIAMOND, size=6, seed=0, epsilon=0.0, trials=3)
    @example(kind=ArchetypeKind.CHAIN, size=1, seed=2**31 - 1, epsilon=0.05, trials=2)
    def test_matches_the_reference(self, kind, size, seed, epsilon, trials):
        cfg = SimConfig(archetype=DagArchetype(kind, size), epsilon=epsilon, trials=trials, seed=seed)
        try:
            want = oracle_simulate_variance(cfg)
        except ValueError as exc:
            with pytest.raises(ValueError, match=str(exc)):
                simulate_variance(cfg)
            return
        got = simulate_variance(cfg)
        assert repr(got.rows) == repr(want.rows)
        assert repr(got.summary()) == repr(want.summary())

    def test_statistics_variance_not_called_on_finite_inputs(self, monkeypatch):
        def fail(data):
            raise AssertionError(f"statistics.variance called on {data}")

        monkeypatch.setattr(convergence.statistics, "variance", fail)
        for kind in ArchetypeKind:
            cfg = SimConfig(archetype=DagArchetype(kind, 6), epsilon=0.05, trials=5)
            assert len(simulate_variance(cfg).rows) == 5

    def test_metadata_declares_model(self):
        cfg = SimConfig(archetype=DagArchetype(ArchetypeKind.DIAMOND, 5), epsilon=0.05, trials=5)
        res = simulate_variance(cfg)
        assert res.metadata["quality_model"] == "assumption_one"

    def test_config_validation(self):
        arch = DagArchetype(ArchetypeKind.CHAIN, 4)
        with pytest.raises(ValueError):
            SimConfig(archetype=arch, epsilon=0.05, trials=0)

    @pytest.mark.parametrize("epsilon", [-0.1, math.nan, math.inf])
    def test_epsilon_must_be_finite_and_non_negative(self, epsilon):
        with pytest.raises(ValueError):
            SimConfig(archetype=DagArchetype(ArchetypeKind.CHAIN, 4), epsilon=epsilon)


# every finite float shape: zeros of both signs, subnormals, the extremes,
# random bit patterns, and values near the simulator's S* = 0.9
SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
           -1.7976931348623157e308, 1e154, 1.0, 0.9]
finite = st.one_of(
    st.sampled_from(SPECIAL),
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(0, 2**64 - 1).map(lambda b: struct.unpack("<d", struct.pack("<Q", b))[0]).filter(math.isfinite),
    st.floats(0.8, 0.9),
)


class TestExactVariance:
    @settings(max_examples=500, deadline=None)
    @given(st.lists(finite, min_size=2, max_size=10))
    @example([1e308, -1e308])  # the exact variance overflows a float: both raise OverflowError
    @example([5e-324, 0.0])
    @example([-0.0, -0.0])
    @example([0.9 - 0.05 * k / 7 for k in range(5)])
    def test_same_float_as_statistics(self, values):
        assert _outcome(_variance, values) == _outcome(statistics.variance, values)

    def test_overflow_raises_like_statistics(self):
        with pytest.raises(OverflowError):
            _variance([1e308, -1e308])
        with pytest.raises(OverflowError):
            statistics.variance([1e308, -1e308])

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(finite, st.sampled_from([math.inf, -math.inf, math.nan])), min_size=2, max_size=6)
           .filter(lambda xs: not all(map(math.isfinite, xs))))
    def test_non_finite_input_falls_back(self, values):
        assert _outcome(_variance, values) == _outcome(statistics.variance, values)

    @pytest.mark.parametrize("values", [[], [0.5]])
    def test_fewer_than_two_values_fall_back(self, values):
        with pytest.raises(statistics.StatisticsError):
            _variance(values)


class TestCalibrationCorpus:
    def test_shape_and_reproducibility(self):
        corpus = make_calibration_corpus(12, seed=42)
        assert len(corpus) == 12
        for dag, scores in corpus:
            assert set(scores) == set(TOPOLOGY_ORDER)
        again = make_calibration_corpus(12, seed=42)
        assert [d.edges for d, _ in corpus] == [d.edges for d, _ in again]
