import math
import random

import pytest

from topoflow.metrics import WidthMode, compute_metrics, topological_layers
from topoflow.routing import (
    FiredRule,
    RouterConfig,
    TopologyKind,
    calibrate_gamma,
    route,
    split_dev_test,
)

from conftest import make_dag, random_small_dag


def reference_route(dag, config):
    """Independent straight-line transcription of the routing rules."""
    m = compute_metrics(dag, mode=WidthMode.EXACT)
    omega = m.width_exact if config.width_mode is WidthMode.EXACT else m.width_approx
    gamma = m.coupling_density
    n = m.vertex_count
    if m.edge_count == 0:
        return TopologyKind.PARALLEL
    if omega == 1:
        return TopologyKind.SEQUENTIAL
    if gamma > config.theta_gamma and n > config.theta_delta:
        return TopologyKind.HIERARCHICAL
    if omega / n > config.theta_omega and gamma <= config.theta_gamma:
        return TopologyKind.PARALLEL
    return TopologyKind.HYBRID


class TestForcedBranches:
    def test_empty_edge_set_parallel(self, isolated4):
        d = route(isolated4)
        assert d.topology is TopologyKind.PARALLEL
        assert d.fired_rule is FiredRule.EMPTY_EDGE_SET

    def test_width_one_sequential(self, chain3):
        d = route(chain3)
        assert d.topology is TopologyKind.SEQUENTIAL
        assert d.fired_rule is FiredRule.WIDTH_ONE

    def test_high_coupling_hierarchical(self):
        # 6 vertices > theta_delta=5, all-critical coupling gamma=1.0 > 0.6
        dag = make_dag(6, [(0, i) for i in range(1, 6)], default_coupling=1.0)
        d = route(dag)
        assert d.topology is TopologyKind.HIERARCHICAL
        assert d.fired_rule is FiredRule.HIGH_COUPLING

    def test_wide_low_coupling_parallel(self):
        # omega=8 of 9 -> r~0.89 > 0.5, gamma=0.3 <= 0.6
        dag = make_dag(9, [(0, i) for i in range(1, 9)], default_coupling=0.3)
        d = route(dag)
        assert d.topology is TopologyKind.PARALLEL
        assert d.fired_rule is FiredRule.WIDE_LOW_COUPLING

    def test_hybrid_default_diamond(self, diamond):
        d = route(diamond)
        assert d.topology is TopologyKind.HYBRID
        assert d.fired_rule is FiredRule.HYBRID_DEFAULT
        assert [sorted(s) for s in d.stages] == [["v0"], ["v1", "v2"], ["v3"]]

    def test_strict_comparisons_at_thresholds(self):
        # gamma exactly at theta_gamma must NOT fire hierarchical; r exactly
        # at theta_omega must NOT fire wide-parallel.
        dag = make_dag(6, [(0, i) for i in range(1, 6)], default_coupling=0.6)
        d = route(dag)  # gamma == 0.6 not > 0.6; r = 5/6 > 0.5 and gamma <= 0.6
        assert d.topology is TopologyKind.PARALLEL
        dag2 = make_dag(4, [(0, 1), (0, 2), (1, 3), (2, 3)], default_coupling=0.3)
        d2 = route(dag2)  # omega=2, r = 0.5 not > 0.5 -> hybrid
        assert d2.topology is TopologyKind.HYBRID


class TestAgainstReference:
    def test_random_dags_match_transcription(self):
        rng = random.Random(77)
        config = RouterConfig(width_mode=WidthMode.EXACT)
        for _ in range(300):
            dag = random_small_dag(rng)
            assert route(dag, config).topology is reference_route(dag, config)

    def test_gamma_override(self, diamond):
        dag = make_dag(6, [(0, i) for i in range(1, 6)], default_coupling=0.3)
        assert route(dag).topology is TopologyKind.PARALLEL
        forced = route(dag, gamma_override=0.9)
        assert forced.topology is TopologyKind.HIERARCHICAL
        assert forced.gamma_used == 0.9

    def test_hybrid_stages_are_layers(self):
        rng = random.Random(88)
        for _ in range(100):
            dag = random_small_dag(rng)
            d = route(dag)
            if d.topology is TopologyKind.HYBRID:
                expected = [frozenset(s) for s in topological_layers(dag)]
                assert [frozenset(s) for s in d.stages] == expected
            else:
                assert d.stages is None


class TestRouterConfig:
    def test_round_trip(self):
        cfg = RouterConfig(theta_omega=0.4, theta_gamma=0.7, theta_delta=3)
        assert RouterConfig.from_dict(cfg.to_dict()) == cfg

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"theta_omega": 0.0},
            {"theta_omega": 1.5},
            {"theta_gamma": -0.1},
            {"theta_gamma": 1.1},
            {"theta_delta": 0},
        ],
    )
    def test_rejects_out_of_range(self, kwargs):
        with pytest.raises(ValueError):
            RouterConfig(**kwargs)

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"theta_gama": 0.5}, "unknown router config key(s): theta_gama"),
            ({"theta_delta": "5"}, "theta_delta must be a number, got '5'"),
            ({"theta_omega": True}, "theta_omega must be a number, got True"),
            ({"theta_delta": float("nan")}, "theta_delta nan must be positive"),
            ([0.5], "router config must be a JSON object, got [0.5]"),
        ],
    )
    def test_from_dict_rejects_what_it_cannot_take(self, doc, message):
        with pytest.raises(ValueError) as exc:
            RouterConfig.from_dict(doc)
        assert str(exc.value) == message


class TestSplitDevTest:
    def test_example_sizes(self):
        ids = [f"t{i}" for i in range(500)]
        dev, test = split_dev_test(ids, 0.15, seed=42)
        assert len(dev) == 75 and len(test) == 425
        ids2 = [f"t{i}" for i in range(198)]
        dev2, _ = split_dev_test(ids2, 0.15, seed=42)
        assert len(dev2) == math.ceil(0.15 * 198) == 30

    def test_partition_and_reproducibility(self):
        ids = [f"t{i}" for i in range(50)]
        dev, test = split_dev_test(ids, 0.2, seed=7)
        assert sorted(dev + test) == sorted(ids)
        assert not set(dev) & set(test)
        assert split_dev_test(ids, 0.2, seed=7) == (dev, test)
        assert split_dev_test(ids, 0.2, seed=8) != (dev, test)

    def test_fraction_bounds(self):
        with pytest.raises(ValueError):
            split_dev_test(["a"], 0.0, seed=1)
        with pytest.raises(ValueError):
            split_dev_test(["a"], 1.0, seed=1)


def _scored(dag, preferred):
    scores = {k: 0.5 for k in TopologyKind}
    scores[preferred] = 1.0
    return dag, scores


class TestCalibration:
    def test_picks_best_candidate(self):
        # A gamma-0.65 star of 6 vertices routes hierarchical only when
        # theta_gamma < 0.65; reward hierarchical so low candidates win.
        dag = make_dag(6, [(0, i) for i in range(1, 6)], default_coupling=0.7)
        dev = [_scored(dag, TopologyKind.HIERARCHICAL)]
        chosen, table = calibrate_gamma(dev)
        assert chosen == 0.6  # 0.3..0.6 all tie at 1.0; tie-break prefers 0.6
        assert table[0.6] == 1.0 and table[0.7] == 0.5

    def test_tie_break_prefers_default_then_larger(self):
        dag = make_dag(3, [(0, 1), (1, 2)])  # chain: routing ignores theta_gamma
        dev = [_scored(dag, TopologyKind.SEQUENTIAL)]
        chosen, table = calibrate_gamma(dev)
        assert len(set(table.values())) == 1
        assert chosen == 0.6
        chosen2, _ = calibrate_gamma(dev, grid=(0.3, 0.4, 0.5))
        assert chosen2 == 0.5

    def test_empty_inputs(self):
        with pytest.raises(ValueError):
            calibrate_gamma([])

