"""Threshold-based topology routing plus dev-split threshold calibration.

The router maps DAG structural metrics to one of four canonical topologies:

* Parallel      - every subtask concurrent, outputs merged post-hoc
* Sequential    - topological order, each subtask sees prior context
* Hierarchical  - lead agent delegates to sub-agents and reconciles
* Hybrid        - topological layers run in parallel, layers in sequence

Branch order and strict comparisons are load-bearing: the empty-edge and
width-one cases are forced, high coupling with many subtasks goes
hierarchical, wide low-coupling DAGs go parallel, everything else hybrid.
"""

from __future__ import annotations

import enum
import math
import random
import time
from dataclasses import dataclass, fields

from .dag import _NUMBER_TYPES, ParseError, TaskDag, ingest
from .metrics import DagMetrics, WidthMode, compute_metrics

DEFAULT_THETA_OMEGA = 0.5
DEFAULT_THETA_GAMMA = 0.6
DEFAULT_THETA_DELTA = 5

CALIBRATION_GRID = (0.3, 0.4, 0.5, 0.6, 0.7, 0.8)


class TopologyKind(enum.Enum):
    PARALLEL = "parallel"
    SEQUENTIAL = "sequential"
    HIERARCHICAL = "hierarchical"
    HYBRID = "hybrid"


TOPOLOGY_ORDER = tuple(TopologyKind)


class FiredRule(enum.Enum):
    EMPTY_EDGE_SET = "empty_edge_set"
    WIDTH_ONE = "width_one"
    HIGH_COUPLING = "high_coupling_many_subtasks"
    WIDE_LOW_COUPLING = "wide_low_coupling"
    HYBRID_DEFAULT = "hybrid_default"


@dataclass(frozen=True)
class RouterConfig:
    theta_omega: float = DEFAULT_THETA_OMEGA
    theta_gamma: float = DEFAULT_THETA_GAMMA
    theta_delta: int = DEFAULT_THETA_DELTA
    width_mode: WidthMode = WidthMode.APPROXIMATE

    def __post_init__(self):
        for name in ("theta_omega", "theta_gamma", "theta_delta"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError(f"{name} must be a number, got {value!r}")
        if not (0.0 < self.theta_omega <= 1.0):
            raise ValueError(f"theta_omega {self.theta_omega} out of (0, 1]")
        if not (0.0 <= self.theta_gamma <= 1.0):
            raise ValueError(f"theta_gamma {self.theta_gamma} out of [0, 1]")
        if not self.theta_delta >= 1:
            raise ValueError(f"theta_delta {self.theta_delta} must be positive")

    @classmethod
    def from_dict(cls, doc: dict) -> "RouterConfig":
        """The config a JSON object names; ``ValueError`` on any key or value it cannot take."""
        if not isinstance(doc, dict):
            raise ValueError(f"router config must be a JSON object, got {doc!r}")
        unknown = sorted(set(doc) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown router config key(s): {', '.join(unknown)}")
        kwargs = dict(doc)
        if "width_mode" in kwargs:
            kwargs["width_mode"] = WidthMode(kwargs["width_mode"])
        return cls(**kwargs)

    def to_dict(self) -> dict:
        return {
            "theta_omega": self.theta_omega,
            "theta_gamma": self.theta_gamma,
            "theta_delta": self.theta_delta,
            "width_mode": self.width_mode.value,
        }


@dataclass(frozen=True)
class RoutingDecision:
    topology: TopologyKind
    metrics: DagMetrics
    fired_rule: FiredRule
    elapsed: float  # seconds
    gamma_used: float
    # for the record only: the DAG's longest-path layers when the route is hybrid
    stages: tuple[tuple[str, ...], ...] | None = None

    def to_record(self) -> dict:
        return {
            "topology": self.topology.value,
            "stages": [list(s) for s in self.stages] if self.stages else None,
            "fired_rule": self.fired_rule.value,
            "gamma_used": self.gamma_used,
            "metrics": {
                "width_exact": self.metrics.width_exact,
                "width_approx": self.metrics.width_approx,
                "depth": self.metrics.depth,
                "coupling_density": self.metrics.coupling_density,
                "parallelism_ratio": self.metrics.parallelism_ratio,
                "vertex_count": self.metrics.vertex_count,
                "edge_count": self.metrics.edge_count,
                "width_mode": self.metrics.width_mode.value,
            },
        }


def route(
    dag: TaskDag,
    config: RouterConfig | None = None,
    *,
    gamma_override: float | None = None,
) -> RoutingDecision:
    """Route a valid DAG to its execution topology.

    ``gamma_override`` substitutes the coupling density used by the decision
    (the synthesis retry path raises it in 0.2 steps) without touching the
    DAG's own edge couplings.
    """
    config = config or RouterConfig()
    start = time.perf_counter()
    metrics = compute_metrics(dag, mode=config.width_mode)
    gamma = metrics.coupling_density if gamma_override is None else gamma_override

    if metrics.edge_count == 0:
        topology, rule = TopologyKind.PARALLEL, FiredRule.EMPTY_EDGE_SET
    elif metrics.width_exact == 1:
        topology, rule = TopologyKind.SEQUENTIAL, FiredRule.WIDTH_ONE
    elif gamma > config.theta_gamma and metrics.vertex_count > config.theta_delta:
        topology, rule = TopologyKind.HIERARCHICAL, FiredRule.HIGH_COUPLING
    elif metrics.parallelism_ratio > config.theta_omega and gamma <= config.theta_gamma:
        topology, rule = TopologyKind.PARALLEL, FiredRule.WIDE_LOW_COUPLING
    else:
        topology, rule = TopologyKind.HYBRID, FiredRule.HYBRID_DEFAULT
    stages = tuple(map(tuple, dag.index.layers)) if topology is TopologyKind.HYBRID else None

    elapsed = time.perf_counter() - start
    return RoutingDecision(
        topology=topology,
        metrics=metrics,
        fired_rule=rule,
        elapsed=elapsed,
        gamma_used=gamma,
        stages=stages,
    )


def split_dev_test(tasks: list, fraction: float, seed: int) -> tuple[list, list]:
    """Seeded split by position: ceil(fraction * n) tasks become dev, the
    rest test, each in the given order."""
    if not (0.0 < fraction < 1.0):
        raise ValueError(f"fraction {fraction} out of (0, 1)")
    n_dev = math.ceil(fraction * len(tasks))
    rng = random.Random(seed)
    dev_ix = set(rng.sample(range(len(tasks)), n_dev))
    dev = [task for i, task in enumerate(tasks) if i in dev_ix]
    test = [task for i, task in enumerate(tasks) if i not in dev_ix]
    return dev, test


def calibration_task(doc) -> tuple[TaskDag, dict[TopologyKind, float]]:
    """A calibration task from its JSON document: a ``dag`` in either
    ingestible form and a ``scores`` object with a finite number for every
    topology.  Raises :class:`ParseError` when the document is malformed."""
    if not isinstance(doc, dict) or "dag" not in doc or not isinstance(doc.get("scores"), dict):
        raise ParseError("a calibration task needs a 'dag' and a 'scores' object")
    dag = ingest(doc["dag"])
    scores = {}
    try:
        for k, v in doc["scores"].items():
            if type(v) not in _NUMBER_TYPES or not math.isfinite(v):  # an int past the float range overflows
                raise ValueError(f"{k!r} score {v!r} is not a finite number")
            scores[TopologyKind(k)] = float(v)
    except (ValueError, OverflowError) as exc:
        raise ParseError(f"bad calibration score: {exc}") from exc
    missing = [k.value for k in TopologyKind if k not in scores]
    if missing:
        raise ParseError(f"calibration task has no score for {', '.join(missing)}")
    return dag, scores


def calibrate_gamma(
    dev_tasks: list[tuple[TaskDag, dict[TopologyKind, float]]],
    grid: tuple[float, ...] = CALIBRATION_GRID,
) -> tuple[float, dict[float, float]]:
    """Grid-search theta_gamma on dev tasks with per-topology quality scores.

    Each candidate routes every dev task and averages the quality of the
    routed topology.  Ties break toward ``DEFAULT_THETA_GAMMA``, then the
    larger candidate.
    """
    if not dev_tasks:
        raise ValueError("dev_tasks must be nonempty")
    if not grid:
        raise ValueError("grid must be nonempty")
    table: dict[float, float] = {}
    for candidate in grid:
        cfg = RouterConfig(theta_gamma=candidate)
        total = 0.0
        for dag, scores in dev_tasks:
            total += scores[route(dag, cfg).topology]
        table[candidate] = total / len(dev_tasks)

    def rank(candidate: float) -> tuple[float, int, float]:
        return (table[candidate], 1 if candidate == DEFAULT_THETA_GAMMA else 0, candidate)

    chosen = max(grid, key=rank)
    return chosen, table
