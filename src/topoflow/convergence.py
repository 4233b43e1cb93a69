"""Scaling-law calculator and Monte-Carlo simulator.

The closed-form side evaluates the variance-ratio lower bound
(omega - 1)^2 * (1 - gamma)^2 / (4 * epsilon^2 * k) that compares
performance variance from topology choice against variance from model
choice in an epsilon-convergent pool.  The simulator checks the bound's
self-consistency under the modeled topology-quality sensitivity, and scores
the threshold router against an oracle that tries all four topologies.
"""

from __future__ import annotations

import random
import statistics
from dataclasses import dataclass, field

from .archetypes import DagArchetype, generate_archetype
from .dag import TaskDag
from .metrics import WidthMode, compute_metrics
from .routing import TOPOLOGY_ORDER, RouterConfig, TopologyKind, route

S_STAR = 0.9  # fixed quality anchor; the bound is location-invariant
DEFAULT_C_TAU = 0.5
ARBITRATION_PENALTY = 0.05
CONTEXT_LOSS_RATE = 0.02

SIM_METADATA = {
    "quality_model": "assumption_one",
    "sequential": "base",
    "parallel": "base + gap if gamma < 0.5 else base - gap, minus 0.02*gamma context-loss",
    "hybrid": "base + gap * (1 - depth / total_weight)",
    "hierarchical": "base + 0.5 * gap - 0.05 arbitration penalty",
    "gap": "c_tau * (omega - 1) * (1 - gamma)",
    "weights": "uniform (scaling-law hypothesis enforced in simulation)",
}


class BoundDiverges(Exception):
    """epsilon = 0: the variance ratio diverges (not a numeric overflow)."""


@dataclass(frozen=True)
class ConvergenceParams:
    epsilon: float
    omega: float
    gamma: float
    k: int
    c_tau: float = DEFAULT_C_TAU
    lipschitz: float = 1.0

    def __post_init__(self):
        if self.epsilon < 0:
            raise ValueError(f"epsilon {self.epsilon} must be >= 0")
        if self.omega < 1:
            raise ValueError(f"omega {self.omega} must be >= 1")
        if not (0.0 <= self.gamma <= 1.0):
            raise ValueError(f"gamma {self.gamma} out of [0, 1]")
        if self.k < 1:
            raise ValueError(f"k {self.k} must be a positive integer")
        if self.c_tau <= 0 or self.lipschitz <= 0:
            raise ValueError("c_tau and lipschitz must be positive")


def variance_ratio_bound(p: ConvergenceParams) -> float:
    """Lower bound on Var_topology / Var_model for an epsilon-convergent pool."""
    if p.epsilon == 0:
        raise BoundDiverges("variance ratio diverges as epsilon -> 0")
    return (p.omega - 1) ** 2 * (1 - p.gamma) ** 2 / (4 * p.epsilon**2 * p.k)


def model_variance_bound(epsilon: float) -> float:
    """Correlated bound on model-selection variance: epsilon squared."""
    if epsilon < 0:
        raise ValueError("epsilon must be >= 0")
    return epsilon**2


def topology_quality_gap(p: ConvergenceParams) -> float:
    """Modeled parallel-vs-sequential quality gap: c_tau * (omega-1) * (1-gamma)."""
    return p.c_tau * (p.omega - 1) * (1 - p.gamma)


def assumption_one_qualities(
    dag: TaskDag, *, c_tau: float = DEFAULT_C_TAU, base: float = S_STAR
) -> dict[TopologyKind, float]:
    """Per-topology quality under the modeled sensitivity.

    Sequential is the anchor.  Parallel gains the gap at low coupling and
    loses it at high coupling, with a small context-loss term so that chains
    with coupled edges prefer sequential execution.  Hybrid interpolates by
    stage structure; hierarchical pays a fixed arbitration penalty.  See
    ``SIM_METADATA`` for the declared formulas.
    """
    m = compute_metrics(dag, mode=WidthMode.EXACT)
    gap = c_tau * (m.width_exact - 1) * (1 - m.coupling_density)
    total = sum(v.weight for v in dag.vertices)
    stage_factor = 1 - (m.depth / total if total else 1.0)
    parallel = base + (gap if m.coupling_density < 0.5 else -gap)
    parallel -= CONTEXT_LOSS_RATE * m.coupling_density
    return {
        TopologyKind.SEQUENTIAL: base,
        TopologyKind.PARALLEL: parallel,
        TopologyKind.HYBRID: base + gap * stage_factor,
        TopologyKind.HIERARCHICAL: base + 0.5 * gap - ARBITRATION_PENALTY,
    }


class OracleError(Exception):
    """The per-topology quality oracle failed on some topology."""


def oracle_route(dag: TaskDag, evaluator) -> tuple[TopologyKind, dict[TopologyKind, float]]:
    """Exhaustively evaluate all four topologies and return the argmax.

    Ties break by the fixed order parallel < sequential < hierarchical < hybrid.
    """
    try:
        scores = evaluator(dag)
    except Exception as exc:
        raise OracleError(f"evaluator failed: {exc}") from exc
    missing = [k for k in TOPOLOGY_ORDER if k not in scores]
    if missing:
        raise OracleError(f"evaluator missing topologies: {[k.value for k in missing]}")
    best = max(TOPOLOGY_ORDER, key=lambda k: (scores[k], -TOPOLOGY_ORDER.index(k)))
    return best, {k: scores[k] for k in TOPOLOGY_ORDER}


@dataclass(frozen=True)
class ConfusionMatrix:
    counts: dict[TopologyKind, dict[TopologyKind, int]]
    accuracy: float

    @property
    def total(self) -> int:
        return sum(sum(row.values()) for row in self.counts.values())


def confusion_matrix(
    tasks: list[TaskDag], config: RouterConfig, evaluator
) -> ConfusionMatrix:
    """counts[router topology][oracle topology] over the task batch."""
    if not tasks:
        raise ValueError("tasks must be nonempty")
    counts = {r: {o: 0 for o in TOPOLOGY_ORDER} for r in TOPOLOGY_ORDER}
    agree = 0
    for dag in tasks:
        routed = route(dag, config).topology.kind
        oracle, _ = oracle_route(dag, evaluator)
        counts[routed][oracle] += 1
        if routed is oracle:
            agree += 1
    return ConfusionMatrix(counts=counts, accuracy=agree / len(tasks))


def format_confusion_matrix(cm: ConfusionMatrix) -> str:
    """Plain-text 4x4 table: router rows vs oracle columns."""
    headers = [k.value for k in TOPOLOGY_ORDER]
    width = max(len(h) for h in headers) + 2
    lines = ["router \\ oracle".ljust(16) + "".join(h.rjust(width) for h in headers)]
    for r in TOPOLOGY_ORDER:
        row = "".join(str(cm.counts[r][o]).rjust(width) for o in TOPOLOGY_ORDER)
        lines.append(r.value.ljust(16) + row)
    agree = sum(cm.counts[k][k] for k in TOPOLOGY_ORDER)
    lines.append(f"overall router accuracy: {cm.accuracy:.1%} ({agree}/{cm.total})")
    return "\n".join(lines)


@dataclass(frozen=True)
class SimConfig:
    archetype: DagArchetype
    epsilon: float
    trials: int = 1000
    pool_size: int = 5
    seed: int = 42

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.pool_size < 2:
            raise ValueError("pool_size must be >= 2 to estimate model variance")


@dataclass
class SimResult:
    var_model: float
    var_topology: float
    ratio: float
    bound: float
    mean_omega: float
    mean_gamma: float
    k: int
    trials: int
    epsilon: float
    rows: list[dict] = field(default_factory=list)
    metadata: dict = field(default_factory=lambda: dict(SIM_METADATA))

    def summary(self) -> dict:
        return {
            "var_model": self.var_model,
            "var_topology": self.var_topology,
            "ratio": self.ratio,
            "bound": self.bound,
            "mean_omega": self.mean_omega,
            "mean_gamma": self.mean_gamma,
            "k": self.k,
            "trials": self.trials,
            "epsilon": self.epsilon,
            "satisfies_bound": self.ratio >= self.bound,
            "metadata": self.metadata,
        }


def simulate_variance(cfg: SimConfig) -> SimResult:
    """Monte-Carlo check of the variance-ratio bound under the quality model.

    Each trial regenerates the archetype DAG (uniform weights, seeded
    couplings), draws pool scores uniformly from [S* - eps, S*], and measures
    the sample variance across model choices (fixed topology) against the
    sample variance across the four topologies (fixed model).
    """
    rows: list[dict] = []
    var_m_sum = var_t_sum = bound_sum = omega_sum = gamma_sum = 0.0
    for t in range(cfg.trials):
        dag_seed = cfg.seed * 1_000_003 + t
        dag = generate_archetype(
            DagArchetype(cfg.archetype.kind, cfg.archetype.size, seed=dag_seed),
            uniform_weights=True,
        )
        m = compute_metrics(dag, mode=WidthMode.EXACT)
        rng = random.Random(dag_seed ^ 0x5EED5C0E)
        scores = [S_STAR - cfg.epsilon * rng.random() for _ in range(cfg.pool_size)]
        var_m = statistics.variance(scores)
        quals = assumption_one_qualities(dag, base=scores[0])
        var_t = statistics.variance(quals.values())
        try:
            bound = variance_ratio_bound(
                ConvergenceParams(
                    epsilon=cfg.epsilon,
                    omega=m.width_exact,
                    gamma=m.coupling_density,
                    k=m.vertex_count,
                )
            )
        except BoundDiverges:
            bound = float("inf")
        var_m_sum += var_m
        var_t_sum += var_t
        bound_sum += bound
        omega_sum += m.width_exact
        gamma_sum += m.coupling_density
        rows.append(
            {
                "trial": t,
                "omega": m.width_exact,
                "gamma": round(m.coupling_density, 6),
                "var_model": var_m,
                "var_topology": var_t,
                "ratio": var_t / var_m if var_m else float("inf"),
                "bound": bound,
            }
        )
    n = cfg.trials
    var_m_mean = var_m_sum / n
    var_t_mean = var_t_sum / n
    return SimResult(
        var_model=var_m_mean,
        var_topology=var_t_mean,
        ratio=var_t_mean / var_m_mean if var_m_mean else float("inf"),
        bound=bound_sum / n,
        mean_omega=omega_sum / n,
        mean_gamma=gamma_sum / n,
        k=cfg.archetype.size,
        trials=n,
        epsilon=cfg.epsilon,
        rows=rows,
    )


def make_calibration_corpus(
    n: int, seed: int = 42, *, size_range: tuple[int, int] = (4, 10)
) -> list[tuple[TaskDag, dict[TopologyKind, float]]]:
    """Mixed-archetype dev corpus with assumption-one per-topology scores."""
    from .archetypes import ArchetypeKind

    kinds = list(ArchetypeKind)
    rng = random.Random(seed)
    corpus = []
    for i in range(n):
        kind = kinds[i % len(kinds)]
        lo, hi = size_range
        size = max(3, rng.randint(lo, hi))
        dag = generate_archetype(DagArchetype(kind, size, seed=seed * 7919 + i))
        corpus.append((dag, assumption_one_qualities(dag)))
    return corpus
