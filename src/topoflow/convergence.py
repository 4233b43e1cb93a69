"""Scaling-law calculator and Monte-Carlo simulator.

The closed-form side evaluates the variance-ratio lower bound
(omega - 1)^2 * (1 - gamma)^2 / (4 * epsilon^2 * k) that compares
performance variance from topology choice against variance from model
choice in an epsilon-convergent pool.  The simulator checks the bound's
self-consistency under the modeled topology-quality sensitivity, and scores
the threshold router against an oracle that tries all four topologies.
"""

from __future__ import annotations

import math
import random
import statistics
from dataclasses import dataclass, field, replace
from fractions import Fraction

from .archetypes import ArchetypeKind, DagArchetype, draw_couplings, generate_archetype
from .dag import TaskDag
from .metrics import DagMetrics, WidthMode, compute_metrics
from .routing import TOPOLOGY_ORDER, RouterConfig, TopologyKind, route
from .runlog import record_of

S_STAR = 0.9  # fixed quality anchor; the bound is location-invariant
DEFAULT_C_TAU = 0.5
ARBITRATION_PENALTY = 0.05
CONTEXT_LOSS_RATE = 0.02
POOL_SIZE = 5  # models per simulated pool; two or more estimate a variance

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

    def __post_init__(self):
        # a NaN passes any `x < bound` test, so each check is written to fail it
        if not (math.isfinite(self.epsilon) and self.epsilon >= 0):
            raise ValueError(f"epsilon {self.epsilon} must be finite and >= 0")
        if not (math.isfinite(self.omega) and self.omega >= 1):
            raise ValueError(f"omega {self.omega} must be finite and >= 1")
        if not (0.0 <= self.gamma <= 1.0):
            raise ValueError(f"gamma {self.gamma} out of [0, 1]")
        if self.k < 1:
            raise ValueError(f"k {self.k} must be a positive integer")


def variance_ratio_bound(p: ConvergenceParams) -> float:
    """Lower bound on Var_topology / Var_model for an epsilon-convergent pool.

    It is the squared quality gap c_tau * (omega-1) * (1-gamma) over
    epsilon^2 * k, with c_tau at the quality model's ``DEFAULT_C_TAU`` of 1/2:
    the 4 is 1 / c_tau^2, so the bound takes no c_tau.
    """
    if p.epsilon == 0:
        raise BoundDiverges("variance ratio diverges as epsilon -> 0")
    return _ratio_bound(p.epsilon, p.omega, p.gamma, p.k)


def _ratio_bound(epsilon: float, omega: float, gamma: float, k: int) -> float:
    """The bound's arithmetic for a nonzero ``epsilon``."""
    try:
        return (omega - 1) ** 2 * (1 - gamma) ** 2 / (4 * epsilon**2 * k)
    except (OverflowError, ZeroDivisionError):
        # a square left the float range: round the exact value once, and a
        # bound beyond the largest float is infinite
        exact = Fraction(omega - 1) ** 2 * Fraction(1 - gamma) ** 2 / (4 * Fraction(epsilon) ** 2 * k)
        try:
            return float(exact)
        except OverflowError:
            return math.inf


def model_variance_bound(epsilon: float) -> float:
    """Correlated bound on model-selection variance: epsilon squared."""
    if epsilon < 0:
        raise ValueError("epsilon must be >= 0")
    return epsilon**2


def assumption_one_qualities(
    dag: TaskDag, *, base: float = S_STAR, metrics: DagMetrics | None = None
) -> dict[TopologyKind, float]:
    """Per-topology quality under the modeled sensitivity.

    Sequential is the anchor.  Parallel gains the gap at low coupling and
    loses it at high coupling, with a small context-loss term so that chains
    with coupled edges prefer sequential execution.  Hybrid interpolates by
    stage structure; hierarchical pays a fixed arbitration penalty.  See
    ``SIM_METADATA`` for the declared formulas, with c_tau at
    ``DEFAULT_C_TAU``.  ``metrics`` is the DAG's exact-width
    :func:`compute_metrics` when the caller has it.
    """
    m = compute_metrics(dag, mode=WidthMode.EXACT) if metrics is None else metrics
    sequential, parallel, hybrid, hierarchical = _qualities(
        base, m.width_exact, m.coupling_density, _stage_factor(m.depth, dag)
    )
    return {
        TopologyKind.SEQUENTIAL: sequential,
        TopologyKind.PARALLEL: parallel,
        TopologyKind.HYBRID: hybrid,
        TopologyKind.HIERARCHICAL: hierarchical,
    }


def _stage_factor(depth: float, dag: TaskDag) -> float:
    """Hybrid's share of the gap: 1 - depth / total vertex weight."""
    total = sum(v.weight for v in dag.vertices)
    return 1 - (depth / total if total else 1.0)


def _qualities(base: float, omega: float, gamma: float, stage_factor: float) -> tuple[float, float, float, float]:
    """The sequential, parallel, hybrid and hierarchical qualities."""
    gap = DEFAULT_C_TAU * (omega - 1) * (1 - gamma)
    parallel = base + (gap if gamma < 0.5 else -gap)
    parallel -= CONTEXT_LOSS_RATE * gamma
    return base, parallel, base + gap * stage_factor, base + 0.5 * gap - ARBITRATION_PENALTY


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


def tally_confusion(pairs: list[tuple[TopologyKind, TopologyKind]]) -> ConfusionMatrix:
    """counts[router topology][oracle topology] over (router, oracle) pairs."""
    counts = {r: {o: 0 for o in TOPOLOGY_ORDER} for r in TOPOLOGY_ORDER}
    for routed, oracle in pairs:
        counts[routed][oracle] += 1
    agree = sum(routed is oracle for routed, oracle in pairs)
    return ConfusionMatrix(counts=counts, accuracy=agree / len(pairs))


def confusion_matrix(
    tasks: list[TaskDag], config: RouterConfig, evaluator
) -> ConfusionMatrix:
    """counts[router topology][oracle topology] over the task batch."""
    if not tasks:
        raise ValueError("tasks must be nonempty")
    return tally_confusion(
        [(route(dag, config).topology, oracle_route(dag, evaluator)[0]) for dag in tasks]
    )


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
    """Each trial's DAG has ``archetype``'s kind and size and is seeded from
    ``seed`` and the trial number, so ``archetype.seed`` is not read."""

    archetype: DagArchetype
    epsilon: float
    trials: int = 1000
    seed: int = 42

    def __post_init__(self):
        if not (math.isfinite(self.epsilon) and self.epsilon >= 0):
            raise ValueError(f"epsilon {self.epsilon} must be finite and >= 0")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")


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
        return {**record_of(self, "rows"), "satisfies_bound": self.ratio >= self.bound}


def _variance(values: list[float]) -> float:
    """``statistics.variance`` of floats, the same float, in Python ints.

    A finite float is an integer over a power of two, so scaled to the
    largest denominator every value is an integer a; with S = sum(a) and
    Q = sum(a*a) the exact variance is (n*Q - S*S) / (n*(n-1)*den*den).
    One int/int true division rounds it correctly, as ``statistics`` rounds
    its exact ``Fraction``, and overflows the same way.  Fewer than two
    values, or a non-finite one, go to ``statistics.variance`` itself.
    """
    n = len(values)
    if n < 2 or not all(map(math.isfinite, values)):
        return statistics.variance(values)
    ratios = [x.as_integer_ratio() for x in values]
    den = max(d for _, d in ratios)
    nums = [a * (den // d) for a, d in ratios]
    s = sum(nums)
    q = sum(a * a for a in nums)
    return (n * q - s * s) / (n * (n - 1) * den * den)


def simulate_variance(cfg: SimConfig) -> SimResult:
    """Monte-Carlo check of the variance-ratio bound under the quality model.

    The archetype's shape, with uniform weights, its exact metrics and
    everything that depends only on them are computed once: only the edge
    couplings differ between trials.  Each trial draws its couplings with
    the seed and the calls that building its whole DAG would make, draws
    pool scores uniformly from [S* - eps, S*], and measures the sample
    variance across model choices (fixed topology) against the sample
    variance across the four topologies (fixed model).
    """
    shape = generate_archetype(replace(cfg.archetype, seed=cfg.seed * 1_000_003), uniform_weights=True)
    metrics = compute_metrics(shape, mode=WidthMode.EXACT)
    epsilon, omega, k = cfg.epsilon, metrics.width_exact, metrics.vertex_count
    stage_factor = _stage_factor(metrics.depth, shape)
    rows: list[dict] = []
    var_m_sum = var_t_sum = bound_sum = omega_sum = gamma_sum = 0.0
    couple_rng, rng = random.Random(), random.Random()  # seed(x) gives Random(x)'s state
    for t in range(cfg.trials):
        dag_seed = cfg.seed * 1_000_003 + t
        couple_rng.seed(dag_seed)
        # the same left-to-right sum as compute_metrics gives the same density
        values = draw_couplings(couple_rng, shape.edge_count)
        gamma = sum(values) / len(values) if values else 0.0
        rng.seed(dag_seed ^ 0x5EED5C0E)
        scores = [S_STAR - epsilon * rng.random() for _ in range(POOL_SIZE)]
        var_m = _variance(scores)
        var_t = _variance(list(_qualities(scores[0], omega, gamma, stage_factor)))
        bound = _ratio_bound(epsilon, omega, gamma, k) if epsilon else math.inf  # 0 diverges
        var_m_sum += var_m
        var_t_sum += var_t
        bound_sum += bound
        omega_sum += omega
        gamma_sum += gamma
        rows.append(
            {
                "trial": t,
                "omega": omega,
                "gamma": round(gamma, 6),
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


def make_calibration_corpus(n: int, seed: int = 42) -> list[tuple[TaskDag, dict[TopologyKind, float]]]:
    """Mixed-archetype dev corpus with assumption-one per-topology scores."""
    kinds = list(ArchetypeKind)
    rng = random.Random(seed)
    corpus = []
    for i in range(n):
        kind = kinds[i % len(kinds)]
        dag = generate_archetype(DagArchetype(kind, rng.randint(4, 10), seed=seed * 7919 + i))
        corpus.append((dag, assumption_one_qualities(dag)))
    return corpus
