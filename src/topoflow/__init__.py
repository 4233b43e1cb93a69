"""Task-adaptive multi-agent orchestration over dependency DAGs.

Decompose a task into a DAG, measure its structure (parallelism width,
critical-path depth, coupling density), route it to one of four execution
topologies, run it over pluggable agent backends, synthesize the outputs
with bounded adaptive re-routing, and account for every token spent.
"""

from .accounting import CostLedger, Phase, PricingTable, RunReport, topology_distribution
from .archetypes import ArchetypeKind, DagArchetype, generate_archetype
from .backends import AgentBackend, AgentOutput, BackendError, HttpChatBackend, MockBackend, ScriptedBackend
from .convergence import (
    BoundDiverges,
    ConfusionMatrix,
    ConvergenceParams,
    SimConfig,
    assumption_one_qualities,
    confusion_matrix,
    model_variance_bound,
    oracle_route,
    simulate_variance,
    variance_ratio_bound,
)
from .dag import (
    CouplingLabel,
    ParseError,
    Subtask,
    TaskDag,
    ValidationError,
    ValidationReport,
    deserialize_dag,
    load_dag,
    parse_decomposition,
    serialize_dag,
    validate_dag,
)
from .execution import (
    ExecutionEngine,
    ExecutionFailure,
    ExecutionPlan,
    ExecutionTrace,
    TaskRun,
    assign_agents,
    make_plan,
    merge_context,
    run_task,
)
from .metrics import DagMetrics, WidthMode, compute_metrics, topological_layers
from .routing import (
    FiredRule,
    RouterConfig,
    RoutingDecision,
    TopologyKind,
    calibrate_gamma,
    route,
    split_dev_test,
)
from .synthesis import (
    Embedder,
    FixtureEmbedder,
    HashedEmbedder,
    SynthesisConfig,
    SynthesisResult,
    consistency_of_candidate,
    consistency_score,
    synthesize,
)

__version__ = "0.1.0"
