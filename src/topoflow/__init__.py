"""Task-adaptive multi-agent orchestration over dependency DAGs.

Decompose a task into a DAG, measure its structure (parallelism width,
critical-path depth, coupling density), route it to one of four execution
topologies, run it over pluggable agent backends, synthesize the outputs
with bounded adaptive re-routing, and account for every token spent.

``import topoflow`` loads none of the submodules: each public name below is
looked up in its submodule on first use (PEP 562), so a process pays only
for the layers it runs.
"""

import importlib

__version__ = "0.1.0"

# every public name, by the module that defines it
_EXPORTS = {
    "accounting": ("CostLedger", "Phase", "PricingTable", "RunReport", "topology_distribution"),
    "archetypes": ("ArchetypeKind", "DagArchetype", "generate_archetype"),
    "backends": ("AgentBackend", "AgentOutput", "BackendError", "HttpChatBackend", "MockBackend", "ScriptedBackend"),
    "convergence": (
        "BoundDiverges", "ConfusionMatrix", "ConvergenceParams", "SimConfig", "assumption_one_qualities",
        "confusion_matrix", "model_variance_bound", "oracle_route", "simulate_variance", "variance_ratio_bound",
    ),
    "dag": (
        "CouplingLabel", "ParseError", "Subtask", "TaskDag", "ValidationError", "ValidationReport",
        "deserialize_dag", "load_dag", "parse_decomposition", "serialize_dag", "validate_dag",
    ),
    "execution": (
        "ExecutionEngine", "ExecutionFailure", "ExecutionPlan", "ExecutionTrace", "TaskRun", "assign_agents",
        "make_plan", "merge_context", "run_task",
    ),
    "metrics": ("DagMetrics", "WidthMode", "compute_metrics", "topological_layers"),
    "routing": (
        "FiredRule", "RouterConfig", "RoutingDecision", "TopologyKind", "calibrate_gamma", "route", "split_dev_test",
    ),
    "synthesis": (
        "Embedder", "FixtureEmbedder", "HashedEmbedder", "SynthesisConfig", "SynthesisResult",
        "consistency_of_candidate", "consistency_score", "synthesize",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)


def __dir__():
    return sorted({*globals(), *_MODULE_OF})
