"""The package namespace: ``from topoflow import X`` loads X's module on demand."""

import importlib

import pytest

import topoflow

# every name that ``topoflow`` exported when its ``__init__`` imported each
# module eagerly, by the module that defines it
EXPORTED = {
    "accounting": ["CostLedger", "Phase", "PricingTable", "RunReport", "topology_distribution"],
    "archetypes": ["ArchetypeKind", "DagArchetype", "generate_archetype"],
    "backends": ["AgentBackend", "AgentOutput", "BackendError", "HttpChatBackend", "MockBackend", "ScriptedBackend"],
    "convergence": [
        "BoundDiverges", "ConfusionMatrix", "ConvergenceParams", "SimConfig", "assumption_one_qualities",
        "confusion_matrix", "model_variance_bound", "oracle_route", "simulate_variance", "variance_ratio_bound",
    ],
    "dag": [
        "CouplingLabel", "ParseError", "Subtask", "TaskDag", "ValidationError", "ValidationReport",
        "deserialize_dag", "load_dag", "parse_decomposition", "serialize_dag", "validate_dag",
    ],
    "execution": [
        "ExecutionEngine", "ExecutionFailure", "ExecutionPlan", "ExecutionTrace", "TaskRun", "assign_agents",
        "make_plan", "merge_context", "run_task",
    ],
    "metrics": ["DagMetrics", "WidthMode", "compute_metrics", "topological_layers"],
    "routing": [
        "FiredRule", "RouterConfig", "RoutingDecision", "TopologyKind", "calibrate_gamma", "route", "split_dev_test",
    ],
    "synthesis": [
        "Embedder", "FixtureEmbedder", "HashedEmbedder", "SynthesisConfig", "SynthesisResult",
        "consistency_of_candidate", "consistency_score", "synthesize",
    ],
}
NAMES = [(module, name) for module, names in EXPORTED.items() for name in names]


def test_the_pinned_list_is_whole():
    assert len(NAMES) == len({name for _, name in NAMES}) == 63


@pytest.mark.parametrize("module, name", NAMES, ids=[name for _, name in NAMES])
def test_each_name_is_its_modules_object(module, name):
    namespace = {}
    exec(f"from topoflow import {name}", namespace)
    assert namespace[name] is getattr(importlib.import_module(f"topoflow.{module}"), name)


def test_dir_lists_every_name():
    assert {name for _, name in NAMES} <= set(dir(topoflow))
    assert "__version__" in dir(topoflow)


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        topoflow.no_such_name
    with pytest.raises(ImportError):
        exec("from topoflow import no_such_name", {})

