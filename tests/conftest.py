import itertools
import random
import sys

import pytest

from topoflow import dag as dag_module
from topoflow.dag import Subtask, TaskDag


def make_dag(n, edges, *, weights=None, couplings=None, default_coupling=0.3):
    """Small-DAG helper: vertices v0..v{n-1}, edges as index pairs."""
    weights = weights or [1.0] * n
    vertices = tuple(
        Subtask(id=f"v{i}", description=f"subtask {i}", weight=weights[i]) for i in range(n)
    )
    named = tuple((f"v{u}", f"v{v}") for u, v in edges)
    if couplings is None:
        coupling = {e: default_coupling for e in named}
    else:
        coupling = {named[i]: c for i, c in enumerate(couplings)}
    return TaskDag(vertices=vertices, edges=named, coupling=coupling)


def adjacency(dag):
    """Successor lists read from ``dag.edges`` alone, not from the DAG's index."""
    adj = {v.id: [] for v in dag.vertices}
    for u, v in dag.edges:
        adj[u].append(v)
    return adj


def reachability(dag):
    """reach[u] = vertices strictly reachable from u, by repeated squaring-free DFS."""
    adj = adjacency(dag)
    reach = {}
    for start in adj:
        seen = set()
        stack = list(adj[start])
        while stack:
            node = stack.pop()
            if node not in seen:
                seen.add(node)
                stack.extend(adj[node])
        reach[start] = seen
    return reach


def brute_max_antichain(dag):
    """Maximum antichain size by enumerating all vertex subsets (|V| <= ~16)."""
    ids = list(dag.vertex_ids)
    reach = reachability(dag)
    best = 0
    for size in range(len(ids), best, -1):
        for subset in itertools.combinations(ids, size):
            ok = True
            for a, b in itertools.combinations(subset, 2):
                if b in reach[a] or a in reach[b]:
                    ok = False
                    break
            if ok:
                return size
    return 0 if not ids else 1


def brute_critical_depth(dag):
    """Maximum summed vertex weight over all directed paths, by enumeration."""
    weights = {v.id: v.weight for v in dag.vertices}
    adj = adjacency(dag)
    best = 0.0

    def walk(vid, total):
        nonlocal best
        total += weights[vid]
        best = max(best, total)
        for nxt in adj[vid]:
            walk(nxt, total)

    for vid in dag.vertex_ids:
        walk(vid, 0.0)
    return best


def brute_levels(dag):
    """Most vertices on any path ending at each vertex, by walking every path."""
    adj = adjacency(dag)
    best = {vid: 1 for vid in adj}

    def walk(vid, count):
        best[vid] = max(best[vid], count)
        for nxt in adj[vid]:
            walk(nxt, count + 1)

    for vid in adj:
        walk(vid, 1)
    return best


def random_small_dag(rng: random.Random, max_n=8):
    """Random acyclic digraph: forward edges over a shuffled vertex order."""
    n = rng.randint(1, max_n)
    order = list(range(n))
    rng.shuffle(order)
    edges = []
    p = rng.uniform(0.1, 0.6)
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                edges.append((order[i], order[j]))
    couplings = [rng.choice((0.0, 0.3, 0.7, 1.0)) for _ in edges]
    weights = [rng.uniform(1.0, 10.0) for _ in range(n)]
    return make_dag(n, edges, weights=weights, couplings=couplings)


@pytest.fixture
def diamond():
    # a -> {b, c} -> d, unit weights, weak coupling throughout
    return make_dag(4, [(0, 1), (0, 2), (1, 3), (2, 3)])


@pytest.fixture
def chain3():
    return make_dag(3, [(0, 1), (1, 2)], default_coupling=0.7)


@pytest.fixture
def isolated4():
    return make_dag(4, [])


@pytest.fixture
def validations(monkeypatch):
    """The DAGs passed to ``validate_dag``, patched in every topoflow module that binds it."""
    calls = []
    original = dag_module.validate_dag

    def counting(dag):
        calls.append(dag)
        return original(dag)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "topoflow" and getattr(module, "validate_dag", None) is original:
            monkeypatch.setattr(module, "validate_dag", counting)
    return calls
