"""Expected values for the benchmark's correctness checks, computed without
topoflow: networkx for layers and Dilworth width, a plain longest-path DP
for depth, a straight-line transcription of the routing rules, and exact
integer arithmetic for ledger cost.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction

# Router thresholds the benchmark writes into every router config it passes
# to topoflow; the transcription below uses the same numbers.
THETA_OMEGA = 0.5
THETA_GAMMA = 0.6
THETA_DELTA = 5

PICO_PER_MICRO = 10**6


def _digraph(vertices: list[str], edges: list[tuple[str, str]]):
    import networkx as nx

    g = nx.DiGraph()
    g.add_nodes_from(vertices)
    g.add_edges_from(edges)
    return g


def layer_width(vertices: list[str], edges: list[tuple[str, str]]) -> int:
    """Largest longest-path layer (networkx topological generations)."""
    import networkx as nx

    return max((len(gen) for gen in nx.topological_generations(_digraph(vertices, edges))), default=0)


def dilworth_width(vertices: list[str], edges: list[tuple[str, str]]) -> int:
    """Maximum antichain: |V| minus a maximum matching on the closure."""
    import networkx as nx

    g = _digraph(vertices, edges)
    closure = nx.transitive_closure_dag(g)
    left = [("L", v) for v in g]
    b = nx.Graph()
    b.add_nodes_from(left)
    b.add_nodes_from(("R", v) for v in g)
    b.add_edges_from((("L", u), ("R", v)) for u, v in closure.edges())
    matching = nx.bipartite.hopcroft_karp_matching(b, top_nodes=left)
    return len(vertices) - len(matching) // 2


def critical_depth(weights: dict[str, float], edges: list[tuple[str, str]]) -> float:
    """Heaviest path by summed vertex weight."""
    preds: dict[str, list[str]] = {v: [] for v in weights}
    succs: dict[str, list[str]] = {v: [] for v in weights}
    indeg = {v: 0 for v in weights}
    for u, v in edges:
        preds[v].append(u)
        succs[u].append(v)
        indeg[v] += 1
    ready = [v for v, d in indeg.items() if d == 0]
    best: dict[str, float] = {}
    while ready:
        v = ready.pop()
        best[v] = weights[v] + max((best[p] for p in preds[v]), default=0.0)
        for s in succs[v]:
            indeg[s] -= 1
            if indeg[s] == 0:
                ready.append(s)
    return max(best.values(), default=0.0)


def expected_route(n: int, m: int, width: int, gamma: float) -> tuple[str, str]:
    """Routing rules written out in branch order: (topology, fired rule)."""
    if m == 0:
        return "parallel", "empty_edge_set"
    if width == 1:
        return "sequential", "width_one"
    if gamma > THETA_GAMMA and n > THETA_DELTA:
        return "hierarchical", "high_coupling_many_subtasks"
    if width / n > THETA_OMEGA and gamma <= THETA_GAMMA:
        return "parallel", "wide_low_coupling"
    return "hybrid", "hybrid_default"


def router_config(width_mode: str) -> dict:
    return {
        "theta_omega": THETA_OMEGA,
        "theta_gamma": THETA_GAMMA,
        "theta_delta": THETA_DELTA,
        "width_mode": width_mode,
    }


def ledger_cost_micro(entries: list[dict], pricing: dict) -> int:
    """Ledger cost in micro-dollars from the benchmark's own pricing rows.

    Rows key on the model, the part of the backend identity after the last
    ``:``; a rate in dollars per 1M tokens equals picodollars per token
    times 10^-6, so micro-dollars-per-1M is picodollars per token.
    """
    pico = 0
    for e in entries:
        row = pricing["rates"][e["backend"].rsplit(":", 1)[-1]]
        pico += e["prompt_tokens"] * int(Decimal(row["input_per_1m"]) * PICO_PER_MICRO)
        pico += e["completion_tokens"] * int(Decimal(row["output_per_1m"]) * PICO_PER_MICRO)
    return round(Fraction(pico, PICO_PER_MICRO))


def variance_bound(eps: float, omega: float, gamma: float, k: int) -> float:
    return (omega - 1) ** 2 * (1 - gamma) ** 2 / (4 * eps**2 * k)
