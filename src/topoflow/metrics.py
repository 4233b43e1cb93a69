"""Structural DAG metrics: parallelism width, critical-path depth, coupling density.

Every metric reads the DAG's index (:attr:`TaskDag.index`): one validation
and one topological order (Kahn's algorithm), built on first use.  A
vertex's layer is its longest-path depth (Mirsky layering), and each layer
is an antichain.  The approximate width is the largest layer, in
O(|V| + |E|).

The exact width is the maximum antichain.  By Dilworth's theorem it is |V|
minus a maximum matching in the bipartite graph that joins each vertex u to
every vertex reachable from u (the transitive closure).  ``width_exact``
brackets it first:

* the largest layer is an antichain, so its size L is a lower bound;
* a greedy path cover along DAG edges, taken in topological order, is a
  matching on the closure, so |V| minus its size is an upper bound.

When the two meet, as on chains, stars and diamonds, that is the answer, in
O(|V| + |E|).  Otherwise the closure is built as Python-int bitsets in
reverse topological order, and the greedy matching grows by augmenting-path
searches (iterative, so depth is not bounded by the recursion limit) until
it is maximum or |V| minus its size reaches L.  The searches mask the
unseen and the free right vertices in non-negative ints, never complemented.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .dag import TaskDag


class WidthMode(enum.Enum):
    APPROXIMATE = "approximate"
    EXACT = "exact"


@dataclass(frozen=True)
class DagMetrics:
    width_exact: int
    width_approx: int
    depth: float
    coupling_density: float
    parallelism_ratio: float
    vertex_count: int
    edge_count: int
    width_mode: WidthMode = WidthMode.EXACT


def topological_layers(dag: TaskDag) -> list[set[str]]:
    """Partition vertices into antichain layers by longest-path depth.

    Layer of v = 1 + max layer over predecessors; sources sit in layer 1.
    Every edge crosses strictly forward, so each layer is an antichain.
    """
    return [set(layer) for layer in dag.index.layers]


def critical_path_depth(dag: TaskDag) -> float:
    """Maximum over directed paths of summed vertex weights (longest-path DP)."""
    index = dag.index
    before = [0.0] * len(index.order)  # heaviest path ending at a predecessor
    best = 0.0
    for i, vid in enumerate(index.order):
        total = index.subtasks[vid].weight + before[i]
        best = max(best, total)
        for j in index.succ[i]:
            if before[j] < total:
                before[j] = total
    return best


def width_exact(dag: TaskDag) -> int:
    """Maximum antichain size via Dilworth: |V| - maximum matching on the closure."""
    index = dag.index
    n = len(index.order)
    if n == 0:
        return 0
    lower = max(map(len, index.layers))
    # greedy path cover: each vertex extends its path to the first successor
    # that no path has entered yet; match_l[u] = v pairs u with a later v
    match_l = [-1] * n
    match_r = [-1] * n
    matched = 0
    for u, out in enumerate(index.succ):
        for v in out:
            if match_r[v] < 0:
                match_l[u], match_r[v] = v, u
                matched += 1
                break
    if n - matched == lower:
        return lower

    # bit v of reach[u] is set when position v is reachable from u
    reach = [0] * n
    for u in range(n - 1, -1, -1):
        r = 0
        for v in index.succ[u]:
            r |= reach[v] | (1 << v)
        reach[u] = r

    # Kuhn's algorithm, one search per unmatched vertex, with an explicit
    # stack of alternating paths.  A vertex with no augmenting path never
    # gains one as others augment, so one pass is enough.  A step ends the
    # path at a `free` (unmatched) right vertex if it reaches one, else it
    # descends through the lowest `unseen` one; so a failed search sees only
    # matched vertices, which cannot lie on an augmenting path until the
    # matching changes, and `unseen` is refilled only after an augmentation.
    full = (1 << n) - 1
    free = full ^ sum(1 << v for v in range(n) if match_r[v] >= 0)
    unseen = full
    for root in range(n):
        if n - matched == lower:
            break
        if match_l[root] >= 0:
            continue
        lefts, rights = [root], []
        while lefts:
            reached = reach[lefts[-1]]
            bit = reached & free
            if bit:
                bit &= -bit
                rights.append(bit.bit_length() - 1)
                for u, w in zip(lefts, rights):
                    match_l[u], match_r[w] = w, u
                free ^= bit
                matched += 1
                unseen = full
                break
            cand = reached & unseen
            if not cand:
                lefts.pop()
                if rights:
                    rights.pop()
                continue
            bit = cand & -cand
            unseen ^= bit
            v = bit.bit_length() - 1
            rights.append(v)
            lefts.append(match_r[v])
    return n - matched


def compute_metrics(dag: TaskDag, mode: WidthMode = WidthMode.EXACT) -> DagMetrics:
    """Compute all structural metrics; exact width only when mode is EXACT.

    Coupling density over zero edges is defined as 0.0 (no coupling).  In
    APPROXIMATE mode ``width_exact`` is reported equal to the layer-width
    approximation and flagged via ``width_mode``.
    """
    w_approx = max(map(len, dag.index.layers), default=0)
    if mode is WidthMode.EXACT:
        w_exact = width_exact(dag)
    else:
        w_exact = w_approx
    depth = critical_path_depth(dag)
    density = (
        sum(map(dag.coupling.__getitem__, dag.edges)) / dag.edge_count
        if dag.edge_count
        else 0.0
    )
    ratio = w_exact / dag.vertex_count if dag.vertex_count else 0.0
    return DagMetrics(
        width_exact=w_exact,
        width_approx=w_approx,
        depth=depth,
        coupling_density=density,
        parallelism_ratio=ratio,
        vertex_count=dag.vertex_count,
        edge_count=dag.edge_count,
        width_mode=mode,
    )
