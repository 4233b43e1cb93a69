"""Structural DAG metrics: parallelism width, critical-path depth, coupling density.

Every metric comes from one topological order (Kahn's algorithm).  A
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
it is maximum or |V| minus its size reaches L.
"""

from __future__ import annotations

import enum
from collections import Counter, deque
from dataclasses import dataclass
from typing import NamedTuple

from .dag import TaskDag, ValidationError, require_valid, validate_dag


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
    layers: tuple[frozenset[str], ...] = ()  # longest-path layers, sources first

    @property
    def width(self) -> int:
        return self.width_exact


class _TopoIndex(NamedTuple):
    """A DAG indexed by position in one topological order."""

    ids: list[str]  # vertex ids in topological order
    succ: list[list[int]]  # successors of each position, as positions
    level: list[int]  # longest-path layer of each position; sources are 1


def _topological_order(dag: TaskDag) -> list[str]:
    """Kahn's algorithm with sorted tie-breaking for determinism.

    Raises :class:`ValidationError` when a cycle leaves vertices unordered.
    """
    indeg = {v.id: 0 for v in dag.vertices}
    adj = dag.adjacency()
    for u, v in dag.edges:
        indeg[v] += 1
    ready = deque(sorted(vid for vid, d in indeg.items() if d == 0))
    order: list[str] = []
    while ready:
        vid = ready.popleft()
        order.append(vid)
        for nxt in sorted(adj[vid]):
            indeg[nxt] -= 1
            if indeg[nxt] == 0:
                ready.append(nxt)
    if len(order) < dag.vertex_count:
        raise ValidationError(validate_dag(dag))
    return order


def _index(dag: TaskDag) -> _TopoIndex:
    """Order the DAG once and index it by position in that order."""
    ids = _topological_order(dag)
    pos = {vid: i for i, vid in enumerate(ids)}
    succ: list[list[int]] = [[] for _ in ids]
    for u, v in dag.edges:
        succ[pos[u]].append(pos[v])
    level = [1] * len(ids)
    for i, out in enumerate(succ):
        for j in out:
            if level[j] <= level[i]:
                level[j] = level[i] + 1
    return _TopoIndex(ids, succ, level)


def _layers(index: _TopoIndex) -> list[set[str]]:
    layers: list[set[str]] = [set() for _ in range(max(index.level, default=0))]
    for vid, lv in zip(index.ids, index.level):
        layers[lv - 1].add(vid)
    return layers


def topological_layers(dag: TaskDag) -> list[set[str]]:
    """Partition vertices into antichain layers by longest-path depth.

    Layer of v = 1 + max layer over predecessors; sources sit in layer 1.
    Every edge crosses strictly forward, so each layer is an antichain.
    """
    require_valid(dag)
    return _layers(_index(dag))


def critical_path_depth(dag: TaskDag, index: _TopoIndex | None = None) -> float:
    """Maximum over directed paths of summed vertex weights (longest-path DP).

    ``index`` is the DAG's index when the caller has already built it.
    """
    index = _index(dag) if index is None else index
    weights = {v.id: v.weight for v in dag.vertices}
    before = [0.0] * len(index.ids)  # heaviest path ending at a predecessor
    best = 0.0
    for i, vid in enumerate(index.ids):
        total = weights[vid] + before[i]
        best = max(best, total)
        for j in index.succ[i]:
            if before[j] < total:
                before[j] = total
    return best


def width_exact(dag: TaskDag, index: _TopoIndex | None = None) -> int:
    """Maximum antichain size via Dilworth: |V| - maximum matching on the closure.

    ``index`` is the DAG's index when the caller has already built it.
    """
    index = _index(dag) if index is None else index
    n = len(index.ids)
    if n == 0:
        return 0
    lower = max(Counter(index.level).values())
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
    # gains one as others augment, so one pass is enough; and a right vertex
    # seen by a failed search cannot lie on an augmenting path until the
    # matching changes, so `seen` is cleared only after an augmentation.
    seen = 0
    for root in range(n):
        if n - matched == lower:
            break
        if match_l[root] >= 0:
            continue
        lefts, rights = [root], []
        while lefts:
            cand = reach[lefts[-1]] & ~seen
            if not cand:
                lefts.pop()
                if rights:
                    rights.pop()
                continue
            bit = cand & -cand
            seen |= bit
            v = bit.bit_length() - 1
            rights.append(v)
            if match_r[v] < 0:
                for u, w in zip(lefts, rights):
                    match_l[u], match_r[w] = w, u
                matched += 1
                seen = 0
                break
            lefts.append(match_r[v])
    return n - matched


def compute_metrics(dag: TaskDag, mode: WidthMode = WidthMode.EXACT) -> DagMetrics:
    """Compute all structural metrics; exact width only when mode is EXACT.

    The DAG is validated once and ordered once; layers, depth and width all
    come from that order.  Coupling density over zero edges is defined as 0.0
    (no coupling).  In APPROXIMATE mode ``width_exact`` is reported equal to
    the layer-width approximation and flagged via ``width_mode``.
    """
    require_valid(dag)
    index = _index(dag)
    layers = _layers(index)
    w_approx = max((len(layer) for layer in layers), default=0)
    if mode is WidthMode.EXACT:
        w_exact = width_exact(dag, index)
    else:
        w_exact = w_approx
    depth = critical_path_depth(dag, index)
    density = (
        sum(dag.coupling[e] for e in dag.edges) / dag.edge_count
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
        layers=tuple(frozenset(layer) for layer in layers),
    )
